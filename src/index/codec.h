#ifndef KADOP_INDEX_CODEC_H_
#define KADOP_INDEX_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "index/posting.h"

namespace kadop::index::codec {

/// Group-delta + varint codec for sorted posting lists (docs/wire_format.md).
/// Every simulated posting transfer and store charge is sized in raw
/// 18-byte records (`RawBytes`), the paper's unit; this codec is a library
/// with no wire caller, timed by micro_benchmarks and perfbench's replay.
///
/// Lists are kept in clustered (peer, doc, sid) order, which makes them
/// near-ideal delta-coding input: consecutive postings usually share the
/// (peer, doc) prefix, and sid starts are non-decreasing within a
/// (peer, doc) run. The encoded stream is
///
///   varint(count)
///   run*:  varint(dpeer) varint(ddoc) varint(run_len)
///          posting*: varint(dstart) varint(end - start) varint(level)
///
/// where `dpeer` is the peer delta against the previous run (absolute for
/// the first run), `ddoc` is the doc delta when the peer is unchanged and
/// the absolute doc id otherwise, and `dstart` restarts at the absolute
/// sid start on each new run. Every varint is LEB128 (7 bits per byte).
///
/// Encoding requires `IsSortedPostingList(list)` and `sid.end >= sid.start`
/// for every posting — the invariants every stored list already satisfies.
/// Duplicates encode as zero deltas; the codec never deduplicates.

/// LEB128 length of `v` (1..10 bytes).
[[nodiscard]] size_t VarintLen(uint64_t v);

/// Serializes `list` (sorted; see above). The buffer round-trips through
/// `DecodePostings` and its size always equals `EncodedBytes(list)`.
[[nodiscard]] std::vector<uint8_t> EncodePostings(const PostingList& list);

/// Inverse of `EncodePostings`. Fails with `kCorruption` on truncated or
/// malformed input instead of crashing; `out` is cleared first and holds
/// the full decoded list only on OK.
[[nodiscard]] Status DecodePostings(const uint8_t* data, size_t size,
                                    PostingList* out);
[[nodiscard]] Status DecodePostings(const std::vector<uint8_t>& buffer,
                                    PostingList* out);

/// Exact size of `EncodePostings(list)` without materializing the buffer.
[[nodiscard]] size_t EncodedBytes(const PostingList& list);

/// Raw (fixed 18-byte record) sizes: the one framing every posting payload,
/// store charge and planner estimate uses. The only sanctioned home for
/// `* Posting::kWireBytes` arithmetic outside this library is
/// `PostingListBytes` itself (lint rule KDP010).
[[nodiscard]] constexpr size_t RawBytes(size_t count) {
  return count * Posting::kWireBytes;
}
[[nodiscard]] inline size_t RawBytes(const PostingList& list) {
  return RawBytes(list.size());
}

}  // namespace kadop::index::codec

#endif  // KADOP_INDEX_CODEC_H_
