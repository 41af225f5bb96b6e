#ifndef KADOP_INDEX_CODEC_H_
#define KADOP_INDEX_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "index/posting.h"

namespace kadop::index::codec {

/// Group-delta + varint codec for sorted posting lists (docs/wire_format.md).
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

/// Process-wide A/B switch (shell `codec on|off`, bench knobs). When off —
/// the default — every size function below reports raw 18-byte records, so
/// seeded baselines are unchanged. Query-side transfers can override the
/// switch per query via `QueryOptions::compress`.
void SetCompressionEnabled(bool on);
[[nodiscard]] bool CompressionEnabled();

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

/// Exact size of `EncodePostings(list)` without materializing the buffer —
/// the size model used for every network/store cost charge, so the
/// simulator never allocates encode buffers on hot paths.
[[nodiscard]] size_t EncodedBytes(const PostingList& list);

/// Encoded size of a single posting as a standalone one-element stream —
/// the amortized append charge (appends re-encode only the appended run,
/// never the whole stored list).
[[nodiscard]] size_t EncodedSingleBytes(const Posting& posting);

/// Raw (fixed 18-byte record) sizes. The only sanctioned home for
/// `* Posting::kWireBytes` arithmetic outside this library is
/// `PostingListBytes` itself (lint rule KDP010).
[[nodiscard]] constexpr size_t RawBytes(size_t count) {
  return count * Posting::kWireBytes;
}
[[nodiscard]] inline size_t RawBytes(const PostingList& list) {
  return RawBytes(list.size());
}

/// Wire size of a posting payload: encoded when `compressed`, raw records
/// otherwise. Records the achieved ratio in `codec.{raw,encoded}_bytes`.
[[nodiscard]] size_t WireBytes(const PostingList& list, bool compressed);

/// `WireBytes` with a caller-owned memo so a payload's size is computed
/// (and its compression ratio counted) once per list length even though
/// the network model calls `SizeBytes()` on every hop. The memo
/// revalidates against the list length, so a payload built incrementally
/// (postings appended between sizings) is re-sized instead of served
/// stale; in-place edits that keep the length are not detected — payload
/// postings must only be appended, never rewritten.
struct WireSizeMemo {
  size_t count = std::numeric_limits<size_t>::max();
  size_t bytes = 0;
};
[[nodiscard]] size_t MemoizedWireBytes(const PostingList& list,
                                       bool compressed, WireSizeMemo* memo);

/// Stored size of posting data in a peer store, honoring the process-wide
/// switch: B+-tree leaves hold delta blocks when compression is on.
[[nodiscard]] size_t StoredBytes(const PostingList& list);
[[nodiscard]] size_t StoredPostingBytes(const Posting& posting);

/// Per-posting byte estimate for the query planner's transfer-cost model:
/// `Posting::kWireBytes` raw, or a fixed documented estimate when the
/// transfer will be delta-coded (docs/wire_format.md#planner).
[[nodiscard]] double EstimatedWirePostingBytes(bool compressed);

/// Record an achieved raw -> encoded ratio in the codec counters (used by
/// sites that model an encode without materializing it).
void RecordEncode(size_t raw_bytes, size_t encoded_bytes);

}  // namespace kadop::index::codec

#endif  // KADOP_INDEX_CODEC_H_
