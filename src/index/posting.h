#ifndef KADOP_INDEX_POSTING_H_
#define KADOP_INDEX_POSTING_H_

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "xml/sid.h"

namespace kadop::index {

/// Internal peer identifier (dense integer, also the sim NodeIndex).
using PeerId = uint32_t;
/// Document identifier within a peer.
using DocSeq = uint32_t;

/// Identifier of a document in the collection: (peer, doc).
struct DocId {
  PeerId peer = 0;
  DocSeq doc = 0;

  friend std::strong_ordering operator<=>(const DocId&, const DocId&) =
      default;

  std::string ToString() const {
    return "(" + std::to_string(peer) + "," + std::to_string(doc) + ")";
  }
};

/// One tuple of the Term relation: term t occurs at element
/// (peer, doc, sid) — as its label, or as a word contained in it.
///
/// Header-only and layering-wise *below* the store and DHT libraries: the
/// local stores are specialized to posting payloads, exactly as the paper
/// re-engineered its DHT around a posting-oriented BerkeleyDB store.
struct Posting {
  PeerId peer = 0;
  DocSeq doc = 0;
  xml::StructuralId sid;

  [[nodiscard]] DocId doc_id() const { return DocId{peer, doc}; }

  /// Lexicographic order by (peer, doc, sid) — the clustered order of the
  /// Term relation and the order all posting lists are kept in.
  friend std::strong_ordering operator<=>(const Posting&, const Posting&) =
      default;

  /// Wire/disk footprint: peer(4) + doc(4) + start(4) + end(4) + level(2).
  static constexpr size_t kWireBytes = 18;

  std::string ToString() const {
    return "[" + std::to_string(peer) + "," + std::to_string(doc) + "," +
           sid.ToString() + "]";
  }
};

/// Smallest and largest representable postings (used as range sentinels).
inline constexpr Posting kMinPosting{0, 0, {0, 0, 0}};
inline constexpr Posting kMaxPosting{UINT32_MAX,
                                     UINT32_MAX,
                                     {UINT32_MAX, UINT32_MAX, UINT16_MAX}};

/// An ordered list of postings for one term.
using PostingList = std::vector<Posting>;

/// Wire size of a posting list.
[[nodiscard]] inline size_t PostingListBytes(const PostingList& list) {
  return list.size() * Posting::kWireBytes;
}

/// True if `list` is sorted in the canonical (peer, doc, sid) order.
[[nodiscard]] inline bool IsSortedPostingList(const PostingList& list) {
  for (size_t i = 1; i < list.size(); ++i) {
    if (list[i] < list[i - 1]) return false;
  }
  return true;
}

/// Distinct union of `lists` in canonical order: concatenates them, then
/// keeps one copy of each run of exact duplicates (within and across
/// lists). Sorted lists are merged run by run in linear time — a list that
/// starts after everything before it (disjoint pulls of ordered DPP
/// blocks, arriving in order) needs no merge at all; only an unsorted
/// input makes the concatenation be sorted whole.
[[nodiscard]] inline PostingList MergeDistinct(std::vector<PostingList> lists) {
  PostingList merged;
  if (lists.empty()) return merged;
  size_t total = 0;
  for (const PostingList& l : lists) total += l.size();
  merged = std::move(lists.front());
  merged.reserve(total);
  bool sorted = IsSortedPostingList(merged);
  for (size_t i = 1; i < lists.size(); ++i) {
    const size_t mid = merged.size();
    merged.insert(merged.end(), lists[i].begin(), lists[i].end());
    sorted = sorted && IsSortedPostingList(lists[i]);
    if (sorted && mid > 0 && mid < merged.size() &&
        merged[mid] < merged[mid - 1]) {
      std::inplace_merge(merged.begin(),
                         merged.begin() + static_cast<std::ptrdiff_t>(mid),
                         merged.end());
    }
  }
  if (!sorted) std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

}  // namespace kadop::index

#endif  // KADOP_INDEX_POSTING_H_
