#ifndef KADOP_QUERY_TWIG_JOIN_H_
#define KADOP_QUERY_TWIG_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "index/posting.h"
#include "query/tree_pattern.h"

namespace kadop::query {

/// One index-query answer: the document plus one element (sid) per pattern
/// node, in pattern-node order.
struct Answer {
  index::DocId doc;
  std::vector<xml::StructuralId> elements;

  friend bool operator==(const Answer&, const Answer&) = default;
};

namespace internal {

/// Semi-join pruning of one document's per-node candidate lists along the
/// pattern edges (bottom-up then top-down). Returns false if some node has
/// no surviving candidate (no match in this document).
[[nodiscard]] bool PruneCandidates(const TreePattern& pattern,
                     std::vector<index::PostingList>& candidates);

/// Enumerates all consistent assignments over (pruned) candidates and
/// appends them to `answers`, up to `max_answers` total. Returns the
/// number of answers added.
size_t EnumerateMatches(const TreePattern& pattern, const index::DocId& doc,
                        const std::vector<index::PostingList>& candidates,
                        size_t max_answers, std::vector<Answer>& answers);

/// One pattern node's input stream: sorted posting blocks pushed in
/// stream order (network fetches moved in without a copy), consumed
/// document by document.
///
/// Block-skip rule (docs/query_engine.md#the-posting-stream): a skip whose
/// target lies past a block's last posting drops the block whole without
/// searching it; inside a block the skip positions by galloping search.
class PostingStream {
 public:
  /// Appends one sorted block; empty blocks are dropped. The block's first
  /// posting must not precede the last posting of the previous buffered
  /// block.
  void Push(index::PostingList block);
  /// Declares the stream complete: no further Push will happen.
  void Close() { closed_ = true; }

  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] bool HasBuffered() const { return !blocks_.empty(); }
  [[nodiscard]] bool Exhausted() const { return closed_ && blocks_.empty(); }
  /// Document id of the first unconsumed posting. Requires HasBuffered().
  [[nodiscard]] index::DocId HeadDoc() const;
  /// Document id of the last buffered posting. Requires HasBuffered().
  [[nodiscard]] index::DocId LastBufferedDoc() const;

  /// Drops every buffered posting with doc id < `doc`; returns how many
  /// were dropped.
  size_t SkipBelowDoc(index::DocId doc);
  /// Drops everything buffered; returns how many postings were dropped.
  size_t SkipAll();
  /// Pops the postings with doc id == `doc` (which must be the head doc,
  /// if any) into `out`; returns how many were taken.
  size_t TakeDoc(index::DocId doc, index::PostingList& out);

 private:
  /// Drops the front block; returns how many of its postings were unread.
  size_t PopFrontBlock();

  std::deque<index::PostingList> blocks_;
  size_t cursor_ = 0;  // consumed postings of the front block
  bool closed_ = false;
};

}  // namespace internal

/// A streaming, block-based holistic twig join.
///
/// Each pattern node has an input stream of postings in the canonical
/// (peer, doc, sid) order, fed incrementally (`Append`) as network blocks
/// arrive and terminated with `Close`. The join advances document by
/// document: as soon as every stream has moved past document D (or ended),
/// D's candidates are joined — semi-join pruning along the pattern edges,
/// then match enumeration — and answers for D are emitted. This is the
/// consumer side of the paper's pipelined evaluation: answers stream out
/// while later blocks are still in flight, giving the "time to first
/// answer" behaviour of Sections 3 and 4.2.
///
/// Streams are `internal::PostingStream`s, so the join leapfrogs at
/// document granularity: when the stream heads disagree on a document,
/// every posting below the furthest head provably cannot match and is
/// skipped in bulk — blocks that fall entirely below the leapfrog target
/// are dropped whole. Answers and `postings_consumed()` totals are
/// identical to the posting-at-a-time discipline; only the work to get
/// there shrinks.
class TwigJoin {
 public:
  /// `max_answers` caps enumeration (protection against cross-product
  /// blowup); matched documents are still tracked exactly.
  explicit TwigJoin(const TreePattern& pattern,
                    size_t max_answers = 1 << 20);

  TwigJoin(const TwigJoin&) = delete;
  TwigJoin& operator=(const TwigJoin&) = delete;

  /// Feeds a block of postings into `node`'s stream. Within one stream,
  /// calls must be in non-decreasing posting order. Taken by value so the
  /// network-fetch hot path can move blocks in without a copy; callers
  /// that keep their list pass an lvalue and pay one bulk copy.
  void Append(size_t node, index::PostingList postings);

  /// Marks `node`'s stream as ended.
  void Close(size_t node);

  /// Closes every stream (e.g. on timeout, accepting incomplete input).
  void CloseAll();

  /// Processes every document that is now complete across all streams.
  /// Returns the number of new answers produced.
  size_t Advance();

  /// True once every stream is closed and fully consumed.
  [[nodiscard]] bool Done() const;

  const std::vector<Answer>& answers() const { return answers_; }
  const std::vector<index::DocId>& matched_docs() const {
    return matched_docs_;
  }
  /// Moves the results out; `answers()`/`matched_docs()` are empty after.
  std::vector<Answer> TakeAnswers() { return std::move(answers_); }
  std::vector<index::DocId> TakeMatchedDocs() {
    return std::move(matched_docs_);
  }
  /// Total postings consumed across all streams (bulk skips included).
  size_t postings_consumed() const { return consumed_; }

 private:
  /// Joins one document's candidates; appends answers.
  void JoinDocument(const index::DocId& doc,
                    std::vector<index::PostingList>& candidates);

  const TreePattern pattern_;
  const size_t max_answers_;
  std::vector<internal::PostingStream> streams_;
  std::vector<index::PostingList> scratch_;  // per-doc candidates, reused
  std::vector<Answer> answers_;
  std::vector<index::DocId> matched_docs_;
  size_t consumed_ = 0;
  bool enumeration_capped_ = false;
};

/// Answers and matched documents of a one-shot join.
struct JoinResult {
  std::vector<Answer> answers;
  std::vector<index::DocId> matched_docs;
};

/// Joins complete inputs in one shot, one sorted list per pattern node:
/// local evaluation, view re-joins, holder-side block joins, the executor's
/// local fallback and Fundex's completion join.
[[nodiscard]] JoinResult JoinLists(const TreePattern& pattern,
                                   std::vector<index::PostingList> inputs);

/// Merge-distincts each pattern node's gathered pulls (sorted lists that
/// may interleave or overlap) into one input and joins them — the one join
/// of a task's pulled blocks, at the holder and in the query peer's local
/// fallback alike.
[[nodiscard]] JoinResult JoinGathered(
    const TreePattern& pattern,
    std::vector<std::vector<index::PostingList>> gathered);

}  // namespace kadop::query

#endif  // KADOP_QUERY_TWIG_JOIN_H_
