#ifndef KADOP_QUERY_ITERATOR_H_
#define KADOP_QUERY_ITERATOR_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "index/condition.h"
#include "index/posting.h"

namespace kadop::query {

struct Answer;
struct TreePattern;
class TwigJoin;

/// One block of a posting stream: an owned, sorted list (a network fetch or
/// a merged pull), moved in without a copy.
///
/// `bounds` is the block's exact first/last posting; the iterator uses
/// `bounds.hi` to drop a block whole when a skip target lies past it
/// (docs/query_engine.md#block-skip).
class PostingBlock {
 public:
  static PostingBlock FromList(index::PostingList list);

  // Move-only: `data_` points into `owned_`, which a copy would not
  // share.
  PostingBlock(PostingBlock&&) noexcept = default;
  PostingBlock& operator=(PostingBlock&&) noexcept = default;
  PostingBlock(const PostingBlock&) = delete;
  PostingBlock& operator=(const PostingBlock&) = delete;

  [[nodiscard]] const index::Condition& bounds() const { return bounds_; }
  [[nodiscard]] uint64_t count() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  friend class PostingListIterator;

  PostingBlock() = default;

  const index::Posting* data_ = nullptr;
  size_t size_ = 0;
  index::Condition bounds_;
  index::PostingList owned_;
};

/// The iterator contract (ROADMAP item 4; SNIPPETS.md snippet 3):
///
///   Read(out)           -> next posting in canonical (peer, doc, sid)
///                          order; false when exhausted.
///   SkipTo(target, out) -> first posting >= target; that posting is
///                          consumed (the next Read returns its
///                          successor); false when no such posting.
///   EstimateResultsAmount() -> upper bound on remaining results, cheap
///                          enough for the planner to call before any
///                          decode happens.
///   Abort()             -> drop all remaining input; subsequent reads
///                          fail fast.
class IndexIterator {
 public:
  virtual ~IndexIterator() = default;
  virtual bool Read(index::Posting* out) = 0;
  virtual bool SkipTo(const index::Posting& target, index::Posting* out) = 0;
  [[nodiscard]] virtual uint64_t EstimateResultsAmount() const = 0;
  virtual void Abort() = 0;
};

/// Iterator over one term's posting stream, fed incrementally as blocks
/// arrive from the network (the twig join's streaming discipline) or all
/// at once. A `SkipTo` (or `SkipBelowDoc`) whose target lies past a
/// block's `bounds.hi` drops the block whole, without searching it.
class PostingListIterator final : public IndexIterator {
 public:
  PostingListIterator() = default;

  // Move-only (blocks are move-only).
  PostingListIterator(PostingListIterator&&) noexcept = default;
  PostingListIterator& operator=(PostingListIterator&&) noexcept = default;
  PostingListIterator(const PostingListIterator&) = delete;
  PostingListIterator& operator=(const PostingListIterator&) = delete;

  /// Appends one block; empty blocks are dropped. Blocks must arrive in
  /// stream order (each block's bounds at or after the previous block's).
  void Push(PostingBlock block);
  /// Declares the stream complete: no further Push will happen.
  void Close() { closed_ = true; }

  bool Read(index::Posting* out) override;
  bool SkipTo(const index::Posting& target, index::Posting* out) override;
  [[nodiscard]] uint64_t EstimateResultsAmount() const override;
  void Abort() override;

  // --- streaming accessors (used by the twig join) -----------------------
  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] bool HasBuffered() const { return !blocks_.empty(); }
  [[nodiscard]] bool Exhausted() const { return closed_ && blocks_.empty(); }
  /// Document id of the first unconsumed posting. Requires HasBuffered().
  [[nodiscard]] index::DocId HeadDoc() const;
  /// Document id of the last buffered posting. Requires HasBuffered().
  [[nodiscard]] index::DocId LastBufferedDoc() const;

  /// Drops every buffered posting with doc id < `doc`; returns how many
  /// were dropped. Blocks entirely below `doc` are dropped whole.
  size_t SkipBelowDoc(index::DocId doc);
  /// Drops everything buffered; returns how many postings were dropped.
  size_t SkipAll();
  /// Pops the postings with doc id == `doc` (which must be the head doc,
  /// if any) into `out`; returns how many were taken.
  size_t TakeDoc(index::DocId doc, index::PostingList& out);

 private:
  /// Drops the front block: its unconsumed postings leave the buffer.
  void PopFrontBlock();

  std::deque<PostingBlock> blocks_;
  size_t cursor_ = 0;  // consumed postings of the front block
  bool closed_ = false;
  uint64_t buffered_ = 0;  // unconsumed postings across all blocks
};

/// Distinct-union of its children: emits the postings present in any
/// child, in canonical order, with exact duplicates (across *and* within
/// children) emitted once — the iterator form of the merge paths'
/// concat + sort + unique, byte-identical for sorted inputs.
class UnionIterator final : public IndexIterator {
 public:
  explicit UnionIterator(std::vector<std::unique_ptr<IndexIterator>> children);

  bool Read(index::Posting* out) override;
  bool SkipTo(const index::Posting& target, index::Posting* out) override;
  [[nodiscard]] uint64_t EstimateResultsAmount() const override;
  void Abort() override;

 private:
  struct Child {
    std::unique_ptr<IndexIterator> it;
    index::Posting peek;
    bool has_peek = false;
    bool done = false;
  };
  bool Prime(Child& c);

  std::vector<Child> children_;
};

/// Batch materialization of a distinct union — the iterator-tree
/// replacement for every `concat + sort + unique` merge of independently
/// sorted lists (DPP random-split reassembly, holder-side join gathers).
[[nodiscard]] index::PostingList MergeDistinct(std::vector<PostingBlock> blocks);
[[nodiscard]] index::PostingList MergeDistinct(
    std::vector<index::PostingList> lists);

/// Structural-join iterator: wraps the twig machinery (stream alignment,
/// semi-join pruning, tuple enumeration) behind the iterator API for
/// one-shot (non-streaming) joins — local evaluation, holder-side block
/// joins, the executor's local fallback. Inputs are per-pattern-node
/// posting blocks in either storage form.
class StructuralJoinIterator {
 public:
  explicit StructuralJoinIterator(const TreePattern& pattern,
                                  size_t max_answers = size_t{1} << 20);
  ~StructuralJoinIterator();

  StructuralJoinIterator(StructuralJoinIterator&&) noexcept;
  StructuralJoinIterator& operator=(StructuralJoinIterator&&) noexcept;

  /// Adds one input block for pattern node `node`. Blocks of one node
  /// must be added in stream order.
  void AddInput(size_t node, PostingBlock block);

  /// Planner hook: min over the per-node input cardinalities — the twig
  /// result count is bounded by its scarcest stream.
  [[nodiscard]] uint64_t EstimateResultsAmount() const;

  /// Runs the join to completion.
  void Run();

  [[nodiscard]] const std::vector<Answer>& answers() const;
  [[nodiscard]] const std::vector<index::DocId>& matched_docs() const;
  /// Move the results out; `answers()`/`matched_docs()` are empty after.
  [[nodiscard]] std::vector<Answer> TakeAnswers();
  [[nodiscard]] std::vector<index::DocId> TakeMatchedDocs();
  [[nodiscard]] uint64_t postings_consumed() const;

 private:
  std::unique_ptr<TwigJoin> join_;
  std::vector<uint64_t> input_counts_;
};

/// Merge-distincts each pattern node's gathered pulls (sorted lists that
/// may interleave or overlap) into one input and runs the join — the one
/// join of a task's pulled blocks, at the holder and in the query peer's
/// local fallback alike.
[[nodiscard]] StructuralJoinIterator JoinGathered(
    const TreePattern& pattern,
    std::vector<std::vector<index::PostingList>> gathered);

/// Cardinality estimate for a twig query over per-node posting counts: the
/// minimum count — every matching document holds a posting of each node's
/// list, so the scarcest list bounds the matches. This is the number
/// `kAuto` consumes (docs/query_engine.md#estimates).
[[nodiscard]] uint64_t EstimateTwigResults(
    const TreePattern& pattern, const std::vector<uint64_t>& counts);

}  // namespace kadop::query

#endif  // KADOP_QUERY_ITERATOR_H_
