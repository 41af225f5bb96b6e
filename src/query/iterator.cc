#include "query/iterator.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "query/tree_pattern.h"
#include "query/twig_join.h"

namespace kadop::query {

using index::Condition;
using index::DocId;
using index::Posting;
using index::PostingList;

namespace {

/// Smallest posting of document `doc` — the SkipTo target that lands on
/// the first posting with doc id >= `doc`.
[[nodiscard]] Posting DocFloor(const DocId& doc) {
  return Posting{doc.peer, doc.doc, xml::StructuralId{0, 0, 0}};
}

/// First index in [lo, hi) with data[idx] >= target, found by galloping
/// from `lo` (the proved-out exponential probe of the semi-join kernels:
/// cheap when the answer is near, log-bounded when it is far).
[[nodiscard]] size_t GallopLowerBound(const Posting* data, size_t lo,
                                      size_t hi, const Posting& target) {
  if (lo >= hi || !(data[lo] < target)) return lo;
  size_t low = lo;  // invariant: data[low] < target
  size_t step = 1;
  while (low + step < hi && data[low + step] < target) {
    low += step;
    step <<= 1;
  }
  const size_t high = std::min(low + step, hi);
  return static_cast<size_t>(
      std::lower_bound(data + low + 1, data + high, target) - data);
}

}  // namespace

// --- PostingBlock ---------------------------------------------------------

PostingBlock PostingBlock::FromList(PostingList list) {
  PostingBlock b;
  if (!list.empty()) b.bounds_ = Condition{list.front(), list.back()};
  b.owned_ = std::move(list);
  b.data_ = b.owned_.data();
  b.size_ = b.owned_.size();
  return b;
}

// --- PostingListIterator --------------------------------------------------

void PostingListIterator::Push(PostingBlock block) {
  KADOP_CHECK(!closed_, "iterator: pushing into a closed stream");
  if (block.empty()) return;
  KADOP_CHECK(blocks_.empty() ||
                  !(block.bounds().lo < blocks_.back().bounds().hi),
              "iterator: blocks out of stream order");
  buffered_ += block.count();
  blocks_.push_back(std::move(block));
}

void PostingListIterator::PopFrontBlock() {
  buffered_ -= blocks_.front().size_ - cursor_;
  blocks_.pop_front();
  cursor_ = 0;
}

bool PostingListIterator::Read(Posting* out) {
  if (blocks_.empty()) return false;
  const PostingBlock& b = blocks_.front();
  *out = b.data_[cursor_++];
  --buffered_;
  if (cursor_ == b.size_) PopFrontBlock();
  return true;
}

bool PostingListIterator::SkipTo(const Posting& target, Posting* out) {
  while (!blocks_.empty()) {
    const PostingBlock& b = blocks_.front();
    // A block whose last posting lies below the target is dropped whole.
    if (!(b.bounds().hi < target)) {
      const size_t i = GallopLowerBound(b.data_, cursor_, b.size_, target);
      buffered_ -= i - cursor_;
      cursor_ = i;
      *out = b.data_[cursor_++];
      --buffered_;
      if (cursor_ == b.size_) PopFrontBlock();
      return true;
    }
    PopFrontBlock();
  }
  return false;
}

uint64_t PostingListIterator::EstimateResultsAmount() const {
  return buffered_;
}

void PostingListIterator::Abort() {
  blocks_.clear();
  cursor_ = 0;
  buffered_ = 0;
  closed_ = true;
}

DocId PostingListIterator::HeadDoc() const {
  KADOP_CHECK(!blocks_.empty(), "iterator: head of an empty stream");
  return blocks_.front().data_[cursor_].doc_id();
}

DocId PostingListIterator::LastBufferedDoc() const {
  KADOP_CHECK(!blocks_.empty(), "iterator: tail of an empty stream");
  return blocks_.back().bounds().hi.doc_id();
}

size_t PostingListIterator::SkipBelowDoc(DocId doc) {
  const uint64_t before = buffered_;
  while (!blocks_.empty()) {
    const PostingBlock& b = blocks_.front();
    // A block whose last posting lies below `doc` is dropped whole.
    if (!(b.bounds().hi.doc_id() < doc)) {
      const size_t i =
          GallopLowerBound(b.data_, cursor_, b.size_, DocFloor(doc));
      buffered_ -= i - cursor_;
      cursor_ = i;
      break;
    }
    PopFrontBlock();
  }
  return static_cast<size_t>(before - buffered_);
}

size_t PostingListIterator::SkipAll() {
  const uint64_t before = buffered_;
  while (!blocks_.empty()) PopFrontBlock();
  return static_cast<size_t>(before);
}

size_t PostingListIterator::TakeDoc(DocId doc, PostingList& out) {
  size_t took = 0;
  while (!blocks_.empty() && HeadDoc() == doc) {
    const PostingBlock& b = blocks_.front();
    while (cursor_ < b.size_ && b.data_[cursor_].doc_id() == doc) {
      out.push_back(b.data_[cursor_]);
      ++cursor_;
      ++took;
      --buffered_;
    }
    if (cursor_ < b.size_) break;  // block continues with a later document
    PopFrontBlock();
  }
  return took;
}

// --- UnionIterator --------------------------------------------------------

UnionIterator::UnionIterator(
    std::vector<std::unique_ptr<IndexIterator>> children) {
  children_.reserve(children.size());
  for (auto& it : children) {
    KADOP_CHECK(it != nullptr, "iterator: null union child");
    children_.push_back(Child{std::move(it), Posting{}, false, false});
  }
}

bool UnionIterator::Prime(Child& c) {
  if (!c.has_peek && !c.done) {
    if (c.it->Read(&c.peek)) {
      c.has_peek = true;
    } else {
      c.done = true;
    }
  }
  return c.has_peek;
}

bool UnionIterator::Read(Posting* out) {
  const Posting* min = nullptr;
  for (Child& c : children_) {
    if (Prime(c) && (min == nullptr || c.peek < *min)) min = &c.peek;
  }
  if (min == nullptr) return false;
  const Posting value = *min;
  // Consume every copy of `value`, across and within children, so exact
  // duplicates come out once — the behaviour of sort + unique.
  for (Child& c : children_) {
    while (Prime(c) && c.peek == value) c.has_peek = false;
  }
  *out = value;
  return true;
}

bool UnionIterator::SkipTo(const Posting& target, Posting* out) {
  for (Child& c : children_) {
    if (c.done) continue;
    if (c.has_peek && !(c.peek < target)) continue;
    c.has_peek = c.it->SkipTo(target, &c.peek);
    if (!c.has_peek) c.done = true;
  }
  return Read(out);
}

uint64_t UnionIterator::EstimateResultsAmount() const {
  uint64_t total = 0;
  for (const Child& c : children_) total += c.it->EstimateResultsAmount();
  return total;
}

void UnionIterator::Abort() {
  for (Child& c : children_) {
    c.it->Abort();
    c.has_peek = false;
    c.done = true;
  }
}

// --- MergeDistinct --------------------------------------------------------

PostingList MergeDistinct(std::vector<PostingBlock> blocks) {
  uint64_t total = 0;
  std::vector<std::unique_ptr<IndexIterator>> children;
  children.reserve(blocks.size());
  for (PostingBlock& b : blocks) {
    if (b.empty()) continue;
    total += b.count();
    auto it = std::make_unique<PostingListIterator>();
    it->Push(std::move(b));
    it->Close();
    children.push_back(std::move(it));
  }
  PostingList out;
  out.reserve(total);
  UnionIterator u(std::move(children));
  Posting p;
  while (u.Read(&p)) out.push_back(p);
  return out;
}

PostingList MergeDistinct(std::vector<PostingList> lists) {
  // The union merge assumes each input is itself sorted — true for every
  // store/pull path. Fall back to the classic discipline otherwise so a
  // degenerate producer still gets a canonical result.
  bool all_sorted = true;
  for (const PostingList& l : lists) {
    if (!index::IsSortedPostingList(l)) {
      all_sorted = false;
      break;
    }
  }
  if (!all_sorted) {
    PostingList merged;
    for (PostingList& l : lists) {
      merged.insert(merged.end(), l.begin(), l.end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    return merged;
  }
  std::vector<PostingBlock> blocks;
  blocks.reserve(lists.size());
  for (PostingList& l : lists) {
    blocks.push_back(PostingBlock::FromList(std::move(l)));
  }
  return MergeDistinct(std::move(blocks));
}

// --- StructuralJoinIterator -----------------------------------------------

StructuralJoinIterator::StructuralJoinIterator(const TreePattern& pattern,
                                               size_t max_answers)
    : join_(std::make_unique<TwigJoin>(pattern, max_answers)),
      input_counts_(pattern.size(), 0) {}

StructuralJoinIterator::~StructuralJoinIterator() = default;
StructuralJoinIterator::StructuralJoinIterator(
    StructuralJoinIterator&&) noexcept = default;
StructuralJoinIterator& StructuralJoinIterator::operator=(
    StructuralJoinIterator&&) noexcept = default;

void StructuralJoinIterator::AddInput(size_t node, PostingBlock block) {
  KADOP_CHECK(node < input_counts_.size(), "bad pattern node");
  input_counts_[node] += block.count();
  join_->AppendBlock(node, std::move(block));
}

uint64_t StructuralJoinIterator::EstimateResultsAmount() const {
  uint64_t best = std::numeric_limits<uint64_t>::max();
  for (uint64_t c : input_counts_) best = std::min(best, c);
  return best;
}

void StructuralJoinIterator::Run() {
  join_->CloseAll();
  (void)join_->Advance();
}

const std::vector<Answer>& StructuralJoinIterator::answers() const {
  return join_->answers();
}

const std::vector<DocId>& StructuralJoinIterator::matched_docs() const {
  return join_->matched_docs();
}

std::vector<Answer> StructuralJoinIterator::TakeAnswers() {
  return join_->TakeAnswers();
}

std::vector<DocId> StructuralJoinIterator::TakeMatchedDocs() {
  return join_->TakeMatchedDocs();
}

uint64_t StructuralJoinIterator::postings_consumed() const {
  return join_->postings_consumed();
}

StructuralJoinIterator JoinGathered(
    const TreePattern& pattern,
    std::vector<std::vector<PostingList>> gathered) {
  StructuralJoinIterator join(pattern);
  for (size_t node = 0; node < gathered.size(); ++node) {
    join.AddInput(node, PostingBlock::FromList(
                            MergeDistinct(std::move(gathered[node]))));
  }
  join.Run();
  return join;
}

uint64_t EstimateTwigResults(const TreePattern& pattern,
                             const std::vector<uint64_t>& counts) {
  KADOP_CHECK(counts.size() == pattern.size(),
              "iterator: one count per pattern node");
  if (counts.empty()) return 0;
  return *std::min_element(counts.begin(), counts.end());
}

}  // namespace kadop::query
