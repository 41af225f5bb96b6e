#include "query/twig_join.h"

#include <algorithm>

#include "common/logging.h"
#include "index/structural_join.h"
#include "obs/metrics.h"

namespace kadop::query {

using index::DocId;
using index::Posting;
using index::PostingList;

namespace {

struct JoinCounters {
  obs::Counter* postings_consumed;
  obs::Counter* answers;
  obs::Counter* docs_matched;
  obs::Counter* stalls;

  JoinCounters() {
    auto& r = obs::MetricRegistry::Default();
    postings_consumed = r.GetCounter("query.join.postings_consumed");
    answers = r.GetCounter("query.join.answers");
    docs_matched = r.GetCounter("query.join.docs_matched");
    stalls = r.GetCounter("query.join.stalls");
  }
};

JoinCounters& C() {
  static JoinCounters counters;
  return counters;
}

/// First index in [lo, hi) with data[idx] >= target, found by galloping
/// from `lo` (cheap when the answer is near, log-bounded when it is far).
[[nodiscard]] size_t GallopLowerBound(const PostingList& data, size_t lo,
                                      const Posting& target) {
  const size_t hi = data.size();
  if (lo >= hi || !(data[lo] < target)) return lo;
  size_t low = lo;  // invariant: data[low] < target
  size_t step = 1;
  while (low + step < hi && data[low + step] < target) {
    low += step;
    step <<= 1;
  }
  const size_t high = std::min(low + step, hi);
  return static_cast<size_t>(
      std::lower_bound(data.begin() + static_cast<long>(low + 1),
                       data.begin() + static_cast<long>(high), target) -
      data.begin());
}

}  // namespace

namespace internal {

void PostingStream::Push(PostingList block) {
  if (block.empty()) return;
  KADOP_CHECK(!closed_, "append after close");
  KADOP_CHECK(index::IsSortedPostingList(block),
              "stream postings out of order");
  KADOP_CHECK(blocks_.empty() || !(block.front() < blocks_.back().back()),
              "stream blocks out of order");
  blocks_.push_back(std::move(block));
}

size_t PostingStream::PopFrontBlock() {
  const size_t unread = blocks_.front().size() - cursor_;
  blocks_.pop_front();
  cursor_ = 0;
  return unread;
}

DocId PostingStream::HeadDoc() const {
  KADOP_CHECK(!blocks_.empty(), "head of an empty stream");
  return blocks_.front()[cursor_].doc_id();
}

DocId PostingStream::LastBufferedDoc() const {
  KADOP_CHECK(!blocks_.empty(), "tail of an empty stream");
  return blocks_.back().back().doc_id();
}

size_t PostingStream::SkipBelowDoc(DocId doc) {
  size_t dropped = 0;
  while (!blocks_.empty()) {
    const PostingList& b = blocks_.front();
    // A block whose last posting lies below `doc` is dropped whole.
    if (!(b.back().doc_id() < doc)) {
      const size_t i = GallopLowerBound(
          b, cursor_, Posting{doc.peer, doc.doc, xml::StructuralId{0, 0, 0}});
      dropped += i - cursor_;
      cursor_ = i;
      break;
    }
    dropped += PopFrontBlock();
  }
  return dropped;
}

size_t PostingStream::SkipAll() {
  size_t dropped = 0;
  while (!blocks_.empty()) dropped += PopFrontBlock();
  return dropped;
}

size_t PostingStream::TakeDoc(DocId doc, PostingList& out) {
  size_t took = 0;
  while (!blocks_.empty() && HeadDoc() == doc) {
    const PostingList& b = blocks_.front();
    while (cursor_ < b.size() && b[cursor_].doc_id() == doc) {
      out.push_back(b[cursor_]);
      ++cursor_;
      ++took;
    }
    if (cursor_ < b.size()) break;  // block continues with a later document
    PopFrontBlock();
  }
  return took;
}

}  // namespace internal

TwigJoin::TwigJoin(const TreePattern& pattern, size_t max_answers)
    : pattern_(pattern), max_answers_(max_answers) {
  KADOP_CHECK(!pattern_.nodes.empty(), "empty pattern");
  streams_.resize(pattern_.size());
  scratch_.resize(pattern_.size());
}

void TwigJoin::Append(size_t node, PostingList postings) {
  KADOP_CHECK(node < streams_.size(), "bad stream index");
  streams_[node].Push(std::move(postings));
}

void TwigJoin::Close(size_t node) {
  KADOP_CHECK(node < streams_.size(), "bad stream index");
  streams_[node].Close();
}

void TwigJoin::CloseAll() {
  for (internal::PostingStream& s : streams_) s.Close();
}

bool TwigJoin::Done() const {
  for (const internal::PostingStream& s : streams_) {
    if (!s.Exhausted()) return false;
  }
  return true;
}

size_t TwigJoin::Advance() {
  size_t produced = 0;
  for (;;) {
    // The smallest document id at any stream head.
    bool have_doc = false;
    DocId doc{};
    for (const internal::PostingStream& s : streams_) {
      if (!s.HasBuffered()) continue;
      const DocId d = s.HeadDoc();
      if (!have_doc || d < doc) {
        doc = d;
        have_doc = true;
      }
    }
    if (!have_doc) return produced;

    // Document-level leapfrog: every posting below the furthest stream
    // head is absent from that stream (streams are in order), so it can
    // never join — drop those postings in bulk, whole blocks at a time. A
    // stream that has ended with nothing buffered makes *every* remaining
    // document unmatchable.
    DocId target = doc;
    bool unmatchable = false;
    for (const internal::PostingStream& s : streams_) {
      if (s.HasBuffered()) {
        const DocId d = s.HeadDoc();
        if (target < d) target = d;
      } else if (s.Exhausted()) {
        unmatchable = true;
      }
    }
    if (unmatchable || doc < target) {
      for (internal::PostingStream& s : streams_) {
        const size_t dropped =
            unmatchable ? s.SkipAll() : s.SkipBelowDoc(target);
        if (dropped > 0) {
          consumed_ += dropped;
          C().postings_consumed->Increment(dropped);
        }
      }
      if (unmatchable) return produced;
      continue;
    }

    // Every stream with buffered input heads at `doc`. It is complete iff
    // every stream has either ended or buffered a posting beyond it.
    for (const internal::PostingStream& s : streams_) {
      if (s.closed()) continue;
      if (!s.HasBuffered() || !(doc < s.LastBufferedDoc())) {
        C().stalls->Increment();
        return produced;  // must wait for more input
      }
    }

    // Extract this document's candidates from each stream into the reused
    // scratch lists (allocation-free once capacities have warmed up).
    for (PostingList& c : scratch_) c.clear();
    for (size_t i = 0; i < streams_.size(); ++i) {
      const size_t took = streams_[i].TakeDoc(doc, scratch_[i]);
      if (took > 0) {
        consumed_ += took;
        C().postings_consumed->Increment(took);
      }
    }
    const size_t before = answers_.size();
    JoinDocument(doc, scratch_);
    produced += answers_.size() - before;
  }
}

namespace internal {

bool PruneCandidates(const TreePattern& pattern,
                     std::vector<PostingList>& candidates) {
  for (const PostingList& c : candidates) {
    if (c.empty()) return false;
  }
  // Bottom-up semi-join pruning: a parent candidate must have a matching
  // candidate under every child edge.
  for (int q : pattern.BottomUpOrder()) {
    const PatternNode& pn = pattern.node(q);
    if (pn.parent < 0) continue;
    PostingList& parent_cands = candidates[pn.parent];
    parent_cands = pn.axis == Axis::kChild
                       ? index::ParentSemiJoin(parent_cands, candidates[q])
                       : index::AncestorSemiJoin(parent_cands, candidates[q]);
    if (parent_cands.empty()) return false;
  }
  // Top-down: a candidate must have a matching ancestor.
  for (size_t q = 0; q < pattern.size(); ++q) {
    const PatternNode& pn = pattern.node(q);
    if (pn.parent < 0) {
      if (pn.axis == Axis::kChild) {
        std::erase_if(candidates[q],
                      [](const Posting& p) { return p.sid.level != 1; });
      }
      if (candidates[q].empty()) return false;
      continue;
    }
    candidates[q] =
        pn.axis == Axis::kChild
            ? index::ChildSemiJoin(candidates[pn.parent], candidates[q])
            : index::DescendantSemiJoin(candidates[pn.parent],
                                        candidates[q]);
    if (candidates[q].empty()) return false;
  }
  return true;
}

namespace {

void EnumerateRecursive(const TreePattern& pattern, const DocId& doc,
                        const std::vector<PostingList>& candidates,
                        size_t max_answers,
                        std::vector<xml::StructuralId>& assignment,
                        size_t node, std::vector<Answer>& answers) {
  if (answers.size() >= max_answers) return;
  if (node == pattern.size()) {
    answers.push_back(Answer{doc, assignment});
    return;
  }
  const PatternNode& pn = pattern.node(node);
  for (const Posting& cand : candidates[node]) {
    bool ok;
    if (pn.parent >= 0) {
      const xml::StructuralId& parent_sid =
          assignment[static_cast<size_t>(pn.parent)];
      ok = pn.axis == Axis::kChild ? parent_sid.IsParentOf(cand.sid)
                                   : parent_sid.Encloses(cand.sid);
    } else {
      ok = pn.axis != Axis::kChild || cand.sid.level == 1;
    }
    if (ok) {
      assignment[node] = cand.sid;
      EnumerateRecursive(pattern, doc, candidates, max_answers, assignment,
                         node + 1, answers);
    }
  }
}

}  // namespace

size_t EnumerateMatches(const TreePattern& pattern, const DocId& doc,
                        const std::vector<PostingList>& candidates,
                        size_t max_answers, std::vector<Answer>& answers) {
  const size_t before = answers.size();
  std::vector<xml::StructuralId> assignment(pattern.size());
  EnumerateRecursive(pattern, doc, candidates, max_answers, assignment, 0,
                     answers);
  return answers.size() - before;
}

}  // namespace internal

void TwigJoin::JoinDocument(const DocId& doc,
                            std::vector<PostingList>& candidates) {
  if (!internal::PruneCandidates(pattern_, candidates)) return;
  const size_t produced = internal::EnumerateMatches(
      pattern_, doc, candidates, max_answers_, answers_);
  if (answers_.size() >= max_answers_) enumeration_capped_ = true;
  C().answers->Increment(produced);
  if (produced > 0) {
    matched_docs_.push_back(doc);
    C().docs_matched->Increment();
  }
}

JoinResult JoinLists(const TreePattern& pattern,
                     std::vector<PostingList> inputs) {
  KADOP_CHECK(inputs.size() == pattern.size(), "one input per pattern node");
  TwigJoin join(pattern);
  for (size_t node = 0; node < inputs.size(); ++node) {
    join.Append(node, std::move(inputs[node]));
  }
  join.CloseAll();
  (void)join.Advance();
  return JoinResult{join.TakeAnswers(), join.TakeMatchedDocs()};
}

JoinResult JoinGathered(const TreePattern& pattern,
                        std::vector<std::vector<PostingList>> gathered) {
  std::vector<PostingList> inputs;
  inputs.reserve(gathered.size());
  for (std::vector<PostingList>& lists : gathered) {
    inputs.push_back(index::MergeDistinct(std::move(lists)));
  }
  return JoinLists(pattern, std::move(inputs));
}

}  // namespace kadop::query
