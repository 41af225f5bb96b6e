// Seeded property tests for the iterator-tree query engine
// (src/query/iterator.h): every combinator must agree with a naive
// flat-list oracle on skewed and adversarial posting lists, skips must
// drop out-of-range blocks whole with exact accounting, and the
// structural join must produce byte-identical answers however its inputs
// are cut into blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "index/posting.h"
#include "query/iterator.h"
#include "query/tree_pattern.h"
#include "query/twig_join.h"

namespace kadop::query {
namespace {

using index::DocId;
using index::Posting;
using index::PostingList;

TreePattern MustParse(const char* expr) {
  auto result = ParsePattern(expr);
  EXPECT_TRUE(result.ok());
  return result.take();
}

/// Clustered sorted list: few peers, docs in [0, doc_span), valid SIDs,
/// occasional exact duplicates — the shape real term lists have.
PostingList RandomSortedList(std::mt19937_64& rng, size_t n,
                             uint32_t doc_span = 500) {
  PostingList list;
  list.reserve(n);
  std::uniform_int_distribution<uint32_t> peer_d(0, 3);
  std::uniform_int_distribution<uint32_t> doc_d(0, doc_span - 1);
  std::uniform_int_distribution<uint32_t> start_d(1, 1 << 16);
  std::uniform_int_distribution<uint32_t> width_d(0, 1 << 8);
  std::uniform_int_distribution<uint16_t> level_d(1, 20);
  std::uniform_int_distribution<int> dup_d(0, 9);
  while (list.size() < n) {
    const uint32_t start = start_d(rng);
    Posting p{peer_d(rng), doc_d(rng),
              {start, start + width_d(rng), level_d(rng)}};
    list.push_back(p);
    if (dup_d(rng) == 0 && list.size() < n) list.push_back(p);
  }
  std::sort(list.begin(), list.end());
  return list;
}

/// Splits `list` into random contiguous chunks (possibly empty at the
/// tail) — any split of a sorted list is a valid block stream.
std::vector<PostingList> RandomChunks(std::mt19937_64& rng,
                                      const PostingList& list) {
  std::vector<PostingList> chunks;
  std::uniform_int_distribution<size_t> len_d(1, 64);
  size_t i = 0;
  while (i < list.size()) {
    const size_t len = std::min(len_d(rng), list.size() - i);
    chunks.emplace_back(list.begin() + static_cast<long>(i),
                        list.begin() + static_cast<long>(i + len));
    i += len;
  }
  return chunks;
}

PostingListIterator MakeIterator(std::mt19937_64& rng,
                                 const PostingList& list) {
  PostingListIterator it;
  for (PostingList& chunk : RandomChunks(rng, list)) {
    it.Push(PostingBlock::FromList(std::move(chunk)));
  }
  it.Close();
  return it;
}

PostingList Drain(IndexIterator& it) {
  PostingList out;
  Posting p;
  while (it.Read(&p)) out.push_back(p);
  return out;
}

/// sort + unique oracle for MergeDistinct / UnionIterator.
PostingList DistinctOracle(const std::vector<PostingList>& lists) {
  PostingList merged;
  for (const PostingList& l : lists) {
    merged.insert(merged.end(), l.begin(), l.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

// --- PostingListIterator ---------------------------------------------------

TEST(PostingListIteratorTest, DrainMatchesList) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const PostingList list = RandomSortedList(rng, 300);
    PostingListIterator it = MakeIterator(rng, list);
    EXPECT_EQ(it.EstimateResultsAmount(), list.size());
    EXPECT_EQ(Drain(it), list);
    EXPECT_FALSE(it.HasBuffered());
    EXPECT_TRUE(it.Exhausted());
  }
}

TEST(PostingListIteratorTest, SkipToMatchesLowerBoundOracle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const PostingList list = RandomSortedList(rng, 400);
    PostingListIterator it = MakeIterator(rng, list);
    // Random non-decreasing targets; the oracle walks the flat list.
    size_t oracle = 0;  // index of the next unconsumed oracle posting
    std::uniform_int_distribution<size_t> jump_d(0, 12);
    std::uniform_int_distribution<int> coin(0, 1);
    while (oracle < list.size()) {
      if (coin(rng) == 0) {
        // Interleave plain reads to exercise mixed access.
        Posting got;
        ASSERT_TRUE(it.Read(&got));
        EXPECT_EQ(got, list[oracle]);
        ++oracle;
        continue;
      }
      const size_t probe =
          std::min(list.size() - 1, oracle + jump_d(rng));
      const Posting target = list[probe];
      const size_t expect = static_cast<size_t>(
          std::lower_bound(list.begin() + static_cast<long>(oracle),
                           list.end(), target) -
          list.begin());
      Posting got;
      ASSERT_TRUE(it.SkipTo(target, &got));
      EXPECT_EQ(got, list[expect]);
      oracle = expect + 1;  // SkipTo consumes the returned posting
    }
    Posting end;
    EXPECT_FALSE(it.Read(&end));
  }
}

TEST(PostingListIteratorTest, SkipToPastEverythingReturnsFalse) {
  std::mt19937_64 rng(3);
  const PostingList list = RandomSortedList(rng, 100);
  PostingListIterator it = MakeIterator(rng, list);
  Posting got;
  EXPECT_FALSE(it.SkipTo(index::kMaxPosting, &got));
  EXPECT_FALSE(it.HasBuffered());
  EXPECT_EQ(it.EstimateResultsAmount(), 0u);
}

/// Ten blocks over docs [0, 1000), then one block at doc 5000.
PostingListIterator TenBlocksThenDoc5000() {
  PostingListIterator it;
  for (uint32_t b = 0; b < 10; ++b) {
    PostingList chunk;
    for (uint32_t d = 0; d < 100; ++d) {
      chunk.push_back(Posting{0, b * 100 + d, {1, 2, 1}});
    }
    it.Push(PostingBlock::FromList(std::move(chunk)));
  }
  it.Push(PostingBlock::FromList({Posting{0, 5000, {1, 2, 1}}}));
  it.Close();
  return it;
}

TEST(PostingListIteratorTest, SkipToDropsBlocksBelowTheTargetWhole) {
  // A SkipTo straight to doc 5000 drops the ten blocks whose last posting
  // lies below the target and keeps the buffered count exact.
  PostingListIterator it = TenBlocksThenDoc5000();
  // Consume part of the first block so a partial block is dropped too.
  Posting got;
  ASSERT_TRUE(it.Read(&got));
  ASSERT_TRUE(it.Read(&got));
  EXPECT_EQ(it.EstimateResultsAmount(), 999u);
  ASSERT_TRUE(it.SkipTo(Posting{0, 5000, {0, 0, 0}}, &got));
  EXPECT_EQ(got, (Posting{0, 5000, {1, 2, 1}}));
  EXPECT_EQ(it.EstimateResultsAmount(), 0u);
  EXPECT_TRUE(it.Exhausted());
}

TEST(PostingListIteratorTest, SkipBelowDocDropsWholeBlocksAndCountsThem) {
  PostingListIterator it = TenBlocksThenDoc5000();
  // Five whole blocks plus half of the sixth fall below doc 550.
  EXPECT_EQ(it.SkipBelowDoc(DocId{0, 550}), 550u);
  EXPECT_EQ(it.HeadDoc(), (DocId{0, 550}));
  EXPECT_EQ(it.EstimateResultsAmount(), 451u);
  // Past every block but the last: nine more whole or partial blocks.
  EXPECT_EQ(it.SkipBelowDoc(DocId{0, 4000}), 450u);
  EXPECT_EQ(it.HeadDoc(), (DocId{0, 5000}));
  // A target at or below the head drops nothing.
  EXPECT_EQ(it.SkipBelowDoc(DocId{0, 5000}), 0u);
  EXPECT_EQ(it.SkipAll(), 1u);
  EXPECT_FALSE(it.HasBuffered());
}

TEST(PostingListIteratorTest, GallopingWorstCaseLandsExactly) {
  // The galloping worst case: one giant leap from the head of a large
  // stream to its very last posting, through twenty whole blocks and then
  // a gallop across a 1000-posting block.
  PostingListIterator it;
  for (uint32_t b = 0; b < 20; ++b) {
    PostingList chunk;
    for (uint32_t d = 0; d < 50; ++d) {
      chunk.push_back(Posting{0, b * 50 + d, {1, 2, 1}});
    }
    it.Push(PostingBlock::FromList(std::move(chunk)));
  }
  PostingList big;
  for (uint32_t i = 0; i < 1000; ++i) {
    big.push_back(Posting{0, 99999, {10 + i, 10 + i, 2}});
  }
  it.Push(PostingBlock::FromList(big));
  it.Close();
  Posting got;
  ASSERT_TRUE(it.SkipTo(big.back(), &got));
  EXPECT_EQ(got, big.back());
  EXPECT_TRUE(it.Exhausted());
}

TEST(PostingListIteratorTest, AdversarialShapes) {
  // Empty blocks are dropped on Push; single-posting runs and a long run
  // of exact duplicates stream through unchanged.
  PostingListIterator it;
  it.Push(PostingBlock::FromList({}));
  const Posting dup{1, 1, {5, 9, 2}};
  it.Push(PostingBlock::FromList(PostingList(32, dup)));
  it.Push(PostingBlock::FromList({Posting{1, 2, {1, 1, 1}}}));
  it.Push(PostingBlock::FromList({}));
  it.Push(PostingBlock::FromList({Posting{2, 0, {1, 4, 1}}}));
  it.Close();
  PostingList expect(32, dup);
  expect.push_back(Posting{1, 2, {1, 1, 1}});
  expect.push_back(Posting{2, 0, {1, 4, 1}});
  EXPECT_EQ(Drain(it), expect);
}

TEST(PostingListIteratorTest, AbortDropsEverything) {
  std::mt19937_64 rng(6);
  PostingListIterator it =
      MakeIterator(rng, RandomSortedList(rng, 50));
  it.Abort();
  EXPECT_TRUE(it.Exhausted());
  EXPECT_EQ(it.EstimateResultsAmount(), 0u);
  Posting p;
  EXPECT_FALSE(it.Read(&p));
}

// --- UnionIterator ---------------------------------------------------------

TEST(UnionIteratorTest, MatchesSortUniqueOracle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<size_t> n_d(0, 200);
    std::vector<PostingList> lists;
    std::vector<std::unique_ptr<IndexIterator>> children;
    for (int i = 0; i < 4; ++i) {
      lists.push_back(RandomSortedList(rng, n_d(rng)));
      children.push_back(std::make_unique<PostingListIterator>(
          MakeIterator(rng, lists.back())));
    }
    UnionIterator u(std::move(children));
    EXPECT_EQ(Drain(u), DistinctOracle(lists));
  }
}

TEST(UnionIteratorTest, SkipToMatchesOracle) {
  std::mt19937_64 rng(11);
  std::vector<PostingList> lists;
  std::vector<std::unique_ptr<IndexIterator>> children;
  for (int i = 0; i < 3; ++i) {
    lists.push_back(RandomSortedList(rng, 150));
    children.push_back(std::make_unique<PostingListIterator>(
        MakeIterator(rng, lists.back())));
  }
  const PostingList oracle = DistinctOracle(lists);
  UnionIterator u(std::move(children));
  size_t at = 0;
  std::uniform_int_distribution<size_t> jump_d(0, 9);
  while (at < oracle.size()) {
    const size_t probe = std::min(oracle.size() - 1, at + jump_d(rng));
    Posting got;
    ASSERT_TRUE(u.SkipTo(oracle[probe], &got));
    EXPECT_EQ(got, oracle[probe]);
    at = probe + 1;
  }
  Posting end;
  EXPECT_FALSE(u.Read(&end));
}

// --- MergeDistinct ---------------------------------------------------------

TEST(MergeDistinctTest, MatchesSortUniqueOracle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<size_t> n_d(0, 120);
    std::vector<PostingList> lists;
    for (int i = 0; i < 5; ++i) lists.push_back(RandomSortedList(rng, n_d(rng)));
    const PostingList oracle = DistinctOracle(lists);
    EXPECT_EQ(MergeDistinct(lists), oracle);

    std::vector<PostingBlock> blocks;
    for (size_t i = 0; i < lists.size(); ++i) {
      blocks.push_back(PostingBlock::FromList(lists[i]));
    }
    EXPECT_EQ(MergeDistinct(std::move(blocks)), oracle);
  }
}

TEST(MergeDistinctTest, UnsortedInputFallsBackToCanonicalResult) {
  PostingList backwards{Posting{0, 9, {1, 2, 1}}, Posting{0, 1, {1, 2, 1}}};
  PostingList sorted{Posting{0, 5, {1, 2, 1}}};
  const PostingList out = MergeDistinct(
      std::vector<PostingList>{backwards, sorted});
  PostingList expect{Posting{0, 1, {1, 2, 1}}, Posting{0, 5, {1, 2, 1}},
                     Posting{0, 9, {1, 2, 1}}};
  EXPECT_EQ(out, expect);
}

// --- StructuralJoinIterator ------------------------------------------------

/// Builds matching //a//b candidate lists over `docs` documents with
/// `per_doc` elements each plus decoy-only documents that cannot join.
struct TwigFixture {
  PostingList ancestors;
  PostingList descendants;

  explicit TwigFixture(std::mt19937_64& rng, uint32_t docs,
                       uint32_t per_doc) {
    std::uniform_int_distribution<int> decoy_d(0, 2);
    for (uint32_t d = 0; d < docs; ++d) {
      const int decoy = decoy_d(rng);
      if (decoy == 1) {  // ancestor without descendants
        ancestors.push_back(Posting{0, d, {1, 1000, 1}});
        continue;
      }
      if (decoy == 2) {  // descendants without an ancestor
        for (uint32_t i = 0; i < per_doc; ++i) {
          descendants.push_back(Posting{0, d, {10 + i, 10 + i, 3}});
        }
        continue;
      }
      ancestors.push_back(Posting{0, d, {1, 1000, 1}});
      for (uint32_t i = 0; i < per_doc; ++i) {
        descendants.push_back(Posting{0, d, {10 + i, 10 + i, 3}});
      }
    }
  }
};

std::vector<Answer> RunJoin(const TreePattern& pattern,
                            const PostingList& ancestors,
                            const PostingList& descendants,
                            std::mt19937_64& rng) {
  StructuralJoinIterator join(pattern);
  for (PostingList& chunk : RandomChunks(rng, ancestors)) {
    join.AddInput(0, PostingBlock::FromList(std::move(chunk)));
  }
  for (PostingList& chunk : RandomChunks(rng, descendants)) {
    join.AddInput(1, PostingBlock::FromList(std::move(chunk)));
  }
  join.Run();
  return join.TakeAnswers();
}

bool AnswersEqual(const std::vector<Answer>& a, const std::vector<Answer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc || a[i].elements != b[i].elements) return false;
  }
  return true;
}

TEST(StructuralJoinIteratorTest, BlockBoundariesDoNotChangeAnswers) {
  const TreePattern pattern = MustParse("//a//b");
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    TwigFixture fx(rng, 120, 3);
    std::mt19937_64 rng_a(seed * 101);
    std::mt19937_64 rng_b(seed * 101 + 1);
    const auto a = RunJoin(pattern, fx.ancestors, fx.descendants, rng_a);
    const auto b = RunJoin(pattern, fx.ancestors, fx.descendants, rng_b);
    EXPECT_GT(a.size(), 0u);
    EXPECT_TRUE(AnswersEqual(a, b));
  }
}

TEST(StructuralJoinIteratorTest, LeapfrogSkipsOutOfRangeBlocks) {
  // The selective stream has one document; the document leapfrog drops
  // the other stream's blocks below it whole, and still counts their
  // postings as consumed.
  const TreePattern pattern = MustParse("//a//b");
  StructuralJoinIterator join(pattern);
  join.AddInput(0, PostingBlock::FromList({Posting{0, 950, {1, 1000, 1}}}));
  for (uint32_t b = 0; b < 9; ++b) {
    PostingList chunk;
    for (uint32_t d = 0; d < 100; ++d) {
      chunk.push_back(Posting{0, b * 100 + d, {10, 10, 3}});
    }
    join.AddInput(1, PostingBlock::FromList(std::move(chunk)));
  }
  join.AddInput(1, PostingBlock::FromList({Posting{0, 950, {10, 10, 3}}}));
  join.Run();
  ASSERT_EQ(join.answers().size(), 1u);
  EXPECT_EQ(join.answers()[0].doc, (DocId{0, 950}));
  EXPECT_EQ(join.postings_consumed(), 1u + 900u + 1u);
}

TEST(StructuralJoinIteratorTest, TakeMovesTheResultsOut) {
  const TreePattern pattern = MustParse("//a//b");
  std::mt19937_64 rng(4);
  TwigFixture fx(rng, 40, 2);
  StructuralJoinIterator join(pattern);
  join.AddInput(0, PostingBlock::FromList(fx.ancestors));
  join.AddInput(1, PostingBlock::FromList(fx.descendants));
  join.Run();
  const size_t answers = join.answers().size();
  const size_t docs = join.matched_docs().size();
  ASSERT_GT(answers, 0u);
  EXPECT_EQ(join.TakeAnswers().size(), answers);
  EXPECT_EQ(join.TakeMatchedDocs().size(), docs);
  EXPECT_TRUE(join.answers().empty());
  EXPECT_TRUE(join.matched_docs().empty());
}

TEST(StructuralJoinIteratorTest, EstimateIsMinInputCount) {
  const TreePattern pattern = MustParse("//a//b");
  StructuralJoinIterator join(pattern);
  std::mt19937_64 rng(2);
  join.AddInput(0, PostingBlock::FromList(RandomSortedList(rng, 40)));
  join.AddInput(1, PostingBlock::FromList(RandomSortedList(rng, 7)));
  EXPECT_EQ(join.EstimateResultsAmount(), 7u);
}

// --- EstimateTwigResults ---------------------------------------------------

TEST(EstimateTwigResultsTest, IsMinOverNodeCounts) {
  const TreePattern pattern = MustParse("//a//b[//c]");
  const std::vector<uint64_t> counts{1000, 40, 220};
  EXPECT_EQ(EstimateTwigResults(pattern, counts), 40u);
  const std::vector<uint64_t> with_zero{0, 40, 220};
  EXPECT_EQ(EstimateTwigResults(pattern, with_zero), 0u);
}

}  // namespace
}  // namespace kadop::query
