// Seeded property tests for the posting-stream layer under the twig join:
// internal::PostingStream skips and takes must agree with a flat-list
// oracle on skewed and adversarial lists, skips must drop out-of-range
// blocks whole with exact accounting, MergeDistinct must equal sort +
// unique, and the twig join must produce identical answers however its
// inputs are cut into blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "index/posting.h"
#include "query/tree_pattern.h"
#include "query/twig_join.h"

namespace kadop::query {
namespace {

using index::DocId;
using index::Posting;
using index::PostingList;

TreePattern MustParse(const char* expr) {
  auto result = ParsePattern(expr);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.take();
}

// --- internal::PostingStream ------------------------------------------------

using internal::PostingStream;

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

/// Splits `list` into random contiguous chunks — any split of a sorted
/// list is a valid block stream.
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

PostingStream MakeStream(std::mt19937_64& rng, const PostingList& list) {
  PostingStream s;
  for (PostingList& chunk : RandomChunks(rng, list)) s.Push(std::move(chunk));
  s.Close();
  return s;
}

/// Drains a stream document by document.
PostingList Drain(PostingStream& s) {
  PostingList out;
  while (s.HasBuffered()) s.TakeDoc(s.HeadDoc(), out);
  return out;
}

TEST(PostingStreamTest, SkipAndTakeMatchFlatListOracle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const PostingList list = RandomSortedList(rng, 400);
    PostingStream s = MakeStream(rng, list);
    // Random non-decreasing doc targets interleaved with whole-document
    // takes; the oracle walks the flat list.
    size_t at = 0;  // index of the next unconsumed oracle posting
    std::uniform_int_distribution<size_t> jump_d(0, 12);
    std::uniform_int_distribution<int> coin(0, 1);
    while (at < list.size()) {
      ASSERT_TRUE(s.HasBuffered());
      ASSERT_EQ(s.HeadDoc(), list[at].doc_id());
      if (coin(rng) == 0) {
        PostingList took;
        const size_t n = s.TakeDoc(s.HeadDoc(), took);
        size_t end = at;
        while (end < list.size() && list[end].doc_id() == list[at].doc_id()) {
          ++end;
        }
        EXPECT_EQ(n, end - at);
        EXPECT_EQ(took, PostingList(list.begin() + static_cast<long>(at),
                                    list.begin() + static_cast<long>(end)));
        at = end;
        continue;
      }
      const DocId target =
          list[std::min(list.size() - 1, at + jump_d(rng))].doc_id();
      const size_t expect = static_cast<size_t>(
          std::partition_point(list.begin() + static_cast<long>(at),
                               list.end(),
                               [&](const Posting& p) {
                                 return p.doc_id() < target;
                               }) -
          list.begin());
      EXPECT_EQ(s.SkipBelowDoc(target), expect - at);
      at = expect;
    }
    EXPECT_TRUE(s.Exhausted());
  }
}

TEST(PostingStreamTest, DrainMatchesList) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const PostingList list = RandomSortedList(rng, 300);
    PostingStream s = MakeStream(rng, list);
    EXPECT_EQ(s.LastBufferedDoc(), list.back().doc_id());
    EXPECT_EQ(Drain(s), list);
    EXPECT_FALSE(s.HasBuffered());
    EXPECT_TRUE(s.Exhausted());
  }
}

/// Ten blocks over docs [0, 1000), then one block at doc 5000.
PostingStream TenBlocksThenDoc5000() {
  PostingStream s;
  for (uint32_t b = 0; b < 10; ++b) {
    PostingList chunk;
    for (uint32_t d = 0; d < 100; ++d) {
      chunk.push_back(Posting{0, b * 100 + d, {1, 2, 1}});
    }
    s.Push(std::move(chunk));
  }
  s.Push({Posting{0, 5000, {1, 2, 1}}});
  s.Close();
  return s;
}

TEST(PostingStreamTest, SkipBelowDocDropsWholeBlocksAndCountsThem) {
  PostingStream s = TenBlocksThenDoc5000();
  // Five whole blocks plus half of the sixth fall below doc 550.
  EXPECT_EQ(s.SkipBelowDoc(DocId{0, 550}), 550u);
  EXPECT_EQ(s.HeadDoc(), (DocId{0, 550}));
  // Past every block but the last: the partial sixth block and four whole
  // ones.
  EXPECT_EQ(s.SkipBelowDoc(DocId{0, 4000}), 450u);
  EXPECT_EQ(s.HeadDoc(), (DocId{0, 5000}));
  // A target at or below the head drops nothing.
  EXPECT_EQ(s.SkipBelowDoc(DocId{0, 5000}), 0u);
  EXPECT_EQ(s.SkipAll(), 1u);
  EXPECT_FALSE(s.HasBuffered());
  EXPECT_TRUE(s.Exhausted());
}

TEST(PostingStreamTest, GallopingWorstCaseLandsExactly) {
  // One giant leap from the head of a large stream to its very last
  // document: twenty whole blocks, then a gallop across a 1000-posting
  // block.
  PostingStream s;
  for (uint32_t b = 0; b < 20; ++b) {
    PostingList chunk;
    for (uint32_t d = 0; d < 50; ++d) {
      chunk.push_back(Posting{0, b * 50 + d, {1, 2, 1}});
    }
    s.Push(std::move(chunk));
  }
  PostingList big;
  for (uint32_t i = 0; i < 1000; ++i) {
    big.push_back(Posting{0, 1000 + i, {10 + i, 10 + i, 2}});
  }
  s.Push(big);
  s.Close();
  EXPECT_EQ(s.SkipBelowDoc(big.back().doc_id()), 1000u + 999u);
  EXPECT_EQ(s.HeadDoc(), big.back().doc_id());
  PostingList last;
  EXPECT_EQ(s.TakeDoc(s.HeadDoc(), last), 1u);
  EXPECT_EQ(last, PostingList{big.back()});
  EXPECT_TRUE(s.Exhausted());
}

TEST(PostingStreamTest, AdversarialShapes) {
  // Empty blocks are dropped on Push; single-posting blocks and a long
  // run of exact duplicates stream through unchanged.
  PostingStream s;
  s.Push({});
  const Posting dup{1, 1, {5, 9, 2}};
  s.Push(PostingList(32, dup));
  s.Push({Posting{1, 2, {1, 1, 1}}});
  s.Push({});
  s.Push({Posting{2, 0, {1, 4, 1}}});
  s.Close();
  s.Push({});  // an empty block after Close is still dropped
  PostingList expect(32, dup);
  expect.push_back(Posting{1, 2, {1, 1, 1}});
  expect.push_back(Posting{2, 0, {1, 4, 1}});
  EXPECT_EQ(Drain(s), expect);
}

TEST(PostingStreamTest, OutOfOrderInputAborts) {
  EXPECT_DEATH(
      {
        PostingStream s;
        s.Push({Posting{0, 5, {1, 2, 1}}, Posting{0, 1, {1, 2, 1}}});
      },
      "stream postings out of order");
  EXPECT_DEATH(
      {
        PostingStream s;
        s.Push({Posting{0, 5, {1, 2, 1}}});
        s.Push({Posting{0, 1, {1, 2, 1}}});
      },
      "stream blocks out of order");
}

// --- MergeDistinct -----------------------------------------------------------

/// sort + unique oracle for MergeDistinct.
PostingList DistinctOracle(const std::vector<PostingList>& lists) {
  PostingList merged;
  for (const PostingList& l : lists) {
    merged.insert(merged.end(), l.begin(), l.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

TEST(MergeDistinctTest, MatchesSortUniqueOracle) {
  // RandomSortedList plants exact duplicates within each list; the lists
  // interleave and overlap each other.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<size_t> n_d(0, 120);
    std::vector<PostingList> lists;
    for (int i = 0; i < 5; ++i) lists.push_back(RandomSortedList(rng, n_d(rng)));
    lists.push_back(lists[1]);  // a whole list repeated
    EXPECT_EQ(index::MergeDistinct(lists), DistinctOracle(lists));
    // Disjoint sorted lists arriving in any order (ordered DPP pulls).
    const PostingList all = DistinctOracle(lists);
    std::vector<PostingList> pieces = RandomChunks(rng, all);
    std::shuffle(pieces.begin(), pieces.end(), rng);
    EXPECT_EQ(index::MergeDistinct(pieces), all);
  }
  EXPECT_TRUE(index::MergeDistinct({}).empty());
}

TEST(MergeDistinctTest, UnsortedInputGetsTheCanonicalResult) {
  const PostingList backwards{Posting{0, 9, {1, 2, 1}}, Posting{0, 1, {1, 2, 1}},
                              Posting{0, 9, {1, 2, 1}}};
  const PostingList sorted{Posting{0, 5, {1, 2, 1}}};
  const PostingList expect{Posting{0, 1, {1, 2, 1}}, Posting{0, 5, {1, 2, 1}},
                           Posting{0, 9, {1, 2, 1}}};
  EXPECT_EQ(index::MergeDistinct({backwards, sorted}), expect);
  EXPECT_EQ(index::MergeDistinct({sorted, backwards}), expect);
}

// --- Block boundaries, leapfrog and one-shot joins ---------------------------

/// Builds matching //a//b candidate lists over `docs` documents with
/// `per_doc` elements each plus decoy-only documents that cannot join.
struct TwigFixture {
  PostingList ancestors;
  PostingList descendants;

  TwigFixture(std::mt19937_64& rng, uint32_t docs, uint32_t per_doc) {
    std::uniform_int_distribution<int> decoy_d(0, 2);
    for (uint32_t d = 0; d < docs; ++d) {
      const int decoy = decoy_d(rng);
      if (decoy != 2) ancestors.push_back(Posting{0, d, {1, 1000, 1}});
      if (decoy == 1) continue;  // ancestor without descendants
      for (uint32_t i = 0; i < per_doc; ++i) {
        descendants.push_back(Posting{0, d, {10 + i, 10 + i, 3}});
      }
    }
  }
};

std::vector<Answer> RunChunked(const TreePattern& pattern,
                               const TwigFixture& fx, std::mt19937_64& rng) {
  TwigJoin join(pattern);
  for (PostingList& chunk : RandomChunks(rng, fx.ancestors)) {
    join.Append(0, std::move(chunk));
  }
  for (PostingList& chunk : RandomChunks(rng, fx.descendants)) {
    join.Append(1, std::move(chunk));
  }
  join.CloseAll();
  join.Advance();
  return join.TakeAnswers();
}

TEST(TwigJoinBlocksTest, BlockBoundariesDoNotChangeAnswers) {
  const TreePattern pattern = MustParse("//a//b");
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    const TwigFixture fx(rng, 120, 3);
    std::mt19937_64 rng_a(seed * 101);
    std::mt19937_64 rng_b(seed * 101 + 1);
    const auto a = RunChunked(pattern, fx, rng_a);
    EXPECT_GT(a.size(), 0u);
    EXPECT_EQ(a, RunChunked(pattern, fx, rng_b));
    EXPECT_EQ(a, JoinLists(pattern, {fx.ancestors, fx.descendants}).answers);
  }
}

TEST(TwigJoinBlocksTest, LeapfrogSkipsOutOfRangeBlocks) {
  // The selective stream has one document; the document leapfrog drops
  // the other stream's blocks below it whole, and still counts their
  // postings as consumed.
  const TreePattern pattern = MustParse("//a//b");
  TwigJoin join(pattern);
  join.Append(0, {Posting{0, 950, {1, 1000, 1}}});
  for (uint32_t b = 0; b < 9; ++b) {
    PostingList chunk;
    for (uint32_t d = 0; d < 100; ++d) {
      chunk.push_back(Posting{0, b * 100 + d, {10, 10, 3}});
    }
    join.Append(1, std::move(chunk));
  }
  join.Append(1, {Posting{0, 950, {10, 10, 3}}});
  join.CloseAll();
  join.Advance();
  ASSERT_EQ(join.answers().size(), 1u);
  EXPECT_EQ(join.answers()[0].doc, (DocId{0, 950}));
  EXPECT_EQ(join.postings_consumed(), 1u + 900u + 1u);
}

TEST(TwigJoinBlocksTest, ResultsAreMovedOut) {
  const TreePattern pattern = MustParse("//a//b");
  std::mt19937_64 rng(4);
  const TwigFixture fx(rng, 40, 2);
  TwigJoin join(pattern);
  join.Append(0, fx.ancestors);
  join.Append(1, fx.descendants);
  join.CloseAll();
  join.Advance();
  const std::vector<Answer> answers = join.answers();
  const std::vector<DocId> docs = join.matched_docs();
  ASSERT_GT(answers.size(), 0u);
  EXPECT_EQ(join.TakeAnswers(), answers);
  EXPECT_EQ(join.TakeMatchedDocs(), docs);
  EXPECT_TRUE(join.answers().empty());
  EXPECT_TRUE(join.matched_docs().empty());

  // The one-shot forms hand back the same results.
  const JoinResult once = JoinLists(pattern, {fx.ancestors, fx.descendants});
  EXPECT_EQ(once.answers, answers);
  EXPECT_EQ(once.matched_docs, docs);
  // JoinGathered merge-distincts each node's pulls first: split and
  // overlapping pulls join like the whole lists.
  const size_t half = fx.descendants.size() / 2;
  std::vector<std::vector<PostingList>> gathered(2);
  gathered[0] = {fx.ancestors, fx.ancestors};
  gathered[1] = {
      PostingList(fx.descendants.begin() + static_cast<long>(half),
                  fx.descendants.end()),
      PostingList(fx.descendants.begin(),
                  fx.descendants.begin() + static_cast<long>(half + 1))};
  const JoinResult merged = JoinGathered(pattern, std::move(gathered));
  EXPECT_EQ(merged.answers, answers);
  EXPECT_EQ(merged.matched_docs, docs);
}

}  // namespace
}  // namespace kadop::query
