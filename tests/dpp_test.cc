#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/kadop.h"
#include "dht/dht.h"
#include "dht/ring.h"
#include "index/dpp.h"
#include "query/local_eval.h"
#include "xml/corpus.h"

namespace kadop::index {
namespace {

using dht::Dht;
using dht::DhtOptions;
using dht::GetResult;

Posting MakePosting(uint32_t doc, uint32_t start) {
  return Posting{1, doc, {start, start + 1, 2}};
}

/// A small cluster with a DppManager per peer, wired as the core facade
/// would wire it.
struct DppNet {
  explicit DppNet(size_t peers, DppOptions dpp_options = {})
      : network(&scheduler), dht(&scheduler, &network, DhtOptions{}) {
    dht.AddPeers(peers);
    for (size_t i = 0; i < peers; ++i) {
      dht::DhtPeer* peer = dht.peer(static_cast<sim::NodeIndex>(i));
      managers.push_back(
          std::make_unique<DppManager>(peer, dpp_options));
      DppManager* manager = managers.back().get();
      peer->SetAppendInterceptor(
          [manager](const dht::AppendRequest& request) {
            return manager->OnAppend(request);
          });
      peer->SetAppHandler(
          [manager](const dht::AppRequest& request, sim::NodeIndex from) {
            // Handled-ness is irrelevant here: DPP is the only service.
            (void)manager->HandleApp(request, from);
          });
    }
  }

  PostingList FetchAllBlocks(const std::string& term) {
    std::vector<DppBlockInfo> dir;
    DppManager::FetchDirectory(dht.peer(0), term,
                               [&](Status, std::vector<DppBlockInfo> blocks) {
                                 dir = std::move(blocks);
                               });
    scheduler.RunUntilIdle();
    PostingList all;
    for (const auto& block : dir) {
      std::optional<GetResult> got;
      dht.peer(0)->Get(block.key, [&](GetResult r) { got = std::move(r); });
      scheduler.RunUntilIdle();
      EXPECT_TRUE(got.has_value() && got->complete);
      all.insert(all.end(), got->postings.begin(), got->postings.end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }

  sim::Scheduler scheduler;
  sim::Network network;
  Dht dht;
  std::vector<std::unique_ptr<DppManager>> managers;
};

TEST(ConditionTest, Basics) {
  Condition c;
  EXPECT_TRUE(c.Empty());
  c.Extend(MakePosting(5, 1));
  EXPECT_FALSE(c.Empty());
  EXPECT_TRUE(c.Contains(MakePosting(5, 1)));
  c.Extend(MakePosting(9, 1));
  EXPECT_TRUE(c.Contains(MakePosting(7, 3)));
  EXPECT_FALSE(c.Contains(MakePosting(10, 1)));
  EXPECT_EQ(c.MinDoc(), (DocId{1, 5}));
  EXPECT_EQ(c.MaxDoc(), (DocId{1, 9}));
}

TEST(ConditionTest, IntersectsSubsetBefore) {
  Condition a{MakePosting(1, 1), MakePosting(5, 1)};
  Condition b{MakePosting(4, 1), MakePosting(9, 1)};
  Condition c{MakePosting(6, 1), MakePosting(9, 1)};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Before(c));
  EXPECT_FALSE(a.Before(b));
  Condition inner{MakePosting(2, 1), MakePosting(4, 1)};
  EXPECT_TRUE(inner.SubsetOf(a));
  EXPECT_FALSE(a.SubsetOf(inner));
  EXPECT_FALSE(a.Intersects(Condition{}));
}

TEST(DppTest, SmallListStaysLocal) {
  DppNet net(8);
  PostingList postings;
  for (uint32_t i = 0; i < 100; ++i) postings.push_back(MakePosting(i, 1));
  bool acked = false;
  net.dht.peer(2)->Append("l:title", postings, [&](Status) { acked = true; });
  net.scheduler.RunUntilIdle();
  EXPECT_TRUE(acked);

  std::vector<DppBlockInfo> dir;
  DppManager::FetchDirectory(net.dht.peer(0), "l:title",
                             [&](Status, std::vector<DppBlockInfo> blocks) {
                               dir = std::move(blocks);
                             });
  net.scheduler.RunUntilIdle();
  ASSERT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir[0].key, "l:title");
  EXPECT_EQ(dir[0].count, 100u);
  EXPECT_EQ(net.FetchAllBlocks("l:title"), postings);
}

TEST(DppTest, LongListSplitsAcrossPeersWithOrderedConditions) {
  DppOptions options;
  options.max_block_postings = 256;
  DppNet net(12, options);
  PostingList postings;
  for (uint32_t i = 0; i < 2000; ++i) postings.push_back(MakePosting(i, 1));
  size_t acks = 0;
  // Publish in several batches (more realistic, exercises re-partitioning).
  for (size_t off = 0; off < postings.size(); off += 400) {
    PostingList batch(postings.begin() + off,
                      postings.begin() + std::min(off + 400, postings.size()));
    net.dht.peer(3)->Append("l:author", batch, [&](Status) { acks++; });
  }
  net.scheduler.RunUntilIdle();
  EXPECT_EQ(acks, 5u);

  std::vector<DppBlockInfo> dir;
  DppManager::FetchDirectory(net.dht.peer(0), "l:author",
                             [&](Status, std::vector<DppBlockInfo> blocks) {
                               dir = std::move(blocks);
                             });
  net.scheduler.RunUntilIdle();
  EXPECT_GE(dir.size(), 4u);
  // Conditions are ordered and non-overlapping; counts bounded.
  uint64_t total = 0;
  for (size_t i = 0; i < dir.size(); ++i) {
    total += dir[i].count;
    EXPECT_LE(dir[i].count, options.max_block_postings);
    if (i > 0) {
      EXPECT_TRUE(dir[i - 1].cond.Before(dir[i].cond))
          << dir[i - 1].cond.ToString() << " vs " << dir[i].cond.ToString();
    }
  }
  EXPECT_EQ(total, 2000u);
  // No postings lost or duplicated across the split blocks.
  EXPECT_EQ(net.FetchAllBlocks("l:author"), postings);
  // Splits actually migrated data to other peers.
  DppStats stats;
  for (const auto& m : net.managers) stats.Add(m->stats());
  EXPECT_GT(stats.splits, 0u);
  EXPECT_GT(stats.migrated_postings, 0u);
}

TEST(DppTest, OutOfOrderInsertsLandInMatchingBlocks) {
  DppOptions options;
  options.max_block_postings = 128;
  DppNet net(8, options);
  // First wave: even docs; second wave: odd docs interleaved into the
  // already-split range.
  PostingList evens, odds;
  for (uint32_t i = 0; i < 1000; ++i) {
    (i % 2 == 0 ? evens : odds).push_back(MakePosting(i, 1));
  }
  net.dht.peer(0)->Append("l:a", evens, nullptr);
  net.scheduler.RunUntilIdle();
  net.dht.peer(0)->Append("l:a", odds, nullptr);
  net.scheduler.RunUntilIdle();

  PostingList all = net.FetchAllBlocks("l:a");
  PostingList expected = evens;
  expected.insert(expected.end(), odds.begin(), odds.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(all, expected);
}

TEST(DppTest, DirectoryOfUnknownTermIsEmpty) {
  DppNet net(4);
  std::optional<std::vector<DppBlockInfo>> dir;
  DppManager::FetchDirectory(net.dht.peer(0), "l:never",
                             [&](Status, std::vector<DppBlockInfo> blocks) {
                               dir = std::move(blocks);
                             });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(dir.has_value());
  EXPECT_TRUE(dir->empty());
}

TEST(DppTest, PartitionedTermCount) {
  DppOptions options;
  options.max_block_postings = 64;
  DppNet net(6, options);
  PostingList big;
  for (uint32_t i = 0; i < 500; ++i) big.push_back(MakePosting(i, 1));
  net.dht.peer(0)->Append("l:big", big, nullptr);
  net.dht.peer(0)->Append("l:small", {MakePosting(1, 1)}, nullptr);
  net.scheduler.RunUntilIdle();
  size_t partitioned = 0;
  for (const auto& m : net.managers) partitioned += m->PartitionedTermCount();
  EXPECT_EQ(partitioned, 1u);
}

TEST(DppTest, InterleavedPublishersKeepDirectoriesOrderedAndAnswersWhole) {
  // Four publishers publish at once, so their append batches for each term
  // interleave at the term owners while small blocks keep splitting. The
  // query side relies on what this pins: every directory is ascending with
  // pairwise-disjoint conditions (the [min, max] window reads the extremes
  // off the first and last block, and blocks stream into the join in
  // directory order), and kDpp returns exactly the oracle's answers.
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 150 << 10;
  copt.doc_bytes = 4 << 10;
  const std::vector<xml::Document> docs = xml::corpus::GenerateDblp(copt);

  core::KadopOptions opt;
  opt.peers = 12;
  opt.dpp.max_block_postings = 64;
  core::KadopNet net(opt);
  net.RegisterDocuments(docs);
  const std::vector<sim::NodeIndex> publishers{2, 5, 7, 10};
  std::vector<std::pair<sim::NodeIndex, std::vector<const xml::Document*>>>
      batches;
  for (const sim::NodeIndex p : publishers) batches.push_back({p, {}});
  for (size_t d = 0; d < docs.size(); ++d) {
    batches[d % batches.size()].second.push_back(&docs[d]);
  }
  net.ParallelPublishAndWait(batches);

  DppStats stats;
  for (size_t i = 0; i < net.PeerCount(); ++i) {
    stats.Add(net.peer(static_cast<sim::NodeIndex>(i))->dpp()->stats());
  }
  EXPECT_GT(stats.splits, 50u);

  for (const char* expr : {"//article//author", "//inproceedings//booktitle",
                           "//article[//journal]//year"}) {
    const query::TreePattern pattern = query::ParsePattern(expr).take();
    for (size_t node = 0; node < pattern.size(); ++node) {
      const std::string key = pattern.node(node).TermKey();
      std::vector<DppBlockInfo> dir;
      DppManager::FetchDirectory(net.peer(0)->dht_peer(), key,
                                 [&](Status, std::vector<DppBlockInfo> b) {
                                   dir = std::move(b);
                                 });
      net.RunToIdle();
      ASSERT_FALSE(dir.empty()) << key;
      for (size_t i = 1; i < dir.size(); ++i) {
        EXPECT_TRUE(dir[i - 1].cond.Before(dir[i].cond))
            << key << ": " << dir[i - 1].cond.ToString() << " vs "
            << dir[i].cond.ToString();
      }
    }

    std::vector<query::Answer> expected;
    for (const sim::NodeIndex p : publishers) {
      const DocStore& store = net.peer(p)->doc_store();
      for (DocSeq seq = 0; seq < store.size(); ++seq) {
        for (query::Answer& a : query::EvaluateOnDocument(
                 pattern, *store.Get(seq), DocId{p, seq})) {
          expected.push_back(std::move(a));
        }
      }
    }
    query::QueryOptions options;
    options.strategy = query::QueryStrategy::kDpp;
    auto result = net.QueryAndWait(1, expr, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().metrics.complete) << expr;
    // Answers stream out in document order, as the oracle lists them.
    const std::vector<query::Answer>& got = result.value().answers;
    EXPECT_EQ(got.size(), expected.size()) << expr;
    EXPECT_TRUE(got == expected) << expr;
  }
}

}  // namespace
}  // namespace kadop::index
