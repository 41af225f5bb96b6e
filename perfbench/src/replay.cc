#include "src/replay.h"

#include <algorithm>

#include "bloom/structural_filter.h"
#include "index/codec.h"
#include "index/structural_join.h"
#include "index/terms.h"
#include "query/executor.h"
#include "query/tree_pattern.h"
#include "query/twig_join.h"
#include "sim/scheduler.h"
#include "src/host.h"
#include "store/peer_store.h"

namespace kadop::perfbench {

namespace {

using index::PostingList;

double NsPer(double seconds, size_t units) {
  return units == 0 ? 0 : seconds * 1e9 / static_cast<double>(units);
}

/// Guards a kernel's result against being optimized away.
volatile size_t g_sink = 0;

/// The term lists of one pattern node, per document.
std::map<index::DocId, PostingList> ByDocument(const PostingList& list) {
  std::map<index::DocId, PostingList> out;
  for (const index::Posting& p : list) out[p.doc_id()].push_back(p);
  return out;
}

}  // namespace

std::map<std::string, double> ReplayLayers(
    const std::vector<xml::Document>& corpus,
    const std::vector<std::string>& patterns) {
  std::map<std::string, double> out;

  // index: the Term relation of every document.
  std::vector<index::TermPosting> terms;
  {
    const index::ExtractOptions options;
    const HostTimer t;
    for (size_t i = 0; i < corpus.size(); ++i) {
      index::ExtractTerms(corpus[i], 0, static_cast<index::DocSeq>(i), options,
                          terms);
    }
    out["index.extract_ns_per_posting"] = NsPer(t.Seconds(), terms.size());
  }
  std::map<std::string, PostingList> lists;
  for (const index::TermPosting& tp : terms) lists[tp.key].push_back(tp.posting);
  for (auto& [key, list] : lists) std::sort(list.begin(), list.end());
  const size_t total = terms.size();
  terms.clear();
  terms.shrink_to_fit();

  // store: appends in publisher-sized batches, then full-range reads.
  {
    store::BTreePeerStore store;
    constexpr size_t kBatch = 512;
    const HostTimer t;
    for (const auto& [key, list] : lists) {
      for (size_t at = 0; at < list.size(); at += kBatch) {
        const size_t end = std::min(list.size(), at + kBatch);
        store.AppendPostings(key, PostingList(list.begin() + static_cast<long>(at),
                                              list.begin() + static_cast<long>(end)));
      }
    }
    out["store.append_ns_per_posting"] = NsPer(t.Seconds(), total);
    size_t read = 0;
    const HostTimer r;
    for (const auto& [key, list] : lists) {
      read += store.GetPostingRange(key, index::kMinPosting, index::kMaxPosting, 0)
                  .size();
    }
    out["store.range_ns_per_posting"] = NsPer(r.Seconds(), read);
  }

  // codec: encode every list, then decode it back.
  {
    std::vector<std::vector<uint8_t>> encoded;
    encoded.reserve(lists.size());
    const HostTimer e;
    for (const auto& [key, list] : lists) {
      encoded.push_back(index::codec::EncodePostings(list));
    }
    out["codec.encode_ns_per_posting"] = NsPer(e.Seconds(), total);
    PostingList decoded;
    size_t n = 0;
    const HostTimer d;
    for (const auto& bytes : encoded) {
      if (index::codec::DecodePostings(bytes, &decoded).ok()) n += decoded.size();
    }
    out["codec.decode_ns_per_posting"] = NsPer(d.Seconds(), n);
  }

  // Pattern-driven kernels: semi-joins and Bloom filters along each edge,
  // prune and enumerate per document.
  std::vector<query::TreePattern> parsed;
  for (const std::string& xpath : patterns) {
    auto p = query::ParsePattern(xpath);
    if (p.ok() && !p.value().HasWildcard()) parsed.push_back(p.take());
  }
  const auto list_of = [&lists](const query::PatternNode& node) {
    static const PostingList kEmpty;
    const auto it = lists.find(node.TermKey());
    return it == lists.end() ? &kEmpty : &it->second;
  };
  const query::QueryOptions qdefaults;
  double semijoin_s = 0, build_s = 0, probe_s = 0;
  size_t semijoin_in = 0, build_in = 0, probes = 0;
  for (const query::TreePattern& pattern : parsed) {
    for (size_t c = 1; c < pattern.size(); ++c) {
      const PostingList& la = *list_of(pattern.node(
          static_cast<size_t>(pattern.node(c).parent)));
      const PostingList& lb = *list_of(pattern.node(c));
      {
        const HostTimer t;
        g_sink = g_sink + index::AncestorSemiJoin(la, lb).size() +
                 index::DescendantSemiJoin(la, lb).size();
        semijoin_s += t.Seconds();
        semijoin_in += 2 * (la.size() + lb.size());
      }
      const HostTimer ab_build;
      const auto abf = bloom::AncestorBloomFilter::Build(la, qdefaults.ab_params);
      const auto dbf = bloom::DescendantBloomFilter::Build(lb, qdefaults.db_params);
      build_s += ab_build.Seconds();
      build_in += la.size() + lb.size();
      const HostTimer probe;
      g_sink = g_sink + abf.Filter(lb).size() + dbf.Filter(la).size();
      probe_s += probe.Seconds();
      probes += la.size() + lb.size();
    }
  }
  out["index.semijoin_ns_per_posting"] = NsPer(semijoin_s, semijoin_in);
  out["bloom.build_ns_per_posting"] = NsPer(build_s, build_in);
  out["bloom.probe_ns"] = NsPer(probe_s, probes);

  double prune_s = 0, enumerate_s = 0;
  size_t pruned_in = 0, answers_out = 0;
  for (const query::TreePattern& pattern : parsed) {
    std::vector<std::map<index::DocId, PostingList>> per_node;
    for (const query::PatternNode& node : pattern.nodes) {
      per_node.push_back(ByDocument(*list_of(node)));
    }
    std::vector<std::pair<index::DocId, std::vector<PostingList>>> docs;
    for (const auto& [doc, root_list] : per_node[0]) {
      std::vector<PostingList> candidates;
      for (auto& m : per_node) {
        const auto it = m.find(doc);
        if (it == m.end()) break;
        candidates.push_back(it->second);
      }
      if (candidates.size() != pattern.size()) continue;
      for (const PostingList& l : candidates) pruned_in += l.size();
      docs.emplace_back(doc, std::move(candidates));
    }
    std::vector<bool> survived(docs.size());
    const HostTimer p;
    for (size_t i = 0; i < docs.size(); ++i) {
      survived[i] = query::internal::PruneCandidates(pattern, docs[i].second);
    }
    prune_s += p.Seconds();
    std::vector<query::Answer> answers;
    const HostTimer e;
    for (size_t i = 0; i < docs.size(); ++i) {
      if (!survived[i]) continue;
      query::internal::EnumerateMatches(pattern, docs[i].first, docs[i].second,
                                        size_t{1} << 20, answers);
    }
    enumerate_s += e.Seconds();
    answers_out += answers.size();
  }
  out["query.prune_ns_per_posting"] = NsPer(prune_s, pruned_in);
  out["query.enumerate_ns_per_answer"] = NsPer(enumerate_s, answers_out);

  // sim: schedule and drain a burst of trivial events.
  {
    constexpr size_t kEvents = 200000;
    sim::Scheduler scheduler;
    size_t ran = 0;
    const HostTimer t;
    for (size_t i = 0; i < kEvents; ++i) {
      scheduler.At(static_cast<double>(i % 1000) * 1e-3, [&ran] { ++ran; });
    }
    scheduler.RunUntilIdle();
    out["sim.replay_ns_per_event"] = NsPer(t.Seconds(), ran);
  }
  return out;
}

}  // namespace kadop::perfbench
