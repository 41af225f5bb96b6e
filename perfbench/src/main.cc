// KadoP performance benchmark program: runs ONE round of one workload in
// this process and prints one JSON line with the round's figures.
//
//   kadop_perfbench --workload <index_build|serve_mix|selective_lookup>
//                   --seed <n> --trace <0|1>
//   kadop_perfbench --self-test
//
// A round (workloads.h) builds a fresh network, so every round is a fresh
// process that builds no other network: two KadopNets built one after
// another in one process do not repeat the same virtual execution
// (perfbench/README.md). The self-test builds its own network, so it runs
// in a process of its own (--self-test). perfbench/run.py repeats rounds
// for the run length, takes host-clock medians, and checks that the
// virtual-clock figures of every round agree.
//
// Output: {"attempted", "failed", "metrics": end-to-end metrics of this
// round, "timed_host_s", "events", and with --trace 1 "layers": the
// per-layer metrics of this round, kernel replay included}.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "query/executor.h"
#include "sim/network.h"
#include "src/host.h"
#include "src/replay.h"
#include "src/workloads.h"

namespace kadop::perfbench {
namespace {

constexpr double kMb = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (a == "--trace") {
      if (std::string_view(v) != "0" && std::string_view(v) != "1") return false;
      args->trace = v[0] == '1';
    } else {
      return false;
    }
  }
  return args->self_test || !args->workload.empty();
}

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::vector<Metric> EndToEnd(const RoundResult& r) {
  return {
      {"setup_s", "s", r.setup_s},
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"postings_per_host_s", "postings/s",
       static_cast<double>(r.postings_indexed) / r.publish_host_s},
      {"queries_per_host_s", "queries/s",
       static_cast<double>(r.queries_done) / r.serve_host_s},
      {"index_time_s", "s", r.index_time_s},
      {"query_p50_s", "s", Percentile(r.latencies, 0.50)},
      {"query_p99_s", "s", Percentile(r.latencies, 0.99)},
      {"goodput_qps", "queries/s",
       static_cast<double>(r.within_limit) / r.query_window_s},
      {"net_mb", "MB", r.net_bytes / kMb},
  };
}

uint64_t Counter(const RoundResult& r, const std::string& name) {
  const auto it = r.delta.counters.find(name);
  return it == r.delta.counters.end() ? 0 : it->second;
}

/// Per-layer metrics of one traced round. The host-derived ones
/// (`sim.host_ns_per_event`, `host.*`, `trace.overhead`) are completed
/// across rounds by run.py; this round's own values are placeholders there.
std::vector<Metric> PerLayer(const RoundResult& t,
                             const std::map<std::string, double>& replay) {
  std::vector<Metric> out;
  const auto count = [&out](std::string name, double v) {
    out.push_back({std::move(name), "count", v});
  };
  const auto bytes = [&out](std::string name, double v) {
    out.push_back({std::move(name), "bytes", v});
  };
  const auto counter = [&](const std::string& name) {
    count(name, static_cast<double>(Counter(t, name)));
  };
  const auto counter_bytes = [&](const std::string& name) {
    bytes(name, static_cast<double>(Counter(t, name)));
  };
  const auto replayed = [&](const std::string& name) {
    const auto it = replay.find(name);
    out.push_back({name, "ns", it == replay.end() ? 0 : it->second});
  };

  // sim
  count("sim.events", static_cast<double>(t.events));
  out.push_back({"sim.host_ns_per_event", "ns",
                 t.events == 0 ? 0
                               : t.timed_host_s * 1e9 /
                                     static_cast<double>(t.events)});
  replayed("sim.replay_ns_per_event");
  count("sim.messages", static_cast<double>(t.traffic.messages));
  for (size_t c = 0; c < t.traffic.bytes_by_category.size(); ++c) {
    bytes("sim.bytes." + std::string(sim::TrafficCategoryName(
                             static_cast<sim::TrafficCategory>(c))),
          static_cast<double>(t.traffic.bytes_by_category[c]));
  }

  // dht
  counter("dht.route_hops");
  {
    const auto it = t.delta.histograms.find("dht.hops_per_delivery");
    const bool have = it != t.delta.histograms.end() && it->second.count > 0;
    out.push_back({"dht.hops_per_delivery", "hops",
                   have ? it->second.sum / static_cast<double>(it->second.count)
                        : 0});
  }
  counter("dht.appends_received");
  counter("dht.gets_served");
  {
    uint64_t max_gets = 0;
    for (const auto& [name, v] : t.delta.counters) {
      if (name.rfind("load.holder.", 0) == 0 && name.size() > 5 &&
          name.compare(name.size() - 5, 5, ".gets") == 0) {
        max_gets = std::max(max_gets, v);
      }
    }
    count("dht.max_holder_gets", static_cast<double>(max_gets));
  }
  counter("repl.replica_gets");
  counter("repl.stale_rejects");
  counter_bytes("repl.bytes_copied");

  // store
  counter("store.operations");
  counter_bytes("store.read_bytes");
  counter_bytes("store.write_bytes");
  counter("store.btree.splits");
  replayed("store.append_ns_per_posting");
  replayed("store.range_ns_per_posting");

  // index
  counter("publish.postings");
  counter("publish.batches");
  counter("dpp.splits");
  counter("dpp.migrated_postings");
  counter_bytes("codec.raw_bytes");
  counter_bytes("codec.encoded_bytes");
  replayed("index.extract_ns_per_posting");
  replayed("index.semijoin_ns_per_posting");
  replayed("codec.encode_ns_per_posting");
  replayed("codec.decode_ns_per_posting");

  // query
  for (query::QueryStrategy s :
       {query::QueryStrategy::kBaseline, query::QueryStrategy::kDpp,
        query::QueryStrategy::kAbReducer, query::QueryStrategy::kDbReducer,
        query::QueryStrategy::kBloomReducer,
        query::QueryStrategy::kSubQueryReducer, query::QueryStrategy::kDppJoin,
        query::QueryStrategy::kView}) {
    const std::string name(query::QueryStrategyName(s));
    const auto it = t.plans.find(name);
    count("query.plan." + name,
          it == t.plans.end() ? 0 : static_cast<double>(it->second));
  }
  counter("query.dpp.blocks_fetched");
  counter("query.dpp.blocks_skipped");
  counter("query.join.tasks");
  counter("query.join.postings_consumed");
  counter("query.join.answers");
  counter("query.join.result_postings");
  counter_bytes("query.join.holder.egress_result_bytes");
  counter_bytes("query.join.holder.ingress_wire_bytes");
  {
    const double consumed =
        static_cast<double>(Counter(t, "query.join.postings_consumed"));
    out.push_back(
        {"query.join.answers_per_consumed_posting", "ratio",
         consumed == 0 ? 0
                       : static_cast<double>(Counter(t, "query.join.answers")) /
                             consumed});
  }
  replayed("query.prune_ns_per_posting");
  replayed("query.enumerate_ns_per_answer");
  counter("view.hits");
  counter("view.rewrites");
  counter_bytes("view.bytes_served");
  counter("view.maintenance_tuples");

  // bloom
  counter("bloom.filters_built");
  counter("bloom.inserts");
  counter("bloom.probes");
  counter("bloom.probe_hits");
  counter_bytes("query.ab_filter_bytes");
  counter_bytes("query.db_filter_bytes");
  replayed("bloom.build_ns_per_posting");
  replayed("bloom.probe_ns");

  // phases (virtual time), over every whole traced query tree
  for (size_t p = 0; p < kPhaseNames.size(); ++p) {
    std::vector<double> v;
    for (const auto& row : t.phases) v.push_back(row[p]);
    const std::string base = std::string("phase.") + kPhaseNames[p];
    out.push_back({base + "_p50_s", "s", Percentile(v, 0.50)});
    out.push_back({base + "_p99_s", "s", Percentile(v, 0.99)});
  }
  count("phase.trees", static_cast<double>(t.phases.size()));
  count("phase.trees_skipped", static_cast<double>(t.phase_trees_skipped));

  // host spans around the benchmark's calls into core::KadopNet
  out.push_back({"host.publish_s", "s", t.publish_host_s});
  out.push_back({"host.view_setup_s", "s", t.view_setup_s});
  out.push_back({"host.serve_s", "s", t.serve_host_s});
  out.push_back({"trace.overhead", "ratio", 1});
  count("trace.dropped_spans", static_cast<double>(t.dropped_spans));
  return out;
}

void AppendMetrics(obs::JsonWriter& w, const std::vector<Metric>& metrics) {
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.Key("value");
    w.Value(m.value);
    w.Key("unit");
    w.Value(m.unit);
    w.EndObject();
  }
  w.EndObject();
}

int Run(const Args& args) {
  if (args.self_test) {
    const std::string slipped = SelfTest();
    if (!slipped.empty()) {
      std::fprintf(stderr, "self-test: planted errors slipped through:%s\n",
                   slipped.c_str());
    }
    std::printf("self-test %s\n", slipped.empty() ? "ok" : "FAILED");
    return slipped.empty() ? 0 : 1;
  }
  Workload workload;
  if (!ParseWorkload(args.workload, &workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Oracle oracle;
  RoundOptions options;
  options.seed = args.seed;
  options.traced = args.trace;
  const RoundResult r = RunRound(workload, options, oracle);
  std::fprintf(stderr,
               "round%s: setup %.3fs publish %.3fs serve %.3fs | index %.4fs "
               "p50 %.4fs p99 %.4fs | %llu ops, %llu failed\n",
               args.trace ? " (traced)" : "", r.setup_s, r.publish_host_s,
               r.serve_host_s, r.index_time_s, Percentile(r.latencies, 0.5),
               Percentile(r.latencies, 0.99),
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  for (const auto& [plan, n] : r.plans) {
    std::fprintf(stderr, "  plan %s: %llu queries\n", plan.c_str(),
                 static_cast<unsigned long long>(n));
  }
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "  failed: %s\n", f.c_str());
  }

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("attempted");
  w.Value(r.attempted);
  w.Key("failed");
  w.Value(r.failed);
  w.Key("metrics");
  AppendMetrics(w, EndToEnd(r));
  w.Key("timed_host_s");
  w.Value(r.timed_host_s);
  w.Key("events");
  w.Value(r.events);
  if (args.trace) {
    w.Key("layers");
    AppendMetrics(w, PerLayer(r, ReplayLayers(r.corpus, r.patterns)));
  }
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace kadop::perfbench

int main(int argc, char** argv) {
  kadop::perfbench::Args args;
  if (!kadop::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <index_build|serve_mix|selective_lookup>"
                 " --seed <n> --trace <0|1>\n"
                 "       %s --self-test\n",
                 argv[0], argv[0]);
    return 2;
  }
  return kadop::perfbench::Run(args);
}
