#ifndef KADOP_PERFBENCH_WORKLOADS_H_
#define KADOP_PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "sim/network.h"
#include "src/oracle.h"
#include "xml/node.h"

namespace kadop::perfbench {

enum class Workload { kIndexBuild, kServeMix, kSelectiveLookup };

/// Parses a workload name; false when unknown.
bool ParseWorkload(std::string_view name, Workload* out);

/// Virtual-time latency limit a query must meet to count as goodput.
inline constexpr double kLatencyLimitS = 0.5;

/// Phases of obs::ComputePhaseBreakdown, in its fixed order.
inline constexpr std::array<const char*, 6> kPhaseNames = {
    "route", "fetch", "decode", "join", "reply", "other"};

/// Everything one round measured. A round is one complete, independent
/// run of the workload in a fresh network: set-up (corpus generation,
/// network build, base publish, view materialization), the timed phase,
/// then the oracle check. Rounds of one seed, each in a fresh process,
/// repeat the same virtual execution exactly; only host times differ.
struct RoundResult {
  // Host clock (seconds).
  double setup_s = 0;
  double publish_host_s = 0;  // the publish calls that index the corpus
  double view_setup_s = 0;    // CreateViewAndWait calls
  double serve_host_s = 0;    // the query phase
  double timed_host_s = 0;    // the phase the registry delta covers

  // Virtual clock.
  double index_time_s = 0;        // virtual time to index the corpus
  std::vector<double> latencies;  // response times of non-failed queries
  double query_window_s = 0;      // virtual span of the query phase
  uint64_t within_limit = 0;      // non-failed queries under the limit
  uint64_t postings_indexed = 0;  // base postings the publish phase indexed
  uint64_t queries_done = 0;      // queries that completed (failed or not)
  std::map<std::string, uint64_t> plans;  // effective strategy -> queries
  double net_bytes = 0;           // simulated bytes moved, timed phase

  // Operations: publishes plus queries.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few reasons, for stderr

  // Per-layer material over the timed phase.
  obs::MetricsSnapshot delta;
  uint64_t events = 0;
  sim::TrafficStats traffic;
  std::vector<std::array<double, 6>> phases;  // per complete trace tree
  uint64_t phase_trees_skipped = 0;           // overflowed trace trees
  uint64_t dropped_spans = 0;

  // The workload's own inputs, kept for the layer replay.
  std::vector<xml::Document> corpus;
  std::vector<std::string> patterns;
};

struct RoundOptions {
  uint64_t seed = 1;
  /// Trace the timed phase (obs::Tracer + wall-clock profiling shim), and
  /// hand the corpus and patterns back in RoundResult for the replay.
  bool traced = false;
};

/// Runs one round of `workload`.
RoundResult RunRound(Workload workload, const RoundOptions& options,
                     Oracle& oracle);

/// Plants a missing answer, an extra answer and an unacknowledged publish
/// in a tiny network and checks that the oracle and the publish
/// accounting count each as a failure. Returns "" when all three are
/// caught, else what slipped through. It builds a network of its own, so
/// it runs in a process that measures no round.
std::string SelfTest();

}  // namespace kadop::perfbench

#endif  // KADOP_PERFBENCH_WORKLOADS_H_
