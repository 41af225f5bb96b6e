#include "src/workloads.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "common/random.h"
#include "core/kadop.h"
#include "index/publisher.h"
#include "index/terms.h"
#include "obs/profile_clock.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "src/host.h"
#include "xml/corpus.h"

namespace kadop::perfbench {

namespace {

// ---------------------------------------------------------------------------
// Workload make-up. perfbench/README.md records why each value was chosen;
// change both together.

/// index_build: the paper's Fig 2 operation, scaled to the run length.
/// The publish is the largest part of a round; at 16 MB a round takes
/// ~20 s, too few rounds per run for a median of the host clock.
struct IndexBuildConfig {
  size_t corpus_bytes = 8u << 20;
  size_t peers = 500;
  size_t publishers = 25;
  /// Selective patterns among the probes that check the index after the
  /// build; each is evaluated by the oracle over the whole corpus.
  size_t probe_patterns = 16;
};

/// serve_mix: the serving harness's tenants, open loop near the knee.
/// Reads and writes alternate in epochs: each epoch first publishes a few
/// churn documents and lets them settle, then offers Poisson arrivals. A
/// publish that overlaps a kDppJoin query can leave that query degraded or
/// incomplete (CHANGES.md, FOUND), on some seeds only, so writes never
/// overlap reads here.
struct ServeMixConfig {
  size_t corpus_bytes = 1u << 20;
  size_t churn_bytes = 1u << 20;
  size_t peers = 24;
  double offered_qps = 28;
  size_t epochs = 16;
  size_t arrivals_per_epoch = 130;
  size_t churn_per_epoch = 3;
};

/// selective_lookup: the paper's Fig 3/7 setting, one client, unloaded.
struct SelectiveConfig {
  size_t corpus_bytes = 3u << 20;
  size_t peers = 100;
  size_t publishers = 8;
  size_t queries = 1000;
};

/// The serving harness's six tenants (bench/serving_workload.cc), Zipf
/// weighted by rank with exponent 1.
struct Tenant {
  const char* name;
  const char* xpath;
};
constexpr Tenant kTenants[] = {
    {"hot_twig", "//article[//author]//title"},
    {"scan_authors", "//article//author"},
    {"proceedings", "//inproceedings//title"},
    {"word_lookup", "//article//title//\"database\""},
    {"filtered", "//article[contains(.//title,'system')]//author"},
    {"rare_thesis", "//phdthesis//author"},
};
constexpr size_t kTenantCount = sizeof(kTenants) / sizeof(kTenants[0]);

/// Zipf weights (exponent 1) of the tenants by rank.
std::vector<double> TenantWeights() {
  std::vector<double> w;
  for (size_t k = 1; k <= kTenantCount; ++k) w.push_back(1.0 / static_cast<double>(k));
  return w;
}

/// `n` draws in exact proportion to `weights` (largest-remainder rounding),
/// unshuffled. Each run offers the same mix of work, so host-time figures
/// vary with the seed only through order, placement and corpus content,
/// not through a binomial spread in how often the heavy patterns come up.
std::vector<size_t> ExactMix(const std::vector<double>& weights, size_t n) {
  double total = 0;
  for (double w : weights) total += w;
  std::vector<size_t> counts(weights.size());
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double exact = static_cast<double>(n) * weights[i] / total;
    counts[i] = static_cast<size_t>(exact);
    assigned += counts[i];
    remainders.emplace_back(exact - static_cast<double>(counts[i]), i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first : a.second < b.second;
            });
  for (size_t i = 0; assigned < n; ++i, ++assigned) counts[remainders[i].second]++;
  std::vector<size_t> out;
  for (size_t i = 0; i < counts.size(); ++i) out.insert(out.end(), counts[i], i);
  return out;
}

/// Every index in [from, to) equally often, at least `n` entries in all.
std::vector<size_t> EvenSequence(size_t from, size_t to, size_t n) {
  std::vector<size_t> out;
  while (out.size() < n && from < to) {
    for (size_t i = from; i < to; ++i) out.push_back(i);
  }
  return out;
}

/// Seeds derived from the run seed, one stream per purpose.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL;
  x = (x ^ (x >> 31)) * 0xbf58476d1ce4e5b9ULL;
  return (x ^ (x >> 29)) | 1;
}

std::vector<xml::Document> Corpus(uint64_t seed, size_t bytes) {
  xml::corpus::DblpOptions options;
  options.seed = seed;
  options.target_bytes = bytes;
  return xml::corpus::GenerateDblp(options);
}

query::QueryOptions AutoOptions() {
  query::QueryOptions q;
  q.strategy = query::QueryStrategy::kAuto;
  q.dpp_join_available = true;
  return q;
}

// ---------------------------------------------------------------------------
// Selective patterns drawn from the corpus vocabulary.

/// Document-entry frequency of each title word and author name.
struct Vocabulary {
  std::map<std::string, size_t> title_words;
  std::map<std::string, size_t> authors;
  size_t entries = 0;
};

void CollectVocabulary(const xml::Node& node, Vocabulary& v) {
  if (!node.IsElement()) return;
  if (node.label() == "title" || node.label() == "author") {
    std::vector<std::string> words;
    for (const auto& child : node.children()) {
      if (child->IsText()) index::TokenizeWords(child->text(), words);
    }
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    auto& counts = node.label() == "title" ? v.title_words : v.authors;
    for (const std::string& w : words) {
      if (w.size() >= 3) counts[w]++;
    }
    if (node.label() == "title") v.entries++;
    return;
  }
  for (const auto& child : node.children()) CollectVocabulary(*child, v);
}

/// Draws `n` distinct terms whose entry frequency lies in [lo, hi].
std::vector<std::string> Draw(const std::map<std::string, size_t>& counts,
                              size_t lo, size_t hi, size_t n, Rng& rng) {
  std::vector<std::string> band;
  for (const auto& [term, count] : counts) {
    if (count >= lo && count <= hi) band.push_back(term);
  }
  rng.Shuffle(band);
  band.resize(std::min(n, band.size()));
  return band;
}

/// Selective tree patterns over the corpus: the paper's Ullman query, the
/// `filtered` serving tenant, seeded word lookups alone and under an entry
/// tag, and seeded author lookups under an entry tag. Every pattern but
/// the tenant has a rare term.
std::vector<std::string> SelectivePatterns(
    const std::vector<xml::Document>& docs, uint64_t seed) {
  Vocabulary v;
  for (const auto& d : docs) {
    if (d.root) CollectVocabulary(*d.root, v);
  }
  Rng rng(seed);
  // Rare: in at most ~0.5% of entries; never fewer than 2 occurrences.
  const size_t hi = std::max<size_t>(4, v.entries / 200);
  const std::vector<std::string> words = Draw(v.title_words, 2, hi, 32, rng);
  const std::vector<std::string> names = Draw(v.authors, 2, hi, 16, rng);

  std::vector<std::string> out = {
      "//article//author//\"Ullman\"",
      kTenants[4].xpath,
  };
  for (size_t i = 0; i < words.size(); ++i) {
    out.push_back("//title//\"" + words[i] + "\"");
    if (i % 2 == 0) {
      out.push_back("//inproceedings//title//\"" + words[i] + "\"");
    }
  }
  // No two-step `//author//"n"`: under kDppJoin its traffic swings with
  // where the seed's DPP splits fall (14x between seeds 1 and 3), which
  // would make net_mb bimodal across seeds.
  for (const std::string& n : names) {
    out.push_back("//article//author//\"" + n + "\"");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Publishing with acknowledgement accounting.

class PublishTracker {
 public:
  /// Starts publishing `docs` from `from` with the network's publish
  /// options (view-maintenance hooks included); returns immediately.
  void Start(core::KadopNet& net, sim::NodeIndex from,
             std::vector<const xml::Document*> docs,
             PublishedSet& published) {
    auto op = std::make_shared<Op>();
    op->docs = std::move(docs);
    auto pub = std::make_shared<index::Publisher>(
        net.peer(from)->dht_peer(), &net.peer(from)->doc_store(),
        net.options().publish);
    ops_.push_back(op);
    publishers_.push_back(pub);
    pub->Publish(op->docs, [&net, &published, op, this]() {
      op->acked = true;
      const double now = net.scheduler().Now();
      last_ack_ = std::max(last_ack_, now);
      for (const xml::Document* d : op->docs) published.Ack(d, now);
    });
  }

  /// Counts every publish started so far; an unacknowledged one failed.
  /// Call once the network is idle.
  void Account(RoundResult& r) {
    for (const auto& op : ops_) {
      r.attempted++;
      if (!op->acked) {
        r.failed++;
        if (r.failures.size() < 4) r.failures.push_back("publish never acked");
      }
    }
    ops_.clear();
  }

  double last_ack() const { return last_ack_; }

 private:
  struct Op {
    std::vector<const xml::Document*> docs;
    bool acked = false;
  };
  std::vector<std::shared_ptr<Op>> ops_;
  std::vector<std::shared_ptr<index::Publisher>> publishers_;
  double last_ack_ = 0;
};

/// Publishes `docs` round-robin from `publishers` peers spread over the
/// network and drives it to idle. Returns the virtual time to the last ack.
double PublishCorpus(core::KadopNet& net, const std::vector<xml::Document>& docs,
                     size_t publishers, PublishTracker& tracker,
                     PublishedSet& published) {
  std::vector<std::vector<const xml::Document*>> batches(publishers);
  for (size_t i = 0; i < docs.size(); ++i) {
    published.Add(&docs[i], i);
    batches[i % publishers].push_back(&docs[i]);
  }
  const double start = net.scheduler().Now();
  for (size_t p = 0; p < publishers; ++p) {
    if (batches[p].empty()) continue;
    tracker.Start(net,
                  static_cast<sim::NodeIndex>(p * net.PeerCount() / publishers),
                  std::move(batches[p]), published);
  }
  net.RunToIdle();
  return tracker.last_ack() - start;
}

/// PublishCorpus, recording the publish figures into `r`.
void IndexCorpus(core::KadopNet& net, const std::vector<xml::Document>& docs,
                 size_t publishers, PublishTracker& tracker,
                 PublishedSet& published, RoundResult& r) {
  obs::Counter* postings =
      obs::MetricRegistry::Default().GetCounter("publish.postings");
  const uint64_t before = postings->value();
  const HostTimer timer;
  r.index_time_s = PublishCorpus(net, docs, publishers, tracker, published);
  r.publish_host_s = timer.Seconds();
  r.postings_indexed = postings->value() - before;
}

// ---------------------------------------------------------------------------
// Queries and their deferred check.

/// A finished query, digested; checked after the registry was read.
struct Finished {
  size_t pattern = 0;
  double submitted = 0;
  bool ok = false;  // parsed, complete and not degraded
  std::string why;  // when not ok
  double latency = 0;  // virtual response time
  AnswerDigest digest;
};

/// Parsed patterns of a workload, by index.
struct PatternSet {
  std::vector<std::string> xpaths;
  std::vector<query::TreePattern> parsed;
  std::vector<bool> parse_ok;

  explicit PatternSet(std::vector<std::string> list) : xpaths(std::move(list)) {
    for (const std::string& x : xpaths) {
      auto p = query::ParsePattern(x);
      parse_ok.push_back(p.ok());
      parsed.push_back(p.ok() ? p.take() : query::TreePattern{});
    }
  }
};

void RecordQuery(const query::QueryResult& result, Finished& f,
                 RoundResult& r) {
  const query::QueryMetrics& m = result.metrics;
  f.ok = m.complete && !m.degraded;
  if (!f.ok) {
    f.why = std::string(m.complete ? "" : "incomplete ") +
            (m.degraded ? "degraded " : "") +
            (m.view_fallback ? "after view fallback " : "") + "under " +
            std::string(query::QueryStrategyName(m.effective_strategy));
  }
  f.latency = m.ResponseTime();
  r.queries_done++;
  r.plans[std::string(query::QueryStrategyName(m.effective_strategy))]++;
}

/// Oracle-checks every finished query; `complete_for(f, doc)` says whether
/// the query must hold all of `doc`'s answers. Only queries that pass
/// count toward the latency figures: a failed query misses every limit.
void CheckQueries(
    Oracle& oracle, core::KadopNet& net, const PublishedSet& published,
    const PatternSet& patterns, const std::vector<Finished>& finished,
    const std::function<bool(const Finished&, const xml::Document*)>&
        complete_for,
    RoundResult& r) {
  for (const Finished& f : finished) {
    r.attempted++;
    std::string why;
    if (!patterns.parse_ok[f.pattern]) {
      why = "pattern does not parse";
    } else if (!f.ok) {
      why = f.why.empty() ? "query not submitted" : f.why;
    } else {
      why = CheckAnswers(oracle, net, published, patterns.xpaths[f.pattern],
                         patterns.parsed[f.pattern], f.digest,
                         [&](const xml::Document* d) {
                           return complete_for(f, d);
                         });
    }
    if (why.empty()) {
      r.latencies.push_back(f.latency);
      if (f.latency <= kLatencyLimitS) r.within_limit++;
      continue;
    }
    r.failed++;
    if (r.failures.size() < 4) {
      r.failures.push_back(patterns.xpaths[f.pattern] + ": " + why);
    }
  }
}

/// Closed loop, one client: each query is submitted when the previous one
/// finished, from a uniformly drawn peer. Host time counts only the
/// QueryAndWait calls.
std::vector<Finished> ClosedLoop(core::KadopNet& net,
                                 const PatternSet& patterns,
                                 const std::vector<size_t>& sequence,
                                 uint64_t seed, RoundResult& r) {
  Rng rng(seed);
  std::vector<Finished> out;
  out.reserve(sequence.size());
  const double start = net.scheduler().Now();
  const query::QueryOptions options = AutoOptions();
  for (size_t idx : sequence) {
    Finished& f = out.emplace_back();
    f.pattern = idx;
    f.submitted = net.scheduler().Now();
    const auto at = static_cast<sim::NodeIndex>(rng.Uniform(net.PeerCount()));
    const HostTimer timer;
    auto result = net.QueryAndWait(at, patterns.xpaths[idx], options);
    r.serve_host_s += timer.Seconds();
    if (!result.ok()) {
      r.queries_done++;
      continue;
    }
    RecordQuery(result.value(), f, r);
    f.digest = Digest(result.value().answers,
                      [](const index::DocId&) { return false; });
  }
  r.query_window_s = net.scheduler().Now() - start;
  return out;
}

// ---------------------------------------------------------------------------
// The timed phase: registry, traffic and event deltas, plus tracing.

class TimedPhase {
 public:
  TimedPhase(core::KadopNet& net, bool traced) : net_(net), traced_(traced) {
    if (traced_) {
      auto& tracer = obs::Tracer::Default();
      tracer.Clear();
      tracer.SetCapacity(kTraceCapacity);
      tracer.SetEnabled(true);
      obs::SetWallClockProfiling(true);
    }
    dropped_before_ = obs::Tracer::Default().dropped();
    before_ = obs::MetricRegistry::Default().Snapshot();
    events_before_ = net_.scheduler().executed_events();
    traffic_before_ = net_.network().traffic();
  }

  /// Closes the phase: fills the registry delta and the per-layer inputs.
  void End(RoundResult& r) {
    r.delta = obs::MetricRegistry::Default().Snapshot().DiffSince(before_);
    r.events = net_.scheduler().executed_events() - events_before_;
    const sim::TrafficStats& now = net_.network().traffic();
    r.traffic.messages = now.messages - traffic_before_.messages;
    r.traffic.bytes = now.bytes - traffic_before_.bytes;
    for (size_t c = 0; c < now.bytes_by_category.size(); ++c) {
      r.traffic.bytes_by_category[c] =
          now.bytes_by_category[c] - traffic_before_.bytes_by_category[c];
      r.traffic.messages_by_category[c] = now.messages_by_category[c] -
                                          traffic_before_.messages_by_category[c];
    }
    r.net_bytes = static_cast<double>(r.traffic.bytes);
    if (!traced_) return;
    auto& tracer = obs::Tracer::Default();
    tracer.SetEnabled(false);
    obs::SetWallClockProfiling(false);
    r.dropped_spans = tracer.dropped() - dropped_before_;
    CollectPhases(tracer, r);
    tracer.Clear();
  }

 private:
  // Bounds the tracer's memory; trees cut off by it are skipped below.
  static constexpr size_t kTraceCapacity = 1u << 18;

  static void CollectPhases(const obs::Tracer& tracer, RoundResult& r) {
    // Once the buffer is full every later Begin is dropped, so a query
    // tree is whole only if it ended before the last recorded span began.
    const bool overflowed = r.dropped_spans > 0 && !tracer.spans().empty();
    const double full_at = overflowed ? tracer.spans().back().start : 0;
    for (obs::SpanId root : obs::TraceRoots(tracer)) {
      const obs::TraceTree tree = obs::BuildTraceTree(tracer, root);
      if (tree.root == nullptr || tree.root->name != "query") continue;
      if (tree.root->end < 0 || (overflowed && tree.root->end >= full_at)) {
        r.phase_trees_skipped++;
        continue;
      }
      const obs::PhaseBreakdown b = obs::ComputePhaseBreakdown(tree);
      std::array<double, 6> row{};
      for (size_t i = 0; i < b.phases.size() && i < row.size(); ++i) {
        row[i] = b.phases[i].second;
      }
      r.phases.push_back(row);
    }
  }

  core::KadopNet& net_;
  const bool traced_;
  uint64_t dropped_before_ = 0;
  obs::MetricsSnapshot before_;
  uint64_t events_before_ = 0;
  sim::TrafficStats traffic_before_;
};

// ---------------------------------------------------------------------------
// Workloads.

RoundResult IndexBuild(const RoundOptions& o, Oracle& oracle) {
  const IndexBuildConfig cfg;
  RoundResult r;
  const HostTimer setup;
  std::vector<xml::Document> docs = Corpus(SubSeed(o.seed, 1), cfg.corpus_bytes);
  core::KadopOptions kopt;
  kopt.peers = cfg.peers;
  kopt.enable_dpp = true;
  core::KadopNet net(kopt);
  net.RegisterDocuments(docs);
  r.setup_s = setup.Seconds();

  PublishTracker tracker;
  PublishedSet published;
  {
    TimedPhase phase(net, o.traced);
    IndexCorpus(net, docs, cfg.publishers, tracker, published, r);
    r.timed_host_s = r.publish_host_s;
    phase.End(r);
  }
  tracker.Account(r);

  // Probes, closed loop, after the timed phase, each pattern once: the four
  // tag patterns (large answers) and probe_patterns of the selective set,
  // evenly spaced in it, without the `filtered` tenant (a large answer).
  PatternSet patterns = [&] {
    std::vector<std::string> list = {
        "//article//author", "//inproceedings//title",
        "//article[//journal]//year", "//incollection//booktitle"};
    std::vector<std::string> selective;
    for (std::string& s : SelectivePatterns(docs, SubSeed(o.seed, 2))) {
      if (s != kTenants[4].xpath) selective.push_back(std::move(s));
    }
    const size_t n = std::min(cfg.probe_patterns, selective.size());
    for (size_t i = 0; i < n; ++i) {
      list.push_back(selective[i * selective.size() / n]);
    }
    return PatternSet(std::move(list));
  }();
  std::vector<size_t> sequence = EvenSequence(0, patterns.xpaths.size(), 1);
  Rng draw(SubSeed(o.seed, 3));
  draw.Shuffle(sequence);
  const std::vector<Finished> finished =
      ClosedLoop(net, patterns, sequence, SubSeed(o.seed, 4), r);
  CheckQueries(oracle, net, published, patterns, finished,
               [](const Finished&, const xml::Document*) { return true; }, r);
  if (o.traced) {
    r.patterns = patterns.xpaths;
    r.corpus = std::move(docs);
  }
  return r;
}

RoundResult SelectiveLookup(const RoundOptions& o, Oracle& oracle) {
  const SelectiveConfig cfg;
  RoundResult r;
  const HostTimer setup;
  std::vector<xml::Document> docs = Corpus(SubSeed(o.seed, 1), cfg.corpus_bytes);
  core::KadopOptions kopt;
  kopt.peers = cfg.peers;
  core::KadopNet net(kopt);
  net.RegisterDocuments(docs);
  PublishTracker tracker;
  PublishedSet published;
  IndexCorpus(net, docs, cfg.publishers, tracker, published, r);
  tracker.Account(r);
  const PatternSet patterns(SelectivePatterns(docs, SubSeed(o.seed, 2)));
  std::vector<size_t> sequence =
      EvenSequence(0, patterns.xpaths.size(), cfg.queries);
  Rng draw(SubSeed(o.seed, 3));
  draw.Shuffle(sequence);
  r.setup_s = setup.Seconds();

  std::vector<Finished> finished;
  {
    TimedPhase phase(net, o.traced);
    finished = ClosedLoop(net, patterns, sequence, SubSeed(o.seed, 4), r);
    r.timed_host_s = r.serve_host_s;
    phase.End(r);
  }
  CheckQueries(oracle, net, published, patterns, finished,
               [](const Finished&, const xml::Document*) { return true; }, r);
  if (o.traced) {
    r.patterns = patterns.xpaths;
    r.corpus = std::move(docs);
  }
  return r;
}

RoundResult ServeMix(const RoundOptions& o, Oracle& oracle) {
  const ServeMixConfig cfg;
  RoundResult r;
  const HostTimer setup;
  std::vector<xml::Document> docs = Corpus(SubSeed(o.seed, 1), cfg.corpus_bytes);
  std::vector<xml::Document> churn =
      Corpus(SubSeed(o.seed, 5), cfg.churn_bytes);
  churn.resize(std::min(churn.size(), cfg.epochs * cfg.churn_per_epoch));

  core::KadopOptions kopt;
  kopt.peers = cfg.peers;
  kopt.dht.repl.enabled = true;
  kopt.dht.repl.replicas = 2;
  kopt.dht.repl.window_s = 1.0;
  kopt.dht.repl.hot_gets_per_window = 16;
  kopt.dht.repl.hot_windows = 2;
  kopt.views.enabled = true;
  core::KadopNet net(kopt);
  net.RegisterDocuments(docs);
  net.RegisterDocuments(churn);

  PublishTracker tracker;
  PublishedSet published;
  IndexCorpus(net, docs, 1, tracker, published, r);
  {
    const HostTimer timer;
    for (const Tenant& t : kTenants) {
      r.attempted++;
      auto created = net.CreateViewAndWait(t.xpath, t.name);
      if (!created.ok()) {
        r.failed++;
        if (r.failures.size() < 4) {
          r.failures.push_back(std::string("view ") + t.name + ": " +
                               created.status().ToString());
        }
      }
    }
    net.SyncViews();
    r.view_setup_s = timer.Seconds();
  }
  for (size_t i = 0; i < churn.size(); ++i) {
    published.Add(&churn[i], docs.size() + i);
  }
  std::vector<std::string> xpaths;
  for (const Tenant& t : kTenants) xpaths.push_back(t.xpath);
  const PatternSet patterns(std::move(xpaths));
  r.setup_s = setup.Seconds();

  // Each epoch's arrival schedule is laid out before it runs, so arrivals
  // never wait on completions (open loop). Latency is measured from the
  // scheduled arrival, which is also when the query is submitted.
  std::vector<Finished> finished(cfg.epochs * cfg.arrivals_per_epoch);
  {
    TimedPhase phase(net, o.traced);
    const HostTimer timer;
    Rng rng(SubSeed(o.seed, 6));
    const std::vector<size_t> tenant_mix =
        ExactMix(TenantWeights(), cfg.arrivals_per_epoch);
    const query::QueryOptions options = AutoOptions();
    size_t next_churn = 0;
    for (size_t e = 0; e < cfg.epochs; ++e) {
      for (size_t i = 0; i < cfg.churn_per_epoch && next_churn < churn.size();
           ++i, ++next_churn) {
        const auto from = static_cast<sim::NodeIndex>(rng.Uniform(cfg.peers));
        tracker.Start(net, from, {&churn[next_churn]}, published);
      }
      net.RunToIdle();

      std::vector<size_t> mix = tenant_mix;
      rng.Shuffle(mix);
      const HostTimer serve;
      const double start = net.scheduler().Now();
      double t = start;
      for (size_t i = 0; i < cfg.arrivals_per_epoch; ++i) {
        t += rng.Exponential(1.0 / cfg.offered_qps);
        Finished& f = finished[e * cfg.arrivals_per_epoch + i];
        f.pattern = mix[i];
        const auto at = static_cast<sim::NodeIndex>(rng.Uniform(cfg.peers));
        net.scheduler().At(t, [&net, &r, &f, &patterns, &published, options,
                               at]() {
          f.submitted = net.scheduler().Now();
          const double submitted = f.submitted;
          const Status ok = net.SubmitQuery(
              at, patterns.xpaths[f.pattern], options,
              [&net, &r, &f, &published, submitted](query::QueryResult result) {
                RecordQuery(result, f, r);
                // Keep tuples only for documents whose publish had not been
                // acknowledged at submission: those may be partial.
                f.digest = Digest(result.answers, [&](const index::DocId& id) {
                  const xml::Document* d =
                      id.peer < net.PeerCount()
                          ? net.peer(id.peer)->doc_store().Get(id.doc)
                          : nullptr;
                  return d == nullptr || !published.AckedBy(d, submitted);
                });
              });
          if (!ok.ok()) r.queries_done++;
        });
      }
      r.query_window_s += t - start;
      net.RunToIdle();
      r.serve_host_s += serve.Seconds();
    }
    r.timed_host_s = timer.Seconds();
    phase.End(r);
  }
  tracker.Account(r);
  CheckQueries(oracle, net, published, patterns, finished,
               [&published](const Finished& f, const xml::Document* d) {
                 return published.AckedBy(d, f.submitted);
               },
               r);
  if (o.traced) {
    r.patterns = patterns.xpaths;
    r.corpus = std::move(docs);
  }
  return r;
}

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "index_build") {
    *out = Workload::kIndexBuild;
  } else if (name == "serve_mix") {
    *out = Workload::kServeMix;
  } else if (name == "selective_lookup") {
    *out = Workload::kSelectiveLookup;
  } else {
    return false;
  }
  return true;
}

RoundResult RunRound(Workload workload, const RoundOptions& options,
                     Oracle& oracle) {
  switch (workload) {
    case Workload::kIndexBuild:
      return IndexBuild(options, oracle);
    case Workload::kServeMix:
      return ServeMix(options, oracle);
    case Workload::kSelectiveLookup:
      return SelectiveLookup(options, oracle);
  }
  return {};
}

std::string SelfTest() {
  std::vector<xml::Document> docs = Corpus(7, 96u << 10);
  core::KadopOptions kopt;
  kopt.peers = 8;
  core::KadopNet net(kopt);
  net.RegisterDocuments(docs);
  PublishTracker tracker;
  PublishedSet published;
  PublishCorpus(net, docs, 2, tracker, published);
  RoundResult acked;
  tracker.Account(acked);

  const std::string xpath = "//article//author";
  const query::TreePattern pattern = query::ParsePattern(xpath).take();
  query::QueryOptions q;
  q.strategy = query::QueryStrategy::kDpp;
  auto result = net.QueryAndWait(1, xpath, q);
  if (!result.ok() || result.value().answers.size() < 2) {
    return "self-test query returned no answers";
  }
  Oracle oracle;
  const auto all = [](const xml::Document*) { return true; };
  const auto none = [](const index::DocId&) { return false; };
  const auto check = [&](const std::vector<query::Answer>& answers) {
    return CheckAnswers(oracle, net, published, xpath, pattern,
                        Digest(answers, none), all);
  };

  std::string slipped;
  if (acked.failed != 0) slipped += " acknowledged publish counted failed;";
  if (!check(result.value().answers).empty()) {
    slipped += " correct answers rejected;";
  }
  std::vector<query::Answer> missing = result.value().answers;
  missing.erase(missing.begin() + static_cast<long>(missing.size() / 2));
  if (check(missing).empty()) slipped += " missing answer passed;";
  std::vector<query::Answer> extra = result.value().answers;
  extra.push_back(extra.front());
  if (check(extra).empty()) slipped += " extra answer passed;";

  // An unacknowledged publish: every message is lost, so the append acks
  // never arrive and the network runs idle with the publish still open.
  std::vector<xml::Document> late = Corpus(8, 16u << 10);
  sim::FaultOptions lossy;
  lossy.drop_p = 1.0;
  net.EnableFaults(lossy);
  published.Add(&late.front(), docs.size());
  tracker.Start(net, 3, {&late.front()}, published);
  net.RunToIdle();
  net.DisableFaults();
  RoundResult lost;
  tracker.Account(lost);
  if (lost.failed != 1) slipped += " unacknowledged publish not counted;";
  return slipped;
}

}  // namespace kadop::perfbench
