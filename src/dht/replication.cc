#include "dht/replication.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "dht/dht.h"
#include "dht/ring.h"
#include "obs/metrics.h"

namespace kadop::dht {

using sim::NodeIndex;

// ---------------------------------------------------------------------------
// KeyLoadTracker

KeyLoadTracker::KeyLoadTracker(size_t capacity) : capacity_(capacity) {
  KADOP_CHECK(capacity_ > 0, "key load tracker needs capacity");
  auto& r = obs::MetricRegistry::Default();
  eviction_counter_ = r.GetCounter("load.key.evictions");
  tracked_gauge_ = r.GetGauge("load.key.tracked");
}

void KeyLoadTracker::RecordGet(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= capacity_) {
      // Evict the coldest entry (smallest count; ties: the map's first,
      // i.e. lexically smallest, key). The newcomer inherits the evicted
      // count — the space-saving guarantee that a genuinely hot key cannot
      // be hidden by a stream of one-off keys.
      auto victim = entries_.begin();
      for (auto e = std::next(entries_.begin()); e != entries_.end(); ++e) {
        if (e->second.count < victim->second.count) victim = e;
      }
      const uint64_t inherited = victim->second.count;
      entries_.erase(victim);
      evictions_++;
      eviction_counter_->Increment();
      it = entries_.emplace(key, Entry{inherited, 0}).first;
    } else {
      it = entries_.emplace(key, Entry{}).first;
    }
    tracked_gauge_->Set(static_cast<double>(entries_.size()));
  }
  it->second.count++;
  it->second.window_gets++;
}

std::map<std::string, uint64_t> KeyLoadTracker::DrainWindow() {
  std::map<std::string, uint64_t> out;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.window_gets > 0) out[it->first] = it->second.window_gets;
    it->second.window_gets = 0;
    it->second.count /= 2;
    if (it->second.count == 0) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  tracked_gauge_->Set(static_cast<double>(entries_.size()));
  return out;
}

// ---------------------------------------------------------------------------
// Power-of-two-choices

NodeIndex PowerOfTwoChoice(
    const std::vector<NodeIndex>& candidates,
    const std::function<uint64_t(NodeIndex)>& load, Rng& rng) {
  KADOP_CHECK(!candidates.empty(), "power-of-two-choices with no candidates");
  if (candidates.size() == 1) return candidates[0];
  const size_t a = rng.Uniform(candidates.size());
  size_t b = rng.Uniform(candidates.size() - 1);
  if (b >= a) b++;  // second draw over the remaining candidates
  const NodeIndex na = candidates[a];
  const NodeIndex nb = candidates[b];
  const uint64_t la = load(na);
  const uint64_t lb = load(nb);
  if (la != lb) return la < lb ? na : nb;
  return na < nb ? na : nb;  // load tie: draw-order independent
}

// ---------------------------------------------------------------------------
// ReplicationManager

ReplicationManager::ReplicationManager(Dht* dht, ReplicationOptions options)
    : dht_(dht),
      options_(options),
      tracker_(options.max_tracked_keys),
      rng_(options.seed) {
  KADOP_CHECK(dht_ != nullptr, "ReplicationManager requires a Dht");
  KADOP_CHECK(options_.replicas >= 1, "replicas must be >= 1");
  auto& r = obs::MetricRegistry::Default();
  promotions_ = r.GetCounter("repl.promotions");
  demotions_ = r.GetCounter("repl.demotions");
  replica_gets_ = r.GetCounter("repl.replica_gets");
  stale_rejects_ = r.GetCounter("repl.stale_rejects");
  windows_ = r.GetCounter("repl.windows");
}

void ReplicationManager::SetEnabled(bool on) {
  if (options_.enabled == on) return;
  options_.enabled = on;
  if (on) return;
  // Turning off demotes everything so replica stores don't keep stale
  // copies around.
  for (auto& [key, state] : keys_) {
    if (!state.replicas.empty()) Demote(key, state);
  }
  keys_.clear();
  window_end_ = -1.0;
}

uint64_t ReplicationManager::OwnerVersion(const std::string& key) const {
  return dht_->peer(dht_->OwnerOf(HashKey(key)))->store()->PostingVersion(key);
}

void ReplicationManager::MaybeTick(double now) {
  if (!options_.enabled) return;
  if (window_end_ < 0) {
    window_end_ = now + options_.window_s;
    return;
  }
  if (now < window_end_) return;
  ProcessWindow();
  window_end_ = now + options_.window_s;
}

void ReplicationManager::ProcessWindow() {
  windows_->Increment();
  const std::map<std::string, uint64_t> counts = tracker_.DrainWindow();

  // Streak bookkeeping for keys already under management.
  for (auto it = keys_.begin(); it != keys_.end();) {
    KeyState& st = it->second;
    const auto cit = counts.find(it->first);
    const uint64_t gets = cit == counts.end() ? 0 : cit->second;
    if (gets >= options_.hot_gets_per_window) {
      st.hot_streak++;
      st.cool_streak = 0;
    } else {
      st.hot_streak = 0;
      st.cool_streak =
          gets <= options_.cool_gets_per_window ? st.cool_streak + 1 : 0;
    }
    if (!st.replicas.empty() && st.cool_streak >= options_.cool_windows) {
      Demote(it->first, st);
    }
    if (st.replicas.empty() && st.hot_streak == 0) {
      it = keys_.erase(it);
    } else {
      ++it;
    }
  }
  // Keys newly above the hotness threshold start a streak.
  for (const auto& [key, gets] : counts) {
    if (gets < options_.hot_gets_per_window) continue;
    if (keys_.count(key) > 0) continue;
    keys_[key].hot_streak = 1;
  }
  // Promote matured streaks; refresh replicas that missed their copy or
  // whose stamped version fell behind the owner (invalidation-or-forward:
  // in between, the version guard forwards their gets to the owner).
  for (auto& [key, st] : keys_) {
    if (st.replicas.empty()) {
      if (st.hot_streak >= options_.hot_windows) Promote(key, st);
      continue;
    }
    const uint64_t version = OwnerVersion(key);
    const NodeIndex owner = dht_->OwnerOf(HashKey(key));
    for (const Replica& r : st.replicas) {
      if (!dht_->network()->IsNodeUp(r.node) || r.node == owner) continue;
      if (r.ready && r.version == version) continue;
      if (copy_fn_) copy_fn_(key, owner, r.node, version);
    }
  }

  // Per-window max-ingress gauges: the saturation signal the serving bench
  // reports (largest per-window gets any single holder absorbed).
  auto& r = obs::MetricRegistry::Default();
  for (size_t node = 0; node < dht_->PeerCount(); ++node) {
    const auto n = static_cast<NodeIndex>(node);
    const uint64_t total = dht_->peer(n)->stats().gets_served;
    const uint64_t seen = holder_gets_seen_[n];
    holder_gets_seen_[n] = total;
    const auto delta = static_cast<double>(total - seen);
    obs::Gauge* gauge = r.GetGauge("load.holder." + std::to_string(node) +
                                   ".max_ingress");
    if (delta > gauge->value()) gauge->Set(delta);
  }
}

void ReplicationManager::Promote(const std::string& key, KeyState& st) {
  const std::vector<NodeIndex> succ =
      dht_->SuccessorsOf(HashKey(key), options_.replicas + 1);
  if (succ.size() <= 1) return;  // ring too small for a copy
  const NodeIndex owner = succ[0];
  const uint64_t version = OwnerVersion(key);
  for (size_t i = 1; i < succ.size(); ++i) {
    if (!dht_->network()->IsNodeUp(succ[i])) continue;
    Replica r;
    r.node = succ[i];
    r.version = version;
    st.replicas.push_back(r);
    if (copy_fn_) copy_fn_(key, owner, succ[i], version);
  }
  if (st.replicas.empty()) return;
  promotions_->Increment();
}

void ReplicationManager::Demote(const std::string& key, KeyState& st) {
  for (const Replica& r : st.replicas) {
    if (!dht_->network()->IsNodeUp(r.node)) continue;
    if (drop_fn_) drop_fn_(key, r.node);
  }
  st.replicas.clear();
  st.cool_streak = 0;
  demotions_->Increment();
}

NodeIndex ReplicationManager::RouteGet(const std::string& key) {
  if (!options_.enabled) return kNoReplica;
  const auto it = keys_.find(key);
  if (it == keys_.end() || it->second.replicas.empty()) return kNoReplica;
  const NodeIndex owner = dht_->OwnerOf(HashKey(key));
  const uint64_t version = OwnerVersion(key);
  std::vector<NodeIndex> candidates;
  if (dht_->network()->IsNodeUp(owner)) candidates.push_back(owner);
  for (const Replica& r : it->second.replicas) {
    // Only ready, live, version-fresh flat copies may serve directly;
    // everything else (staged directory state, stale copies) exists for
    // crash takeover and is reached through ownership, not routing.
    if (!r.ready || !r.flat || r.version != version) continue;
    if (r.node == owner || !dht_->network()->IsNodeUp(r.node)) continue;
    candidates.push_back(r.node);
  }
  if (candidates.empty()) return kNoReplica;
  // Combined ingress load of a holder in this network (the per-peer
  // counterpart of the `load.holder.*` registry counters, which keep
  // counting across every network built in the process).
  const auto holder_load = [this](NodeIndex node) {
    const DhtStats& s = dht_->peer(node)->stats();
    return s.gets_served + s.appends_received;
  };
  const NodeIndex pick = PowerOfTwoChoice(candidates, holder_load, rng_);
  return pick == owner ? kNoReplica : pick;
}

bool ReplicationManager::CanServeReplica(
    const std::string& key, NodeIndex node,
    uint64_t authoritative_version) const {
  if (!options_.enabled) return false;
  const auto it = keys_.find(key);
  if (it == keys_.end()) return false;
  for (const Replica& r : it->second.replicas) {
    if (r.node != node) continue;
    return r.ready && r.flat && r.version == authoritative_version;
  }
  return false;
}

void ReplicationManager::OnReplicaInstalled(const std::string& key,
                                            NodeIndex target,
                                            uint64_t version, bool flat) {
  const auto it = keys_.find(key);
  if (it == keys_.end()) return;  // demoted while the copy was in flight
  for (Replica& r : it->second.replicas) {
    if (r.node != target) continue;
    r.ready = true;
    r.version = version;
    r.flat = flat;
    return;
  }
}

void ReplicationManager::CountReplicaGet() { replica_gets_->Increment(); }

void ReplicationManager::CountStaleReject() { stale_rejects_->Increment(); }

bool ReplicationManager::IsReplicated(const std::string& key) const {
  const auto it = keys_.find(key);
  return it != keys_.end() && !it->second.replicas.empty();
}

std::vector<NodeIndex> ReplicationManager::ReplicaNodes(
    const std::string& key) const {
  std::vector<NodeIndex> out;
  const auto it = keys_.find(key);
  if (it == keys_.end()) return out;
  for (const Replica& r : it->second.replicas) out.push_back(r.node);
  return out;
}

}  // namespace kadop::dht
