#ifndef KADOP_PERFBENCH_REPLAY_H_
#define KADOP_PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "xml/node.h"

namespace kadop::perfbench {

/// Replays each hot layer's public kernels on a workload's own inputs (its
/// corpus, the term lists extracted from it, and its query patterns), one
/// host-clock span around each kernel, and returns host nanoseconds per
/// unit of work:
///   index.extract_ns_per_posting     index::ExtractTerms
///   store.append_ns_per_posting      store::BTreePeerStore::AppendPostings
///   store.range_ns_per_posting       store::BTreePeerStore::GetPostingRange
///   codec.encode_ns_per_posting      index::codec::EncodePostings
///   codec.decode_ns_per_posting      index::codec::DecodePostings
///   index.semijoin_ns_per_posting    index::{Ancestor,Descendant}SemiJoin
///   query.prune_ns_per_posting       query::internal::PruneCandidates
///   query.enumerate_ns_per_answer    query::internal::EnumerateMatches
///   bloom.build_ns_per_posting       bloom::{Ancestor,Descendant}BloomFilter::Build
///   bloom.probe_ns                   ...::Filter, per probed posting
///   sim.replay_ns_per_event          sim::Scheduler::At + RunUntilIdle
/// Runs after the workload's registry has been read: the kernels feed the
/// same counters as the live system.
std::map<std::string, double> ReplayLayers(
    const std::vector<xml::Document>& corpus,
    const std::vector<std::string>& patterns);

}  // namespace kadop::perfbench

#endif  // KADOP_PERFBENCH_REPLAY_H_
