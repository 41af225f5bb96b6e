#ifndef KADOP_QUERY_BLOCK_JOIN_H_
#define KADOP_QUERY_BLOCK_JOIN_H_

#include "dht/peer.h"
#include "index/dpp_messages.h"

namespace kadop::query {

/// One pull of a DPP block clamped to a join task's document window: the
/// get plus what is needed to verify its result against the directory.
struct TrimmedPull {
  dht::GetSpec spec;  // the block's key over the clamped [lo, hi]
  bool lower_trimmed = false;  // the window cut the block's low end
  bool upper_trimmed = false;  // the window cut the block's high end
  uint64_t expected = 0;       // the block's directory count

  /// Whether a finished pull that brought `got` postings cannot be
  /// trusted. A crashed holder's key range is inherited by its data-less
  /// successor, which answers instantly with an empty, complete list. An
  /// untrimmed pull must match the directory count; a pull trimmed at one
  /// end still holds the block's posting at the other end, so empty means
  /// the data is gone. A window strictly inside the block (both ends
  /// trimmed) can be legitimately empty and stays unverifiable.
  [[nodiscard]] bool Suspect(bool complete, size_t got) const;
};

/// The pull of `block` clamped to `window` (not pipelined).
[[nodiscard]] TrimmedPull TrimToWindow(const index::DppBlockInfo& block,
                                       const index::Condition& window,
                                       const dht::RetryPolicy& retry);

/// Holder-side executor of distributed block-join tasks (Section 4.3,
/// docs/distributed_join.md). A query peer running `kDppJoin` routes a
/// `BlockJoinRequest` to the pseudo-key of a task's largest input block;
/// this service — one per peer — pulls the remaining input blocks
/// (trimmed to the task window, reusing GetBlocks and the retry policy),
/// runs the streaming twig join locally, and replies with a
/// `JoinResultMessage` carrying only the per-document answer tuples. The
/// home block is served by the local store, so the heaviest posting list
/// never crosses the wire.
class BlockJoinService {
 public:
  explicit BlockJoinService(dht::DhtPeer* peer);

  BlockJoinService(const BlockJoinService&) = delete;
  BlockJoinService& operator=(const BlockJoinService&) = delete;

  /// Handles BlockJoinRequest messages; false for any other payload.
  [[nodiscard]] bool HandleApp(const dht::AppRequest& request,
                               sim::NodeIndex from);

 private:
  void RunTask(const index::BlockJoinRequest& req, sim::NodeIndex origin,
               dht::RequestId req_id);

  dht::DhtPeer* peer_;
};

}  // namespace kadop::query

#endif  // KADOP_QUERY_BLOCK_JOIN_H_
