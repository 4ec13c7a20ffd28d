#ifndef SKALLA_DIST_FAULT_TOLERANCE_H_
#define SKALLA_DIST_FAULT_TOLERANCE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/metrics.h"
#include "dist/site.h"
#include "net/sim_network.h"

namespace skalla {

/// \brief Per-query view of which physical site serves each site slot.
///
/// Slot `sid` starts out served by the primary site; when the primary is
/// declared dead (its retry budget is exhausted) the coordinator may fail
/// the slot over to a registered replica — validated against φ coverage
/// (CoversPartition) so a replica that could silently lose groups is
/// refused. A slot fails over at most once; the swap is sticky for the
/// rest of the query.
class SiteRoster {
 public:
  SiteRoster(const std::vector<Site*>& primaries,
             const std::map<int, Site*>& replicas)
      : active_(primaries),
        replicas_(replicas),
        failed_over_(primaries.size(), false) {}

  Site* active(int sid) const { return active_[static_cast<size_t>(sid)]; }
  bool failed_over(int sid) const {
    return failed_over_[static_cast<size_t>(sid)];
  }

  /// Swaps slot `sid` to its replica when one is registered, unused, and
  /// φ-covering; returns the replica or null (with an explanation in *why).
  Site* Failover(int sid, std::string* why);

  /// Appends a helper slot served by `site` (skew rebalancing: the φ-twin
  /// replica evaluating a straggler's upper detail fragment) and returns
  /// its slot id. `failover_to` — typically the straggler primary, whose φ
  /// equals the helper's — becomes the new slot's failover target, so a
  /// helper that is also flaky re-routes its fragment through the normal
  /// failover machinery instead of failing the round.
  int AddHelperSlot(Site* site, Site* failover_to);

 private:
  std::vector<Site*> active_;
  std::map<int, Site*> replicas_;
  std::vector<bool> failed_over_;
};

/// The constant downstream half of one slot's per-round exchange.
struct DownMessage {
  /// Sender endpoint (coordinator or aggregator); the slot's reply travels
  /// back to it, and slots sharing a sender share its link.
  int from = kCoordinatorId;
  size_t bytes = 0;
  int64_t rows = 0;
  std::string label;

  /// When > 0, the downstream payload of `bytes` is a delta against state
  /// the receiver may no longer hold after a failed exchange, so every
  /// retry (attempt > 0) ships this full standalone payload size instead —
  /// which also covers a replica's first contact after failover.
  size_t fallback_bytes = 0;

  /// SKL1 full-ship equivalent of the payload (Serializer::Skl1Size), for
  /// compression-ratio accounting (RoundMetrics::bytes_baseline_skl1). 0
  /// means the message is a control message counted at face value.
  size_t baseline_bytes = 0;

  /// This slot exists only because of a skew-rebalancing split (the helper
  /// evaluating a straggler's upper detail fragment). Its first-attempt
  /// traffic is mirrored into RoundMetrics' rebalance surcharge counters
  /// so Theorem-2 bound checks can subtract it, exactly as retries are.
  bool rebalance = false;
};

/// Local evaluation callback: slot index, the site serving it (primary or
/// replica), and the report it fills (CPU seconds and scan counts).
using SiteEvalFn =
    std::function<Result<Table>(int p, Site* site, SiteEvalReport* report)>;

/// \brief Drives one round's per-site exchanges under faults.
///
/// For each participant slot, repeatedly performs the full idempotent
/// exchange — downstream transfer, local evaluation, upstream reply — until
/// it succeeds, retrying with exponential backoff on message loss, site
/// outage, or deadline overrun, and failing over to a replica when the
/// retry budget is exhausted. Returns the serialized successful reply per
/// slot. Unrecoverable slots produce a typed kUnavailable or
/// kDeadlineExceeded status — never a partial answer.
///
/// All transfers happen on the calling thread in deterministic slot order
/// (wave by wave); only local evaluation is parallelized when `parallel`
/// is set, so the network transfer/event logs are identical either way.
///
/// Each reply travels back to its DownMessage's sender (the coordinator or
/// an aggregation-tree parent). Slots sharing a sender share its link, so a
/// wave costs the max over senders of the per-sender sum (for a flat round,
/// the sum over slots). Retry, timeout, drop, failover, and
/// retransmission counters are accumulated into `rm`; retransmitted bytes
/// and groups are also counted as real traffic in the round totals. Each
/// slot also gets its own rm->site_loads row, and every evaluated attempt's
/// scan counts are added to the round's.
/// Each reply's SKL1 size is folded into the round's bytes_baseline_skl1
/// alongside each DownMessage's baseline_bytes.
Result<std::vector<std::string>> DriveRoundWithRetries(
    SimNetwork* net, const RetryPolicy& retry, RoundMetrics* rm,
    SiteRoster* roster, const std::vector<int>& participants,
    const std::vector<DownMessage>& down, const std::string& reply_label,
    const SiteEvalFn& eval, bool parallel);

}  // namespace skalla

#endif  // SKALLA_DIST_FAULT_TOLERANCE_H_
