#ifndef SKALLA_NET_COST_MODEL_H_
#define SKALLA_NET_COST_MODEL_H_

#include <cstddef>
#include <string>

namespace skalla {

/// \brief Retry behavior of the coordinators when a site misses a round.
///
/// A WAN loses messages and sites go down; Alg. GMDJDistribEval is
/// naturally retry-friendly because every round is idempotent from the
/// shipped base-result structure X (docs/fault-model.md). One *attempt* is
/// the full per-site exchange of a round — ship X (or the plan), local
/// evaluation, and the sub-result reply; a failed attempt is re-driven
/// from scratch after an exponential backoff.
struct RetryPolicy {
  /// Attempts per site per round (counting the first); when exhausted the
  /// coordinator fails over to a registered replica or returns a typed
  /// kUnavailable / kDeadlineExceeded status.
  int max_attempts = 3;

  /// Per-attempt deadline in simulated seconds covering the whole exchange
  /// (ship + site compute + reply). 0 disables deadlines: the coordinator
  /// waits forever and only message loss triggers retries.
  double timeout_sec = 0.0;

  /// The deadline grows by this factor on every retry, so a straggler that
  /// merely exceeds the base deadline still completes eventually.
  double timeout_escalation = 2.0;

  /// Simulated idle wait charged before attempt `attempt`: 0 for the
  /// first attempt, 0.01 s·2^(k-1) before retry k (k >= 1).
  double BackoffSeconds(int attempt) const {
    constexpr double kBackoffBaseSec = 0.01;
    if (attempt <= 0) return 0.0;
    double backoff = kBackoffBaseSec;
    for (int i = 1; i < attempt; ++i) backoff *= 2.0;
    return backoff;
  }

  /// Deadline for attempt `attempt`, or 0 when deadlines are disabled.
  double DeadlineSeconds(int attempt) const {
    if (timeout_sec <= 0.0) return 0.0;
    double deadline = timeout_sec;
    for (int i = 0; i < attempt; ++i) deadline *= timeout_escalation;
    return deadline;
  }

  bool deadline_enabled() const { return timeout_sec > 0.0; }
};

/// \brief Parameters of the simulated wide-area network between the
/// coordinator and the Skalla sites.
///
/// The paper's distributed data warehouse runs over a WAN where
/// "communication is assumed to be very cheap" does NOT hold (its explicit
/// contrast with parallel DBs, Sect. 1.2). The defaults model a modest
/// year-2002 WAN link; benchmarks vary them to study comm/compute ratios.
///
/// The coordinator's access link is shared: transfers to/from distinct
/// sites serialize on it, which is what makes per-round traffic of
/// n·|X| groups cost Θ(n) time and total evaluation of n rounds of such
/// traffic Θ(n²) — the effect Figures 2–4 of the paper demonstrate.
struct NetworkConfig {
  /// Payload bandwidth of the coordinator link in bytes/second.
  double bandwidth_bytes_per_sec = 4.0 * 1024 * 1024;
  /// One-way message latency in seconds, charged once per message.
  double latency_sec = 0.005;

  /// Streaming synchronization (paper Sect. 3.2): the base-result
  /// structure is horizontally partitionable, so the coordinator can merge
  /// already-received blocks of H while slower sites are still
  /// transmitting. When enabled, a round's coordinator CPU overlaps its
  /// communication time instead of adding to it (see
  /// RoundMetrics::ResponseSeconds); traffic is unchanged.
  bool streaming_sync = false;

  /// How the coordinators retry per-site round work under faults.
  RetryPolicy retry;

  /// Cross-round delta shipping of the base-result structure X: the
  /// coordinator caches what each site last received and ships only
  /// appended rows/columns (SKLD payloads, docs/wire-format.md). Retried
  /// waves always fall back to a full payload because a failed exchange
  /// leaves the receiver's cache state unknowable.
  bool delta_shipping = true;

  /// Simulated seconds for one message of `bytes` payload.
  double TransferSeconds(size_t bytes) const {
    return latency_sec + static_cast<double>(bytes) / bandwidth_bytes_per_sec;
  }
};

}  // namespace skalla

#endif  // SKALLA_NET_COST_MODEL_H_
