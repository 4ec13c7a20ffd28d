#ifndef SKALLA_DIST_METRICS_H_
#define SKALLA_DIST_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace skalla {

/// One slot's load: a row of RoundMetrics::site_loads (one round), or of
/// StragglerReport::sites (summed over a query's rounds).
struct SiteLoad {
  int site = -1;           ///< slot id (a rebalance helper has its own)
  double cpu_sec = 0;      ///< site seconds of every evaluated attempt
  size_t bytes_in = 0;     ///< bytes shipped to the slot
  size_t bytes_out = 0;    ///< bytes shipped back from the slot
  int64_t groups_in = 0;   ///< groups (rows) received
  int64_t groups_out = 0;  ///< groups (rows) produced
  int attempts = 0;        ///< exchanges started, retries included
  int retries = 0;
  int timeouts = 0;
  int drops = 0;  ///< messages lost in flight (either direction)
  int failovers = 0;

  /// Adds `other`'s seconds and counts; keeps this row's site id.
  SiteLoad& operator+=(const SiteLoad& other);
};

/// Cost breakdown of one synchronization round.
struct RoundMetrics {
  std::string label;
  size_t bytes_to_sites = 0;
  size_t bytes_to_coord = 0;
  int64_t groups_to_sites = 0;   ///< base-structure rows shipped out
  int64_t groups_to_coord = 0;   ///< sub-result rows shipped back
  double site_cpu_max_sec = 0;   ///< slowest site (sites run in parallel)
  double site_cpu_min_sec = 0;   ///< fastest successful site
  double site_cpu_sum_sec = 0;   ///< aggregate site work
  /// Site id of the slowest successful evaluation — the straggler that set
  /// site_cpu_max_sec (-1 before any site succeeds). Surfaced by the
  /// PROFILE verb's per-round skew column.
  int slowest_site = -1;
  double coord_cpu_sec = 0;      ///< synchronization + reduction filtering
  double comm_sec = 0;           ///< serialized time on the coordinator link
  int sites = 0;
  /// Streaming synchronization (NetworkConfig::streaming_sync): merging
  /// overlaps receiving, so the round pays max(coord, comm), not the sum.
  bool streaming = false;

  // ---- Fault-tolerance accounting (docs/fault-model.md). ----
  int retries = 0;    ///< re-driven per-site attempts beyond the first
  int timeouts = 0;   ///< attempts abandoned at their deadline
  int drops = 0;      ///< messages the network lost this round
  int failovers = 0;  ///< sites replaced by their replica this round
  /// Bytes of retransmissions (counted in bytes_to_* as real traffic too).
  size_t bytes_retransmitted = 0;
  /// Groups shipped beyond the first transmission per site and direction —
  /// the retry surcharge over the fault-free logical traffic. Theorem-2
  /// bound checks compare (groups_to_* - groups_retry_to_*) against the
  /// fault-free bound.
  int64_t groups_retry_to_sites = 0;
  int64_t groups_retry_to_coord = 0;

  // ---- Wire-format accounting (docs/wire-format.md). ----
  /// Bytes the round avoided shipping by sending SKLD deltas of the base
  /// structure instead of full payloads (full size minus delta size, first
  /// attempts only; retries ship full payloads and save nothing).
  size_t bytes_saved_by_delta = 0;
  /// What every relation message of the round would have cost in the
  /// row-oriented SKL1 format with full (non-delta) shipping; control
  /// messages are counted at face value. bytes_baseline_skl1 /
  /// (bytes_to_sites + bytes_to_coord) is the round's compression ratio.
  size_t bytes_baseline_skl1 = 0;

  // ---- Detail-scan accounting (docs/vectorized-execution.md). ----
  // The ScanCounters of every site evaluation this round drove (all
  // slots, all attempts), as each evaluation reported them.
  int64_t detail_rows_scanned = 0;  ///< Σ (hi − lo) over morsels and blocks
  int64_t detail_rows_matched = 0;  ///< (base, detail) pairs folded
  int64_t morsels_vectorized = 0;   ///< morsels on the vectorized path
  int64_t morsels_scalar = 0;       ///< morsels on the row-at-a-time path

  // ---- Skew-rebalancing accounting (docs/skew.md). ----
  /// Straggler scans split into helper fragments this round.
  int rebalance_splits = 0;
  /// Extra traffic the split slots cost — the second X copy down and the
  /// helper's sub-result up. Theorem-2 bound checks compare
  /// (groups_to_* - groups_retry_to_* - groups_rebalance_to_*) against the
  /// fault-free, unsplit bound, mirroring the retry surcharge.
  int64_t groups_rebalance_to_sites = 0;
  int64_t groups_rebalance_to_coord = 0;
  size_t bytes_rebalance = 0;
  /// Per-slot site wall seconds of this round's successful evaluations
  /// (slot order; 0 for slots that did not participate) — the skew
  /// detector's per-round feedback signal.
  std::vector<double> site_seconds;
  /// One row per slot of the round's leaf exchanges, in slot order, filled
  /// where the round totals above are. Aggregator hops of a tree are in
  /// the totals only, so the rows sum to the totals for flat plans.
  std::vector<SiteLoad> site_loads;

  double ResponseSeconds() const {
    return site_cpu_max_sec + (streaming
                                   ? std::max(coord_cpu_sec, comm_sec)
                                   : coord_cpu_sec + comm_sec);
  }
};

/// \brief End-to-end cost accounting of one distributed query evaluation.
///
/// The modelled response time combines measured per-site CPU (sites run in
/// parallel, so each round charges the max), measured coordinator CPU, and
/// simulated communication time (the coordinator link is shared, so
/// transfers serialize — see net/cost_model.h). This is the quantity the
/// paper's figures plot as "query evaluation time".
struct ExecutionMetrics {
  std::vector<RoundMetrics> rounds;

  int NumRounds() const { return static_cast<int>(rounds.size()); }
  size_t TotalBytes() const;
  size_t BytesToSites() const;
  size_t BytesToCoord() const;
  int64_t GroupsToSites() const;
  int64_t GroupsToCoord() const;
  int Retries() const;
  int Timeouts() const;
  int Drops() const;
  int Failovers() const;
  size_t BytesRetransmitted() const;
  int64_t RetryGroupsToSites() const;
  int64_t RetryGroupsToCoord() const;
  size_t BytesSavedByDelta() const;
  size_t BytesBaselineSkl1() const;
  int64_t DetailRowsScanned() const;
  int64_t DetailRowsMatched() const;
  int64_t MorselsVectorized() const;
  int64_t MorselsScalar() const;
  int RebalanceSplits() const;
  int64_t RebalanceGroupsToSites() const;
  int64_t RebalanceGroupsToCoord() const;
  size_t RebalanceBytes() const;
  /// SKL1-full-ship baseline over actual bytes (>= 1.0 when the encoding
  /// wins; 1.0 when nothing was saved or nothing was shipped).
  double CompressionRatio() const;
  double SiteCpuSeconds() const;       ///< Σ per-round max (parallel model)
  double CoordCpuSeconds() const;
  double CommSeconds() const;
  double ResponseSeconds() const;

  std::string ToString() const;
};

/// Adds one query's record to the metrics registry's `skalla_dist_*` and
/// `skalla_gmdj_rows_*` instruments, one round-seconds observation and the
/// bytes of each SiteLoad row included. Coordinator::Execute calls it once
/// on every exit, so registry totals are the sum of the queries' records
/// (DESIGN.md invariant 13). A no-op while the registry is disabled.
void PublishExecutionMetrics(const ExecutionMetrics& metrics);

/// Straggler/skew summary across sites: how unevenly CPU and bytes are
/// distributed, and which site is the bottleneck (cf. Beame/Koutris/Suciu,
/// "Skew in Parallel Query Processing": per-worker imbalance, not totals,
/// bounds parallel cost).
struct StragglerReport {
  std::vector<SiteLoad> sites;  ///< sorted by site id
  double cpu_skew = 1.0;        ///< max site CPU / mean site CPU
  double bytes_skew = 1.0;      ///< max site bytes / mean site bytes
  int slowest_site = -1;        ///< site with the most CPU (-1: none)

  /// Multi-line human-readable rendering (skalla/report).
  std::string ToString() const;
};

/// Sums each slot's SiteLoad over the query's rounds and computes the skew
/// factors — one query's own per-site load, exact under concurrency.
StragglerReport BuildStragglerReport(const ExecutionMetrics& metrics);

}  // namespace skalla

#endif  // SKALLA_DIST_METRICS_H_
