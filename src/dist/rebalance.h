#ifndef SKALLA_DIST_REBALANCE_H_
#define SKALLA_DIST_REBALANCE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace skalla {

/// Knobs of the skew-aware adaptive round execution (docs/skew.md).
struct RebalanceConfig {
  /// Master switch: when false the detector still observes (so the signal
  /// is warm if rebalancing is enabled mid-stream) but PlanRound never
  /// proposes a split.
  bool enabled = false;

  /// A round is considered skewed when the predicted max-over-sites load
  /// exceeds the mean by this factor (the paper's cost model charges the
  /// max, so anything above 1 is lost response time; below ~1.5 the split
  /// overhead of an extra slot tends to outweigh the win).
  double max_over_mean_threshold = 1.5;

  /// Never split a detail scan smaller than this — the per-slot exchange
  /// overhead dominates tiny fragments.
  int64_t min_rows_to_split = 4096;

  /// Offload fractions: below the minimum a split is not worth an extra
  /// exchange; above the maximum the "helper" would become the new
  /// straggler (it runs the same hardware unless the replica is faster).
  double min_offload_fraction = 0.05;
  double max_offload_fraction = 0.75;

  /// EWMA smoothing for observed per-row cost rates: new = alpha * sample
  /// + (1 - alpha) * old. 1.0 = always trust the latest round.
  double ewma_alpha = 0.5;
};

/// One proposed work split for the upcoming round: the straggler keeps
/// detail-scan positions [0, split_at) and the helper evaluates
/// [split_at, rows) against the same shipped X — legal because the
/// sub-aggregates of any disjoint scan cover merge to the same result
/// (Theorem 1 associativity; DESIGN.md invariant 12).
struct RebalanceDecision {
  int hot_slot = -1;            ///< slot to split; -1 = round is balanced
  int64_t rows = 0;             ///< hot slot's detail rows this round
  int64_t split_at = 0;         ///< first position the helper takes over
  double max_over_mean = 1.0;   ///< predicted skew that triggered the split
  std::string why;              ///< human-readable trigger/veto explanation

  bool split() const { return hot_slot >= 0 && split_at < rows; }
};

/// \brief Per-site straggler detector fed by round timings.
///
/// Maintains an EWMA of each site slot's cost per scanned detail row,
/// seeded statically from partition row counts (data skew is visible
/// before the first round runs), then refined every round from the
/// driver's per-slot wall timings. The detector is intentionally
/// coordinator-side state: it survives across rounds (and across queries
/// when owned by the Warehouse) so repeat offenders — slow hardware,
/// heavy-hitter partitions — are caught from their first round of the next
/// query. Rate state is internally synchronized (the serving layer runs
/// concurrent queries against one warehouse-owned detector); the config is
/// not — set it before serving.
class SkewDetector {
 public:
  explicit SkewDetector(RebalanceConfig config = RebalanceConfig())
      : config_(config) {}

  const RebalanceConfig& config() const { return config_; }
  RebalanceConfig& mutable_config() { return config_; }

  /// Number of slots the detector currently tracks.
  int num_slots() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(rate_.size());
  }

  /// Current cost-per-row estimate of a slot (1.0 until observed).
  double CostPerRow(int slot) const;

  /// Static prior from per-slot detail row counts: pure data skew (a hot
  /// partition) shows up as load = rows * rate even with all rates equal,
  /// so seeding just declares the slots. Also resets stale slots when the
  /// topology changed.
  void SeedRows(size_t num_slots);

  /// Folds one round's observation for a slot: `seconds` of site wall time
  /// over `rows` scanned detail rows.
  void ObserveRound(int slot, double seconds, int64_t rows);

  /// Plans the upcoming round over the participating slots and their
  /// detail row counts (parallel vectors): predicts load_i = rows_i *
  /// rate_i, and when the max exceeds the mean by the configured threshold
  /// proposes splitting the hot slot so that it keeps the larger of half
  /// its scan and a mean-sized share (the single helper must not become
  /// the new straggler). Returns a no-split decision (with `why`) when
  /// balanced,
  /// disabled, or the split would be out of bounds.
  RebalanceDecision PlanRound(const std::vector<int>& slots,
                              const std::vector<int64_t>& rows) const;

 private:
  /// Rate lookup without the lock (callers hold mu_).
  double RateAt(int slot) const;

  mutable std::mutex mu_;
  RebalanceConfig config_;
  std::vector<double> rate_;      ///< EWMA seconds per detail row (scaled)
  std::vector<bool> observed_;    ///< rate_[i] backed by a real sample?
};

}  // namespace skalla

#endif  // SKALLA_DIST_REBALANCE_H_
