#include "dist/rebalance.h"

#include <algorithm>

#include "common/string_util.h"

namespace skalla {

double SkewDetector::RateAt(int slot) const {
  if (slot < 0 || static_cast<size_t>(slot) >= rate_.size()) return 1.0;
  return rate_[static_cast<size_t>(slot)];
}

double SkewDetector::CostPerRow(int slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  return RateAt(slot);
}

void SkewDetector::SeedRows(size_t num_slots) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rate_.size() != num_slots) {
    rate_.assign(num_slots, 1.0);
    observed_.assign(num_slots, false);
  }
}

void SkewDetector::ObserveRound(int slot, double seconds, int64_t rows) {
  if (slot < 0 || rows <= 0 || seconds < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<size_t>(slot) >= rate_.size()) {
    rate_.resize(static_cast<size_t>(slot) + 1, 1.0);
    observed_.resize(static_cast<size_t>(slot) + 1, false);
  }
  // Normalize the sample so "1.0" stays a neutral rate: scale by rows so
  // the prediction rows_i * rate_i is proportional to expected seconds.
  const double sample =
      seconds / static_cast<double>(rows) * 1e6;  // µs/row, O(1) in practice
  double& rate = rate_[static_cast<size_t>(slot)];
  if (!observed_[static_cast<size_t>(slot)]) {
    rate = sample;
    observed_[static_cast<size_t>(slot)] = true;
  } else {
    const double a = std::clamp(config_.ewma_alpha, 0.0, 1.0);
    rate = a * sample + (1.0 - a) * rate;
  }
}

RebalanceDecision SkewDetector::PlanRound(
    const std::vector<int>& slots, const std::vector<int64_t>& rows) const {
  RebalanceDecision d;
  if (slots.size() < 2 || slots.size() != rows.size()) {
    d.why = "fewer than two slots";
    return d;
  }
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0, max_load = 0;
  size_t hot_at = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    const double load = static_cast<double>(std::max<int64_t>(0, rows[i])) *
                        RateAt(slots[i]);
    total += load;
    if (load > max_load) {
      max_load = load;
      hot_at = i;
    }
  }
  const double mean = total / static_cast<double>(slots.size());
  if (mean <= 0 || max_load <= 0) {
    d.why = "no predicted load";
    return d;
  }
  const int hot = slots[hot_at];
  d.max_over_mean = max_load / mean;
  d.rows = rows[hot_at];
  if (!config_.enabled) {
    d.why = "rebalancing disabled";
    return d;
  }
  if (d.max_over_mean <= config_.max_over_mean_threshold) {
    d.why = StrFormat("balanced: max/mean %.2f <= threshold %.2f",
                      d.max_over_mean, config_.max_over_mean_threshold);
    return d;
  }
  if (d.rows < config_.min_rows_to_split) {
    d.why = StrFormat("hot slot %d too small to split (%lld rows)", hot,
                      static_cast<long long>(d.rows));
    return d;
  }
  // The straggler keeps a mean-sized share of its own load — but never
  // less than half: the helper is a single φ-identical replica of the same
  // hardware class, so handing it more than half of the scan would just
  // crown a new straggler. Clamped so neither fragment is degenerate.
  double keep = std::max(0.5, mean / max_load);
  keep = std::clamp(keep, 1.0 - config_.max_offload_fraction,
                    1.0 - config_.min_offload_fraction);
  if (keep >= 1.0) {
    d.why = "offload fraction below minimum";
    return d;
  }
  d.hot_slot = hot;
  d.split_at = std::max<int64_t>(
      1, std::min(d.rows - 1,
                  static_cast<int64_t>(keep * static_cast<double>(d.rows))));
  d.why = StrFormat(
      "slot %d skewed: max/mean %.2f > %.2f, keeps [0, %lld) of %lld rows",
      hot, d.max_over_mean, config_.max_over_mean_threshold,
      static_cast<long long>(d.split_at), static_cast<long long>(d.rows));
  return d;
}

}  // namespace skalla
