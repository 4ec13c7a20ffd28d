#ifndef SKALLA_OPT_COST_MODEL_H_
#define SKALLA_OPT_COST_MODEL_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/plan.h"
#include "dist/rebalance.h"
#include "net/cost_model.h"
#include "storage/fragment_list.h"
#include "storage/partition_info.h"

namespace skalla {

/// \brief Summary statistics of a (global) relation, used by the cost
/// estimator. Gathered by ProfileRelation; Warehouse::EstimateCost profiles
/// each key attribute of a plan on its first use.
struct RelationStats {
  int64_t rows = 0;
  /// Distinct-value counts per profiled attribute, grouped as GroupMap
  /// groups keys.
  std::map<std::string, int64_t> distinct_counts;
  /// SKL2 width per distinct value of each profiled attribute: the
  /// measured payload of the attribute's distinct values as one column in
  /// ascending key order — the order base groups ship in — divided by
  /// their count. A dense integer key range packs to a few bytes in all.
  std::map<std::string, double> avg_widths_skl2;
};

/// Computes RelationStats for the given attributes of a relation, a Table or
/// one read in place as its fragments: the same statistics either way.
Result<RelationStats> ProfileRelation(const FragmentList& relation,
                                      const std::vector<std::string>& attrs);

/// \brief Predicted cost of executing a distributed plan.
struct CostBreakdown {
  double groups = 0;        ///< estimated |Q| (base-result rows)
  double bytes_down = 0;    ///< coordinator/root → sites
  double bytes_up = 0;      ///< sites → coordinator/root
  int rounds = 0;
  double comm_seconds = 0;  ///< modelled communication time
  /// Modelled site compute time: per synchronized round the coordinator
  /// waits for the slowest site, so each round is priced max-over-sites
  /// (trimmed toward the mean when a rebalance config is set — the skew
  /// rebalancer splits the straggler's scan onto its replica). Stays 0
  /// until CostEstimator::SetSiteLoads declares the per-site skew.
  double site_seconds = 0;

  double TotalBytes() const { return bytes_down + bytes_up; }
  double TotalSeconds() const { return comm_seconds + site_seconds; }
  std::string ToString() const;
};

/// \brief Egil's analytic cost model.
///
/// Predicts the traffic and communication time of a plan from relation
/// statistics, the partition metadata, and the network parameters — before
/// running anything. The model mirrors the paper's Sect.-5.2 analysis:
/// per synchronized round the coordinator ships |X| groups to each
/// participating site (reduced to the site's share under
/// distribution-aware reduction when the key contains a partition
/// attribute) and receives each site's sub-results (reduced to touched
/// groups under distribution-independent reduction). Used to validate
/// measured traffic and to choose between the flat and multi-tier
/// coordinator architectures.
class CostEstimator {
 public:
  CostEstimator(int num_sites, NetworkConfig net,
                std::vector<PartitionInfo> site_infos = {})
      : num_sites_(num_sites), net_(net), site_infos_(std::move(site_infos)) {}

  /// Registers statistics for a relation (by its global name).
  void AddRelation(const std::string& name, RelationStats stats) {
    stats_[name] = std::move(stats);
  }

  /// Declares per-site load skew: `row_shares[i]` is site i's fraction of
  /// the base relation's detail rows and `seconds_per_row[i]` its compute
  /// rate (uniform default when empty/short). Once set, Estimate* also
  /// prices a per-round site compute term — max-over-sites, since every
  /// synchronized round ends when the slowest site replies.
  void SetSiteLoads(std::vector<double> row_shares,
                    std::vector<double> seconds_per_row = {});

  /// Prices the modelled rebalancer into the site compute term: skewed
  /// rounds are charged the straggler's post-split share (pulled toward the
  /// mean) instead of its full max-over-sites load.
  void SetRebalance(RebalanceConfig config) { rebalance_ = std::move(config); }

  /// The modelled per-query site compute time of `plan` under the declared
  /// loads: rounds × (max-over-sites per-round seconds), where the max is
  /// trimmed by `rebalance` (when given and enabled) exactly like
  /// SkewDetector::PlanRound trims the hot site's scan. 0 when no loads
  /// were declared.
  Result<double> EstimateSiteSeconds(const DistributedPlan& plan,
                                     const RebalanceConfig* rebalance) const;

  /// Estimated number of groups produced by the plan's base query.
  Result<double> EstimateGroups(const DistributedPlan& plan) const;

  /// Predicts the cost of executing `plan` on the flat coordinator.
  Result<CostBreakdown> EstimateFlat(const DistributedPlan& plan) const;

  /// Predicts the cost on a k-ary aggregation tree.
  Result<CostBreakdown> EstimateTree(const DistributedPlan& plan,
                                     int fan_in) const;

  /// Chooses the architecture with the lowest estimated communication
  /// time: returns 0 for the flat coordinator or the winning fan-in from
  /// `fan_in_candidates`.
  Result<int> ChooseArchitecture(
      const DistributedPlan& plan,
      const std::vector<int>& fan_in_candidates) const;

 private:
  /// True if any plan key attribute is a partition attribute.
  bool KeysContainPartitionAttribute(const DistributedPlan& plan) const;

  /// Average SKL2 row width of the base-result structure after the given
  /// number of completed aggregate columns.
  Result<double> XRowWidth(const DistributedPlan& plan, int agg_cols) const;

  int num_sites_;
  NetworkConfig net_;
  std::vector<PartitionInfo> site_infos_;
  std::map<std::string, RelationStats> stats_;
  /// Per-site skew declaration (SetSiteLoads); empty = uniform, no site
  /// compute term.
  std::vector<double> row_shares_;
  std::vector<double> sec_per_row_;
  /// Modelled rebalancer config (SetRebalance); disabled by default.
  RebalanceConfig rebalance_;
};

}  // namespace skalla

#endif  // SKALLA_OPT_COST_MODEL_H_
