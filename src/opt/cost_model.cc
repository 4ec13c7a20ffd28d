#include "opt/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "dist/coordinator.h"
#include "gmdj/central_eval.h"
#include "storage/serializer.h"

namespace skalla {

Result<RelationStats> ProfileRelation(const Table& table,
                                      const std::vector<std::string>& attrs) {
  RelationStats stats;
  stats.rows = table.num_rows();
  for (const std::string& attr : attrs) {
    SKALLA_RETURN_NOT_OK(table.schema().MustIndexOf(attr).status());
    // The attribute's distinct values (grouped through GroupMap) in the
    // ascending key order every site derives its base groups in, so X and
    // every reply carry one sorted key per group: the measured SKL2 width
    // is that column's payload per group (codec tag, null bitmap, packed
    // differences or dictionary codes).
    BaseQuery keys;
    keys.project_cols = {attr};
    SKALLA_ASSIGN_OR_RETURN(Table sorted, EvalBaseQuery(keys, table));
    stats.distinct_counts[attr] = sorted.num_rows();
    stats.avg_widths_skl2[attr] =
        sorted.num_rows() == 0
            ? 0.0
            : static_cast<double>(Serializer::TablePayloadSize(sorted)) /
                  static_cast<double>(sorted.num_rows());
  }
  return stats;
}

std::string CostBreakdown::ToString() const {
  std::string out = StrFormat(
      "estimate: %d round(s), |Q|~%.0f, down %s, up %s, comm %.3fs",
      rounds, groups, HumanBytes(bytes_down).c_str(),
      HumanBytes(bytes_up).c_str(), comm_seconds);
  if (site_seconds > 0) {
    out += StrFormat(", site compute %.3fs (max-over-sites)", site_seconds);
  }
  return out;
}

namespace {

/// SKL2 width of one numeric aggregate column per group, measured on the
/// cost_model_test workload (8 sites): replies arrive in key order with
/// counts and integral sums bit-packed (docs/wire-format.md §3) — ≈1.0 B a
/// carrier on a fused round, whose groups are all ones the site touched,
/// ≈0.3 B on a naive round, where most of each site's groups are untouched
/// zeros — and X's finalized columns ship at ≈1.2-1.5 B, each AVG as its
/// exact (sum, count) carriers. 1.0 serves both directions: the estimates
/// read 1.04-1.54x the measured bytes in cost_model_test.
constexpr double kAggColBytesSkl2 = 1.0;

/// Fixed serialization overhead charged once per shipped relation
/// (magic + schema header + row count); small but keeps tiny-relation
/// estimates honest. Also covers an SKLD delta's hash/mapping preamble.
constexpr double kTableHeaderBytes = 64.0;

}  // namespace

void CostEstimator::SetSiteLoads(std::vector<double> row_shares,
                                 std::vector<double> seconds_per_row) {
  row_shares_ = std::move(row_shares);
  sec_per_row_ = std::move(seconds_per_row);
}

Result<double> CostEstimator::EstimateSiteSeconds(
    const DistributedPlan& plan, const RebalanceConfig* rebalance) const {
  if (row_shares_.empty()) return 0.0;
  auto it = stats_.find(plan.base.source_table);
  if (it == stats_.end()) {
    return Status::NotFound("no statistics for relation '" +
                            plan.base.source_table + "'");
  }
  // Default per-row compute rate when the caller declared only shares;
  // only ratios matter for the max/mean shape, the scale sets the unit.
  constexpr double kDefaultSecPerRow = 1e-8;
  const double rows =
      static_cast<double>(std::max<int64_t>(1, it->second.rows));
  double total = 0, max_load = 0;
  for (size_t i = 0; i < row_shares_.size(); ++i) {
    const double rate =
        i < sec_per_row_.size() ? sec_per_row_[i] : kDefaultSecPerRow;
    const double load = rows * std::max(0.0, row_shares_[i]) * rate;
    total += load;
    max_load = std::max(max_load, load);
  }
  const double mean = total / static_cast<double>(row_shares_.size());
  // Each synchronized round waits for the slowest site (the paper's
  // response-time model); a rebalanced round instead waits for the slower
  // of the trimmed straggler and the rest of the fleet — the same keep
  // fraction SkewDetector::PlanRound applies to the live scan split.
  double per_round = max_load;
  if (rebalance != nullptr && rebalance->enabled && mean > 0 &&
      max_load > mean * rebalance->max_over_mean_threshold) {
    const double keep = std::clamp(std::max(0.5, mean / max_load),
                                   1.0 - rebalance->max_offload_fraction,
                                   1.0 - rebalance->min_offload_fraction);
    per_round = std::max(mean, keep * max_load);
  }
  const int rounds =
      static_cast<int>(plan.rounds.size()) + (plan.fuse_base ? 0 : 1);
  return per_round * static_cast<double>(std::max(1, rounds));
}

bool CostEstimator::KeysContainPartitionAttribute(
    const DistributedPlan& plan) const {
  if (site_infos_.empty()) return false;
  for (const std::string& attr : plan.key_attrs) {
    if (IsPartitionAttribute(attr, site_infos_)) return true;
  }
  return false;
}

Result<double> CostEstimator::EstimateGroups(
    const DistributedPlan& plan) const {
  auto it = stats_.find(plan.base.source_table);
  if (it == stats_.end()) {
    return Status::NotFound("no statistics for relation '" +
                            plan.base.source_table + "'");
  }
  const RelationStats& stats = it->second;
  // Independence assumption capped by the relation size (the classic
  // System-R style estimate).
  double groups = 1;
  for (const std::string& attr : plan.key_attrs) {
    auto d = stats.distinct_counts.find(attr);
    if (d == stats.distinct_counts.end()) {
      return Status::NotFound("no distinct-count statistic for '" + attr +
                              "'");
    }
    groups *= static_cast<double>(std::max<int64_t>(1, d->second));
  }
  return std::min(groups, static_cast<double>(std::max<int64_t>(1, stats.rows)));
}

Result<double> CostEstimator::XRowWidth(const DistributedPlan& plan,
                                        int agg_cols) const {
  auto it = stats_.find(plan.base.source_table);
  if (it == stats_.end()) {
    return Status::NotFound("no statistics for relation '" +
                            plan.base.source_table + "'");
  }
  double width = 0;
  for (const std::string& attr : plan.key_attrs) {
    auto w = it->second.avg_widths_skl2.find(attr);
    if (w == it->second.avg_widths_skl2.end()) {
      return Status::NotFound("no width statistic for '" + attr + "'");
    }
    width += w->second;
  }
  return width + kAggColBytesSkl2 * agg_cols;
}

Result<CostBreakdown> CostEstimator::EstimateFlat(
    const DistributedPlan& plan) const {
  CostBreakdown cost;
  SKALLA_ASSIGN_OR_RETURN(cost.groups, EstimateGroups(plan));
  const bool partitioned = KeysContainPartitionAttribute(plan);
  const double s = static_cast<double>(num_sites_);

  double messages = 0;

  // Base round: per site, a plan message down and a B_i relation up. Under
  // a partition-attribute key each group lives at one site; otherwise
  // every site may contribute every group.
  if (!plan.fuse_base) {
    SKALLA_ASSIGN_OR_RETURN(double key_width, XRowWidth(plan, 0));
    cost.rounds += 1;
    cost.bytes_down += s * 512.0;  // kQueryPlanBytes
    const double up_groups = partitioned ? cost.groups : s * cost.groups;
    cost.bytes_up += up_groups * key_width + s * kTableHeaderBytes;
    messages += 2 * s;
  }

  int completed_agg_cols = 0;
  int prev_shipped_agg_cols = -1;  // -1: no X shipped yet (delta model)
  for (size_t r = 0; r < plan.rounds.size(); ++r) {
    const PlanRound& round = plan.rounds[r];
    const bool fused = plan.fuse_base && r == 0;
    cost.rounds += 1;

    int round_sub_cols = 0;
    int round_final_cols = 0;
    for (const GmdjOp& op : round.ops) {
      for (const AggSpec& spec : op.AllAggs()) {
        round_sub_cols += SubArity(spec.func);
        round_final_cols += 1;
      }
    }

    SKALLA_ASSIGN_OR_RETURN(double x_width,
                            XRowWidth(plan, completed_agg_cols));
    SKALLA_ASSIGN_OR_RETURN(double key_width, XRowWidth(plan, 0));
    const double h_width = key_width + kAggColBytesSkl2 * round_sub_cols;

    if (fused) {
      cost.bytes_down += s * 512.0;
    } else {
      // Aware reduction with a partitioned key ships each group to one
      // site; otherwise every site receives the whole structure.
      const double down_groups =
          (round.flags.aware_group_reduction && partitioned)
              ? cost.groups
              : s * cost.groups;
      if (net_.delta_shipping && prev_shipped_agg_cols >= 0) {
        // Later rounds delta-ship only the aggregate columns appended
        // since the site's cached copy of X.
        const double appended =
            static_cast<double>(completed_agg_cols - prev_shipped_agg_cols);
        cost.bytes_down +=
            down_groups * kAggColBytesSkl2 * appended + s * kTableHeaderBytes;
      } else {
        cost.bytes_down += down_groups * x_width + s * kTableHeaderBytes;
      }
      prev_shipped_agg_cols = completed_agg_cols;
    }
    // Independent reduction returns each group from the sites that touch
    // it (once in total under a partitioned key); fused rounds return the
    // full local base regardless.
    const double up_groups =
        (fused || (round.flags.independent_group_reduction && partitioned))
            ? cost.groups
            : s * cost.groups;
    cost.bytes_up += up_groups * h_width + s * kTableHeaderBytes;
    messages += 2 * s;
    completed_agg_cols += round_final_cols;
  }

  cost.comm_seconds = messages * net_.latency_sec +
                      cost.TotalBytes() / net_.bandwidth_bytes_per_sec;
  SKALLA_ASSIGN_OR_RETURN(cost.site_seconds,
                          EstimateSiteSeconds(plan, &rebalance_));
  return cost;
}

Result<CostBreakdown> CostEstimator::EstimateTree(const DistributedPlan& plan,
                                                  int fan_in) const {
  if (fan_in < 2) {
    return Status::InvalidArgument("tree fan-in must be at least 2");
  }
  CostBreakdown cost;
  SKALLA_ASSIGN_OR_RETURN(cost.groups, EstimateGroups(plan));
  const bool partitioned = KeysContainPartitionAttribute(plan);
  const TreeTopology topology = TreeTopology::Build(num_sites_, fan_in);
  const double s = static_cast<double>(num_sites_);

  // Per-level edge counts and the per-leaf group share.
  const double leaf_groups = partitioned ? cost.groups / s : cost.groups;

  double down_time = 0;
  double up_time = 0;

  auto level_width = [&](int level) {
    // Number of leaves covered by a node at `level`.
    return std::pow(static_cast<double>(fan_in), level);
  };

  int completed_agg_cols = 0;
  int prev_shipped_agg_cols = -1;  // -1: no X broadcast yet (delta model)

  if (!plan.fuse_base) {
    SKALLA_ASSIGN_OR_RETURN(double key_width, XRowWidth(plan, 0));
    cost.rounds += 1;
    for (int level = 1; level < topology.num_levels; ++level) {
      // A parent at `level` receives ≤ fan_in child relations, each capped
      // at the full group count.
      const double child_groups =
          std::min(cost.groups, leaf_groups * level_width(level - 1));
      const double child_bytes =
          child_groups * key_width + kTableHeaderBytes;
      const double children =
          static_cast<double>(topology.NodesAtLevel(level - 1).size());
      cost.bytes_up += children * child_bytes;
      up_time += static_cast<double>(fan_in) *
                 net_.TransferSeconds(static_cast<size_t>(child_bytes));
    }
    cost.bytes_down += 512.0 * static_cast<double>(topology.nodes.size() - 1);
  }

  for (size_t r = 0; r < plan.rounds.size(); ++r) {
    const PlanRound& round = plan.rounds[r];
    const bool fused = plan.fuse_base && r == 0;
    cost.rounds += 1;

    int round_sub_cols = 0;
    int round_final_cols = 0;
    for (const GmdjOp& op : round.ops) {
      for (const AggSpec& spec : op.AllAggs()) {
        round_sub_cols += SubArity(spec.func);
        round_final_cols += 1;
      }
    }
    SKALLA_ASSIGN_OR_RETURN(double x_width,
                            XRowWidth(plan, completed_agg_cols));
    SKALLA_ASSIGN_OR_RETURN(double key_width, XRowWidth(plan, 0));
    const double h_width = key_width + kAggColBytesSkl2 * round_sub_cols;

    if (!fused) {
      // Broadcast of the full X along every edge; per level the busiest
      // node forwards fan_in copies. With delta shipping every node keeps
      // last round's X, so later broadcasts carry only the aggregate
      // columns appended since then.
      double x_bytes = cost.groups * x_width + kTableHeaderBytes;
      if (net_.delta_shipping && prev_shipped_agg_cols >= 0) {
        const double appended =
            static_cast<double>(completed_agg_cols - prev_shipped_agg_cols);
        x_bytes = cost.groups * kAggColBytesSkl2 * appended + kTableHeaderBytes;
      }
      prev_shipped_agg_cols = completed_agg_cols;
      const double edges =
          static_cast<double>(topology.nodes.size() - 1);
      cost.bytes_down += edges * x_bytes;
      down_time += static_cast<double>(topology.num_levels - 1) *
                   static_cast<double>(fan_in) *
                   net_.TransferSeconds(static_cast<size_t>(x_bytes));
    } else {
      cost.bytes_down +=
          512.0 * static_cast<double>(topology.nodes.size() - 1);
    }

    const double effective_leaf_groups =
        (fused || (round.flags.independent_group_reduction && partitioned))
            ? cost.groups / s
            : cost.groups;
    for (int level = 1; level < topology.num_levels; ++level) {
      const double child_groups = std::min(
          cost.groups, effective_leaf_groups * level_width(level - 1));
      const double child_bytes = child_groups * h_width + kTableHeaderBytes;
      const double children =
          static_cast<double>(topology.NodesAtLevel(level - 1).size());
      cost.bytes_up += children * child_bytes;
      up_time += static_cast<double>(fan_in) *
                 net_.TransferSeconds(static_cast<size_t>(child_bytes));
    }
    completed_agg_cols += round_final_cols;
  }

  cost.comm_seconds = down_time + up_time;
  SKALLA_ASSIGN_OR_RETURN(cost.site_seconds,
                          EstimateSiteSeconds(plan, &rebalance_));
  return cost;
}

Result<int> CostEstimator::ChooseArchitecture(
    const DistributedPlan& plan,
    const std::vector<int>& fan_in_candidates) const {
  SKALLA_ASSIGN_OR_RETURN(CostBreakdown best, EstimateFlat(plan));
  int winner = 0;
  for (int fan_in : fan_in_candidates) {
    SKALLA_ASSIGN_OR_RETURN(CostBreakdown tree, EstimateTree(plan, fan_in));
    if (tree.TotalSeconds() < best.TotalSeconds()) {
      best = tree;
      winner = fan_in;
    }
  }
  return winner;
}

}  // namespace skalla
