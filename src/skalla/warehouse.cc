#include "skalla/warehouse.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/string_util.h"
#include "engine/operators.h"
#include "gmdj/central_eval.h"
#include "obs/trace.h"
#include "storage/freq_sketch.h"

namespace skalla {

Warehouse::Warehouse(int num_sites, NetworkConfig net) : net_(net) {
  sites_.reserve(static_cast<size_t>(num_sites));
  for (int i = 0; i < num_sites; ++i) {
    sites_.push_back(std::make_unique<Site>(i));
  }
}

Status Warehouse::LoadPartitioned(const std::string& name,
                                  PartitionedData data) {
  if (static_cast<int>(data.fragments.size()) != num_sites()) {
    return Status::InvalidArgument(
        "fragment count does not match site count");
  }
  for (size_t i = 0; i < data.fragments.size(); ++i) {
    SKALLA_RETURN_NOT_OK(
        sites_[i]->catalog().AddTable(name, data.fragments[i]));
    if (i < data.infos.size()) {
      for (const auto& [attr, domain] : data.infos[i].domains()) {
        PartitionInfo& info = sites_[i]->mutable_partition_info();
        // φ_i is attribute-level across every relation at the site. If a
        // previously loaded relation declared a different domain for this
        // attribute, the sound combined domain is a superset of both;
        // widen to the numeric hull, or give up (kAny) when no hull
        // exists. Never silently replace — that could understate what the
        // site holds and make the Sect.-4 optimizations unsound.
        if (info.HasDomain(attr)) {
          const AttrDomain& existing = info.Domain(attr);
          double lo_a = 0, hi_a = 0, lo_b = 0, hi_b = 0;
          if (existing.NumericBounds(&lo_a, &hi_a) &&
              domain.NumericBounds(&lo_b, &hi_b)) {
            auto as_value = [](double v) {
              return v == std::floor(v) && std::abs(v) < 9.0e15
                         ? Value(static_cast<int64_t>(v))
                         : Value(v);
            };
            info.SetDomain(attr,
                           AttrDomain::Range(as_value(std::min(lo_a, lo_b)),
                                             as_value(std::max(hi_a, hi_b))));
          } else {
            info.SetDomain(attr, AttrDomain::Any());
          }
        } else {
          info.SetDomain(attr, domain);
        }
      }
    }
  }
  return Status::OK();
}

Status Warehouse::LoadByRange(const std::string& name, const Table& table,
                              const std::string& attr, int64_t attr_min,
                              int64_t attr_max,
                              const std::vector<std::string>& profile_attrs) {
  SKALLA_ASSIGN_OR_RETURN(
      PartitionedData data,
      PartitionByRange(table, attr, num_sites(), attr_min, attr_max));
  if (!profile_attrs.empty()) {
    SKALLA_RETURN_NOT_OK(ProfileDomains(&data, profile_attrs));
  }
  return LoadPartitioned(name, std::move(data));
}

Status Warehouse::LoadByRangeWeighted(
    const std::string& name, const Table& table, const std::string& attr,
    int64_t attr_min, int64_t attr_max,
    const std::vector<std::string>& profile_attrs, double replicate_share) {
  SKALLA_ASSIGN_OR_RETURN(
      PartitionedData data,
      PartitionByRangeWeighted(table, attr, num_sites(), attr_min, attr_max));
  if (!profile_attrs.empty()) {
    SKALLA_RETURN_NOT_OK(ProfileDomains(&data, profile_attrs));
  }
  SKALLA_RETURN_NOT_OK(LoadPartitioned(name, std::move(data)));

  // Heavy-hitter mitigation: a single key holding more than
  // replicate_share of one site's fair share of rows cannot be balanced by
  // any contiguous boundary, so its site gets a standing replica — the
  // helper the skew rebalancer splits onto at query time.
  if (replicate_share <= 0 || table.num_rows() == 0) return Status::OK();
  SKALLA_ASSIGN_OR_RETURN(int idx, table.schema().MustIndexOf(attr));
  FreqSketch sketch;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    sketch.Add(table.Get(r, idx).AsInt64());
  }
  const double min_share = replicate_share / static_cast<double>(num_sites());
  for (const FreqSketch::Entry& hh : sketch.HeavyHitters(min_share)) {
    for (int i = 0; i < num_sites(); ++i) {
      const PartitionInfo& info =
          sites_[static_cast<size_t>(i)]->partition_info();
      if (!info.HasDomain(attr) ||
          !info.Domain(attr).MayContain(Value(hh.key))) {
        continue;
      }
      Result<Site*> added = AddReplica(i);
      if (!added.ok() &&
          added.status().code() != StatusCode::kAlreadyExists) {
        return added.status();
      }
      break;  // φ ranges are disjoint: exactly one site holds the key
    }
  }
  return Status::OK();
}

Status Warehouse::LoadByHash(const std::string& name, const Table& table,
                             const std::string& attr) {
  SKALLA_ASSIGN_OR_RETURN(PartitionedData data,
                          PartitionByHash(table, attr, num_sites()));
  return LoadPartitioned(name, std::move(data));
}

std::vector<PartitionInfo> Warehouse::SiteInfos() const {
  std::vector<PartitionInfo> infos;
  infos.reserve(sites_.size());
  for (const auto& site : sites_) infos.push_back(site->partition_info());
  return infos;
}

Result<DistributedPlan> Warehouse::Plan(const GmdjExpr& expr,
                                        const OptimizerOptions& options) const {
  Optimizer optimizer(SiteInfos());
  return optimizer.BuildPlan(expr, options);
}

Result<QueryResult> Warehouse::Execute(const GmdjExpr& expr,
                                       const OptimizerOptions& options) {
  SKALLA_ASSIGN_OR_RETURN(DistributedPlan plan, Plan(expr, options));
  return ExecutePlan(plan);
}

Result<Site*> Warehouse::AddReplica(int site_id) {
  if (site_id < 0 || site_id >= num_sites()) {
    return Status::InvalidArgument("no site " + std::to_string(site_id) +
                                   " to replicate");
  }
  if (replicas_.count(site_id) > 0) {
    return Status::AlreadyExists("site " + std::to_string(site_id) +
                                 " already has a replica");
  }
  const Site& primary = *sites_[static_cast<size_t>(site_id)];
  auto replica = std::make_unique<Site>(
      num_sites() + static_cast<int>(replicas_.size()),
      primary.partition_info());
  replica->set_compute_scale(primary.compute_scale());
  for (const std::string& name : primary.catalog().TableNames()) {
    SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const Table> table,
                            primary.catalog().GetTable(name));
    replica->catalog().PutTable(name, table);
  }
  Site* out = replica.get();
  replicas_.emplace(site_id, std::move(replica));
  return out;
}

Result<QueryResult> Warehouse::ExecutePlan(const DistributedPlan& plan) {
  return ExecutePlan(plan, ExecHooks());
}

Result<QueryResult> Warehouse::ExecutePlan(const DistributedPlan& plan,
                                           const ExecHooks& hooks) {
  return ExecuteOnTree(plan, hooks, /*fan_in=*/0);
}

Result<QueryResult> Warehouse::ExecutePlanTree(const DistributedPlan& plan,
                                               int fan_in) {
  return ExecuteOnTree(plan, ExecHooks(), fan_in);
}

Result<QueryResult> Warehouse::ExecuteOnTree(const DistributedPlan& plan,
                                             const ExecHooks& hooks,
                                             int fan_in) {
  std::vector<Site*> site_ptrs;
  site_ptrs.reserve(sites_.size());
  for (const auto& site : sites_) site_ptrs.push_back(site.get());
  NetworkConfig net = net_;
  if (hooks.deadline_sec >= 0.0) net.retry.timeout_sec = hooks.deadline_sec;
  Coordinator coordinator =
      fan_in == 0 ? Coordinator(std::move(site_ptrs), net)
                  : Coordinator(std::move(site_ptrs), fan_in, net);
  coordinator.set_local_threads(
      hooks.local_threads >= 0 ? hooks.local_threads : local_threads_);
  coordinator.set_cancel_flag(hooks.cancel);
  coordinator.set_round_observer(hooks.round_observer);
  coordinator.set_resume(hooks.resume_x, hooks.resume_rounds);
  coordinator.set_ship_cache(hooks.ship_cache);
  coordinator.set_skew_detector(&skew_detector_);
  coordinator.network().set_fault_injector(injector_);
  for (const auto& [sid, replica] : replicas_) {
    coordinator.AddReplica(sid, replica.get());
  }
  QueryResult result;
  result.plan = plan;
  SKALLA_ASSIGN_OR_RETURN(result.table,
                          coordinator.Execute(plan, &result.metrics));
  return result;
}

Result<QueryResult> Warehouse::ExecuteAuto(const GmdjExpr& expr,
                                           int* chosen_fan_in) {
  SKALLA_ASSIGN_OR_RETURN(DistributedPlan plan,
                          Plan(expr, OptimizerOptions::All()));

  // The base relation's statistics for the plan's key attributes (each
  // profiled on first use and cached across queries).
  CostEstimator estimator(num_sites(), net_, SiteInfos());
  SKALLA_ASSIGN_OR_RETURN(const RelationStats* stats, BaseStats(plan));
  estimator.AddRelation(plan.base.source_table, *stats);

  int fan_in = 0;
  // EstimateTree prices full-participation plans only, so a plan that
  // skips sites stays flat.
  bool tree_eligible = plan.base_sites.empty();
  for (const PlanRound& round : plan.rounds) {
    if (!round.participating_sites.empty()) tree_eligible = false;
  }
  if (tree_eligible && num_sites() >= 4) {
    auto choice = estimator.ChooseArchitecture(plan, {2, 4});
    if (choice.ok()) fan_in = *choice;
  }
  if (chosen_fan_in != nullptr) *chosen_fan_in = fan_in;
  return fan_in == 0 ? ExecutePlan(plan) : ExecutePlanTree(plan, fan_in);
}

Result<const RelationStats*> Warehouse::BaseStats(
    const DistributedPlan& plan) {
  const std::string& name = plan.base.source_table;
  // The estimator reads the plan's key attributes only (EstimateGroups,
  // XRowWidth): profile each on its first use, over the fragments.
  std::vector<std::string> unprofiled;
  auto cached = stats_cache_.find(name);
  for (const std::string& attr : plan.key_attrs) {
    if (cached == stats_cache_.end() ||
        cached->second.distinct_counts.count(attr) == 0) {
      unprofiled.push_back(attr);
    }
  }
  if (cached != stats_cache_.end() && unprofiled.empty()) {
    return &cached->second;
  }
  const FragmentCatalog relations = fragments();
  SKALLA_ASSIGN_OR_RETURN(FragmentList relation,
                          FragmentList::Of(relations, name));
  obs::ScopedSpan span("opt.profile");
  if (span.armed()) span.set_detail(name + ": " + Join(unprofiled, ", "));
  SKALLA_ASSIGN_OR_RETURN(RelationStats profiled,
                          ProfileRelation(relation, unprofiled));
  RelationStats& stats = stats_cache_[name];
  stats.rows = profiled.rows;
  stats.distinct_counts.merge(profiled.distinct_counts);
  stats.avg_widths_skl2.merge(profiled.avg_widths_skl2);
  return &stats;
}

Result<CostBreakdown> Warehouse::EstimateCost(const DistributedPlan& plan) {
  SKALLA_ASSIGN_OR_RETURN(const RelationStats* stats, BaseStats(plan));
  CostEstimator estimator(num_sites(), net_, SiteInfos());
  estimator.AddRelation(plan.base.source_table, *stats);
  return estimator.EstimateFlat(plan);
}

FragmentCatalog Warehouse::fragments() const {
  FragmentCatalog relations;
  for (const auto& site : sites_) {
    for (const std::string& name : site->catalog().TableNames()) {
      relations[name].push_back(*site->catalog().GetTable(name));
    }
  }
  return relations;
}

Catalog Warehouse::central_catalog() const {
  Catalog central;
  for (const auto& [name, parts] : fragments()) {
    std::vector<const Table*> in_site_order;
    for (const std::shared_ptr<const Table>& part : parts) {
      in_site_order.push_back(part.get());
    }
    Result<Table> full = UnionAll(in_site_order);
    if (!full.ok()) continue;  // fragments of unequal arity: left out
    central.PutTable(name, std::make_shared<const Table>(std::move(*full)));
  }
  return central;
}

Result<Table> Warehouse::ExecuteCentralized(const GmdjExpr& expr) const {
  return EvalGmdjExprCentralized(expr, fragments(), local_threads_);
}

Status Warehouse::AppendRow(const std::string& table, const Row& row) {
  // Every site holds a fragment of every loaded relation (LoadPartitioned).
  if (sites_.empty()) return Status::NotFound("no site holds " + table);
  SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const Table> first,
                          sites_[0]->catalog().GetTable(table));
  const Schema& schema = first->schema();
  if (static_cast<int>(row.size()) != schema.num_fields()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values; " + table +
        " has " + std::to_string(schema.num_fields()) + " columns");
  }
  for (int c = 0; c < schema.num_fields(); ++c) {
    const Value& v = row[static_cast<size_t>(c)];
    if (!v.is_null() && v.type() != schema.field(c).type) {
      return Status::TypeError(
          "column " + schema.field(c).name + " expects " +
          ValueTypeToString(schema.field(c).type) + ", got " +
          ValueTypeToString(v.type()));
    }
  }

  // Route to the unique site whose φ_i admits every attribute value. φ
  // domains are conservative, so a site with no declared domain for an
  // attribute accepts any value of it; a row no site admits is rejected
  // rather than silently mis-placed (that would make the Sect.-4
  // optimizations unsound).
  int target = -1;
  for (int i = 0; i < num_sites(); ++i) {
    if (!sites_[static_cast<size_t>(i)]->catalog().HasTable(table)) continue;
    bool admits = true;
    for (const auto& [attr, domain] :
         sites_[static_cast<size_t>(i)]->partition_info().domains()) {
      const std::optional<int> col = schema.IndexOf(attr);
      if (!col.has_value()) continue;
      if (!domain.MayContain(row[static_cast<size_t>(*col)])) {
        admits = false;
        break;
      }
    }
    if (admits) {
      target = i;
      break;
    }
  }
  if (target < 0) {
    return Status::InvalidArgument(
        "no site's partition predicate admits the row (declared domains "
        "would be violated)");
  }

  // Copy-on-write: readers holding the old shared_ptr keep a consistent
  // snapshot, and the grown Table starts with an empty columnar cache.
  Site& site = *sites_[static_cast<size_t>(target)];
  SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const Table> fragment,
                          site.catalog().GetTable(table));
  Table grown(fragment->schema_ptr(), fragment->rows());
  grown.AddRow(row);
  auto shared = std::make_shared<const Table>(std::move(grown));
  site.catalog().PutTable(table, shared);
  // A registered replica shares its primary's tables (AddReplica); hand it
  // the grown one so failover after a mutation cannot lose the row.
  auto replica = replicas_.find(target);
  if (replica != replicas_.end() &&
      replica->second->catalog().HasTable(table)) {
    replica->second->catalog().PutTable(table, shared);
  }
  // The relation's profiled statistics are stale now.
  stats_cache_.erase(table);
  return Status::OK();
}

}  // namespace skalla
