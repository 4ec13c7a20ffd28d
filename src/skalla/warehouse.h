#ifndef SKALLA_SKALLA_WAREHOUSE_H_
#define SKALLA_SKALLA_WAREHOUSE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/coordinator.h"
#include "dist/rebalance.h"
#include "dist/metrics.h"
#include "dist/plan.h"
#include "dist/site.h"
#include "gmdj/gmdj.h"
#include "net/cost_model.h"
#include "net/fault_injector.h"
#include "opt/cost_model.h"
#include "opt/optimizer.h"
#include "tpc/partitioner.h"

namespace skalla {

/// Result of one distributed query execution.
struct QueryResult {
  Table table;               ///< the finalized base-result structure
  ExecutionMetrics metrics;  ///< cost accounting of the execution
  DistributedPlan plan;      ///< the plan that was executed
};

/// \brief Per-query execution hooks for the concurrent serving layer
/// (src/server/). Every field is optional; default-constructed hooks make
/// ExecutePlan behave exactly like the hook-less overload.
struct ExecHooks {
  /// Lane quota for this query: its concurrent site evaluations and each
  /// site's local GMDJ morsel lanes; -1 keeps the warehouse default
  /// (set_local_threads). The quota bounds how many shared-pool lanes one
  /// query may occupy, so concurrent queries share the pool instead of
  /// each grabbing every worker.
  int local_threads = -1;

  /// Per-attempt deadline in simulated seconds for every round exchange,
  /// reusing the wave driver's deadline machinery (RetryPolicy); < 0 keeps
  /// the warehouse NetworkConfig, 0 disables deadlines for this query.
  double deadline_sec = -1.0;

  /// Cooperative cancellation flag (borrowed, may be null), polled at
  /// round boundaries; see Coordinator::set_cancel_flag.
  const std::atomic<bool>* cancel = nullptr;

  /// Per-round base-result-structure observer for cross-query prefix
  /// caching; see Coordinator::set_round_observer.
  Coordinator::RoundObserver round_observer;

  /// Resume evaluation from a cached prefix structure; see
  /// Coordinator::set_resume. `resume_x` is borrowed and must outlive the
  /// call.
  const Table* resume_x = nullptr;
  size_t resume_rounds = 0;

  /// Cross-query SKLD delta-base cache (borrowed, may be null); see
  /// Coordinator::set_ship_cache. The caller serializes access and clears
  /// the cache when site data mutates.
  std::vector<std::shared_ptr<const Table>>* ship_cache = nullptr;
};

/// \brief The Skalla distributed data warehouse facade.
///
/// A Warehouse bundles N Skalla sites, their partition metadata, a
/// coordinator and the Egil optimizer behind one convenient API:
///
/// \code
///   Warehouse wh(8);
///   wh.LoadPartitioned("TPCR", std::move(parts));       // fragments + φ_i
///   GmdjExpr query = ...;                               // gmdj/gmdj.h
///   auto result = wh.Execute(query, OptimizerOptions::All());
///   std::cout << result->table.ToString() << result->metrics.ToString();
/// \endcode
///
/// Each relation lives only in its site fragments (which replicas share).
/// Every reader outside a site — ExecuteCentralized and the statistics
/// behind EstimateCost — reads a relation in place as the ordered list of
/// its fragments (fragments()); central_catalog() copies the fragments into
/// unions, for inspection only.
class Warehouse {
 public:
  explicit Warehouse(int num_sites, NetworkConfig net = NetworkConfig());

  int num_sites() const { return static_cast<int>(sites_.size()); }
  Site& site(int i) { return *sites_[static_cast<size_t>(i)]; }
  const Site& site(int i) const { return *sites_[static_cast<size_t>(i)]; }

  /// Registers a pre-partitioned relation: fragment i goes to site i, whose
  /// partition metadata is extended with the fragment's PartitionInfo.
  Status LoadPartitioned(const std::string& name, PartitionedData data);

  /// Partitions `table` by contiguous ranges of `attr` (making it a
  /// partition attribute) and loads it. `profile_attrs` lists additional
  /// attributes whose observed per-site ranges are recorded as distribution
  /// knowledge (e.g. CustKey under a NationKey partitioning).
  Status LoadByRange(const std::string& name, const Table& table,
                     const std::string& attr, int64_t attr_min,
                     int64_t attr_max,
                     const std::vector<std::string>& profile_attrs = {});

  /// Skew-aware variant of LoadByRange: boundaries are placed by actual
  /// per-key row counts (PartitionByRangeWeighted), so Zipf-skewed keys
  /// still produce near-equal fragment sizes while every φ_i stays a
  /// contiguous range. Afterwards a FreqSketch over `attr` finds heavy
  /// hitters — single keys holding more than `replicate_share` of one
  /// site's fair share of rows, which no contiguous boundary can split —
  /// and auto-registers a replica
  /// of each such key's site so the skew rebalancer has a helper ready
  /// (docs/skew.md).
  Status LoadByRangeWeighted(const std::string& name, const Table& table,
                             const std::string& attr, int64_t attr_min,
                             int64_t attr_max,
                             const std::vector<std::string>& profile_attrs = {},
                             double replicate_share = 0.5);

  /// Hash-partitions `table` on `attr` and loads it (no distribution
  /// knowledge recorded).
  Status LoadByHash(const std::string& name, const Table& table,
                    const std::string& attr);

  /// Builds (but does not run) the distributed plan for a query.
  Result<DistributedPlan> Plan(const GmdjExpr& expr,
                               const OptimizerOptions& options) const;

  /// Optimizes and executes a query over the distributed warehouse.
  Result<QueryResult> Execute(const GmdjExpr& expr,
                              const OptimizerOptions& options);

  /// Executes a pre-built plan.
  Result<QueryResult> ExecutePlan(const DistributedPlan& plan);

  /// Executes a pre-built plan with per-query hooks (morsel quota,
  /// deadline, cancellation, prefix capture/resume) — the entry point of
  /// the concurrent serving layer (src/server/server.h).
  Result<QueryResult> ExecutePlan(const DistributedPlan& plan,
                                  const ExecHooks& hooks);

  /// Executes a pre-built plan over a multi-tier aggregation tree with the
  /// given fan-in (TreeTopology; the paper's future-work architecture).
  /// Produces the same relation as ExecutePlan with a different cost
  /// profile.
  Result<QueryResult> ExecutePlanTree(const DistributedPlan& plan,
                                      int fan_in);

  /// Fully automatic execution: optimizes with every optimization enabled,
  /// profiles the plan's key attributes (each cached on first use), and
  /// lets the cost model (opt/cost_model.h) choose between the flat
  /// coordinator and a multi-tier tree before executing. `chosen_fan_in`,
  /// when non-null, receives 0 (flat) or the winning fan-in.
  Result<QueryResult> ExecuteAuto(const GmdjExpr& expr,
                                  int* chosen_fan_in = nullptr);

  /// Scalar reference evaluation over fragments(): every relation the
  /// expression reads is scanned in place, as the rows of its fragments'
  /// union in the union's order, so no row is copied.
  Result<Table> ExecuteCentralized(const GmdjExpr& expr) const;

  /// Appends one row to a loaded relation, routing it to the unique site
  /// whose partition predicate φ_i may contain it (every attribute with a
  /// declared domain at that site must admit the row's value — rejecting
  /// rows no φ covers keeps the Sect.-4 optimizations sound). The site's
  /// fragment is replaced copy-on-write by one grown Table, with the row at
  /// its end, which that site's replica then shares: readers holding the
  /// old shared_ptr keep a consistent snapshot, and the grown Table starts
  /// with an empty columnar cache (the columnar view's invalidation
  /// contract). The relation's ExecuteAuto statistics cache is dropped.
  ///
  /// NOT internally synchronized against concurrent Execute* calls — the
  /// serving layer serializes mutations behind an exclusive lock
  /// (docs/server.md).
  Status AppendRow(const std::string& table, const Row& row);

  /// Every loaded relation as its site fragments in site order, shared with
  /// the sites: the relation as every reader outside a site reads it
  /// (FragmentList::Of). No row is copied.
  FragmentCatalog fragments() const;

  /// Every relation's fragments unioned in site order, built on each call.
  /// It copies every row of every relation, so it is for inspection only;
  /// no library path calls it.
  Catalog central_catalog() const;

  /// Partition metadata of every site (φ_1 … φ_n).
  std::vector<PartitionInfo> SiteInfos() const;

  const NetworkConfig& network_config() const { return net_; }
  void set_network_config(NetworkConfig net) { net_ = net; }

  /// Attaches a deterministic fault injector (borrowed, may be null) that
  /// every subsequent ExecutePlan / ExecutePlanTree wires into its
  /// simulated network. Recoverable schedules change only the metrics
  /// (retries, retransmissions); results stay byte-identical to the
  /// fault-free run. See docs/fault-model.md.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Creates a failover replica of `site_id`: a fresh site sharing every
  /// local partition's Table and holding a copy of φ_i, with its own site id
  /// (num_sites + k, so fault schedules against the primary do not follow
  /// the replica). Returns the replica so tests can perturb it; the
  /// warehouse keeps ownership. At most one replica per primary.
  Result<Site*> AddReplica(int site_id);

  /// The lane quota of every query (see Coordinator::set_local_threads):
  /// it caps a round's concurrent site evaluations and each site's
  /// morsel-driven local GMDJ evaluation. 0 = the SKALLA_THREADS default
  /// (hardware concurrency), 1 = sites in slot order with sequential local
  /// scans. Results are byte-identical for every setting
  /// (docs/parallelism.md).
  void set_local_threads(int num_threads) { local_threads_ = num_threads; }
  int local_threads() const { return local_threads_; }

  /// Skew-aware adaptive execution (docs/skew.md): the warehouse owns one
  /// persistent SkewDetector wired into every coordinator it builds, so
  /// straggler rates learned by one query seed the next. The detector
  /// always observes; splits only happen while `config.enabled` is true
  /// and the straggler has a replica (AddReplica / LoadByRangeWeighted).
  void set_rebalance_config(const RebalanceConfig& config) {
    skew_detector_.mutable_config() = config;
  }
  const RebalanceConfig& rebalance_config() const {
    return skew_detector_.config();
  }
  SkewDetector& skew_detector() { return skew_detector_; }

  /// Prices `plan` with the calibrated cost model over cached relation
  /// statistics (profiling each of the plan's key attributes on its first
  /// use, over the fragments, as ExecuteAuto does). The serving layer
  /// weighs admission order by this estimate.
  Result<CostBreakdown> EstimateCost(const DistributedPlan& plan);

 private:
  /// The statistics of `plan`'s base relation: its row count and the
  /// plan's key attributes, each profiled on first use and cached.
  Result<const RelationStats*> BaseStats(const DistributedPlan& plan);
  /// The one body of ExecutePlan (fan_in 0: the flat, depth-1 tree) and
  /// ExecutePlanTree.
  Result<QueryResult> ExecuteOnTree(const DistributedPlan& plan,
                                    const ExecHooks& hooks, int fan_in);
  std::vector<std::unique_ptr<Site>> sites_;
  /// Failover replicas keyed by primary site id (owned here, registered
  /// with each coordinator at execution time).
  std::map<int, std::unique_ptr<Site>> replicas_;
  NetworkConfig net_;
  FaultInjector* injector_ = nullptr;
  int local_threads_ = 0;
  /// Relation statistics cache for ExecuteAuto and EstimateCost: per
  /// relation, the attributes profiled so far (each on first use).
  std::map<std::string, RelationStats> stats_cache_;
  /// Persistent straggler detector shared by every coordinator this
  /// warehouse builds (internally synchronized; see dist/rebalance.h).
  SkewDetector skew_detector_;
};

}  // namespace skalla

#endif  // SKALLA_SKALLA_WAREHOUSE_H_
