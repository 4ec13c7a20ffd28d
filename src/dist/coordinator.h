#ifndef SKALLA_DIST_COORDINATOR_H_
#define SKALLA_DIST_COORDINATOR_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/metrics.h"
#include "dist/plan.h"
#include "dist/rebalance.h"
#include "dist/site.h"
#include "net/sim_network.h"

namespace skalla {

/// \brief A k-ary aggregation tree over the warehouse sites.
///
/// The paper's conclusions name "multi-tiered coordinator architectures or
/// spanning-tree networks" as future work; this topology realizes it.
/// Leaves are the Skalla sites; internal nodes are aggregator instances
/// that merge their children's sub-results (Theorem 1 composes, so merging
/// is correct at any level) before forwarding a single combined relation
/// upward. Each node has its own network link, so sibling subtrees
/// transfer in parallel — trading extra hops (latency) for a root link
/// that carries one relation per child instead of one per site.
///
/// The root is the coordinator; with fan-in >= the site count the tree has
/// depth 1, the paper's flat architecture. Nodes are numbered bottom-up:
/// leaf i serves site i, and every child's id is below its parent's.
struct TreeTopology {
  struct Node {
    int id = -1;
    int parent = -1;
    std::vector<int> children;  ///< empty for leaves
    int site_index = -1;        ///< leaf only: index into the site vector
    int level = 0;              ///< 0 = leaves, increasing upward
  };

  std::vector<Node> nodes;
  int root = -1;
  int num_levels = 0;  ///< levels of nodes (1 = degenerate single node)

  /// Builds a bottom-up k-ary tree over `num_sites` leaves.
  /// Requires num_sites >= 1 and fan_in >= 2.
  static TreeTopology Build(int num_sites, int fan_in);

  /// Nodes at a level, bottom-up.
  std::vector<int> NodesAtLevel(int level) const;

  std::string ToString() const;
};

/// Nominal wire size of a shipped query plan (control message).
inline constexpr size_t kQueryPlanBytes = 512;

/// \brief The Skalla coordinator: drives Alg. GMDJDistribEval over a
/// TreeTopology.
///
/// The coordinator owns the simulated network and the base-result structure
/// X. For each round it ships X (possibly per-site reduced) to the
/// participating sites, receives their sub-aggregate relations H_i, and
/// synchronizes them into X via the super-aggregates (Theorem 1). The merge
/// is O(|H|) thanks to a hash index on the key attributes K.
///
/// The sites are the leaves of the topology; the flat coordinator is the
/// depth-1 tree. Deeper trees add aggregators (the paper's Sect.-6
/// multi-tier coordinators) that forward each child its view of X and
/// combine their children's sub-results; Theorem 1 composes, so only the
/// cost profile differs. Aggregator hops are assumed reliable.
///
/// Sites are borrowed, not owned; they must outlive the coordinator.
class Coordinator {
 public:
  /// The flat coordinator: the depth-1 tree.
  Coordinator(std::vector<Site*> sites, NetworkConfig config = NetworkConfig());

  /// A coordinator at the root of a k-ary aggregation tree over the sites
  /// (TreeTopology::Build; requires fan_in >= 2). A fan-in of at least the
  /// site count is the flat coordinator.
  Coordinator(std::vector<Site*> sites, int fan_in,
              NetworkConfig config = NetworkConfig());

  /// Executes a distributed plan and returns the finalized base-result
  /// structure (= the query answer). Fills `metrics` when non-null — on
  /// failure too, with the rounds run so far — and publishes the same
  /// record to the metrics registry (PublishExecutionMetrics) on every
  /// exit.
  Result<Table> Execute(const DistributedPlan& plan,
                        ExecutionMetrics* metrics);

  SimNetwork& network() { return network_; }
  const std::vector<Site*>& sites() const { return sites_; }
  const TreeTopology& topology() const { return topology_; }

  /// Registers `replica` as the failover target for primary slot
  /// `site_id`. When the primary exhausts its retry budget during a query,
  /// the slot fails over (at most once) to the replica — provided the
  /// replica's partition predicate covers the primary's (see
  /// CoversPartition); otherwise the query returns kUnavailable. The
  /// replica is borrowed and must outlive the coordinator.
  void AddReplica(int site_id, Site* replica) {
    replicas_[site_id] = replica;
  }
  const std::map<int, Site*>& replicas() const { return replicas_; }

  /// The query's lane quota on the shared pool (common/thread_pool.h): it
  /// caps both how many sites of a wave evaluate at once and the lanes of
  /// each site's morsel-driven local GMDJ evaluation
  /// (SiteRoundInput::num_threads). 0 = the SKALLA_THREADS default, 1 =
  /// sites one after another in slot order, each scanning sequentially.
  /// Results are identical for every quota — transfers and synchronization
  /// run in deterministic slot order on the coordinator thread — only the
  /// wall-clock time changes (the *modelled* response time already treats
  /// sites as parallel).
  void set_local_threads(int num_threads) { local_threads_ = num_threads; }
  int local_threads() const { return local_threads_; }

  /// Cooperative per-query cancellation (borrowed flag, may be null): the
  /// coordinator polls it at round boundaries and aborts the query with a
  /// typed kCancelled status when it is set. In-flight site work of the
  /// current round is never interrupted — rounds stay atomic, so a
  /// cancelled query leaves no partial state anywhere.
  void set_cancel_flag(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// Observer invoked after each GMDJ round finalizes, with the number of
  /// *operators* evaluated so far and the base-result structure X at that
  /// point (before HAVING / presentation). The server's cross-query cache
  /// uses this to capture prefix results (src/server/result_cache.h).
  /// Called on the coordinator thread; must not mutate the table.
  using RoundObserver = std::function<void(size_t ops_done, const Table& x)>;
  void set_round_observer(RoundObserver observer) {
    round_observer_ = std::move(observer);
  }

  /// Resumes evaluation from a cached base-result structure instead of
  /// computing the base query and the first `rounds_done` plan rounds:
  /// `x` (borrowed; must outlive Execute) is exactly the X a fresh
  /// execution of this plan would hold after those rounds. Because every
  /// round is a deterministic function of the incoming X and the site
  /// partitions, the resumed execution is byte-identical to a full one
  /// (docs/server.md). The X schema is validated against the plan before
  /// use. Pass nullptr / 0 to clear.
  void set_resume(const Table* x, size_t rounds_done) {
    resume_x_ = x;
    resume_rounds_ = rounds_done;
  }

  /// Shares the SKLD delta-base cache across queries (borrowed; may be
  /// null to keep the default per-query cache). The cache mirrors what
  /// each topology node (leaf or aggregator, by node id) last received of
  /// X — the node's decoded view itself, one object for the nodes that
  /// received the same view — and is resized to the node count; with
  /// delta shipping enabled,
  /// consecutive queries over slowly-changing base structures then ship
  /// deltas from the first round instead of re-priming per query. Query
  /// *results* are unaffected — the decoded site view always equals the
  /// shipped fragment, delta or full (DESIGN.md invariant 10) — only
  /// bytes on the wire change. The caller owns synchronization: the cache
  /// must not be used by two executions at once, and must be cleared when
  /// site data mutates under a different coordinator.
  void set_ship_cache(std::vector<std::shared_ptr<const Table>>* cache) {
    external_ship_cache_ = cache;
  }

  /// Attaches a skew detector (borrowed, may be null to disable): before
  /// each eligible GMDJ round the coordinator asks it to plan a
  /// rebalancing split over the per-slot detail row counts, and after each
  /// round feeds back each slot's successful attempt's wall seconds. When the
  /// detector proposes a split and the hot slot has a φ-covering replica
  /// registered (AddReplica), the replica joins the round as a helper slot
  /// evaluating the straggler's upper detail fragment; the two H
  /// fragments merge through the same Theorem 1 fold, byte-identical to
  /// the unsplit round (DESIGN.md invariant 12, docs/skew.md). The helper
  /// is one more child of the straggler's parent, at any depth. Only
  /// single-operator, non-fused rounds are split.
  void set_skew_detector(SkewDetector* detector) { skew_detector_ = detector; }
  SkewDetector* skew_detector() const { return skew_detector_; }

  /// Looks up a relation schema from the first site that holds a partition
  /// of it (all sites share global relation schemas).
  Result<SchemaPtr> FindSchema(const std::string& table_name) const;

  /// Builds the schema map for a plan's relations (base source + details).
  Result<SchemaMap> CollectSchemas(const DistributedPlan& plan) const;

 private:
  /// kCancelled when the attached cancel flag is set.
  Status CheckCancelled() const;

  /// Execute's body; appends each round's record as the round starts.
  Result<Table> Run(const DistributedPlan& plan, ExecutionMetrics* metrics);

  std::vector<Site*> sites_;
  std::map<int, Site*> replicas_;
  TreeTopology topology_;
  SimNetwork network_;
  int local_threads_ = 0;
  const std::atomic<bool>* cancel_ = nullptr;
  RoundObserver round_observer_;
  const Table* resume_x_ = nullptr;
  size_t resume_rounds_ = 0;
  std::vector<std::shared_ptr<const Table>>* external_ship_cache_ = nullptr;
  SkewDetector* skew_detector_ = nullptr;
};

/// Theorem 2's bound on groups transferred by Alg. GMDJDistribEval:
/// Σ_rounds (2 · s_i · |Q|) + s_0 · |Q|, with |Q| = `q_rows` result rows.
/// Any execution's GroupsToSites()+GroupsToCoord(), less its retry share
/// and its helper rows' first-attempt groups, must not exceed it.
int64_t TheoremTwoGroupBound(const DistributedPlan& plan, int num_sites,
                             int64_t q_rows);

}  // namespace skalla

#endif  // SKALLA_DIST_COORDINATOR_H_
