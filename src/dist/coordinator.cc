#include "dist/coordinator.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "dist/fault_tolerance.h"
#include "dist/sync.h"
#include "engine/operators.h"
#include "expr/evaluator.h"
#include "obs/trace.h"
#include "storage/serializer.h"

namespace skalla {

namespace {

std::vector<int> AllSiteIds(const std::vector<Site*>& sites) {
  std::vector<int> ids(sites.size());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

/// A payload arriving at a tree node, tagged with its sender: the drive
/// slot id for a site, the EncodeAggregatorId endpoint for an aggregator.
struct Inbound {
  int from;
  std::string payload;
};

/// The endpoint above `node`: the coordinator for the root's children (and
/// for a single-site tree's lone leaf), the parent aggregator otherwise.
int ParentEndpoint(const TreeTopology& tree, int node) {
  const int parent = tree.nodes[static_cast<size_t>(node)].parent;
  return parent < 0 || parent == tree.root ? kCoordinatorId
                                           : EncodeAggregatorId(parent);
}

/// The node whose inbox a message sent to `endpoint` lands in.
int NodeOfEndpoint(const TreeTopology& tree, int endpoint) {
  return endpoint == kCoordinatorId ? tree.root : kAggregatorIdBase - endpoint;
}

/// The nodes a round talks to: the participating leaves and every
/// aggregator above one. The coordinator (an internal root) is not one.
std::vector<bool> ActiveNodes(const TreeTopology& tree,
                              const std::vector<int>& leaves) {
  std::vector<bool> active(tree.nodes.size(), false);
  for (int v : leaves) {
    for (; v >= 0 && !active[static_cast<size_t>(v)];
         v = tree.nodes[static_cast<size_t>(v)].parent) {
      active[static_cast<size_t>(v)] = true;
    }
  }
  if (!tree.nodes[static_cast<size_t>(tree.root)].children.empty()) {
    active[static_cast<size_t>(tree.root)] = false;
  }
  return active;
}

/// One control message (a query plan) to every active node from its parent.
std::vector<DownMessage> ControlMessages(const TreeTopology& tree,
                                         const std::vector<bool>& active,
                                         const std::string& label) {
  std::vector<DownMessage> down_of(tree.nodes.size());
  for (size_t v = 0; v < down_of.size(); ++v) {
    if (!active[v]) continue;
    down_of[v] = DownMessage{ParentEndpoint(tree, static_cast<int>(v)),
                             kQueryPlanBytes, 0, label};
  }
  return down_of;
}

/// The carriers of `view`'s fields among X's `x_carriers`, at X's rows
/// `rows` (all of X's rows when null): a view keeps an AVG column's exact
/// carriers through the row filter and the column pruning.
std::vector<QuotientCarriers> ViewCarriers(
    const Schema& x_schema, const std::vector<QuotientCarriers>& x_carriers,
    const Schema& view_schema, const std::vector<int64_t>* rows) {
  std::vector<QuotientCarriers> out;
  for (const QuotientCarriers& q : x_carriers) {
    const std::optional<int> field =
        view_schema.IndexOf(x_schema.field(q.field).name);
    if (!field.has_value()) continue;  // pruned
    QuotientCarriers& v = out.emplace_back();
    v.field = *field;
    if (rows == nullptr) {
      v.num = q.num;
      v.den = q.den;
      continue;
    }
    v.num.reserve(rows->size());
    v.den.reserve(rows->size());
    for (int64_t r : *rows) {
      v.num.push_back(q.num[static_cast<size_t>(r)]);
      v.den.push_back(q.den[static_cast<size_t>(r)]);
    }
  }
  return out;
}

/// Phase A of an X round: each active node's view of X — the rows its
/// subtree's ship `predicates` keep (Theorem 4: a leaf's own predicate, an
/// aggregator's the OR of its leaves', all of X if any leaf has none or
/// keeps every row), column-pruned — as an SKLD delta against its base in
/// `bases` when strictly smaller, the full payload attached as the retry
/// fallback (docs/wire-format.md). `x_carriers` are X's AVG carriers
/// (SubResultFold::FinalizeInto), which each view's SKL2 encoding may ship
/// in place of the AVG column. Nodes with the same filter and the same base
/// object share one encoding and one view. Returns each node's message and
/// fills the node-sized `view_of` with what the shipped bytes decode to,
/// which then becomes each node's base.
Result<std::vector<DownMessage>> ShipViews(
    const Table& x, const std::vector<QuotientCarriers>& x_carriers,
    const std::vector<std::string>& ship_cols,
    const std::vector<ExprPtr>& predicates, const TreeTopology& tree,
    const std::vector<bool>& active, bool delta_enabled,
    std::vector<std::shared_ptr<const Table>>* bases,
    std::vector<std::shared_ptr<const Table>>* view_of) {
  const size_t num_nodes = tree.nodes.size();
  std::vector<DownMessage> down_of(num_nodes);
  // Leaves whose predicates a node's view ORs; empty = all of X.
  std::vector<std::vector<int>> filter(num_nodes);
  // keeps[v][r]: leaf v's ship predicate keeps X's row r.
  std::vector<std::vector<bool>> keeps(num_nodes);
  // (filter, base) -> the node that holds that encoding. The old bases stay
  // in `bases` until every node is encoded, so no base address is reused
  // within the loop.
  std::map<std::pair<std::vector<int>, const Table*>, size_t> encoded;
  for (size_t v = 0; v < num_nodes; ++v) {
    if (!active[v]) continue;
    const TreeTopology::Node& node = tree.nodes[v];
    const bool leaf = node.site_index >= 0;
    if (leaf && v < predicates.size() && predicates[v] != nullptr) {
      SKALLA_ASSIGN_OR_RETURN(
          CompiledExpr ship,
          CompiledExpr::Compile(predicates[v], &x.schema(), nullptr));
      std::vector<bool>& keep = keeps[v];
      keep.resize(static_cast<size_t>(x.num_rows()));
      bool all = true;
      for (int64_t r = 0; r < x.num_rows(); ++r) {
        const bool kept = ship.EvalBool(&x.row(r), nullptr);
        keep[static_cast<size_t>(r)] = kept;
        all &= kept;
      }
      // A leaf that keeps every row takes the unfiltered view, the one a
      // predicate-less leaf gets, and shares its encoding.
      if (!all) filter[v] = {static_cast<int>(v)};
    } else if (!leaf) {
      bool everything = false;
      for (int c : node.children) {
        if (!active[static_cast<size_t>(c)]) continue;
        const std::vector<int>& sub = filter[static_cast<size_t>(c)];
        everything |= sub.empty();
        filter[v].insert(filter[v].end(), sub.begin(), sub.end());
      }
      if (everything) filter[v].clear();
    }
    const Table* base = delta_enabled ? (*bases)[v].get() : nullptr;
    DownMessage& msg = down_of[v];
    const auto [it, fresh] =
        encoded.emplace(std::make_pair(filter[v], base), v);
    if (!fresh) {
      // The same view over the same base: the same bytes.
      msg = down_of[it->second];
      (*view_of)[v] = (*view_of)[it->second];
    } else {
      const Table* to_ship = &x;
      Table reduced;
      std::vector<int64_t> kept;  // X's rows in `reduced`
      if (!filter[v].empty()) {
        reduced = Table(x.schema_ptr());
        for (int64_t r = 0; r < x.num_rows(); ++r) {
          for (int s : filter[v]) {
            if (keeps[static_cast<size_t>(s)][static_cast<size_t>(r)]) {
              reduced.AddRow(x.row(r));
              kept.push_back(r);
              break;
            }
          }
        }
        to_ship = &reduced;
      }
      Table pruned;
      if (!ship_cols.empty() &&
          static_cast<int>(ship_cols.size()) < x.schema().num_fields()) {
        SKALLA_ASSIGN_OR_RETURN(pruned, Project(*to_ship, ship_cols));
        to_ship = &pruned;
      }
      const std::vector<QuotientCarriers> carriers =
          ViewCarriers(x.schema(), x_carriers, to_ship->schema(),
                       filter[v].empty() ? nullptr : &kept);
      std::string full_payload = Serializer::SerializeTable(*to_ship, carriers);
      std::string payload;
      size_t fallback = 0;
      std::string label = "X fragment";
      if (base != nullptr) {
        std::string delta =
            Serializer::SerializeDelta(*base, *to_ship, carriers);
        if (delta.size() < full_payload.size()) {
          payload = std::move(delta);
          fallback = full_payload.size();
          label = "X delta";
        }
      }
      if (fallback == 0) payload = std::move(full_payload);
      msg = DownMessage{kCoordinatorId, payload.size(), to_ship->num_rows(),
                        std::move(label), fallback,
                        Serializer::Skl1Size(*to_ship)};
      // The node's view is what the shipped bytes decode to — against its
      // base for a delta, standalone otherwise.
      SKALLA_ASSIGN_OR_RETURN(Table decoded,
                              Serializer::DecodeShipment(base, payload));
      (*view_of)[v] = std::make_shared<const Table>(std::move(decoded));
    }
    msg.from = ParentEndpoint(tree, static_cast<int>(v));
  }
  for (size_t v = 0; v < num_nodes; ++v) {
    if (active[v]) (*bases)[v] = (*view_of)[v];
  }
  return down_of;
}

/// Ships every active aggregator its message, top-down; leaf edges are the
/// wave driver's. Sibling subtrees transfer in parallel, so a level costs
/// the max over senders of their serialized outbound volume.
void ShipToAggregators(SimNetwork* net, const TreeTopology& tree,
                       const std::vector<bool>& active,
                       const std::vector<DownMessage>& down_of,
                       RoundMetrics* rm) {
  for (int level = tree.num_levels - 2; level >= 1; --level) {
    std::map<int, double> outbound;
    double level_comm = 0;
    for (int v : tree.NodesAtLevel(level)) {
      if (!active[static_cast<size_t>(v)]) continue;
      const DownMessage& msg = down_of[static_cast<size_t>(v)];
      const TransferOutcome out =
          net->Transfer(msg.from, EncodeAggregatorId(v), msg.bytes, msg.rows,
                        msg.label, 0, TransferDirection::kToSite);
      rm->bytes_to_sites += msg.bytes;
      rm->groups_to_sites += msg.rows;
      rm->bytes_baseline_skl1 +=
          msg.baseline_bytes > 0 ? msg.baseline_bytes : msg.bytes;
      if (msg.fallback_bytes > msg.bytes) {
        rm->bytes_saved_by_delta += msg.fallback_bytes - msg.bytes;
      }
      level_comm = std::max(level_comm, outbound[msg.from] += out.seconds);
    }
    rm->comm_sec += level_comm;
  }
}

/// Combines replies bottom-up: every active aggregator folds its inbox with
/// a SubResultFold of its own (with no `slots`, a distinct union of the
/// keys) and forwards the combined relation to its parent. A level costs
/// the max over parents of their inbound volume plus the slowest merge.
/// Returns the root's inbox.
Result<std::vector<Inbound>> CombineUp(
    SimNetwork* net, const TreeTopology& tree, const std::vector<bool>& active,
    std::vector<std::vector<Inbound>> inbox, const std::string& label,
    int num_key, const std::vector<SubSlot>& slots, int sub_width,
    RoundMetrics* rm) {
  obs::ScopedSpan up_span(tree.num_levels > 2 ? "round.propagate_up" : nullptr,
                          obs::kTrackCoordinator);
  std::vector<double> inbound_sec(tree.nodes.size(), 0.0);
  for (int level = 1; level + 1 < tree.num_levels; ++level) {
    double level_comm = 0;
    double level_merge_cpu = 0;
    for (int v : tree.NodesAtLevel(level)) {
      if (!active[static_cast<size_t>(v)]) continue;
      Stopwatch merge_sw;
      const std::vector<Inbound>& received = inbox[static_cast<size_t>(v)];
      if (received.empty()) {
        return Status::InvalidArgument("no sub-results to combine");
      }
      GroupMap groups(num_key);
      SubResultFold fold(&groups, slots, sub_width, /*add_groups=*/true);
      SchemaPtr schema;
      for (const Inbound& in : received) {
        SKALLA_ASSIGN_OR_RETURN(DecodedColumns h,
                                Serializer::DecodeColumns(in.payload));
        SKALLA_RETURN_NOT_OK(fold.Fold(h, in.from));
        if (schema == nullptr) schema = std::move(h.schema);
      }
      const Table combined = fold.Emit(std::move(schema));
      const double merge_sec = merge_sw.ElapsedSeconds();
      level_merge_cpu = std::max(level_merge_cpu, merge_sec);
      std::string payload = Serializer::SerializeTable(combined);
      const TransferOutcome out = net->Transfer(
          EncodeAggregatorId(v), ParentEndpoint(tree, v), payload.size(),
          combined.num_rows(), label, 0, TransferDirection::kToCoordinator);
      rm->bytes_to_coord += payload.size();
      rm->groups_to_coord += combined.num_rows();
      rm->bytes_baseline_skl1 += Serializer::Skl1Size(combined);
      const size_t parent =
          static_cast<size_t>(tree.nodes[static_cast<size_t>(v)].parent);
      level_comm = std::max(level_comm, inbound_sec[parent] += out.seconds);
      inbox[parent].push_back(
          Inbound{EncodeAggregatorId(v), std::move(payload)});
    }
    rm->comm_sec += level_comm;
    rm->coord_cpu_sec += level_merge_cpu;
  }
  return std::move(inbox[static_cast<size_t>(tree.root)]);
}

}  // namespace

TreeTopology TreeTopology::Build(int num_sites, int fan_in) {
  SKALLA_CHECK(num_sites >= 1);
  SKALLA_CHECK(fan_in >= 2);
  TreeTopology tree;
  std::vector<int> current_level;
  for (int s = 0; s < num_sites; ++s) {
    Node leaf;
    leaf.id = static_cast<int>(tree.nodes.size());
    leaf.site_index = s;
    leaf.level = 0;
    current_level.push_back(leaf.id);
    tree.nodes.push_back(std::move(leaf));
  }
  int level = 0;
  while (current_level.size() > 1) {
    ++level;
    std::vector<int> next_level;
    for (size_t i = 0; i < current_level.size();
         i += static_cast<size_t>(fan_in)) {
      Node parent;
      parent.id = static_cast<int>(tree.nodes.size());
      parent.level = level;
      const size_t end =
          std::min(current_level.size(), i + static_cast<size_t>(fan_in));
      for (size_t c = i; c < end; ++c) {
        parent.children.push_back(current_level[c]);
        tree.nodes[static_cast<size_t>(current_level[c])].parent = parent.id;
      }
      next_level.push_back(parent.id);
      tree.nodes.push_back(std::move(parent));
    }
    current_level = std::move(next_level);
  }
  tree.root = current_level[0];
  tree.num_levels = level + 1;
  return tree;
}

std::vector<int> TreeTopology::NodesAtLevel(int level) const {
  std::vector<int> out;
  for (const Node& node : nodes) {
    if (node.level == level) out.push_back(node.id);
  }
  return out;
}

std::string TreeTopology::ToString() const {
  std::ostringstream os;
  os << "tree with " << num_levels << " level(s), root " << root << "\n";
  for (const Node& node : nodes) {
    if (node.children.empty()) continue;
    os << "  node " << node.id << " (level " << node.level << ") <- [";
    for (size_t i = 0; i < node.children.size(); ++i) {
      if (i) os << ", ";
      os << node.children[i];
    }
    os << "]\n";
  }
  return os.str();
}

Coordinator::Coordinator(std::vector<Site*> sites, NetworkConfig config)
    : Coordinator(sites, std::max<int>(2, static_cast<int>(sites.size())),
                  config) {}

Coordinator::Coordinator(std::vector<Site*> sites, int fan_in,
                         NetworkConfig config)
    : sites_(std::move(sites)),
      topology_(TreeTopology::Build(
          std::max<int>(1, static_cast<int>(sites_.size())), fan_in)),
      network_(config) {}

Status Coordinator::CheckCancelled() const {
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled by client");
  }
  return Status::OK();
}

Result<SchemaPtr> Coordinator::FindSchema(const std::string& table_name) const {
  for (const Site* site : sites_) {
    if (site->catalog().HasTable(table_name)) {
      SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const Table> t,
                              site->catalog().GetTable(table_name));
      return t->schema_ptr();
    }
  }
  return Status::NotFound("no site holds a partition of '" + table_name + "'");
}

Result<SchemaMap> Coordinator::CollectSchemas(
    const DistributedPlan& plan) const {
  SchemaMap schemas;
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr base_schema,
                          FindSchema(plan.base.source_table));
  schemas[plan.base.source_table] = base_schema;
  for (const PlanRound& round : plan.rounds) {
    for (const GmdjOp& op : round.ops) {
      if (schemas.count(op.detail_table)) continue;
      SKALLA_ASSIGN_OR_RETURN(SchemaPtr s, FindSchema(op.detail_table));
      schemas[op.detail_table] = s;
    }
  }
  return schemas;
}

Result<Table> Coordinator::Execute(const DistributedPlan& plan,
                                   ExecutionMetrics* metrics) {
  if (sites_.empty()) {
    return Status::InvalidArgument("coordinator has no sites");
  }
  obs::ScopedSpan query_span("query.execute", obs::kTrackCoordinator);
  if (query_span.armed()) {
    query_span.set_detail(std::to_string(plan.rounds.size()) +
                          " gmdj round(s), " + std::to_string(sites_.size()) +
                          " site(s)");
  }
  network_.Reset();
  ExecutionMetrics local_metrics;
  // Which physical site serves each slot; failover swaps are sticky for
  // the rest of the query.
  SiteRoster roster(sites_, replicas_);
  const RetryPolicy& retry = network_.config().retry;
  // What each tree node last received of X (fused rounds ship only a plan
  // and leave it untouched). Deltas in later rounds are encoded against
  // this, mirroring the node's cached copy. With an attached external
  // cache the mirror survives the query, so the next query's first ship
  // can already go out as a delta.
  std::vector<std::shared_ptr<const Table>> private_ship_cache;
  std::vector<std::shared_ptr<const Table>>& ship_cache =
      external_ship_cache_ != nullptr ? *external_ship_cache_
                                      : private_ship_cache;
  ship_cache.resize(topology_.nodes.size());

  SKALLA_ASSIGN_OR_RETURN(SchemaMap schemas, CollectSchemas(plan));
  const GmdjExpr expr = plan.ToExpr();
  SKALLA_RETURN_NOT_OK(ValidateGmdjExpr(expr, schemas));

  const int num_key = static_cast<int>(plan.key_attrs.size());

  // Resuming from a cached prefix: the first `resume_rounds_` plan rounds
  // (and the base round) are skipped and X is seeded from the cached
  // structure, after validating it against the schema a fresh execution
  // would hold at that point.
  const bool resuming = resume_x_ != nullptr && resume_rounds_ >= 1;
  size_t ops_done = 0;
  if (resuming) {
    if (resume_rounds_ > plan.rounds.size()) {
      return Status::InvalidArgument(
          "resume point beyond the plan's round count");
    }
    for (size_t r = 0; r < resume_rounds_; ++r) {
      ops_done += plan.rounds[r].ops.size();
    }
    SKALLA_ASSIGN_OR_RETURN(SchemaPtr resume_schema,
                            BaseResultSchema(expr, schemas, ops_done));
    if (resume_x_->schema().FieldNames() != resume_schema->FieldNames()) {
      return Status::InvalidArgument(
          "resume structure schema does not match the plan prefix");
    }
  }

  // The base-result structure X (visible/finalized form) and the map from
  // its group keys to its row positions, built once: every round's fold
  // keeps it in step with X's rows. A resumed X is keyed here too, on the
  // first executed round's coordinator CPU.
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr x_schema,
                          BaseResultSchema(expr, schemas, ops_done));
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr final_schema,
                          BaseResultSchema(expr, schemas, expr.ops.size()));
  // Rows are reserved at X's final width, so each round widens them in
  // place.
  const size_t final_width = static_cast<size_t>(final_schema->num_fields());
  Table x(x_schema);
  GroupMap x_groups(num_key);
  // The exact (sum, count) of each AVG column X's rounds finalized, so its
  // views can ship them instead (ShipViews). A resumed X has none for the
  // columns it arrived with; those ship as the doubles they are.
  std::vector<QuotientCarriers> x_carriers;
  double pending_coord_cpu = 0;
  if (resuming) {
    Stopwatch key_sw;
    x = *resume_x_;
    SKALLA_ASSIGN_OR_RETURN(x_groups, GroupMapOfRows(x, num_key));
    pending_coord_cpu = key_sw.ElapsedSeconds();
  }

  // ---- Rounds. Step 0 is the base-values query — a round without
  //      operators, whose merge is the distinct union of the B_i — unless
  //      it is fused into the first round (Prop. 2) or resumed past; step
  //      r + 1 evaluates plan round r. ----
  const PlanRound base_query_round;
  for (size_t step = resuming ? resume_rounds_ + 1 : (plan.fuse_base ? 1 : 0);
       step <= plan.rounds.size(); ++step) {
    const bool base = step == 0;
    const size_t r = base ? 0 : step - 1;
    const PlanRound& round = base ? base_query_round : plan.rounds[r];
    // Cancellation is polled at every round boundary.
    SKALLA_RETURN_NOT_OK(CheckCancelled());
    const std::string name =
        base ? "base" : "gmdj round " + std::to_string(r + 1);
    network_.BeginRound(name);
    obs::ScopedSpan round_span(base ? "round.base" : "round.gmdj",
                               obs::kTrackCoordinator);
    if (round_span.armed() && !base) {
      round_span.set_detail("round " + std::to_string(r + 1));
    }
    RoundMetrics rm;
    rm.streaming = network_.config().streaming_sync;
    rm.label = base ? "base query" : name;
    if (round.ops.size() > 1) {
      rm.label += " (chain of " + std::to_string(round.ops.size()) + ")";
    }
    const std::vector<int>& chosen_sites =
        base ? plan.base_sites : round.participating_sites;
    const std::vector<int> participants =
        chosen_sites.empty() ? AllSiteIds(sites_) : chosen_sites;
    rm.sites = static_cast<int>(participants.size());
    const bool fused_base_round = plan.fuse_base && !base && r == 0;
    // Rounds that ship a plan instead of X, and whose merge adds groups.
    const bool plan_only = base || fused_base_round;
    const std::vector<bool> active = ActiveNodes(topology_, participants);

    // Sub-aggregate layout of this round's H relations.
    int sub_width = 0;
    SKALLA_ASSIGN_OR_RETURN(std::vector<SubSlot> slots,
                            BuildSubSlots(round.ops, schemas, &sub_width));

    // Per-site ship predicates, when aware group reduction is on.
    const std::vector<ExprPtr> no_predicates;
    const std::vector<ExprPtr>& predicates =
        round.flags.aware_group_reduction && r < plan.ship_predicates.size()
            ? plan.ship_predicates[r]
            : no_predicates;

    double coord_cpu = pending_coord_cpu;
    pending_coord_cpu = 0;

    // ---- Phase A (coordinator): reduce, prune, and serialize each node's
    //      view of X. Shipping — and any re-shipping under faults — is the
    //      retry driver's job; a retried attempt re-sends the identical
    //      fragment, which is what makes rounds idempotent. ----
    std::vector<DownMessage> down_of;
    std::vector<std::shared_ptr<const Table>> view_of(topology_.nodes.size());
    if (plan_only) {
      down_of = ControlMessages(topology_, active,
                                base ? "base query plan" : "fused plan");
    } else {
      obs::ScopedSpan prepare_span("round.prepare", obs::kTrackCoordinator);
      Stopwatch prepare_sw;
      SKALLA_ASSIGN_OR_RETURN(
          down_of, ShipViews(x, x_carriers, round.ship_cols, predicates,
                             topology_, active,
                             network_.config().delta_shipping, &ship_cache,
                             &view_of));
      coord_cpu += prepare_sw.ElapsedSeconds();
      if (prepare_span.armed()) {
        prepare_span.set_detail(std::to_string(participants.size()) +
                                " fragment(s)");
      }
    }
    std::vector<int> drive_participants = participants;
    std::vector<DownMessage> down;
    // Each slot holds its view for the whole wave.
    std::vector<std::shared_ptr<const Table>> slot_views;
    for (int s : participants) {
      down.push_back(down_of[static_cast<size_t>(s)]);
      slot_views.push_back(view_of[static_cast<size_t>(s)]);
    }

    // ---- Skew rebalancing (docs/skew.md): when the detector predicts a
    //      straggler for this round and its φ-twin replica is available,
    //      the replica joins the wave as a helper slot — one more child of
    //      the straggler's parent — evaluating the straggler's upper detail
    //      fragment. The split is legal for single-operator, non-fused
    //      rounds only: the two H fragments are disjoint scan covers of the
    //      same detail relation, so merging both through the Theorem 1 fold
    //      is byte-identical to the unsplit round (DESIGN.md invariant
    //      12). ----
    // Per-slot detail scan windows ([0, -1) = everything) and assigned row
    // counts (for the detector's per-row feedback normalization).
    std::vector<std::pair<int64_t, int64_t>> ranges(participants.size(),
                                                    {0, -1});
    std::vector<int64_t> assigned_rows(participants.size(), 0);
    const bool splittable = skew_detector_ != nullptr && !plan_only &&
                            round.ops.size() == 1;
    if (splittable) {
      std::vector<int64_t> rows(participants.size(), 0);
      for (size_t p = 0; p < participants.size(); ++p) {
        Result<std::shared_ptr<const Table>> detail =
            roster.active(participants[p])
                ->catalog()
                .GetTable(round.ops[0].detail_table);
        if (detail.ok()) rows[p] = (*detail)->num_rows();
      }
      assigned_rows = rows;
      const RebalanceDecision decision =
          skew_detector_->PlanRound(participants, rows);
      const auto hot_at = decision.split()
                              ? std::find(participants.begin(),
                                          participants.end(),
                                          decision.hot_slot) -
                                    participants.begin()
                              : static_cast<std::ptrdiff_t>(0);
      auto replica_it = replicas_.end();
      if (decision.split() &&
          hot_at < static_cast<std::ptrdiff_t>(participants.size()) &&
          !roster.failed_over(decision.hot_slot)) {
        replica_it = replicas_.find(decision.hot_slot);
      }
      if (replica_it != replicas_.end() &&
          CoversPartition(replica_it->second->partition_info(),
                          roster.active(decision.hot_slot)
                              ->partition_info())) {
        const size_t p_hot = static_cast<size_t>(hot_at);
        const int helper_sid = roster.AddHelperSlot(
            replica_it->second, roster.active(decision.hot_slot));
        drive_participants.push_back(helper_sid);
        // The helper holds no cached X, so it gets its own full copy of
        // the straggler's view (the delta's fallback size when the
        // straggler got a delta), flagged so its traffic lands in the
        // rebalance surcharge counters.
        DownMessage helper_msg = down[p_hot];
        if (helper_msg.fallback_bytes > 0) {
          helper_msg.bytes = helper_msg.fallback_bytes;
        }
        helper_msg.fallback_bytes = 0;
        helper_msg.label = "X fragment (rebalance)";
        helper_msg.rebalance = true;
        down.push_back(std::move(helper_msg));
        slot_views.push_back(slot_views[p_hot]);
        ranges[p_hot] = {0, decision.split_at};
        ranges.push_back({decision.split_at, -1});
        assigned_rows[p_hot] = decision.split_at;
        assigned_rows.push_back(decision.rows - decision.split_at);
        rm.rebalance_splits++;
      }
    }

    // ---- Phase B: aggregator messages top-down, the fault-tolerant leaf
    //      exchange (retried per RetryPolicy), then the bottom-up combine;
    //      in the depth-1 tree every reply reaches the root in slot order. ----
    auto eval = [&](int p, Site* site,
                    SiteEvalReport* report) -> Result<Table> {
      if (base) return site->EvalBase(plan.base, &report->cpu_sec);
      SiteRoundInput input;
      input.x = slot_views[static_cast<size_t>(p)].get();
      input.base = fused_base_round ? &plan.base : nullptr;
      input.ops = &round.ops;
      input.key_attrs = &plan.key_attrs;
      input.touched_only = round.flags.independent_group_reduction;
      input.num_threads = local_threads_;
      input.detail_lo = ranges[static_cast<size_t>(p)].first;
      input.detail_hi = ranges[static_cast<size_t>(p)].second;
      return site->EvalRound(input, report);
    };
    ShipToAggregators(&network_, topology_, active, down_of, &rm);
    const std::string reply_label = base ? "B_i" : "H_i";
    SKALLA_ASSIGN_OR_RETURN(
        std::vector<std::string> replies,
        DriveRoundWithRetries(&network_, retry, &rm, &roster,
                              drive_participants, down, reply_label, eval,
                              parallel_sites_));
    std::vector<std::vector<Inbound>> inbox(topology_.nodes.size());
    for (size_t p = 0; p < replies.size(); ++p) {
      inbox[static_cast<size_t>(NodeOfEndpoint(topology_, down[p].from))]
          .push_back(Inbound{drive_participants[p], std::move(replies[p])});
    }
    SKALLA_ASSIGN_OR_RETURN(
        std::vector<Inbound> inbound,
        CombineUp(&network_, topology_, active, std::move(inbox), reply_label,
                  num_key, slots, sub_width, &rm));

    // Feed the measured per-slot wall times back to the detector (primary
    // slots only — a helper's timing belongs to the replica's hardware,
    // not the straggler being modelled).
    if (splittable) {
      for (size_t p = 0; p < participants.size(); ++p) {
        if (p < rm.site_seconds.size()) {
          skew_detector_->ObserveRound(participants[p], rm.site_seconds[p],
                                       assigned_rows[p]);
        }
      }
    }

    // ---- Phase C (coordinator): synchronize (Theorem 1) in
    //      deterministic child order — decode each reply into columns and
    //      fold it into per-group accumulators; the base query and a round
    //      fused with it add the groups they find. ----
    std::optional<obs::ScopedSpan> sync_span;
    sync_span.emplace("round.sync", obs::kTrackCoordinator);
    Stopwatch fold_sw;
    SubResultFold fold(&x_groups, slots, sub_width, /*add_groups=*/plan_only);
    coord_cpu += fold_sw.ElapsedSeconds();
    for (const Inbound& in : inbound) {
      Stopwatch merge_sw;
      SKALLA_ASSIGN_OR_RETURN(DecodedColumns h,
                              Serializer::DecodeColumns(in.payload));
      SKALLA_RETURN_NOT_OK(fold.Fold(h, in.from));
      coord_cpu += merge_sw.ElapsedSeconds();
    }
    sync_span.reset();

    // ---- Finalize: X's rows gain this round's aggregates in place, and
    //      the groups a plan-only round found become rows at full width
    //      (the base query's rows are keys only). ----
    {
      obs::ScopedSpan finalize_span(base ? nullptr : "round.finalize",
                                    obs::kTrackCoordinator);
      Stopwatch finalize_sw;
      // The last round's X ships to no site, so it keeps no carriers.
      fold.FinalizeInto(&x, final_width,
                        step < plan.rounds.size() ? &x_carriers : nullptr);
      coord_cpu += finalize_sw.ElapsedSeconds();
    }

    rm.coord_cpu_sec += coord_cpu;
    local_metrics.rounds.push_back(std::move(rm));

    ops_done += round.ops.size();
    if (!base && round_observer_) round_observer_(ops_done, x);
  }


  // ---- HAVING: final coordinator-side filter over the finished X. ----
  if (plan.having != nullptr) {
    Stopwatch having_sw;
    SKALLA_ASSIGN_OR_RETURN(
        CompiledExpr having,
        CompiledExpr::Compile(plan.having, &x.schema(), nullptr));
    Table filtered(x.schema_ptr());
    for (const Row& row : x.rows()) {
      if (having.EvalBool(&row, nullptr)) filtered.AddRow(row);
    }
    x = std::move(filtered);
    if (!local_metrics.rounds.empty()) {
      local_metrics.rounds.back().coord_cpu_sec += having_sw.ElapsedSeconds();
    }
  }

  // ---- Presentation: ORDER BY / LIMIT on the finished relation. ----
  if (!plan.order_by.empty()) {
    SKALLA_ASSIGN_OR_RETURN(x, SortedByKeys(x, plan.order_by));
  }
  if (plan.limit >= 0) {
    x = Limit(x, plan.limit);
  }

  if (metrics != nullptr) *metrics = std::move(local_metrics);
  return x;
}

int64_t TheoremTwoGroupBound(const DistributedPlan& plan, int num_sites,
                             int64_t q_rows) {
  const int64_t s0 = plan.base_sites.empty()
                         ? num_sites
                         : static_cast<int64_t>(plan.base_sites.size());
  int64_t bound = plan.fuse_base ? 0 : s0 * q_rows;
  for (const PlanRound& round : plan.rounds) {
    const int64_t si = round.participating_sites.empty()
                           ? num_sites
                           : static_cast<int64_t>(
                                 round.participating_sites.size());
    // Each operator in the round costs at most one X shipment out and one
    // H shipment back per site; a k-op chain still ships once, so charging
    // per round keeps the bound valid (and tight for 1-op rounds).
    bound += 2 * si * q_rows;
  }
  return bound;
}

}  // namespace skalla
