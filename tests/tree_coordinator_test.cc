#include "dist/coordinator.h"

#include <gtest/gtest.h>

#include <atomic>

#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "storage/serializer.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

std::vector<Site*> SitesOf(Warehouse* wh) {
  std::vector<Site*> sites;
  for (int i = 0; i < wh->num_sites(); ++i) sites.push_back(&wh->site(i));
  return sites;
}

std::vector<std::pair<std::string, GmdjExpr>> PaperQueries() {
  return {{"group", queries::GroupReductionQuery("CustKey")},
          {"coalesce", queries::CoalescingQuery("ClerkKey")},
          {"sync", queries::SyncReductionQuery("CustKey")},
          {"combined", queries::CombinedQuery("CustKey")}};
}

TEST(TreeTopologyTest, SingleSiteIsRootOnly) {
  const TreeTopology tree = TreeTopology::Build(1, 2);
  EXPECT_EQ(tree.nodes.size(), 1u);
  EXPECT_EQ(tree.root, 0);
  EXPECT_EQ(tree.num_levels, 1);
}

TEST(TreeTopologyTest, BinaryTreeOverEight) {
  const TreeTopology tree = TreeTopology::Build(8, 2);
  // 8 leaves + 4 + 2 + 1 = 15 nodes, 4 levels.
  EXPECT_EQ(tree.nodes.size(), 15u);
  EXPECT_EQ(tree.num_levels, 4);
  EXPECT_EQ(tree.NodesAtLevel(0).size(), 8u);
  EXPECT_EQ(tree.NodesAtLevel(1).size(), 4u);
  EXPECT_EQ(tree.NodesAtLevel(3).size(), 1u);
  // Every non-root node has a parent; the root has none.
  for (const TreeTopology::Node& node : tree.nodes) {
    if (node.id == tree.root) {
      EXPECT_EQ(node.parent, -1);
    } else {
      ASSERT_GE(node.parent, 0);
      const auto& siblings =
          tree.nodes[static_cast<size_t>(node.parent)].children;
      EXPECT_NE(std::find(siblings.begin(), siblings.end(), node.id),
                siblings.end());
    }
  }
}

TEST(TreeTopologyTest, UnevenFanIn) {
  const TreeTopology tree = TreeTopology::Build(5, 3);
  // 5 leaves → level1: 2 parents (3+2) → root. 5+2+1 = 8 nodes.
  EXPECT_EQ(tree.nodes.size(), 8u);
  EXPECT_EQ(tree.num_levels, 3);
}

TEST(TreeTopologyTest, WideFanInCollapsesToTwoLevels) {
  const TreeTopology tree = TreeTopology::Build(6, 8);
  EXPECT_EQ(tree.num_levels, 2);
  EXPECT_EQ(tree.NodesAtLevel(1).size(), 1u);
}

TEST(TreeTopologyTest, ToStringListsInternalNodes) {
  const TreeTopology tree = TreeTopology::Build(4, 2);
  const std::string s = tree.ToString();
  EXPECT_NE(s.find("tree with 3 level(s)"), std::string::npos);
}

class TreeExecutionTest : public ::testing::Test {
 protected:
  void Load(Warehouse* wh, uint64_t seed = 31) {
    TpcConfig config;
    config.num_rows = 3000;
    config.num_customers = 250;
    config.seed = seed;
    Table tpcr = GenerateTpcr(config);
    ASSERT_OK(wh->LoadByRange("TPCR", tpcr, "NationKey", 0, 24,
                              {"CustKey"}));
  }
};

TEST_F(TreeExecutionTest, MatchesFlatCoordinatorAcrossQueriesAndFanIns) {
  Warehouse wh(8);
  Load(&wh);
  for (const auto& [name, query] :
       std::vector<std::pair<std::string, GmdjExpr>>{
           {"group", queries::GroupReductionQuery("CustKey")},
           {"coalesce", queries::CoalescingQuery("ClerkKey")},
           {"sync", queries::SyncReductionQuery("CustKey")},
           {"combined", queries::CombinedQuery("CustKey")}}) {
    for (const auto& options :
         {OptimizerOptions::None(), OptimizerOptions::All()}) {
      ASSERT_OK_AND_ASSIGN(DistributedPlan plan, wh.Plan(query, options));
      ASSERT_OK_AND_ASSIGN(QueryResult flat, wh.ExecutePlan(plan));
      for (int fan_in : {2, 3, 8}) {
        ASSERT_OK_AND_ASSIGN(QueryResult tree,
                             wh.ExecutePlanTree(plan, fan_in));
        ExpectSameRows(tree.table, flat.table);
      }
    }
  }
}

TEST_F(TreeExecutionTest, SingleSiteTree) {
  Warehouse wh(1);
  Load(&wh);
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::None()));
  ASSERT_OK_AND_ASSIGN(QueryResult tree, wh.ExecutePlanTree(plan, 2));
  ASSERT_OK_AND_ASSIGN(Table expected, wh.ExecuteCentralized(query));
  ExpectSameRows(tree.table, expected);
}

TEST_F(TreeExecutionTest, TreeReducesRootInboundGroups) {
  // With 8 sites and a binary tree, the root receives 2 combined
  // relations instead of 8 per round; total upward groups still include
  // intermediate hops, but the *bytes on any single link* shrink. We
  // check the observable aggregate: upward groups for the flat
  // coordinator count every site's full H, while the tree's root level
  // carries at most 2 combined relations whose union is the group set.
  Warehouse wh(8);
  Load(&wh);
  const GmdjExpr query = queries::SyncReductionQuery("CustKey");
  OptimizerOptions options;
  options.sync_reduction = true;
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan, wh.Plan(query, options));
  ASSERT_OK_AND_ASSIGN(QueryResult flat, wh.ExecutePlan(plan));
  ASSERT_OK_AND_ASSIGN(QueryResult tree, wh.ExecutePlanTree(plan, 2));
  ExpectSameRows(tree.table, flat.table);
  // Same single logical round.
  EXPECT_EQ(tree.metrics.NumRounds(), flat.metrics.NumRounds());
}

TEST_F(TreeExecutionTest, PartialParticipationMatchesFlat) {
  Warehouse wh(4);
  Load(&wh);
  ASSERT_OK_AND_ASSIGN(
      DistributedPlan plan,
      wh.Plan(queries::GroupReductionQuery("CustKey"),
              OptimizerOptions::None()));
  plan.rounds[0].participating_sites = {0, 1};
  ASSERT_OK_AND_ASSIGN(QueryResult flat, wh.ExecutePlan(plan));
  ASSERT_OK_AND_ASSIGN(QueryResult tree, wh.ExecutePlanTree(plan, 2));
  EXPECT_EQ(TableBytes(tree.table), TableBytes(flat.table));
  // Round 1 talks to the two participating leaves only.
  EXPECT_EQ(tree.metrics.rounds[1].sites, 2);
}

// Theorem 1 composes at every level, so the flat coordinator is the
// depth-1 tree: a fan-in of at least the site count must reproduce it
// exactly — result bytes, per-round traffic, modelled link time, and the
// network's transfer log.
TEST_F(TreeExecutionTest, FlatIsTheDepthOneTree) {
  Warehouse wh(8);
  Load(&wh);
  for (const auto& [name, query] : PaperQueries()) {
    for (const auto& options :
         {OptimizerOptions::None(), OptimizerOptions::All()}) {
      ASSERT_OK_AND_ASSIGN(DistributedPlan plan, wh.Plan(query, options));
      Coordinator flat(SitesOf(&wh));
      ExecutionMetrics flat_metrics;
      ASSERT_OK_AND_ASSIGN(Table flat_table, flat.Execute(plan, &flat_metrics));
      for (int fan_in : {8, 16}) {
        SCOPED_TRACE(name + " fan-in " + std::to_string(fan_in));
        Coordinator tree(SitesOf(&wh), fan_in);
        EXPECT_EQ(tree.topology().num_levels, 2);
        ExecutionMetrics tree_metrics;
        ASSERT_OK_AND_ASSIGN(Table tree_table,
                             tree.Execute(plan, &tree_metrics));
        EXPECT_EQ(TableBytes(tree_table), TableBytes(flat_table));
        ASSERT_EQ(tree_metrics.NumRounds(), flat_metrics.NumRounds());
        for (int r = 0; r < flat_metrics.NumRounds(); ++r) {
          const RoundMetrics& t = tree_metrics.rounds[static_cast<size_t>(r)];
          const RoundMetrics& f = flat_metrics.rounds[static_cast<size_t>(r)];
          EXPECT_EQ(t.Total().bytes_in, f.Total().bytes_in);
          EXPECT_EQ(t.Total().bytes_out, f.Total().bytes_out);
          EXPECT_EQ(t.Total().groups_in, f.Total().groups_in);
          EXPECT_EQ(t.Total().groups_out, f.Total().groups_out);
          EXPECT_EQ(t.comm_sec, f.comm_sec);  // exact: fault-free
        }
        const auto& tree_log = tree.network().transfers();
        const auto& flat_log = flat.network().transfers();
        ASSERT_EQ(tree_log.size(), flat_log.size());
        for (size_t i = 0; i < flat_log.size(); ++i) {
          EXPECT_EQ(tree_log[i].from, flat_log[i].from);
          EXPECT_EQ(tree_log[i].to, flat_log[i].to);
          EXPECT_EQ(tree_log[i].bytes, flat_log[i].bytes);
          EXPECT_EQ(tree_log[i].label, flat_log[i].label);
        }
      }
    }
  }
}

// Capabilities every topology shares through the one round engine: prefix
// resume, cancellation, the round observer, and aware group reduction.
TEST_F(TreeExecutionTest, TreeResumesFromObservedPrefix) {
  Warehouse wh(8);
  Load(&wh);
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(queries::GroupReductionQuery("CustKey"),
                               OptimizerOptions::None()));
  ASSERT_GE(plan.rounds.size(), 2u);
  Coordinator full(SitesOf(&wh), /*fan_in=*/2);
  std::optional<Table> after_round_one;
  full.set_round_observer([&](size_t ops_done, const Table& x) {
    if (ops_done == plan.rounds[0].ops.size()) after_round_one = x;
  });
  ASSERT_OK_AND_ASSIGN(Table full_table, full.Execute(plan, nullptr));
  ASSERT_TRUE(after_round_one.has_value());

  Coordinator resumed(SitesOf(&wh), /*fan_in=*/2);
  resumed.set_resume(&*after_round_one, 1);
  ExecutionMetrics metrics;
  ASSERT_OK_AND_ASSIGN(Table resumed_table, resumed.Execute(plan, &metrics));
  EXPECT_EQ(TableBytes(resumed_table), TableBytes(full_table));
  EXPECT_EQ(metrics.NumRounds(), static_cast<int>(plan.rounds.size()) - 1);
}

TEST_F(TreeExecutionTest, TreeHonorsCancelFlag) {
  Warehouse wh(8);
  Load(&wh);
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(queries::GroupReductionQuery("CustKey"),
                               OptimizerOptions::None()));
  Coordinator tree(SitesOf(&wh), /*fan_in=*/2);
  std::atomic<bool> cancel{true};
  tree.set_cancel_flag(&cancel);
  auto result = tree.Execute(plan, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(TreeExecutionTest, TreeObserverFiresOncePerGmdjRound) {
  Warehouse wh(8);
  Load(&wh);
  for (const auto& [name, query] : PaperQueries()) {
    SCOPED_TRACE(name);
    ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                         wh.Plan(query, OptimizerOptions::All()));
    Coordinator tree(SitesOf(&wh), /*fan_in=*/2);
    std::vector<size_t> calls;
    tree.set_round_observer(
        [&calls](size_t ops_done, const Table&) { calls.push_back(ops_done); });
    ASSERT_OK(tree.Execute(plan, nullptr).status());
    ASSERT_EQ(calls.size(), plan.rounds.size());
    size_t ops_done = 0;
    for (size_t r = 0; r < plan.rounds.size(); ++r) {
      ops_done += plan.rounds[r].ops.size();
      EXPECT_EQ(calls[r], ops_done);
    }
  }
}

/// Bytes shipped down to aggregator endpoints (EncodeAggregatorId ids).
size_t AggregatorBytesDown(const SimNetwork& net) {
  size_t bytes = 0;
  for (const TransferRecord& r : net.transfers()) {
    if (r.dir == TransferDirection::kToSite && r.to <= kAggregatorIdBase) {
      bytes += r.bytes;
    }
  }
  return bytes;
}

TEST_F(TreeExecutionTest, AggregatorsShipTheUnionOfTheirLeavesViews) {
  // Customers are block-mapped onto nations, so each site's profiled
  // CustKey range is a disjoint slice of X: a leaf's ship predicate keeps
  // its slice, and an aggregator needs only the union of its leaves'.
  Warehouse wh(8);
  Load(&wh);
  OptimizerOptions options;
  options.aware_group_reduction = true;
  ASSERT_OK_AND_ASSIGN(
      DistributedPlan aware,
      wh.Plan(queries::GroupReductionQuery("CustKey"), options));
  DistributedPlan unaware = aware;
  bool any_aware = false;
  for (PlanRound& round : unaware.rounds) {
    any_aware |= round.flags.aware_group_reduction;
    round.flags.aware_group_reduction = false;
  }
  ASSERT_TRUE(any_aware);

  Coordinator flat(SitesOf(&wh));
  ASSERT_OK_AND_ASSIGN(Table flat_table, flat.Execute(aware, nullptr));
  for (int fan_in : {2, 3}) {
    SCOPED_TRACE(fan_in);
    Coordinator with(SitesOf(&wh), fan_in);
    ExecutionMetrics with_metrics;
    ASSERT_OK_AND_ASSIGN(Table with_table, with.Execute(aware, &with_metrics));
    Coordinator without(SitesOf(&wh), fan_in);
    ExecutionMetrics without_metrics;
    ASSERT_OK_AND_ASSIGN(Table without_table,
                         without.Execute(unaware, &without_metrics));
    ExpectSameRows(with_table, flat_table);
    ExpectSameRows(without_table, flat_table);
    EXPECT_LT(with_metrics.BytesToSites(), without_metrics.BytesToSites());
    EXPECT_LT(AggregatorBytesDown(with.network()),
              AggregatorBytesDown(without.network()));
  }
}

TEST_F(TreeExecutionTest, HighLatencyFavorsFlatLowLatencyBandwidthBoundFavorsTree) {
  // Sanity of the cost model: with per-message latency dominating, extra
  // hops hurt; with bandwidth dominating and many sites, the tree's
  // parallel sibling transfers help the X broadcast.
  Warehouse wh(8);
  Load(&wh);
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::None()));

  NetworkConfig slow_links;
  slow_links.bandwidth_bytes_per_sec = 256 * 1024;
  slow_links.latency_sec = 0.0001;
  wh.set_network_config(slow_links);
  ASSERT_OK_AND_ASSIGN(QueryResult flat, wh.ExecutePlan(plan));
  ASSERT_OK_AND_ASSIGN(QueryResult tree, wh.ExecutePlanTree(plan, 2));
  ExpectSameRows(tree.table, flat.table);
  EXPECT_LT(tree.metrics.CommSeconds(), flat.metrics.CommSeconds());
}

}  // namespace
}  // namespace skalla
