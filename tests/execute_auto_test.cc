#include <gtest/gtest.h>

#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

TEST(ExecuteAutoTest, ProducesCorrectResultsAndReportsChoice) {
  Warehouse wh(8);
  TpcConfig config;
  config.num_rows = 8000;
  config.num_customers = 800;
  Table tpcr = GenerateTpcr(config);
  ASSERT_OK(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 24, {"CustKey"}));

  for (const auto& [name, query] :
       std::vector<std::pair<std::string, GmdjExpr>>{
           {"group", queries::GroupReductionQuery("CustKey")},
           {"combined", queries::CombinedQuery("CustKey")},
           {"multifeature", queries::MultiFeatureQuery("NationKey")}}) {
    SCOPED_TRACE(name);
    ASSERT_OK_AND_ASSIGN(Table expected, wh.ExecuteCentralized(query));
    int fan_in = -1;
    ASSERT_OK_AND_ASSIGN(QueryResult result, wh.ExecuteAuto(query, &fan_in));
    ExpectSameRows(result.table, expected);
    EXPECT_TRUE(fan_in == 0 || fan_in == 2 || fan_in == 4) << fan_in;
  }
}

TEST(ExecuteAutoTest, PicksTreeOnBandwidthBoundNetworkAtScale) {
  Warehouse wh(16);
  TpcConfig config;
  config.num_rows = 16000;
  config.num_customers = 3200;
  config.num_nations = 16;
  Table tpcr = GenerateTpcr(config);
  ASSERT_OK(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 15, {"CustKey"}));

  // On the naive plan the flat root link is the bottleneck; but ExecuteAuto
  // always optimizes fully, so the plan may collapse to one fused round
  // where flat and tree are close. Force the interesting case via a query
  // whose grouping attribute carries no distribution knowledge.
  NetworkConfig slow;
  slow.bandwidth_bytes_per_sec = 128.0 * 1024;
  slow.latency_sec = 0.0001;
  wh.set_network_config(slow);

  const GmdjExpr query = queries::GroupReductionQuery("CustName");
  ASSERT_OK_AND_ASSIGN(Table expected, wh.ExecuteCentralized(query));
  int fan_in = -1;
  ASSERT_OK_AND_ASSIGN(QueryResult result, wh.ExecuteAuto(query, &fan_in));
  ExpectSameRows(result.table, expected);
  // CustName is not provably a partition attribute, so the structure is
  // broadcast every round: the tree must win on this network.
  EXPECT_NE(fan_in, 0);
}

// ExecuteAuto, which profiles the plan's key attributes on first use, picks
// the fan-in an estimator over every column of the union picks.
TEST(ExecuteAutoTest, FanInEqualsWholeUnionStatistics) {
  TpcConfig config;
  config.num_rows = 16000;
  config.num_customers = 3200;
  config.num_nations = 16;
  const Table tpcr = GenerateTpcr(config);
  NetworkConfig slow;
  slow.bandwidth_bytes_per_sec = 128.0 * 1024;
  slow.latency_sec = 0.0001;
  int trees = 0;
  for (const NetworkConfig& net : {NetworkConfig(), slow}) {
    Warehouse wh(16, net);
    ASSERT_OK(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 15, {"CustKey"}));
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> all,
                         wh.central_catalog().GetTable("TPCR"));
    ASSERT_OK_AND_ASSIGN(RelationStats whole,
                         ProfileRelation(*all, all->schema().FieldNames()));
    CostEstimator reference(16, net, wh.SiteInfos());
    reference.AddRelation("TPCR", std::move(whole));
    for (const GmdjExpr& query :
         {queries::GroupReductionQuery("CustName"),
          queries::GroupReductionQuery("CustKey"),
          queries::CoalescingQuery("ClerkKey"),
          queries::CombinedQuery("CustName")}) {
      ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                           wh.Plan(query, OptimizerOptions::All()));
      bool tree_eligible = plan.base_sites.empty();
      for (const PlanRound& round : plan.rounds) {
        if (!round.participating_sites.empty()) tree_eligible = false;
      }
      int want = 0;
      if (tree_eligible) {
        ASSERT_OK_AND_ASSIGN(want, reference.ChooseArchitecture(plan, {2, 4}));
      }
      int fan_in = -1;
      ASSERT_OK(wh.ExecuteAuto(query, &fan_in).status());
      EXPECT_EQ(fan_in, want);
      trees += fan_in != 0 ? 1 : 0;
    }
  }
  EXPECT_GT(trees, 0);  // some choice is a tree, so the check is not vacuous
}

TEST(ExecuteAutoTest, StatsAreCachedAcrossQueries) {
  Warehouse wh(4);
  TpcConfig config;
  config.num_rows = 1000;
  config.num_customers = 100;
  Table tpcr = GenerateTpcr(config);
  ASSERT_OK(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 24, {"CustKey"}));
  const GmdjExpr query = queries::CoalescingQuery("ClerkKey");
  ASSERT_OK_AND_ASSIGN(QueryResult first, wh.ExecuteAuto(query));
  ASSERT_OK_AND_ASSIGN(QueryResult second, wh.ExecuteAuto(query));
  ExpectSameRows(first.table, second.table);
}

}  // namespace
}  // namespace skalla
