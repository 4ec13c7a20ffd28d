// The paper allows the detail relation to differ across rounds ("we use
// R_k to denote the detail relation at round k ... the detail relation may
// or may not be the same across all rounds"). These tests drive GMDJ
// chains whose operators aggregate over *different* relations, plus the
// heterogeneous-site (straggler) cost model.

#include <gtest/gtest.h>

#include "common/random.h"
#include "expr/parser.h"
#include "flow/flowgen.h"
#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

ExprPtr MustParse(const std::string& text) {
  auto result = ParseExpr(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

/// An Alerts relation keyed on RouterId, partitionable alongside Flow.
Table MakeAlerts(int64_t rows, int64_t num_routers, uint64_t seed) {
  Rng rng(seed);
  Table t(MakeSchema({{"RouterId", ValueType::kInt64},
                      {"Severity", ValueType::kInt64},
                      {"DurationSec", ValueType::kInt64}}));
  for (int64_t i = 0; i < rows; ++i) {
    t.AddRow({Value(rng.Uniform(0, num_routers - 1)),
              Value(rng.Uniform(1, 5)), Value(rng.Uniform(1, 3600))});
  }
  return t;
}

class MultiRelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    warehouse_ = std::make_unique<Warehouse>(4);
    FlowConfig config;
    config.num_rows = 3000;
    config.num_routers = 4;
    config.num_as = 40;
    Table flows = GenerateFlows(config);
    ASSERT_OK(warehouse_->LoadByRange("Flow", flows, "RouterId", 0, 3,
                                      {"RouterId", "SourceAS"}));
    Table alerts = MakeAlerts(800, 4, 77);
    ASSERT_OK(warehouse_->LoadByRange("Alerts", alerts, "RouterId", 0, 3,
                                      {"RouterId"}));
  }

  /// Per router: traffic stats from Flow, then severe-alert stats from
  /// Alerts, correlated with the traffic average.
  GmdjExpr CrossRelationQuery() {
    GmdjExpr query;
    query.base.source_table = "Flow";
    query.base.project_cols = {"RouterId"};

    GmdjOp traffic;
    traffic.detail_table = "Flow";
    GmdjBlock t_block;
    t_block.aggs = {AggSpec::Count("flows"),
                    AggSpec::Avg("NumBytes", "avg_bytes")};
    t_block.theta = MustParse("B.RouterId = R.RouterId");
    traffic.blocks.push_back(t_block);
    query.ops.push_back(traffic);

    GmdjOp alerts;
    alerts.detail_table = "Alerts";
    GmdjBlock a_block;
    a_block.aggs = {AggSpec::Count("severe_alerts"),
                    AggSpec::Max("DurationSec", "longest_alert")};
    a_block.theta = MustParse("B.RouterId = R.RouterId && R.Severity >= 4");
    alerts.blocks.push_back(a_block);
    query.ops.push_back(alerts);
    return query;
  }

  std::unique_ptr<Warehouse> warehouse_;
};

TEST_F(MultiRelationTest, CrossRelationChainMatchesCentralized) {
  const GmdjExpr query = CrossRelationQuery();
  ASSERT_OK_AND_ASSIGN(Table expected,
                       warehouse_->ExecuteCentralized(query));
  for (int mask = 0; mask < 32; ++mask) {
    OptimizerOptions options;
    options.coalesce = (mask & 1) != 0;
    options.independent_group_reduction = (mask & 2) != 0;
    options.aware_group_reduction = (mask & 4) != 0;
    options.sync_reduction = (mask & 8) != 0;
    options.column_pruning = (mask & 16) != 0;
    SCOPED_TRACE("mask " + std::to_string(mask));
    ASSERT_OK_AND_ASSIGN(QueryResult result,
                         warehouse_->Execute(query, options));
    ExpectSameRows(result.table, expected);
  }
}

TEST_F(MultiRelationTest, SyncReductionFusesAcrossRelations) {
  // RouterId is a partition attribute of BOTH relations (declared ranges
  // per site), so Cor. 1 fuses the cross-relation chain into one round.
  OptimizerOptions options;
  options.sync_reduction = true;
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       warehouse_->Plan(CrossRelationQuery(), options));
  ASSERT_EQ(plan.rounds.size(), 1u);
  EXPECT_EQ(plan.rounds[0].ops.size(), 2u);
  EXPECT_TRUE(plan.fuse_base);

  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       warehouse_->ExecutePlan(plan));
  EXPECT_EQ(result.metrics.NumRounds(), 1);
  ASSERT_OK_AND_ASSIGN(Table expected,
                       warehouse_->ExecuteCentralized(CrossRelationQuery()));
  ExpectSameRows(result.table, expected);
}

TEST_F(MultiRelationTest, CoalescingDoesNotCrossRelations) {
  // Even with an uncorrelated second operator, different detail relations
  // must stay separate operators.
  GmdjExpr query = CrossRelationQuery();
  // Remove the correlation-free dependency: alerts θ without references to
  // traffic outputs (it already has none) — still must not coalesce.
  Optimizer optimizer;
  const GmdjExpr coalesced = optimizer.Coalesce(query);
  EXPECT_EQ(coalesced.ops.size(), 2u);
}

TEST_F(MultiRelationTest, MissingRelationAtSitesFails) {
  GmdjExpr query = CrossRelationQuery();
  query.ops[1].detail_table = "Nowhere";
  auto result = warehouse_->Execute(query, OptimizerOptions::None());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StragglerTest, SlowSiteGatesTheRound) {
  TpcConfig config;
  config.num_rows = 8000;
  config.num_customers = 500;
  Table tpcr = GenerateTpcr(config);

  Warehouse uniform(4);
  ASSERT_OK(uniform.LoadByRange("TPCR", tpcr, "NationKey", 0, 24));
  Warehouse skewed(4);
  ASSERT_OK(skewed.LoadByRange("TPCR", tpcr, "NationKey", 0, 24));
  skewed.site(2).set_compute_scale(0.05);  // a 20x-slower machine

  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(QueryResult fast,
                       uniform.Execute(query, OptimizerOptions::None()));
  ASSERT_OK_AND_ASSIGN(QueryResult slow,
                       skewed.Execute(query, OptimizerOptions::None()));
  ExpectSameRows(slow.table, fast.table);
  // Sites run in parallel, so each round charges its slowest site. Site
  // times are scaled *wall clock*: comparing two separate executions is
  // meaningless on a loaded CI box, so compare the straggler against its
  // peers measured within the same rounds instead.
  std::vector<double> per_site(4, 0.0);
  for (const RoundMetrics& rm : slow.metrics.rounds) {
    for (const SiteLoad& row : rm.exchanges) {
      if (row.site >= 0 && row.site < 4) {
        per_site[static_cast<size_t>(row.site)] += row.success_sec;
      }
    }
  }
  double peer_max = 0;
  for (int s = 0; s < 4; ++s) {
    if (s != 2) peer_max = std::max(peer_max, per_site[s]);
  }
  ASSERT_GT(peer_max, 0.0);
  EXPECT_GT(per_site[2], 3.0 * peer_max);
  // Traffic is unaffected.
  EXPECT_EQ(slow.metrics.TotalBytes(), fast.metrics.TotalBytes());
}

}  // namespace
}  // namespace skalla
