#include "opt/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "storage/serializer.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

TEST(ProfileRelationTest, CountsAndWidths) {
  const Table t = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(RelationStats stats,
                       ProfileRelation(t, {"g", "h", "s"}));
  EXPECT_EQ(stats.rows, 12);
  EXPECT_EQ(stats.distinct_counts["g"], 3);
  EXPECT_EQ(stats.distinct_counts["h"], 3);
  EXPECT_EQ(stats.distinct_counts["s"], 3);
  // Each width is the SKL2 payload of the attribute's distinct values in
  // key order, per value.
  Table g(MakeSchema({{"g", ValueType::kInt64}}));
  for (int64_t v = 1; v <= 3; ++v) g.AddRow({Value(v)});
  Table str(MakeSchema({{"s", ValueType::kString}}));
  for (const char* v : {"a", "b", "c"}) str.AddRow({Value(v)});
  EXPECT_DOUBLE_EQ(stats.avg_widths_skl2["g"],
                   static_cast<double>(g.SerializedSize()) / 3);
  EXPECT_DOUBLE_EQ(stats.avg_widths_skl2["s"],
                   static_cast<double>(str.SerializedSize()) / 3);
}

TEST(ProfileRelationTest, KeyWidthIsMeasuredInKeyOrder) {
  // 3,000 keys on four rows each, shuffled. X and every reply carry one
  // key per group in ascending order — a dense range packs to a constant
  // difference — so that, not the table order, is the width per group.
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 3000; ++k) keys.insert(keys.end(), 4, k);
  Rng rng(21);
  for (size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[static_cast<size_t>(
                           rng.Uniform(0, static_cast<int64_t>(i)))]);
  }
  Table shuffled(MakeSchema({{"k", ValueType::kInt64}}));
  for (const int64_t k : keys) shuffled.AddRow({Value(k)});
  Table sorted(shuffled.schema_ptr());
  for (int64_t k = 0; k < 3000; ++k) sorted.AddRow({Value(k)});

  ASSERT_OK_AND_ASSIGN(RelationStats stats, ProfileRelation(shuffled, {"k"}));
  EXPECT_EQ(stats.distinct_counts["k"], 3000);
  EXPECT_DOUBLE_EQ(
      stats.avg_widths_skl2["k"],
      static_cast<double>(Serializer::TablePayloadSize(sorted)) / 3000.0);
  EXPECT_LT(stats.avg_widths_skl2["k"], 0.01);
  // In table order the same column costs over a byte a row.
  EXPECT_GT(static_cast<double>(Serializer::TablePayloadSize(shuffled)) /
                static_cast<double>(shuffled.num_rows()),
            1.0);
}

TEST(ProfileRelationTest, EmptyTable) {
  Table t(MakeTinyTable().schema_ptr());
  ASSERT_OK_AND_ASSIGN(RelationStats stats, ProfileRelation(t, {"g"}));
  EXPECT_EQ(stats.rows, 0);
  EXPECT_EQ(stats.distinct_counts["g"], 0);
}

TEST(ProfileRelationTest, MissingAttrRejected) {
  EXPECT_FALSE(ProfileRelation(MakeTinyTable(), {"nope"}).ok());
}

class CostEstimatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpcConfig config;
    config.num_rows = 20000;
    config.num_customers = 1500;
    config.num_clerks = 40;
    warehouse_ = std::make_unique<Warehouse>(8);
    Table tpcr = GenerateTpcr(config);
    ASSERT_OK(warehouse_->LoadByRange("TPCR", tpcr, "NationKey", 0, 24,
                                      {"CustKey", "ClerkKey"}));
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> full,
                         warehouse_->central_catalog().GetTable("TPCR"));
    ASSERT_OK_AND_ASSIGN(
        RelationStats stats,
        ProfileRelation(*full, {"CustKey", "CustName", "ClerkKey",
                                "NationKey"}));
    estimator_ = std::make_unique<CostEstimator>(
        8, warehouse_->network_config(), warehouse_->SiteInfos());
    estimator_->AddRelation("TPCR", std::move(stats));
  }

  /// Asserts predicted bytes are within a factor of measured bytes.
  void ExpectWithinFactor(double predicted, double measured, double factor) {
    ASSERT_GT(measured, 0);
    ASSERT_GT(predicted, 0);
    const double ratio = predicted / measured;
    EXPECT_GT(ratio, 1.0 / factor) << predicted << " vs " << measured;
    EXPECT_LT(ratio, factor) << predicted << " vs " << measured;
  }

  std::unique_ptr<Warehouse> warehouse_;
  std::unique_ptr<CostEstimator> estimator_;
};

TEST_F(CostEstimatorTest, GroupCountEstimate) {
  ASSERT_OK_AND_ASSIGN(
      DistributedPlan plan,
      warehouse_->Plan(queries::GroupReductionQuery("CustKey"),
                       OptimizerOptions::None()));
  ASSERT_OK_AND_ASSIGN(double groups, estimator_->EstimateGroups(plan));
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       warehouse_->ExecutePlan(plan));
  EXPECT_DOUBLE_EQ(groups,
                   static_cast<double>(result.table.num_rows()));
}

TEST_F(CostEstimatorTest, MissingStatsRejected) {
  DistributedPlan plan;
  plan.base.source_table = "unknown";
  plan.key_attrs = {"x"};
  EXPECT_FALSE(estimator_->EstimateFlat(plan).ok());
}

TEST_F(CostEstimatorTest, FlatEstimateTracksMeasuredBytes) {
  for (const auto& [name, query, options] :
       std::vector<std::tuple<std::string, GmdjExpr, OptimizerOptions>>{
           {"naive group", queries::GroupReductionQuery("CustKey"),
            OptimizerOptions::None()},
           {"optimized group", queries::GroupReductionQuery("CustKey"),
            OptimizerOptions::All()},
           {"naive coalescing", queries::CoalescingQuery("ClerkKey"),
            OptimizerOptions::None()},
           {"naive combined", queries::CombinedQuery("CustKey"),
            OptimizerOptions::None()}}) {
    SCOPED_TRACE(name);
    ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                         warehouse_->Plan(query, options));
    ASSERT_OK_AND_ASSIGN(CostBreakdown estimate,
                         estimator_->EstimateFlat(plan));
    ASSERT_OK_AND_ASSIGN(QueryResult result, warehouse_->ExecutePlan(plan));
    EXPECT_EQ(estimate.rounds, result.metrics.NumRounds());
    ExpectWithinFactor(estimate.TotalBytes(),
                       static_cast<double>(result.metrics.TotalBytes()),
                       2.0);
  }
}

TEST_F(CostEstimatorTest, TreeEstimateTracksMeasuredBytes) {
  ASSERT_OK_AND_ASSIGN(
      DistributedPlan plan,
      warehouse_->Plan(queries::GroupReductionQuery("CustKey"),
                       OptimizerOptions::None()));
  for (int fan_in : {2, 4}) {
    SCOPED_TRACE(fan_in);
    ASSERT_OK_AND_ASSIGN(CostBreakdown estimate,
                         estimator_->EstimateTree(plan, fan_in));
    ASSERT_OK_AND_ASSIGN(QueryResult result,
                         warehouse_->ExecutePlanTree(plan, fan_in));
    ExpectWithinFactor(estimate.TotalBytes(),
                       static_cast<double>(result.metrics.TotalBytes()),
                       2.0);
  }
}

TEST_F(CostEstimatorTest, EstimatedCommRankingMatchesMeasured) {
  // On a bandwidth-bound network the estimator must rank flat vs tree the
  // same way the simulated execution does.
  NetworkConfig slow;
  slow.bandwidth_bytes_per_sec = 256.0 * 1024;
  slow.latency_sec = 0.0005;
  warehouse_->set_network_config(slow);
  CostEstimator estimator(8, slow, warehouse_->SiteInfos());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> full,
                       warehouse_->central_catalog().GetTable("TPCR"));
  ASSERT_OK_AND_ASSIGN(RelationStats stats,
                       ProfileRelation(*full, {"CustKey", "NationKey"}));
  estimator.AddRelation("TPCR", std::move(stats));

  ASSERT_OK_AND_ASSIGN(
      DistributedPlan plan,
      warehouse_->Plan(queries::GroupReductionQuery("CustKey"),
                       OptimizerOptions::None()));

  ASSERT_OK_AND_ASSIGN(QueryResult flat, warehouse_->ExecutePlan(plan));
  ASSERT_OK_AND_ASSIGN(QueryResult tree2,
                       warehouse_->ExecutePlanTree(plan, 2));
  ASSERT_OK_AND_ASSIGN(CostBreakdown flat_est, estimator.EstimateFlat(plan));
  ASSERT_OK_AND_ASSIGN(CostBreakdown tree_est,
                       estimator.EstimateTree(plan, 2));

  const bool measured_tree_wins =
      tree2.metrics.CommSeconds() < flat.metrics.CommSeconds();
  const bool estimated_tree_wins =
      tree_est.comm_seconds < flat_est.comm_seconds;
  EXPECT_EQ(measured_tree_wins, estimated_tree_wins);

  ASSERT_OK_AND_ASSIGN(int choice, estimator.ChooseArchitecture(plan, {2}));
  EXPECT_EQ(choice == 2, measured_tree_wins);
}

TEST_F(CostEstimatorTest, InvalidFanInRejected) {
  ASSERT_OK_AND_ASSIGN(
      DistributedPlan plan,
      warehouse_->Plan(queries::GroupReductionQuery("CustKey"),
                       OptimizerOptions::None()));
  EXPECT_FALSE(estimator_->EstimateTree(plan, 1).ok());
}

// ---------------------------------------------------------------------------
// The warehouse's own statistics: each key attribute profiled on first use,
// over the site fragments read in place.
// ---------------------------------------------------------------------------

TEST_F(CostEstimatorTest, PerAttributeStatisticsEqualTheUnions) {
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> all,
                       warehouse_->central_catalog().GetTable("TPCR"));
  ASSERT_OK_AND_ASSIGN(FragmentList fragments,
                       FragmentList::Of(warehouse_->fragments().at("TPCR")));
  for (const char* attr : {"CustKey", "ClerkKey", "NationKey", "CustName"}) {
    SCOPED_TRACE(attr);
    ASSERT_OK_AND_ASSIGN(RelationStats over_union,
                         ProfileRelation(*all, {attr}));
    ASSERT_OK_AND_ASSIGN(RelationStats in_place,
                         ProfileRelation(fragments, {attr}));
    EXPECT_EQ(in_place.rows, over_union.rows);
    EXPECT_EQ(in_place.distinct_counts, over_union.distinct_counts);
    EXPECT_EQ(in_place.avg_widths_skl2, over_union.avg_widths_skl2);
  }
}

// EstimateCost prices every plan exactly as an estimator over every column
// of the union does (how the warehouse profiled before it profiled per
// attribute).
TEST_F(CostEstimatorTest, EstimateCostEqualsWholeUnionStatistics) {
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> all,
                       warehouse_->central_catalog().GetTable("TPCR"));
  ASSERT_OK_AND_ASSIGN(RelationStats whole,
                       ProfileRelation(*all, all->schema().FieldNames()));
  CostEstimator reference(8, warehouse_->network_config(),
                          warehouse_->SiteInfos());
  reference.AddRelation("TPCR", std::move(whole));
  for (GmdjExpr (*make)(const std::string&) :
       {queries::GroupReductionQuery, queries::CoalescingQuery,
        queries::SyncReductionQuery, queries::CombinedQuery,
        queries::MultiFeatureQuery}) {
    for (const char* attr : {"CustKey", "ClerkKey", "NationKey", "CustName"}) {
      for (const OptimizerOptions& options :
           {OptimizerOptions::None(), OptimizerOptions::All()}) {
        ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                             warehouse_->Plan(make(attr), options));
        ASSERT_OK_AND_ASSIGN(CostBreakdown got,
                             warehouse_->EstimateCost(plan));
        ASSERT_OK_AND_ASSIGN(CostBreakdown want, reference.EstimateFlat(plan));
        SCOPED_TRACE(std::string(attr) + ": " + want.ToString());
        EXPECT_EQ(got.rounds, want.rounds);
        EXPECT_EQ(got.groups, want.groups);
        EXPECT_EQ(got.bytes_down, want.bytes_down);
        EXPECT_EQ(got.bytes_up, want.bytes_up);
        EXPECT_EQ(got.comm_seconds, want.comm_seconds);
        EXPECT_EQ(got.site_seconds, want.site_seconds);
      }
    }
  }
}

// An append drops the relation's statistics, so the next estimate counts
// a fresh key: one more distinct SuppKey, one more estimated group.
TEST_F(CostEstimatorTest, AppendWithAFreshKeyRaisesTheNextEstimate) {
  ASSERT_OK_AND_ASSIGN(
      DistributedPlan plan,
      warehouse_->Plan(queries::GroupReductionQuery("SuppKey"),
                       OptimizerOptions::All()));
  ASSERT_OK_AND_ASSIGN(CostBreakdown before, warehouse_->EstimateCost(plan));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> all,
                       warehouse_->central_catalog().GetTable("TPCR"));
  ASSERT_OK_AND_ASSIGN(RelationStats counted,
                       ProfileRelation(*all, {"SuppKey"}));
  ASSERT_LT(counted.distinct_counts["SuppKey"], all->num_rows());
  EXPECT_EQ(before.groups,
            static_cast<double>(counted.distinct_counts["SuppKey"]));

  // Row 0 with a SuppKey no row holds. No site declares a SuppKey domain,
  // so row 0's own site admits it.
  const size_t supp =
      static_cast<size_t>(all->schema().IndexOf("SuppKey").value());
  int64_t max_key = 0;
  for (const Row& row : all->rows()) {
    max_key = std::max(max_key, row[supp].AsInt64());
  }
  Row fresh = all->row(0);
  fresh[supp] = Value(max_key + 1);
  ASSERT_OK(warehouse_->AppendRow("TPCR", fresh));
  ASSERT_OK_AND_ASSIGN(CostBreakdown after, warehouse_->EstimateCost(plan));
  EXPECT_EQ(after.groups, before.groups + 1);
}

}  // namespace
}  // namespace skalla
