#include <gtest/gtest.h>

#include "cube/cube.h"
#include "engine/operators.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

CubeSpec TinySpec() {
  CubeSpec spec;
  spec.table = "T";
  spec.dims = {"g", "h"};
  spec.aggs = {AggSpec::Count("cnt"), AggSpec::Avg("v", "av")};
  return spec;
}

TEST(MaskHelpersTest, RollupAndCubeMasks) {
  EXPECT_EQ(RollupMasks(3),
            (std::vector<uint32_t>{0, 1, 3, 7}));
  EXPECT_EQ(CubeMasks(2), (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(RollupMasks(0), std::vector<uint32_t>{0});
}

TEST(GroupingSetsTest, CentralizedSelectsExactlyRequestedSets) {
  const Table source = MakeTinyTable();
  // Only {g} and {g,h}: 3 + 7 rows.
  ASSERT_OK_AND_ASSIGN(
      Table result, GroupingSetsCentralized(TinySpec(), source, {1, 3}));
  EXPECT_EQ(result.num_rows(), 10);
  // No grand-total row.
  for (const Row& row : result.rows()) {
    EXPECT_FALSE(row[0].is_null());
  }
}

TEST(GroupingSetsTest, RollupMasksGiveHierarchy) {
  const Table source = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(
      Table rollup,
      GroupingSetsCentralized(TinySpec(), source, RollupMasks(2)));
  // (), (g), (g,h): 1 + 3 + 7 rows.
  EXPECT_EQ(rollup.num_rows(), 11);
}

TEST(GroupingSetsTest, CubeViaMasksEqualsCubeCentralized) {
  const Table source = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(Table a, CubeCentralized(TinySpec(), source));
  ASSERT_OK_AND_ASSIGN(
      Table b, GroupingSetsCentralized(TinySpec(), source, CubeMasks(2)));
  ExpectSameRows(a, b);
}

TEST(GroupingSetsTest, InvalidMasks) {
  const Table source = MakeTinyTable();
  EXPECT_FALSE(GroupingSetsCentralized(TinySpec(), source, {}).ok());
  EXPECT_FALSE(GroupingSetsCentralized(TinySpec(), source, {4}).ok());
  EXPECT_FALSE(GroupingSetsCentralized(TinySpec(), source, {1, 1}).ok());
}

TEST(GroupingSetsTest, DistributedOverAMissingRelationIsNotFound) {
  Warehouse no_sites(0);
  Warehouse no_relations(2);
  for (Warehouse* wh : {&no_sites, &no_relations}) {
    auto result = GroupingSetsDistributed(*wh, TinySpec(), {1, 3},
                                          CubeStrategy::kPerGroupingSet,
                                          OptimizerOptions::All());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound)
        << wh->num_sites() << " sites";
  }
}

class GroupingSetsDistributedTest
    : public ::testing::TestWithParam<CubeStrategy> {
 protected:
  void SetUp() override {
    TpcConfig config;
    config.num_rows = 2000;
    config.num_customers = 100;
    config.num_clerks = 6;
    warehouse_ = std::make_unique<Warehouse>(3);
    Table tpcr = GenerateTpcr(config);
    ASSERT_OK(warehouse_->LoadByRange("TPCR", tpcr, "NationKey", 0, 24,
                                      {"CustKey", "ClerkKey"}));
    spec_.table = "TPCR";
    spec_.dims = {"RegionKey", "MktSegment", "ClerkKey"};
    spec_.aggs = {AggSpec::Count("cnt"), AggSpec::Avg("Quantity", "aq"),
                  AggSpec::Min("ShipDate", "first")};
  }
  std::unique_ptr<Warehouse> warehouse_;
  CubeSpec spec_;
};

TEST_P(GroupingSetsDistributedTest, RollupHierarchyMatchesCentralized) {
  const std::vector<uint32_t> masks = RollupMasks(3);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> full,
                       warehouse_->central_catalog().GetTable("TPCR"));
  ASSERT_OK_AND_ASSIGN(Table expected,
                       GroupingSetsCentralized(spec_, *full, masks));
  ASSERT_OK_AND_ASSIGN(
      CubeExecution execution,
      GroupingSetsDistributed(*warehouse_, spec_, masks, GetParam(),
                              OptimizerOptions::All()));
  ExpectSameRows(execution.table, expected);
}

TEST_P(GroupingSetsDistributedTest, SparseSetsMatchCentralized) {
  // Just {RegionKey} and {MktSegment, ClerkKey} — no hierarchy relation.
  const std::vector<uint32_t> masks = {1, 6};
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> full,
                       warehouse_->central_catalog().GetTable("TPCR"));
  ASSERT_OK_AND_ASSIGN(Table expected,
                       GroupingSetsCentralized(spec_, *full, masks));
  ASSERT_OK_AND_ASSIGN(
      CubeExecution execution,
      GroupingSetsDistributed(*warehouse_, spec_, masks, GetParam(),
                              OptimizerOptions::All()));
  ExpectSameRows(execution.table, expected);
}

TEST_P(GroupingSetsDistributedTest, GrandTotalOnly) {
  const std::vector<uint32_t> masks = {0};
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> full,
                       warehouse_->central_catalog().GetTable("TPCR"));
  ASSERT_OK_AND_ASSIGN(Table expected,
                       GroupingSetsCentralized(spec_, *full, masks));
  ASSERT_OK_AND_ASSIGN(
      CubeExecution execution,
      GroupingSetsDistributed(*warehouse_, spec_, masks, GetParam(),
                              OptimizerOptions::All()));
  ExpectSameRows(execution.table, expected);
  EXPECT_EQ(execution.table.num_rows(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    BothStrategies, GroupingSetsDistributedTest,
    ::testing::Values(CubeStrategy::kPerGroupingSet,
                      CubeStrategy::kRollupFromFinest),
    [](const ::testing::TestParamInfo<CubeStrategy>& info) {
      return info.param == CubeStrategy::kPerGroupingSet ? "PerGroupingSet"
                                                         : "RollupFromFinest";
    });

}  // namespace
}  // namespace skalla
