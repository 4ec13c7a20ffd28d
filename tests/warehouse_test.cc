#include "skalla/warehouse.h"

#include <gtest/gtest.h>

#include "engine/operators.h"
#include "skalla/queries.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

Table SmallTpcr(int64_t rows = 1500, uint64_t seed = 23) {
  TpcConfig config;
  config.num_rows = rows;
  config.num_customers = 150;
  config.seed = seed;
  return GenerateTpcr(config);
}

TEST(WarehouseTest, LoadByRangeRegistersFragmentsAndUnion) {
  Warehouse wh(4);
  const Table tpcr = SmallTpcr();
  ASSERT_OK(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 24));

  int64_t total = 0;
  for (int i = 0; i < wh.num_sites(); ++i) {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> fragment,
                         wh.site(i).catalog().GetTable("TPCR"));
    total += fragment->num_rows();
    EXPECT_TRUE(wh.site(i).partition_info().HasDomain("NationKey"));
  }
  EXPECT_EQ(total, tpcr.num_rows());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> full,
                       wh.central_catalog().GetTable("TPCR"));
  EXPECT_EQ(full->num_rows(), tpcr.num_rows());
}

TEST(WarehouseTest, DuplicateLoadRejected) {
  Warehouse wh(2);
  const Table tpcr = SmallTpcr();
  ASSERT_OK(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 24));
  EXPECT_FALSE(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 24).ok());
}

TEST(WarehouseTest, QueryAgainstMissingTableFails) {
  Warehouse wh(2);
  auto result =
      wh.Execute(queries::GroupReductionQuery("CustKey"),
                 OptimizerOptions::None());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(WarehouseTest, MultipleRelations) {
  Warehouse wh(3);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24));
  ASSERT_OK(wh.LoadByHash("TPCR2", SmallTpcr(900, 99), "OrderKey"));
  EXPECT_TRUE(wh.central_catalog().HasTable("TPCR"));
  EXPECT_TRUE(wh.central_catalog().HasTable("TPCR2"));
}

TEST(WarehouseTest, NetworkConfigAffectsModelledTime) {
  const GmdjExpr query = queries::CoalescingQuery("CustKey");

  Warehouse fast(4);
  ASSERT_OK(fast.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24));
  NetworkConfig fast_net;
  fast_net.bandwidth_bytes_per_sec = 1e9;
  fast_net.latency_sec = 0.0;
  fast.set_network_config(fast_net);
  ASSERT_OK_AND_ASSIGN(QueryResult fast_result,
                       fast.Execute(query, OptimizerOptions::None()));

  Warehouse slow(4);
  ASSERT_OK(slow.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24));
  NetworkConfig slow_net;
  slow_net.bandwidth_bytes_per_sec = 1e4;
  slow_net.latency_sec = 0.1;
  slow.set_network_config(slow_net);
  ASSERT_OK_AND_ASSIGN(QueryResult slow_result,
                       slow.Execute(query, OptimizerOptions::None()));

  // Identical bytes, very different modelled time.
  EXPECT_EQ(fast_result.metrics.TotalBytes(), slow_result.metrics.TotalBytes());
  EXPECT_LT(fast_result.metrics.CommSeconds(),
            slow_result.metrics.CommSeconds());
  ExpectSameRows(fast_result.table, slow_result.table);
}

TEST(WarehouseTest, MetricsCountRoundsCorrectly) {
  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                           {"CustKey"}));
  const GmdjExpr query = queries::CombinedQuery("CustKey");

  ASSERT_OK_AND_ASSIGN(QueryResult naive,
                       wh.Execute(query, OptimizerOptions::None()));
  EXPECT_EQ(naive.metrics.NumRounds(), 4);  // base + 3 operators

  ASSERT_OK_AND_ASSIGN(QueryResult optimized,
                       wh.Execute(query, OptimizerOptions::All()));
  EXPECT_EQ(optimized.metrics.NumRounds(), 1);  // fully fused
  ExpectSameRows(naive.table, optimized.table);
}

TEST(WarehouseTest, EmptySiteParticipatesHarmlessly) {
  // Partitioning by a narrow range leaves most sites empty; results must
  // still match the centralized evaluation.
  Warehouse wh(6);
  TpcConfig config;
  config.num_rows = 800;
  config.num_customers = 60;
  config.num_nations = 3;  // only 3 of 6 sites get data
  Table tpcr = GenerateTpcr(config);
  ASSERT_OK(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 5, {"CustKey"}));

  const GmdjExpr query = queries::SyncReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(Table expected, wh.ExecuteCentralized(query));
  for (const auto& options :
       {OptimizerOptions::None(), OptimizerOptions::All()}) {
    ASSERT_OK_AND_ASSIGN(QueryResult result, wh.Execute(query, options));
    ExpectSameRows(result.table, expected);
  }
}

TEST(WarehouseTest, ZeroRowRelation) {
  Warehouse wh(2);
  TpcConfig config;
  config.num_rows = 0;
  Table tpcr = GenerateTpcr(config);
  ASSERT_OK(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 24));
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      wh.Execute(queries::GroupReductionQuery("CustKey"),
                 OptimizerOptions::All()));
  EXPECT_EQ(result.table.num_rows(), 0);
}

TEST(WarehouseTest, ResultSchemaMatchesExpressionSchema) {
  Warehouse wh(3);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24));
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       wh.Execute(query, OptimizerOptions::None()));
  EXPECT_EQ(result.table.schema().ToString(),
            "CustKey:int64, cnt1:int64, avg1:double, cnt2:int64, "
            "avg2:double");
}

TEST(WarehouseTest, CentralCatalogOfAWarehouseWithNoRelationsIsEmpty) {
  Warehouse wh(3);
  EXPECT_TRUE(wh.central_catalog().TableNames().empty());
}

TEST(WarehouseTest, AWarehouseWithoutSitesHoldsNoRelation) {
  Warehouse wh(0);
  EXPECT_TRUE(wh.central_catalog().TableNames().empty());
  EXPECT_EQ(wh.AppendRow("TPCR", Row{}).code(), StatusCode::kNotFound);
}

/// Every site's fragment of `name`, held so that a replaced fragment stays
/// alive and its address cannot be reused by a new table.
std::vector<std::shared_ptr<const Table>> Fragments(
    const Warehouse& wh, const std::string& name = "TPCR") {
  std::vector<std::shared_ptr<const Table>> fragments;
  for (int i = 0; i < wh.num_sites(); ++i) {
    fragments.push_back(wh.site(i).catalog().GetTable(name).ValueOrDie());
  }
  return fragments;
}

/// The site AppendRow routes to below: site 2 holds NationKeys 14..20.
constexpr int kTarget = 2;

class AppendRowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(wh_.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                              {"CustKey"}));
    before_ = Fragments(wh_);
    ASSERT_GT(before_[kTarget]->num_rows(), 0);
    row_ = before_[kTarget]->row(0);
  }

  /// row_ with one cell replaced.
  Row With(const std::string& column, Value value) const {
    Row row = row_;
    row[static_cast<size_t>(
        before_[0]->schema().MustIndexOf(column).ValueOrDie())] =
        std::move(value);
    return row;
  }

  Warehouse wh_{4};
  std::vector<std::shared_ptr<const Table>> before_;
  Row row_;
};

TEST_F(AppendRowTest, ValidRowGrowsExactlyOneFragment) {
  ASSERT_OK(wh_.AppendRow("TPCR", row_));
  const std::vector<std::shared_ptr<const Table>> after = Fragments(wh_);
  for (int i = 0; i < wh_.num_sites(); ++i) {
    if (i == kTarget) continue;
    EXPECT_EQ(after[i], before_[i]) << "site " << i;
  }
  const Table& grown = *after[kTarget];
  ASSERT_EQ(grown.num_rows(), before_[kTarget]->num_rows() + 1);
  EXPECT_EQ(grown.row(grown.num_rows() - 1), row_);
  for (int64_t r = 0; r < before_[kTarget]->num_rows(); ++r) {
    ASSERT_EQ(grown.row(r), before_[kTarget]->row(r)) << "row " << r;
  }
}

TEST_F(AppendRowTest, ReplicaHoldsThePrimarysGrownTable) {
  ASSERT_OK_AND_ASSIGN(Site * replica, wh_.AddReplica(kTarget));
  ASSERT_OK(wh_.AppendRow("TPCR", row_));
  ASSERT_OK(wh_.AppendRow("TPCR", With("Quantity", Value(int64_t{7}))));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> mirrored,
                       replica->catalog().GetTable("TPCR"));
  const std::shared_ptr<const Table> primary = Fragments(wh_)[kTarget];
  EXPECT_EQ(mirrored.get(), primary.get());
  EXPECT_EQ(primary->num_rows(), before_[kTarget]->num_rows() + 2);
}

TEST_F(AppendRowTest, ReadersKeepTheirSnapshot) {
  const int64_t rows = before_[kTarget]->num_rows();
  const std::string bytes = TableBytes(*before_[kTarget]);
  ASSERT_OK(wh_.AppendRow("TPCR", row_));
  EXPECT_EQ(before_[kTarget]->num_rows(), rows);
  EXPECT_EQ(TableBytes(*before_[kTarget]), bytes);
}

TEST_F(AppendRowTest, CentralizedMatchesDistributedAfterAppends) {
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> full_before,
                       wh_.central_catalog().GetTable("TPCR"));
  ASSERT_OK(wh_.AppendRow("TPCR", row_));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> full,
                       wh_.central_catalog().GetTable("TPCR"));
  ASSERT_EQ(full->num_rows(), full_before->num_rows() + 1);
  // Fragments unioned in site order: the appended row ends site 2's block.
  int64_t end_of_target = 0;
  for (int i = 0; i <= kTarget; ++i) {
    end_of_target += Fragments(wh_)[i]->num_rows();
  }
  EXPECT_EQ(full->row(end_of_target - 1), row_);

  ASSERT_OK(wh_.AppendRow("TPCR", With("Quantity", Value(int64_t{49}))));
  for (const GmdjExpr& query : {queries::GroupReductionQuery("CustKey"),
                                queries::CombinedQuery("CustKey")}) {
    ASSERT_OK_AND_ASSIGN(Table expected, wh_.ExecuteCentralized(query));
    ASSERT_OK_AND_ASSIGN(QueryResult result,
                         wh_.Execute(query, OptimizerOptions::All()));
    ExpectSameRows(result.table, expected);
  }
}

TEST_F(AppendRowTest, FailuresLeaveEveryFragmentUntouched) {
  const Row short_row(row_.begin(), row_.end() - 1);
  struct Case {
    const char* what;
    std::string table;
    Row row;
    StatusCode code;
  };
  const Case cases[] = {
      {"wrong arity", "TPCR", short_row, StatusCode::kInvalidArgument},
      {"wrong cell type", "TPCR", With("Quantity", Value("seven")),
       StatusCode::kTypeError},
      {"unknown relation", "NoSuchRelation", row_, StatusCode::kNotFound},
      {"no site admits it", "TPCR", With("NationKey", Value(int64_t{1000})),
       StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    const Status status = wh_.AppendRow(c.table, c.row);
    EXPECT_EQ(status.code(), c.code) << c.what << ": " << status.ToString();
    EXPECT_EQ(Fragments(wh_), before_) << c.what;
  }
}

TEST(CoordinatorTest, NoSitesRejected) {
  Coordinator coordinator({});
  DistributedPlan plan;
  auto result = coordinator.Execute(plan, nullptr);
  ASSERT_FALSE(result.ok());
}

TEST(CoordinatorTest, FindSchemaSearchesSites) {
  Site s0(0);
  Site s1(1);
  s1.catalog().PutTable("only_here",
                        std::make_shared<const Table>(MakeTinyTable()));
  Coordinator coordinator({&s0, &s1});
  ASSERT_OK_AND_ASSIGN(SchemaPtr schema, coordinator.FindSchema("only_here"));
  EXPECT_TRUE(schema->Contains("g"));
  EXPECT_FALSE(coordinator.FindSchema("nowhere").ok());
}

TEST(SiteTest, EvalBaseMeasuresCpu) {
  Site site(0);
  site.catalog().PutTable("T", std::make_shared<const Table>(MakeTinyTable()));
  BaseQuery base;
  base.source_table = "T";
  base.project_cols = {"g"};
  double cpu = -1;
  ASSERT_OK_AND_ASSIGN(Table b, site.EvalBase(base, &cpu));
  EXPECT_EQ(b.num_rows(), 3);
  EXPECT_GE(cpu, 0.0);
}

}  // namespace
}  // namespace skalla
