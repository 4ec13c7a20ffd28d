#include <gtest/gtest.h>

#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

TEST(ParallelSitesTest, IdenticalResultsAndTraffic) {
  TpcConfig config;
  config.num_rows = 8000;
  config.num_customers = 700;
  Table tpcr = GenerateTpcr(config);

  // One lane runs the sites one after another in slot order; the default
  // quota evaluates them on the shared pool.
  Warehouse sequential(8);
  ASSERT_OK(sequential.LoadByRange("TPCR", tpcr, "NationKey", 0, 24,
                                   {"CustKey"}));
  sequential.set_local_threads(1);
  Warehouse parallel(8);
  ASSERT_OK(parallel.LoadByRange("TPCR", tpcr, "NationKey", 0, 24,
                                 {"CustKey"}));

  for (const auto& [name, query] :
       std::vector<std::pair<std::string, GmdjExpr>>{
           {"group", queries::GroupReductionQuery("CustKey")},
           {"combined", queries::CombinedQuery("CustKey")}}) {
    SCOPED_TRACE(name);
    for (const auto& options :
         {OptimizerOptions::None(), OptimizerOptions::All()}) {
      ASSERT_OK_AND_ASSIGN(QueryResult a, sequential.Execute(query, options));
      ASSERT_OK_AND_ASSIGN(QueryResult b, parallel.Execute(query, options));
      ExpectSameRows(b.table, a.table);
      EXPECT_EQ(a.metrics.TotalBytes(), b.metrics.TotalBytes());
      EXPECT_EQ(a.metrics.GroupsToCoord(), b.metrics.GroupsToCoord());
    }
  }
}

TEST(ParallelSitesTest, ErrorsPropagateFromWorkerThreads) {
  Warehouse wh(3);
  TpcConfig config;
  config.num_rows = 400;
  Table tpcr = GenerateTpcr(config);
  ASSERT_OK(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 24));
  // Drop the relation from one site after loading: that site's round must
  // fail and the failure must surface through the parallel path.
  wh.site(1).catalog().DropTable("TPCR");
  auto result = wh.Execute(queries::GroupReductionQuery("CustKey"),
                           OptimizerOptions::None());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ParallelSitesTest, SingleSiteUsesSequentialPath) {
  Warehouse wh(1);
  TpcConfig config;
  config.num_rows = 300;
  Table tpcr = GenerateTpcr(config);
  ASSERT_OK(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 24));
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       wh.Execute(queries::CoalescingQuery("ClerkKey"),
                                  OptimizerOptions::All()));
  ASSERT_OK_AND_ASSIGN(
      Table expected,
      wh.ExecuteCentralized(queries::CoalescingQuery("ClerkKey")));
  ExpectSameRows(result.table, expected);
}

}  // namespace
}  // namespace skalla
