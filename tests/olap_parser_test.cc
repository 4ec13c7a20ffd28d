#include "sql/olap_parser.h"

#include <gtest/gtest.h>

#include <limits>

#include "engine/operators.h"
#include "expr/parser.h"
#include "gmdj/central_eval.h"
#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "storage/catalog.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

TEST(OlapParserTest, SimpleGroupByQuery) {
  ASSERT_OK_AND_ASSIGN(
      GmdjExpr expr,
      ParseOlapQuery("SELECT g, COUNT(*) AS cnt, SUM(v) AS sv FROM T "
                     "GROUP BY g"));
  EXPECT_EQ(expr.base.source_table, "T");
  EXPECT_EQ(expr.base.project_cols, std::vector<std::string>{"g"});
  ASSERT_EQ(expr.ops.size(), 1u);
  ASSERT_EQ(expr.ops[0].blocks.size(), 1u);
  const GmdjBlock& block = expr.ops[0].blocks[0];
  ASSERT_EQ(block.aggs.size(), 2u);
  EXPECT_EQ(block.aggs[0].output, "cnt");
  EXPECT_EQ(block.aggs[1].output, "sv");
  EXPECT_EQ(block.theta->ToString(), "(B.g = R.g)");
}

TEST(OlapParserTest, PaperExample1Translation) {
  ASSERT_OK_AND_ASSIGN(
      GmdjExpr expr,
      ParseOlapQuery(
          "SELECT SourceAS, DestAS, COUNT(*) AS cnt1, "
          "SUM(NumBytes) AS sum1 "
          "FROM Flow GROUP BY SourceAS, DestAS "
          "EXTEND COUNT(*) AS cnt2 WHERE NumBytes >= sum1 / cnt1"));
  ASSERT_EQ(expr.ops.size(), 2u);
  // The EXTEND condition must bind sum1/cnt1 to the base side and
  // NumBytes to the detail side.
  EXPECT_EQ(expr.ops[1].blocks[0].theta->ToString(),
            "(((B.SourceAS = R.SourceAS) && (B.DestAS = R.DestAS)) && "
            "(R.NumBytes >= (B.sum1 / B.cnt1)))");

  // Structurally equal to the hand-built canonical query.
  const GmdjExpr canonical = queries::FlowExample1();
  ASSERT_EQ(expr.ops.size(), canonical.ops.size());
  for (size_t i = 0; i < expr.ops.size(); ++i) {
    EXPECT_TRUE(expr.ops[i].blocks[0].theta->Equals(
        *canonical.ops[i].blocks[0].theta))
        << i;
  }
}

TEST(OlapParserTest, QueryLevelWhereBecomesBaseFilter) {
  ASSERT_OK_AND_ASSIGN(
      GmdjExpr expr,
      ParseOlapQuery("SELECT g, COUNT(*) AS c FROM T WHERE v >= 7 "
                     "GROUP BY g"));
  ASSERT_NE(expr.base.filter, nullptr);
  EXPECT_EQ(expr.base.filter->ToString(), "(R.v >= 7)");
}

TEST(OlapParserTest, MultipleExtends) {
  ASSERT_OK_AND_ASSIGN(
      GmdjExpr expr,
      ParseOlapQuery("SELECT g, AVG(v) AS a1 FROM T GROUP BY g "
                     "EXTEND COUNT(*) AS c2 WHERE v > a1 "
                     "EXTEND COUNT(*) AS c3 WHERE v > a1 && v > c2"));
  ASSERT_EQ(expr.ops.size(), 3u);
  EXPECT_NE(expr.ops[2].blocks[0].theta->ToString().find("B.c2"),
            std::string::npos);
}

TEST(OlapParserTest, ExtendWithoutWhereIsKeyEqualityOnly) {
  ASSERT_OK_AND_ASSIGN(
      GmdjExpr expr,
      ParseOlapQuery("SELECT g, COUNT(*) AS c FROM T GROUP BY g "
                     "EXTEND MIN(v) AS lo, MAX(v) AS hi"));
  ASSERT_EQ(expr.ops.size(), 2u);
  EXPECT_EQ(expr.ops[1].blocks[0].theta->ToString(), "(B.g = R.g)");
  EXPECT_EQ(expr.ops[1].blocks[0].aggs.size(), 2u);
}

TEST(OlapParserTest, CaseInsensitiveKeywords) {
  ASSERT_OK_AND_ASSIGN(
      GmdjExpr expr,
      ParseOlapQuery("select g, count(*) as c from T group by g"));
  EXPECT_EQ(expr.ops.size(), 1u);
  // Identifier case is preserved.
  EXPECT_EQ(expr.base.source_table, "T");
  EXPECT_EQ(expr.ops[0].blocks[0].aggs[0].output, "c");
}

TEST(OlapParserTest, Errors) {
  // Missing GROUP BY.
  EXPECT_FALSE(ParseOlapQuery("SELECT COUNT(*) AS c FROM T").ok());
  // Selected column not grouped.
  EXPECT_FALSE(
      ParseOlapQuery("SELECT h, COUNT(*) AS c FROM T GROUP BY g").ok());
  // No aggregates at all.
  EXPECT_FALSE(ParseOlapQuery("SELECT g FROM T GROUP BY g").ok());
  // Aggregate without alias.
  EXPECT_FALSE(
      ParseOlapQuery("SELECT g, COUNT(*) FROM T GROUP BY g").ok());
  // Unknown aggregate function.
  EXPECT_FALSE(
      ParseOlapQuery("SELECT g, MEDIAN(v) AS m FROM T GROUP BY g").ok());
  // Bare column in EXTEND.
  EXPECT_FALSE(
      ParseOlapQuery("SELECT g, COUNT(*) AS c FROM T GROUP BY g EXTEND h")
          .ok());
  // Trailing garbage.
  EXPECT_FALSE(
      ParseOlapQuery("SELECT g, COUNT(*) AS c FROM T GROUP BY g garbage ;")
          .ok());
  // Empty WHERE expression.
  EXPECT_FALSE(
      ParseOlapQuery("SELECT g, COUNT(*) AS c FROM T WHERE GROUP BY g")
          .ok());
}

TEST(OlapParserTest, NumbersOutsideInt64AreRejected) {
  for (const char* text :
       {"SELECT g, COUNT(*) AS c FROM T GROUP BY g LIMIT 99999999999999999999",
        "SELECT g, COUNT(*) AS c FROM T WHERE v = 99999999999999999999 "
        "GROUP BY g"}) {
    auto result = ParseOlapQuery(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << text;
  }
  ASSERT_OK_AND_ASSIGN(
      GmdjExpr expr,
      ParseOlapQuery("SELECT g, COUNT(*) AS c FROM T GROUP BY g "
                     "LIMIT 9223372036854775807"));
  EXPECT_EQ(expr.limit, std::numeric_limits<int64_t>::max());
}

TEST(OlapParserTest, ParsedQueryEvaluatesLikeHandBuilt) {
  const FragmentCatalog catalog = {
      {"T", {std::make_shared<const Table>(MakeTinyTable())}}};
  ASSERT_OK_AND_ASSIGN(
      GmdjExpr parsed,
      ParseOlapQuery("SELECT g, COUNT(*) AS cnt1, SUM(v) AS sum1 FROM T "
                     "GROUP BY g EXTEND COUNT(*) AS cnt2 "
                     "WHERE v >= sum1 / cnt1"));
  ASSERT_OK_AND_ASSIGN(Table result, EvalGmdjExprCentralized(parsed, catalog));
  ASSERT_OK_AND_ASSIGN(Table sorted, SortedBy(result, {"g"}));
  ASSERT_EQ(sorted.num_rows(), 3);
  EXPECT_EQ(sorted.Get(0, 3), Value(2));
  EXPECT_EQ(sorted.Get(1, 3), Value(2));
  EXPECT_EQ(sorted.Get(2, 3), Value(3));
}

TEST(OlapParserTest, EndToEndDistributedExecution) {
  Warehouse wh(4);
  TpcConfig config;
  config.num_rows = 3000;
  config.num_customers = 200;
  Table tpcr = GenerateTpcr(config);
  ASSERT_OK(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 24, {"CustKey"}));

  ASSERT_OK_AND_ASSIGN(
      GmdjExpr query,
      ParseOlapQuery(
          "SELECT CustKey, COUNT(*) AS orders, AVG(Quantity) AS avg_qty "
          "FROM TPCR GROUP BY CustKey "
          "EXTEND COUNT(*) AS big_orders WHERE Quantity > avg_qty"));
  ASSERT_OK_AND_ASSIGN(Table expected, wh.ExecuteCentralized(query));
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       wh.Execute(query, OptimizerOptions::All()));
  ExpectSameRows(result.table, expected);
}

TEST(RebindToBaseTest, OnlyNamedDetailColumnsRebound) {
  auto parsed = ParseExpr("R.a + R.b > B.c");
  ASSERT_TRUE(parsed.ok());
  const ExprPtr rebound = RebindToBase(*parsed, {"a", "c"});
  EXPECT_EQ(rebound->ToString(), "((B.a + R.b) > B.c)");
}

TEST(RebindToBaseTest, NoMatchesReturnsSameTree) {
  auto parsed = ParseExpr("R.x > 1");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(RebindToBase(*parsed, {"a"}), *parsed);
}

}  // namespace
}  // namespace skalla
