// A relation read in place as the ordered list of its fragments
// (storage/fragment_list.h): the reference evaluation over a fragment list
// equals the evaluation over the fragments' UnionAll byte for byte — base
// query, every scan path, morsels straddling fragment boundaries, 1 and 4
// lanes — and fragments of unequal arity fail with a typed status before
// any row is read.

#include "storage/fragment_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/operators.h"
#include "expr/parser.h"
#include "gmdj/central_eval.h"
#include "gmdj/local_eval.h"
#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

using Fragments = std::vector<std::shared_ptr<const Table>>;

ExprPtr MustParse(const std::string& text) {
  auto result = ParseExpr(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

/// R(k:int64, s:string, d:double, v:int64): NULL and repeated int64 keys,
/// NULL and repeated string keys, non-integral doubles.
Table MakeDetail(Rng& rng, int64_t rows) {
  Table t(MakeSchema({{"k", ValueType::kInt64},
                      {"s", ValueType::kString},
                      {"d", ValueType::kDouble},
                      {"v", ValueType::kInt64}}));
  const char* names[] = {"ash", "birch", "cedar", "a-much-longer-name-x"};
  for (int64_t r = 0; r < rows; ++r) {
    t.AddRow({rng.Chance(0.1) ? Value::Null() : Value(rng.Uniform(0, 11)),
              rng.Chance(0.1) ? Value::Null() : Value(names[rng.Uniform(0, 3)]),
              Value(rng.UniformDouble(-50.0, 50.0) + 0.1),
              Value(rng.Uniform(0, 20))});
  }
  return t;
}

/// `t` cut into 1–8 contiguous fragments, some empty; the cuts come from
/// `rng`. With `empty_ends`, the first and the last fragment are empty.
Fragments Fragment(const Table& t, Rng& rng, bool empty_ends) {
  const int64_t n = rng.Uniform(1, 8);
  std::vector<int64_t> cuts = {0};
  for (int64_t i = 1; i < n; ++i) cuts.push_back(rng.Uniform(0, t.num_rows()));
  cuts.push_back(t.num_rows());
  std::sort(cuts.begin(), cuts.end());
  if (empty_ends && n >= 3) {
    cuts[1] = 0;
    cuts[cuts.size() - 2] = t.num_rows();
  }
  Fragments parts;
  for (size_t f = 0; f + 1 < cuts.size(); ++f) {
    Table part(t.schema_ptr());
    for (int64_t r = cuts[f]; r < cuts[f + 1]; ++r) part.AddRow(t.row(r));
    parts.push_back(std::make_shared<const Table>(std::move(part)));
  }
  return parts;
}

Table Union(const Fragments& parts) {
  std::vector<const Table*> ptrs;
  for (const auto& part : parts) ptrs.push_back(part.get());
  Result<Table> all = UnionAll(ptrs);
  EXPECT_TRUE(all.ok()) << all.status().ToString();
  return *all;
}

/// The base relation B over R's keys (k, s), as the reference derives it.
Table KeysOf(const Table& detail) {
  BaseQuery keys;
  keys.project_cols = {"k", "s"};
  Result<Table> b = EvalBaseQuery(keys, detail);
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  return *b;
}

GmdjOp Op(const std::string& detail, const std::string& theta,
          std::vector<AggSpec> aggs) {
  GmdjOp op;
  op.detail_table = detail;
  GmdjBlock block;
  block.theta = MustParse(theta);
  block.aggs = std::move(aggs);
  op.blocks.push_back(std::move(block));
  return op;
}

TEST(FragmentListTest, ForEachRowWalksTheUnionInOrder) {
  Rng rng(5);
  const Table t = MakeDetail(rng, 40);
  for (int trial = 0; trial < 20; ++trial) {
    const Fragments parts = Fragment(t, rng, trial % 2 == 0);
    ASSERT_OK_AND_ASSIGN(FragmentList list, FragmentList::Of(parts));
    ASSERT_EQ(list.num_rows(), t.num_rows());
    ASSERT_EQ(list.num_fragments(), parts.size());
    for (int64_t lo = 0; lo <= t.num_rows(); lo += 7) {
      for (int64_t hi = lo; hi <= t.num_rows(); hi += 5) {
        std::vector<Row> seen;
        list.ForEachRow(lo, hi, [&seen](const Row& row) {
          seen.push_back(row);
        });
        ASSERT_EQ(static_cast<int64_t>(seen.size()), hi - lo);
        for (int64_t d = lo; d < hi; ++d) {
          EXPECT_EQ(seen[static_cast<size_t>(d - lo)], t.row(d))
              << "trial " << trial << ", row " << d;
        }
      }
    }
  }
}

TEST(FragmentListTest, UnequalArityAndNoFragmentFailTyped) {
  Rng rng(1);
  auto four = std::make_shared<const Table>(MakeDetail(rng, 3));
  auto three = std::make_shared<const Table>(
      Table(MakeSchema({{"k", ValueType::kInt64},
                        {"s", ValueType::kString},
                        {"d", ValueType::kDouble}})));
  EXPECT_EQ(FragmentList::Of({four, three}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FragmentList::Of({three, four}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(FragmentList::Of({}).status().code(),
            StatusCode::kInvalidArgument);

  // The reference fails the same way whether the base relation or a
  // detail relation has the mismatch, before it reads a row.
  GmdjExpr expr;
  expr.base.source_table = "R";
  expr.base.project_cols = {"k"};
  expr.ops.push_back(Op("U", "B.k = R.k", {AggSpec::Count("cnt")}));
  const FragmentCatalog bad_base = {{"R", {four, three}}, {"U", {four}}};
  const FragmentCatalog bad_detail = {{"R", {four}}, {"U", {four, three}}};
  EXPECT_EQ(EvalGmdjExprCentralized(expr, bad_base).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(EvalGmdjExprCentralized(expr, bad_detail).status().code(),
            StatusCode::kInvalidArgument);
  const FragmentCatalog missing = {{"R", {four}}};
  EXPECT_EQ(EvalGmdjExprCentralized(expr, missing).status().code(),
            StatusCode::kNotFound);
}

TEST(FragmentReferenceTest, BaseQueryEqualsTheUnions) {
  Rng rng(11);
  const Table t = MakeDetail(rng, 300);
  for (int trial = 0; trial < 24; ++trial) {
    const Fragments parts = Fragment(t, rng, trial % 3 == 0);
    const Table all = Union(parts);
    ASSERT_OK_AND_ASSIGN(FragmentList list, FragmentList::Of(parts));
    for (const bool distinct : {true, false}) {
      for (const char* filter : {"", "v >= 7", "d < 0.5 && v < 15"}) {
        SCOPED_TRACE(std::to_string(trial) + " distinct " +
                     std::to_string(distinct) + " filter '" + filter + "'");
        BaseQuery base;
        base.project_cols = {"s", "k"};
        base.distinct = distinct;
        if (*filter != '\0') base.filter = MustParse(filter);
        ASSERT_OK_AND_ASSIGN(Table over_list, EvalBaseQuery(base, list));
        ASSERT_OK_AND_ASSIGN(Table over_union, EvalBaseQuery(base, all));
        EXPECT_EQ(TableBytes(over_list), TableBytes(over_union));
      }
    }
  }
}

TEST(FragmentReferenceTest, ScalarScanEqualsTheUnionsAcrossMorsels) {
  Rng rng(23);
  const Table t = MakeDetail(rng, 300);
  const Table base = KeysOf(t);
  const std::vector<GmdjOp> ops = {
      // Hash path on the int64 key, and on a string key with a residual.
      Op("R", "B.k = R.k",
         {AggSpec::Count("cnt"), AggSpec::Sum("d", "sum_d"),
          AggSpec::Avg("d", "avg_d"), AggSpec::Var("d", "var_d"),
          AggSpec::Max("v", "max_v")}),
      Op("R", "B.s = R.s && R.d > 0.5",
         {AggSpec::CountCol("d", "cnt_d"), AggSpec::StdDev("d", "sd_d"),
          AggSpec::Min("d", "min_d")}),
      // Nested loop: no equi-conjunct.
      Op("R", "R.v < B.k", {AggSpec::Count("cnt"), AggSpec::Sum("d", "s")})};
  for (int trial = 0; trial < 12; ++trial) {
    const Fragments parts = Fragment(t, rng, trial % 3 == 0);
    const Table all = Union(parts);
    ASSERT_OK_AND_ASSIGN(FragmentList list, FragmentList::Of(parts));
    for (size_t o = 0; o < ops.size(); ++o) {
      for (const int lanes : {1, 4}) {
        for (const AggMode mode : {AggMode::kFinal, AggMode::kSub}) {
          SCOPED_TRACE("trial " + std::to_string(trial) + ", op " +
                       std::to_string(o) + ", lanes " +
                       std::to_string(lanes));
          LocalGmdjOptions options;
          options.mode = mode;
          options.vectorize = false;
          options.num_threads = lanes;
          options.morsel_rows = 7;  // morsels straddle fragment boundaries
          ScanCounters list_scan, union_scan;
          ASSERT_OK_AND_ASSIGN(
              Table over_list,
              EvalGmdjOp(base, list, ops[o], options, &list_scan));
          ASSERT_OK_AND_ASSIGN(
              Table over_union,
              EvalGmdjOp(base, all, ops[o], options, &union_scan));
          EXPECT_EQ(TableBytes(over_list), TableBytes(over_union));
          EXPECT_EQ(list_scan.rows_scanned, union_scan.rows_scanned);
          EXPECT_EQ(list_scan.rows_matched, union_scan.rows_matched);
          EXPECT_EQ(list_scan.morsels_scalar, union_scan.morsels_scalar);
        }
      }
    }
  }
}

TEST(FragmentReferenceTest, SeveralFragmentsScanScalarWhenAskedToVectorize) {
  Rng rng(29);
  const Table t = MakeDetail(rng, 120);
  const Table base = KeysOf(t);
  const GmdjOp op = Op("R", "B.k = R.k", {AggSpec::Sum("d", "sum_d")});
  Fragments parts = Fragment(t, rng, false);
  while (parts.size() < 2) parts = Fragment(t, rng, false);
  ASSERT_OK_AND_ASSIGN(FragmentList list, FragmentList::Of(parts));
  LocalGmdjOptions options;
  options.num_threads = 1;
  ScanCounters scan;
  ASSERT_OK_AND_ASSIGN(Table over_list,
                       EvalGmdjOp(base, list, op, options, &scan));
  EXPECT_EQ(scan.morsels_vectorized, 0);
  EXPECT_EQ(scan.morsels_scalar, 1);
  options.vectorize = false;
  ASSERT_OK_AND_ASSIGN(Table over_union, EvalGmdjOp(base, Union(parts), op,
                                                    options));
  EXPECT_EQ(TableBytes(over_list), TableBytes(over_union));
}

TEST(FragmentReferenceTest, TwoRelationExpressionEqualsTheUnions) {
  Rng rng(37);
  const Table r = MakeDetail(rng, 250);
  const Table u = MakeDetail(rng, 180);
  GmdjExpr expr;
  expr.base.source_table = "R";
  expr.base.project_cols = {"k", "s"};
  expr.base.filter = MustParse("v >= 4");
  expr.ops.push_back(Op("R", "B.k = R.k",
                        {AggSpec::Count("cnt"), AggSpec::Avg("d", "avg_d")}));
  expr.ops.push_back(Op("U", "B.s = R.s && R.d >= B.avg_d",
                        {AggSpec::Count("above"), AggSpec::Sum("d", "sum")}));
  for (int trial = 0; trial < 12; ++trial) {
    const Fragments r_parts = Fragment(r, rng, trial % 2 == 0);
    const Fragments u_parts = Fragment(u, rng, trial % 3 == 0);
    const FragmentCatalog fragmented = {{"R", r_parts}, {"U", u_parts}};
    const FragmentCatalog unioned = {
        {"R", {std::make_shared<const Table>(Union(r_parts))}},
        {"U", {std::make_shared<const Table>(Union(u_parts))}}};
    for (const int lanes : {1, 4}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + ", lanes " +
                   std::to_string(lanes));
      ASSERT_OK_AND_ASSIGN(Table over_lists,
                           EvalGmdjExprCentralized(expr, fragmented, lanes));
      ASSERT_OK_AND_ASSIGN(Table over_unions,
                           EvalGmdjExprCentralized(expr, unioned, lanes));
      EXPECT_EQ(TableBytes(over_lists), TableBytes(over_unions));
    }
  }
}

// The warehouse's reference reads the sites' own fragments and answers as
// the evaluation over central_catalog()'s unions does.
TEST(FragmentReferenceTest, WarehouseReferenceReadsTheSitesFragments) {
  TpcConfig config;
  config.num_rows = 3000;
  config.num_customers = 200;
  config.num_clerks = 30;
  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRange("TPCR", GenerateTpcr(config), "NationKey", 0, 24,
                           {"CustKey"}));
  const FragmentCatalog relations = wh.fragments();
  ASSERT_EQ(relations.size(), 1u);
  const Fragments& parts = relations.at("TPCR");
  ASSERT_EQ(parts.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> own,
                         wh.site(i).catalog().GetTable("TPCR"));
    EXPECT_EQ(parts[static_cast<size_t>(i)].get(), own.get());  // no copy
  }
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> all,
                       wh.central_catalog().GetTable("TPCR"));
  const FragmentCatalog unioned = {{"TPCR", {all}}};
  for (GmdjExpr (*make)(const std::string&) :
       {queries::GroupReductionQuery, queries::CoalescingQuery,
        queries::SyncReductionQuery, queries::CombinedQuery,
        queries::MultiFeatureQuery}) {
    const GmdjExpr query = make("ClerkKey");
    ASSERT_OK_AND_ASSIGN(Table reference, wh.ExecuteCentralized(query));
    ASSERT_OK_AND_ASSIGN(Table over_union,
                         EvalGmdjExprCentralized(query, unioned,
                                                 wh.local_threads()));
    EXPECT_EQ(TableBytes(reference), TableBytes(over_union));
  }
}

}  // namespace
}  // namespace skalla
