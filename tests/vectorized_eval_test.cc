// Vectorized-execution unit suite (ctest label "vector"): the columnar
// snapshot, the batch predicate evaluator, the typed aggregate kernels,
// and the vectorized GMDJ scan must be byte-identical to the scalar
// row-at-a-time path on every edge the kernels special-case — NULL
// bitmaps, NaN / -0.0 / infinities, INT64 extremes, empty selections, and
// expression shapes that fall back to scalar evaluation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "expr/evaluator.h"
#include "expr/expr.h"
#include "gmdj/gmdj.h"
#include "gmdj/local_eval.h"
#include "skl1_oracle.h"
#include "storage/columnar.h"
#include "storage/table.h"
#include "test_util.h"

namespace skalla {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

/// Bit pattern of a Value, so NaN == NaN and -0.0 != 0.0 — "byte-identical"
/// in the sense the scalar/vectorized contract promises.
std::string Bits(const Value& v) {
  if (v.is_double()) {
    const double d = v.AsDouble();
    std::string out(sizeof(double), '\0');
    std::memcpy(out.data(), &d, sizeof(double));
    return "d:" + out;
  }
  return "v:" + v.ToString();
}

std::string TableBits(const Table& t) { return EncodeSkl1(t); }

// ---------------------------------------------------------------------------
// ColumnarTable
// ---------------------------------------------------------------------------

TEST(ColumnarTableTest, TypedArraysBitmapsAndDictionary) {
  Table t(MakeSchema({{"i", ValueType::kInt64},
                      {"d", ValueType::kDouble},
                      {"s", ValueType::kString}}));
  t.AddRow({Value(int64_t{7}), Value(1.5), Value("a")});
  t.AddRow({Value::Null(), Value::Null(), Value::Null()});
  t.AddRow({Value(kI64Min), Value(-0.0), Value("b")});
  t.AddRow({Value(kI64Max), Value(kNaN), Value("a")});

  auto view = ColumnarTable::Build(t);
  ASSERT_EQ(view->num_rows(), 4);
  ASSERT_EQ(view->num_columns(), 3);

  const auto& ci = view->column(0);
  EXPECT_TRUE(ci.usable);
  EXPECT_TRUE(ci.has_nulls);
  EXPECT_EQ(ci.ints[0], 7);
  EXPECT_EQ(ci.ints[2], kI64Min);
  EXPECT_EQ(ci.ints[3], kI64Max);
  EXPECT_TRUE(ci.IsValid(0));
  EXPECT_FALSE(ci.IsValid(1));
  EXPECT_TRUE(ci.IsValid(2));
  ASSERT_NE(ci.valid_words(), nullptr);

  const auto& cd = view->column(1);
  EXPECT_TRUE(cd.usable);
  EXPECT_TRUE(std::signbit(cd.doubles[2]));
  EXPECT_TRUE(std::isnan(cd.doubles[3]));

  const auto& cs = view->column(2);
  EXPECT_TRUE(cs.usable);
  EXPECT_EQ(cs.codes[0], cs.codes[3]);  // both "a"
  EXPECT_NE(cs.codes[0], cs.codes[2]);
  EXPECT_EQ(cs.codes[1], -1);  // NULL
  EXPECT_EQ(cs.CodeOf("a"), cs.codes[0]);
  EXPECT_EQ(cs.CodeOf("zzz"), -1);
}

TEST(ColumnarTableTest, NoNullsMeansNoBitmap) {
  Table t(MakeSchema({{"i", ValueType::kInt64}}));
  t.AddRow({Value(int64_t{1})});
  t.AddRow({Value(int64_t{2})});
  auto view = ColumnarTable::Build(t);
  EXPECT_FALSE(view->column(0).has_nulls);
  EXPECT_EQ(view->column(0).valid_words(), nullptr);
  EXPECT_TRUE(view->column(0).IsValid(0));
}

TEST(ColumnarTableTest, TypeDeviantColumnIsUnusable) {
  Table t(MakeSchema({{"i", ValueType::kInt64}}));
  t.AddRow({Value(int64_t{1})});
  t.AddRow({Value("oops")});  // string cell in a declared-int column
  auto view = ColumnarTable::Build(t);
  EXPECT_FALSE(view->column(0).usable);
  EXPECT_TRUE(view->column(0).ints.empty());
}

TEST(ColumnarTableTest, CachedOnTableAndInvalidatedByMutation) {
  Table t(MakeSchema({{"i", ValueType::kInt64}}));
  t.AddRow({Value(int64_t{1})});
  auto v1 = t.columnar();
  auto v2 = t.columnar();
  EXPECT_EQ(v1.get(), v2.get());  // built once, shared
  t.AddRow({Value(int64_t{2})});
  auto v3 = t.columnar();
  EXPECT_NE(v1.get(), v3.get());
  EXPECT_EQ(v3->num_rows(), 2);
  EXPECT_EQ(v1->num_rows(), 1);  // old snapshot unchanged
}

// ---------------------------------------------------------------------------
// EvalBoolBatch vs scalar EvalBool
// ---------------------------------------------------------------------------

/// Asserts the batch selection over all of `detail` equals the scalar
/// selection, then the same for a strided candidate subset.
void ExpectBatchMatchesScalar(const ExprPtr& expr, const Schema* base_schema,
                              const Row* base_row, const Table& detail) {
  ASSERT_OK_AND_ASSIGN(
      CompiledExpr compiled,
      CompiledExpr::Compile(expr, base_schema, &detail.schema()));
  auto view = detail.columnar();
  ASSERT_TRUE(compiled.SupportsBatchEval(*view));

  std::vector<int64_t> expected;
  for (int64_t d = 0; d < detail.num_rows(); ++d) {
    if (compiled.EvalBool(base_row, &detail.row(d))) expected.push_back(d);
  }

  BatchScratch scratch;
  std::vector<int64_t> sel;
  compiled.EvalBoolBatch(base_row, detail, *view, 0, detail.num_rows(),
                         &scratch, &sel);
  EXPECT_EQ(sel, expected);

  // Candidate-list overload over every other row.
  std::vector<int64_t> cand;
  for (int64_t d = 0; d < detail.num_rows(); d += 2) cand.push_back(d);
  std::vector<int64_t> expected_cand;
  for (int64_t d : cand) {
    if (compiled.EvalBool(base_row, &detail.row(d))) {
      expected_cand.push_back(d);
    }
  }
  sel.clear();
  compiled.EvalBoolBatch(base_row, detail, *view, cand.data(), cand.size(),
                         &scratch, &sel);
  EXPECT_EQ(sel, expected_cand);
}

Table EdgeDetailTable() {
  Table t(MakeSchema({{"i", ValueType::kInt64},
                      {"j", ValueType::kInt64},
                      {"d", ValueType::kDouble},
                      {"s", ValueType::kString}}));
  const int64_t ints[] = {0, 1, -1, 5, kI64Min, kI64Max, 42, 7};
  const double dbls[] = {0.0, -0.0, 1.5, kNaN, kInf, -kInf, -2.25, 3.0};
  const char* strs[] = {"", "alpha", "beta", "alpha", "", "gamma", "x", "y"};
  for (int r = 0; r < 8; ++r) {
    Row row;
    row.push_back(r == 3 ? Value::Null() : Value(ints[r]));
    row.push_back(Value(int64_t{r}));
    row.push_back(r == 5 ? Value::Null() : Value(dbls[r]));
    row.push_back(r == 6 ? Value::Null() : Value(strs[r]));
    t.AddRow(std::move(row));
  }
  return t;
}

TEST(EvalBoolBatchTest, IntComparisonsWithNulls) {
  const Table t = EdgeDetailTable();
  ExpectBatchMatchesScalar(Gt(RCol("i"), Lit(Value(int64_t{0}))), nullptr,
                           nullptr, t);
  ExpectBatchMatchesScalar(Le(RCol("i"), RCol("j")), nullptr, nullptr, t);
  ExpectBatchMatchesScalar(Eq(RCol("i"), Lit(Value(kI64Max))), nullptr,
                           nullptr, t);
  ExpectBatchMatchesScalar(Ne(RCol("i"), Lit(Value::Null())), nullptr,
                           nullptr, t);
}

TEST(EvalBoolBatchTest, DoubleEdgeComparisons) {
  const Table t = EdgeDetailTable();
  // NaN compares "equal" under Value::Compare's a<b?-1:(a>b?1:0), so Le/Ge
  // against NaN select it — whatever the scalar path does, batch must too.
  ExpectBatchMatchesScalar(Lt(RCol("d"), Lit(Value(1.0))), nullptr, nullptr,
                           t);
  ExpectBatchMatchesScalar(Ge(RCol("d"), Lit(Value(kNaN))), nullptr, nullptr,
                           t);
  ExpectBatchMatchesScalar(Eq(RCol("d"), Lit(Value(0.0))), nullptr, nullptr,
                           t);  // -0.0 == 0.0
  ExpectBatchMatchesScalar(Gt(RCol("d"), Lit(Value(int64_t{-3}))), nullptr,
                           nullptr, t);  // mixed double-vs-int compare
}

TEST(EvalBoolBatchTest, ArithmeticNullsDivModZero) {
  const Table t = EdgeDetailTable();
  ExpectBatchMatchesScalar(Gt(Add(RCol("j"), Lit(Value(int64_t{2}))),
                              Lit(Value(int64_t{6}))),
                           nullptr, nullptr, t);
  // j == 0 on the first row: x / 0 and x % 0 are NULL, never selected.
  ExpectBatchMatchesScalar(Ge(Div(RCol("i"), RCol("j")), Lit(Value(1.0))),
                           nullptr, nullptr, t);
  ExpectBatchMatchesScalar(Eq(Mod(RCol("j"), Lit(Value(int64_t{3}))),
                              Lit(Value(int64_t{1}))),
                           nullptr, nullptr, t);
  ExpectBatchMatchesScalar(Lt(Mul(RCol("d"), Lit(Value(2.0))),
                              Lit(Value(3.5))),
                           nullptr, nullptr, t);
  ExpectBatchMatchesScalar(Gt(Neg(RCol("i")), Lit(Value(int64_t{0}))),
                           nullptr, nullptr, t);
}

TEST(EvalBoolBatchTest, Int64ExtremesWrapTheSameOnBothPaths) {
  // int64 -, +, -, * and % wrap mod 2^64 and x % -1 is 0 on both paths:
  // every pair of extremes, compared against every extreme as a pivot.
  const int64_t edges[] = {kI64Min, kI64Min + 1, -2, -1, 0,
                           1,       2,           kI64Max - 1, kI64Max};
  Table t(MakeSchema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  for (const int64_t a : edges) {
    for (const int64_t b : edges) t.AddRow({Value(a), Value(b)});
  }
  for (const ExprPtr& result :
       {Neg(RCol("a")), Add(RCol("a"), RCol("b")), Sub(RCol("a"), RCol("b")),
        Mul(RCol("a"), RCol("b")), Mod(RCol("a"), RCol("b")),
        Mod(RCol("a"), Lit(Value(int64_t{-1})))}) {
    SCOPED_TRACE(result->ToString());
    for (const int64_t pivot : edges) {
      ExpectBatchMatchesScalar(Eq(result, Lit(Value(pivot))), nullptr,
                               nullptr, t);
      ExpectBatchMatchesScalar(Lt(result, Lit(Value(pivot))), nullptr,
                               nullptr, t);
    }
  }
  // The wrapped values themselves, on the scalar path.
  const Row row{Value(kI64Min), Value(int64_t{-1})};
  auto eval = [&](const ExprPtr& e) {
    auto compiled = CompiledExpr::Compile(e, nullptr, &t.schema());
    EXPECT_TRUE(compiled.ok());
    return compiled->Eval(nullptr, &row);
  };
  EXPECT_EQ(eval(Mod(RCol("a"), RCol("b"))), Value(int64_t{0}));
  EXPECT_EQ(eval(Neg(RCol("a"))), Value(kI64Min));
  EXPECT_EQ(eval(Mul(RCol("a"), RCol("b"))), Value(kI64Min));
  EXPECT_EQ(eval(Sub(RCol("a"), Lit(Value(int64_t{1})))), Value(kI64Max));
}

TEST(EvalBoolBatchTest, KleeneLogicAndNullTests) {
  const Table t = EdgeDetailTable();
  const ExprPtr cmp_null = Gt(RCol("i"), Lit(Value::Null()));  // UNKNOWN
  ExpectBatchMatchesScalar(Or(cmp_null, Gt(RCol("j"), Lit(Value(int64_t{5})))),
                           nullptr, nullptr, t);
  ExpectBatchMatchesScalar(
      And(IsNull(RCol("i")), Ge(RCol("j"), Lit(Value(int64_t{0})))), nullptr,
      nullptr, t);
  ExpectBatchMatchesScalar(Not(Lt(RCol("d"), Lit(Value(0.5)))), nullptr,
                           nullptr, t);
  ExpectBatchMatchesScalar(IsNull(RCol("s")), nullptr, nullptr, t);
}

TEST(EvalBoolBatchTest, StringEqualityViaDictionary) {
  const Table t = EdgeDetailTable();
  ExpectBatchMatchesScalar(Eq(RCol("s"), Lit(Value("alpha"))), nullptr,
                           nullptr, t);
  ExpectBatchMatchesScalar(Ne(RCol("s"), Lit(Value(""))), nullptr, nullptr,
                           t);
  // Literal absent from the dictionary: nothing equals it.
  ExpectBatchMatchesScalar(Eq(RCol("s"), Lit(Value("nope"))), nullptr,
                           nullptr, t);
  ExpectBatchMatchesScalar(Eq(RCol("s"), Lit(Value::Null())), nullptr,
                           nullptr, t);
}

TEST(EvalBoolBatchTest, StringOrderingViaOrderIndex) {
  const Table t = EdgeDetailTable();
  // Pivots inside, outside, below, and above the dictionary's range, on
  // both sides of the comparison (the direction flips when the constant
  // is on the left), plus a NULL pivot: all rank compares, all matching
  // the scalar Value::Compare verdicts.
  for (const char* pivot : {"", "alpha", "alp", "m", "zzz"}) {
    ExpectBatchMatchesScalar(Lt(RCol("s"), Lit(Value(pivot))), nullptr,
                             nullptr, t);
    ExpectBatchMatchesScalar(Ge(RCol("s"), Lit(Value(pivot))), nullptr,
                             nullptr, t);
    ExpectBatchMatchesScalar(Le(Lit(Value(pivot)), RCol("s")), nullptr,
                             nullptr, t);
    ExpectBatchMatchesScalar(Gt(Lit(Value(pivot)), RCol("s")), nullptr,
                             nullptr, t);
  }
  ExpectBatchMatchesScalar(Lt(RCol("s"), Lit(Value::Null())), nullptr,
                           nullptr, t);
}

TEST(EvalBoolBatchTest, BaseRowConstantsFoldIn) {
  SchemaPtr base_schema = MakeSchema({{"k", ValueType::kInt64},
                                      {"lim", ValueType::kDouble}});
  const Table t = EdgeDetailTable();
  Row base_row = {Value(int64_t{5}), Value(2.5)};
  ExpectBatchMatchesScalar(
      And(Eq(BCol("k"), RCol("j")), Lt(RCol("d"), BCol("lim"))),
      base_schema.get(), &base_row, t);
  // NULL base operand: comparison is UNKNOWN everywhere.
  Row null_base = {Value::Null(), Value::Null()};
  ExpectBatchMatchesScalar(Gt(RCol("i"), BCol("k")), base_schema.get(),
                           &null_base, t);
}

TEST(EvalBoolBatchTest, EmptyRangeAndEmptySelection) {
  const Table t = EdgeDetailTable();
  ASSERT_OK_AND_ASSIGN(
      CompiledExpr compiled,
      CompiledExpr::Compile(Gt(RCol("j"), Lit(Value(int64_t{100}))), nullptr,
                            &t.schema()));
  auto view = t.columnar();
  BatchScratch scratch;
  std::vector<int64_t> sel;
  compiled.EvalBoolBatch(nullptr, t, *view, 3, 3, &scratch, &sel);
  EXPECT_TRUE(sel.empty());
  compiled.EvalBoolBatch(nullptr, t, *view, 0, t.num_rows(), &scratch, &sel);
  EXPECT_TRUE(sel.empty());  // predicate never true
}

TEST(EvalBoolBatchTest, UnsupportedShapesAreDeclared) {
  const Table t = EdgeDetailTable();
  auto view = t.columnar();
  auto supports = [&](const ExprPtr& e) {
    auto compiled = CompiledExpr::Compile(e, nullptr, &t.schema());
    EXPECT_TRUE(compiled.ok());
    return compiled.ok() && compiled.ValueUnsafe().SupportsBatchEval(*view);
  };
  // String-vs-string-column comparison stays scalar: the two sides carry
  // different dictionaries, so there is no shared code/rank space.
  EXPECT_FALSE(supports(Eq(RCol("s"), RCol("s"))));
  EXPECT_FALSE(supports(Lt(RCol("s"), RCol("s"))));
  // Supported shapes for contrast — including string ordering against a
  // literal, batched through the per-dictionary order index.
  EXPECT_TRUE(supports(Lt(RCol("s"), Lit(Value("m")))));
  EXPECT_TRUE(supports(Eq(RCol("s"), Lit(Value("m")))));
  EXPECT_TRUE(supports(Gt(RCol("i"), RCol("j"))));
}

TEST(EvalBoolBatchTest, TypeDeviantColumnNotSupported) {
  Table t(MakeSchema({{"i", ValueType::kInt64}}));
  t.AddRow({Value(int64_t{1})});
  t.AddRow({Value(2.5)});  // double cell in a declared-int column
  auto view = t.columnar();
  ASSERT_OK_AND_ASSIGN(
      CompiledExpr compiled,
      CompiledExpr::Compile(Gt(RCol("i"), Lit(Value(int64_t{0}))), nullptr,
                            &t.schema()));
  EXPECT_FALSE(compiled.SupportsBatchEval(*view));
}

// ---------------------------------------------------------------------------
// Typed aggregate kernels vs boxed Update
// ---------------------------------------------------------------------------

/// Applies the same value sequence through boxed Update and through the
/// batch kernel; Final() must match bit-for-bit.
void ExpectDoubleKernelMatches(AggFunc func, const std::vector<double>& vals,
                               const std::vector<bool>& null_mask) {
  AggState scalar(func);
  for (size_t i = 0; i < vals.size(); ++i) {
    scalar.Update(null_mask[i] ? Value::Null() : Value(vals[i]));
  }

  std::vector<uint64_t> bitmap((vals.size() + 63) / 64, 0);
  bool any_null = false;
  for (size_t i = 0; i < vals.size(); ++i) {
    if (null_mask[i]) {
      any_null = true;
    } else {
      bitmap[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
  std::vector<int64_t> sel(vals.size());
  for (size_t i = 0; i < vals.size(); ++i) sel[i] = static_cast<int64_t>(i);

  AggState batched(func);
  batched.UpdateBatchDouble(vals.data(), any_null ? bitmap.data() : nullptr,
                            sel.data(), sel.size());
  EXPECT_EQ(Bits(batched.Final()), Bits(scalar.Final()))
      << AggFuncToString(func);
  EXPECT_EQ(batched.count(), scalar.count());
}

TEST(AggBatchKernelTest, DoubleEdgeValues) {
  const std::vector<double> vals = {1.5, -0.0, kNaN, kInf, -kInf, 2.25, -1.0};
  const std::vector<bool> nulls = {false, true, false, false,
                                   false, false, true};
  for (AggFunc func : {AggFunc::kSum, AggFunc::kAvg, AggFunc::kMin,
                       AggFunc::kMax, AggFunc::kCount, AggFunc::kVar,
                       AggFunc::kStdDev}) {
    ExpectDoubleKernelMatches(func, vals, nulls);
  }
  // -0.0 arriving first must be preserved by SUM's adopt-first-value rule.
  ExpectDoubleKernelMatches(AggFunc::kSum, {-0.0}, {false});
  ExpectDoubleKernelMatches(AggFunc::kMin, {kNaN, 1.0, -2.0},
                            {false, false, false});
  ExpectDoubleKernelMatches(AggFunc::kMax, {1.0, kNaN, 2.0},
                            {false, false, false});
}

TEST(AggBatchKernelTest, Int64ExtremesAndNulls) {
  const std::vector<int64_t> vals = {kI64Min, kI64Max, 0, -7, 7};
  const std::vector<bool> nulls = {false, false, true, false, false};
  for (AggFunc func : {AggFunc::kMin, AggFunc::kMax, AggFunc::kCount}) {
    AggState scalar(func);
    for (size_t i = 0; i < vals.size(); ++i) {
      scalar.Update(nulls[i] ? Value::Null() : Value(vals[i]));
    }
    std::vector<uint64_t> bitmap((vals.size() + 63) / 64, 0);
    for (size_t i = 0; i < vals.size(); ++i) {
      if (!nulls[i]) bitmap[i >> 6] |= uint64_t{1} << (i & 63);
    }
    std::vector<int64_t> sel(vals.size());
    for (size_t i = 0; i < vals.size(); ++i) sel[i] = static_cast<int64_t>(i);
    AggState batched(func);
    batched.UpdateBatchInt64(vals.data(), bitmap.data(), sel.data(),
                             sel.size());
    EXPECT_EQ(Bits(batched.Final()), Bits(scalar.Final()))
        << AggFuncToString(func);
  }
}

TEST(AggBatchKernelTest, EmptySelectionIsANoOp) {
  AggState sum(AggFunc::kSum);
  const double vals[] = {1.0};
  sum.UpdateBatchDouble(vals, nullptr, nullptr, 0);
  EXPECT_TRUE(sum.Final().is_null());
  EXPECT_EQ(sum.count(), 0);
  AggState cnt(AggFunc::kCount);
  cnt.UpdateBatchCountStar(0);
  EXPECT_EQ(cnt.count(), 0);
}

TEST(AggBatchKernelTest, PointFoldsMatchBoxed) {
  for (AggFunc func : {AggFunc::kSum, AggFunc::kAvg, AggFunc::kMin,
                       AggFunc::kMax, AggFunc::kVar}) {
    AggState scalar(func);
    AggState typed(func);
    for (double v : {2.5, kNaN, -0.0, -3.0}) {
      scalar.Update(Value(v));
      typed.UpdateDouble(v);
    }
    EXPECT_EQ(Bits(typed.Final()), Bits(scalar.Final()))
        << AggFuncToString(func);
    AggState scalar_i(func);
    AggState typed_i(func);
    for (int64_t v : {int64_t{5}, kI64Max, int64_t{-5}}) {
      scalar_i.Update(Value(v));
      typed_i.UpdateInt64(v);
    }
    EXPECT_EQ(Bits(typed_i.Final()), Bits(scalar_i.Final()))
        << AggFuncToString(func);
  }
}

// ---------------------------------------------------------------------------
// EvalGmdjOp: vectorized vs scalar byte identity
// ---------------------------------------------------------------------------

Table GmdjBase() {
  Table t(MakeSchema({{"k", ValueType::kInt64}, {"lim", ValueType::kInt64}}));
  for (int64_t k = 0; k < 4; ++k) t.AddRow({Value(k), Value(k * 10)});
  return t;
}

Table GmdjDetail() {
  Table t(MakeSchema({{"k", ValueType::kInt64},
                      {"v", ValueType::kInt64},
                      {"w", ValueType::kDouble},
                      {"s", ValueType::kString}}));
  const char* strs[] = {"red", "green", "blue"};
  for (int64_t i = 0; i < 200; ++i) {
    Row row;
    row.push_back(Value(i % 5));  // k in 0..4 — key 4 matches no base row
    row.push_back(i % 11 == 0 ? Value::Null() : Value(i * 3 - 100));
    row.push_back(i % 13 == 0 ? Value(kNaN)
                              : Value(static_cast<double>(i) * 0.25 - 10));
    row.push_back(Value(strs[i % 3]));
    t.AddRow(std::move(row));
  }
  return t;
}

GmdjOp EquiKeyOp() {
  GmdjOp op;
  GmdjBlock block;
  block.theta = And(Eq(BCol("k"), RCol("k")),
                    Le(RCol("v"), Add(BCol("lim"), Lit(Value(int64_t{40})))));
  block.aggs.push_back(AggSpec::Count("cnt"));
  block.aggs.push_back(AggSpec::Sum("v", "sv"));
  block.aggs.push_back(AggSpec::Avg("w", "aw"));
  block.aggs.push_back(AggSpec::Min("w", "mw"));
  op.blocks.push_back(std::move(block));
  return op;
}

GmdjOp NestedLoopOp() {
  GmdjOp op;
  GmdjBlock block;
  block.theta = Lt(RCol("v"), BCol("lim"));
  block.aggs.push_back(AggSpec::Count("cnt"));
  block.aggs.push_back(AggSpec::Max("w", "mx"));
  op.blocks.push_back(std::move(block));
  return op;
}

void ExpectVectorizedMatchesScalar(const GmdjOp& op, int threads,
                                   int64_t morsel_rows,
                                   const Table& base = GmdjBase()) {
  const Table detail = GmdjDetail();
  LocalGmdjOptions options;
  options.num_threads = threads;
  options.morsel_rows = morsel_rows;

  options.vectorize = false;
  ASSERT_OK_AND_ASSIGN(Table scalar, EvalGmdjOp(base, detail, op, options));
  options.vectorize = true;
  ASSERT_OK_AND_ASSIGN(Table vectorized,
                       EvalGmdjOp(base, detail, op, options));
  EXPECT_EQ(TableBits(vectorized), TableBits(scalar));
}

TEST(VectorizedGmdjTest, HashPathByteIdentical) {
  ExpectVectorizedMatchesScalar(EquiKeyOp(), 1, 0);
  ExpectVectorizedMatchesScalar(EquiKeyOp(), 3, 16);
}

TEST(VectorizedGmdjTest, CompositeStringKeyByteIdentical) {
  // An (int64, string) key: the typed probe hashes the string column
  // through its dictionary. Key 4 and "pink" match no base / detail row.
  Table base(MakeSchema({{"k", ValueType::kInt64}, {"s", ValueType::kString}}));
  for (int64_t k = 0; k < 4; ++k) {
    for (const char* s : {"red", "blue", "pink"}) {
      base.AddRow({Value(k), Value(s)});
    }
  }
  GmdjOp op;
  GmdjBlock block;
  block.theta = And(Eq(BCol("k"), RCol("k")), Eq(BCol("s"), RCol("s")));
  block.aggs.push_back(AggSpec::Count("cnt"));
  block.aggs.push_back(AggSpec::Sum("v", "sv"));
  block.aggs.push_back(AggSpec::Max("w", "mw"));
  op.blocks.push_back(std::move(block));
  ExpectVectorizedMatchesScalar(op, 1, 0, base);
  ExpectVectorizedMatchesScalar(op, 3, 16, base);
}

TEST(VectorizedGmdjTest, NestedLoopPathByteIdentical) {
  ExpectVectorizedMatchesScalar(NestedLoopOp(), 1, 0);
  ExpectVectorizedMatchesScalar(NestedLoopOp(), 3, 16);
}

TEST(VectorizedGmdjTest, EmptyRelations) {
  Table base = GmdjBase();
  Table empty_detail(GmdjDetail().schema_ptr());
  LocalGmdjOptions on;
  on.vectorize = true;
  LocalGmdjOptions off;
  off.vectorize = false;
  ASSERT_OK_AND_ASSIGN(Table a, EvalGmdjOp(base, empty_detail, EquiKeyOp(), on));
  ASSERT_OK_AND_ASSIGN(Table b,
                       EvalGmdjOp(base, empty_detail, EquiKeyOp(), off));
  EXPECT_EQ(TableBits(a), TableBits(b));

  Table empty_base(GmdjBase().schema_ptr());
  Table detail = GmdjDetail();
  ASSERT_OK_AND_ASSIGN(Table c, EvalGmdjOp(empty_base, detail, EquiKeyOp(), on));
  ASSERT_OK_AND_ASSIGN(Table d,
                       EvalGmdjOp(empty_base, detail, EquiKeyOp(), off));
  EXPECT_EQ(TableBits(c), TableBits(d));
  EXPECT_EQ(c.num_rows(), 0);
}

TEST(VectorizedGmdjTest, TouchedOnlyAgrees) {
  const Table base = GmdjBase();
  const Table detail = GmdjDetail();
  LocalGmdjOptions options;
  options.touched_only = true;
  options.vectorize = true;
  ASSERT_OK_AND_ASSIGN(Table on, EvalGmdjOp(base, detail, EquiKeyOp(), options));
  options.vectorize = false;
  ASSERT_OK_AND_ASSIGN(Table off,
                       EvalGmdjOp(base, detail, EquiKeyOp(), options));
  EXPECT_EQ(TableBits(on), TableBits(off));
}

TEST(VectorizedGmdjTest, ScanCountersAdvance) {
  const Table base = GmdjBase();
  const Table detail = GmdjDetail();
  LocalGmdjOptions options;
  options.num_threads = 1;

  // Each call adds its own scan's counts to the caller's counters.
  ScanCounters counts;
  const ScanCounters before = counts;
  options.vectorize = true;
  ASSERT_OK(EvalGmdjOp(base, detail, EquiKeyOp(), options, &counts).status());
  const ScanCounters mid = counts;
  EXPECT_EQ(mid.rows_scanned - before.rows_scanned, detail.num_rows());
  EXPECT_GT(mid.rows_matched, before.rows_matched);
  EXPECT_EQ(mid.morsels_vectorized - before.morsels_vectorized, 1);
  EXPECT_EQ(mid.morsels_scalar, before.morsels_scalar);

  options.vectorize = false;
  ASSERT_OK(EvalGmdjOp(base, detail, EquiKeyOp(), options, &counts).status());
  const ScanCounters after = counts;
  EXPECT_EQ(after.morsels_scalar - mid.morsels_scalar, 1);
  EXPECT_EQ(after.morsels_vectorized, mid.morsels_vectorized);
  EXPECT_EQ(after.rows_matched - mid.rows_matched,
            mid.rows_matched - before.rows_matched);
}

}  // namespace
}  // namespace skalla
