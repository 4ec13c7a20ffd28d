#include "gmdj/local_eval.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <utility>

#include "agg/aggregate.h"
#include "common/random.h"
#include "engine/operators.h"
#include "expr/analyzer.h"
#include "expr/evaluator.h"
#include "expr/parser.h"
#include "gmdj/central_eval.h"
#include "gmdj/gmdj.h"
#include "skl1_oracle.h"
#include "storage/catalog.h"
#include "storage/columnar.h"
#include "test_util.h"

namespace skalla {
namespace {

ExprPtr MustParse(const std::string& text) {
  auto result = ParseExpr(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

GmdjOp SimpleCountOp(const std::string& theta) {
  GmdjOp op;
  op.detail_table = "T";
  GmdjBlock block;
  block.aggs = {AggSpec::Count("cnt")};
  block.theta = MustParse(theta);
  op.blocks.push_back(std::move(block));
  return op;
}

TEST(GmdjLocalTest, KeyEqualityEquivalentToGroupBy) {
  const Table detail = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"g"}));

  GmdjOp op;
  op.detail_table = "T";
  GmdjBlock block;
  block.aggs = {AggSpec::Count("cnt"), AggSpec::Sum("v", "sv"),
                AggSpec::Avg("v", "av"), AggSpec::Min("v", "lo"),
                AggSpec::Max("v", "hi")};
  block.theta = MustParse("B.g = R.g");
  op.blocks.push_back(std::move(block));

  LocalGmdjOptions options;
  ASSERT_OK_AND_ASSIGN(Table gmdj, EvalGmdjOp(base, detail, op, options));

  ASSERT_OK_AND_ASSIGN(
      Table group_by,
      HashGroupBy(detail, {"g"},
                  {AggSpec::Count("cnt"), AggSpec::Sum("v", "sv"),
                   AggSpec::Avg("v", "av"), AggSpec::Min("v", "lo"),
                   AggSpec::Max("v", "hi")}));
  ExpectSameRows(gmdj, group_by);
}

TEST(GmdjLocalTest, OverlappingRangesNeedNestedLoop) {
  // θ without equi-conjuncts: count of detail tuples with v <= b.v — RNG
  // sets overlap, which GROUP BY cannot express.
  Table base(MakeSchema({{"v", ValueType::kInt64}}));
  base.AddRow({Value(2)});
  base.AddRow({Value(5)});
  base.AddRow({Value(9)});

  const Table detail = MakeTinyTable();
  const GmdjOp op = SimpleCountOp("R.v <= B.v");
  LocalGmdjOptions options;
  ASSERT_OK_AND_ASSIGN(Table result, EvalGmdjOp(base, detail, op, options));

  // detail v values: 5,7,9,4,6,8,2,1,3,5,7,9 → ≤2:2  ≤5:6  ≤9:12.
  ASSERT_OK_AND_ASSIGN(Table sorted, SortedBy(result, {"v"}));
  EXPECT_EQ(sorted.Get(0, 1), Value(2));
  EXPECT_EQ(sorted.Get(1, 1), Value(6));
  EXPECT_EQ(sorted.Get(2, 1), Value(12));
}

TEST(GmdjLocalTest, HashAndNestedLoopPathsAgree) {
  // The same θ evaluated via the hash path (equi + residual) and as an
  // opaque residual-only predicate must agree.
  const Table detail = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"g"}));

  const GmdjOp hash_op = SimpleCountOp("B.g = R.g && R.v >= 5");
  // Arithmetic identity hides the equi-conjunct from the decomposer.
  const GmdjOp loop_op = SimpleCountOp("B.g = R.g + 0 && R.v >= 5");

  LocalGmdjOptions options;
  ASSERT_OK_AND_ASSIGN(Table via_hash,
                       EvalGmdjOp(base, detail, hash_op, options));
  ASSERT_OK_AND_ASSIGN(Table via_loop,
                       EvalGmdjOp(base, detail, loop_op, options));
  ExpectSameRows(via_hash, via_loop);
}

TEST(GmdjLocalTest, MultipleBlocksEvaluateIndependently) {
  const Table detail = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"g"}));

  GmdjOp op;
  op.detail_table = "T";
  GmdjBlock b1;
  b1.aggs = {AggSpec::Count("cnt_all")};
  b1.theta = MustParse("B.g = R.g");
  GmdjBlock b2;
  b2.aggs = {AggSpec::Count("cnt_big")};
  b2.theta = MustParse("B.g = R.g && R.v >= 7");
  op.blocks = {b1, b2};

  LocalGmdjOptions options;
  ASSERT_OK_AND_ASSIGN(Table result, EvalGmdjOp(base, detail, op, options));
  ASSERT_OK_AND_ASSIGN(Table sorted, SortedBy(result, {"g"}));
  // group 1: all 3, big {7,9} = 2; group 2: all 4, big {8} = 1;
  // group 3: all 5, big {7,9} = 2.
  EXPECT_EQ(sorted.Get(0, 1), Value(3));
  EXPECT_EQ(sorted.Get(0, 2), Value(2));
  EXPECT_EQ(sorted.Get(1, 1), Value(4));
  EXPECT_EQ(sorted.Get(1, 2), Value(1));
  EXPECT_EQ(sorted.Get(2, 1), Value(5));
  EXPECT_EQ(sorted.Get(2, 2), Value(2));
}

TEST(GmdjLocalTest, UntouchedGroupsGetIdentityAggregates) {
  Table base(MakeSchema({{"g", ValueType::kInt64}}));
  base.AddRow({Value(1)});
  base.AddRow({Value(999)});  // matches nothing

  const Table detail = MakeTinyTable();
  GmdjOp op;
  op.detail_table = "T";
  GmdjBlock block;
  block.aggs = {AggSpec::Count("cnt"), AggSpec::Sum("v", "sv"),
                AggSpec::Avg("v", "av")};
  block.theta = MustParse("B.g = R.g");
  op.blocks.push_back(std::move(block));

  LocalGmdjOptions options;
  ASSERT_OK_AND_ASSIGN(Table result, EvalGmdjOp(base, detail, op, options));
  ASSERT_OK_AND_ASSIGN(Table sorted, SortedBy(result, {"g"}));
  EXPECT_EQ(sorted.Get(1, 0), Value(999));
  EXPECT_EQ(sorted.Get(1, 1), Value(int64_t{0}));  // COUNT → 0
  EXPECT_TRUE(sorted.Get(1, 2).is_null());         // SUM → NULL
  EXPECT_TRUE(sorted.Get(1, 3).is_null());         // AVG → NULL
}

TEST(GmdjLocalTest, TouchedOnlyDropsUntouchedGroups) {
  Table base(MakeSchema({{"g", ValueType::kInt64}}));
  base.AddRow({Value(1)});
  base.AddRow({Value(999)});

  const Table detail = MakeTinyTable();
  const GmdjOp op = SimpleCountOp("B.g = R.g");
  LocalGmdjOptions options;
  options.touched_only = true;
  ASSERT_OK_AND_ASSIGN(Table result, EvalGmdjOp(base, detail, op, options));
  ASSERT_EQ(result.num_rows(), 1);
  EXPECT_EQ(result.Get(0, 0), Value(1));
}

TEST(GmdjLocalTest, TouchedIsUnionAcrossBlocks) {
  // Group 999 untouched by block 1 but touched by block 2's looser θ must
  // be kept (|RNG| over θ₁ ∨ θ₂ is what matters — Prop. 1).
  Table base(MakeSchema({{"g", ValueType::kInt64}}));
  base.AddRow({Value(999)});

  const Table detail = MakeTinyTable();
  GmdjOp op;
  op.detail_table = "T";
  GmdjBlock strict;
  strict.aggs = {AggSpec::Count("c1")};
  strict.theta = MustParse("B.g = R.g");
  GmdjBlock loose;
  loose.aggs = {AggSpec::Count("c2")};
  loose.theta = MustParse("R.v > B.g - 1000");
  op.blocks = {strict, loose};

  LocalGmdjOptions options;
  options.touched_only = true;
  ASSERT_OK_AND_ASSIGN(Table result, EvalGmdjOp(base, detail, op, options));
  ASSERT_EQ(result.num_rows(), 1);
  EXPECT_EQ(result.Get(0, 1), Value(int64_t{0}));
  EXPECT_EQ(result.Get(0, 2), Value(12));
}

TEST(GmdjLocalTest, SubModeEmitsAvgAsSumAndCount) {
  const Table detail = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"g"}));

  GmdjOp op;
  op.detail_table = "T";
  GmdjBlock block;
  block.aggs = {AggSpec::Avg("v", "av")};
  block.theta = MustParse("B.g = R.g");
  op.blocks.push_back(std::move(block));

  LocalGmdjOptions options;
  options.mode = AggMode::kSub;
  ASSERT_OK_AND_ASSIGN(Table result, EvalGmdjOp(base, detail, op, options));
  EXPECT_EQ(result.schema().ToString(), "g:int64, av__sum:int64, av__cnt:int64");
  ASSERT_OK_AND_ASSIGN(Table sorted, SortedBy(result, {"g"}));
  EXPECT_EQ(sorted.Get(0, 1), Value(21));
  EXPECT_EQ(sorted.Get(0, 2), Value(3));
}

TEST(GmdjLocalTest, CarryColsControlOutputPrefix) {
  const Table detail = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"g", "h"}));

  const GmdjOp op = SimpleCountOp("B.g = R.g && B.h = R.h");
  LocalGmdjOptions options;
  options.carry_cols = {"h"};
  ASSERT_OK_AND_ASSIGN(Table result, EvalGmdjOp(base, detail, op, options));
  EXPECT_EQ(result.schema().ToString(), "h:int64, cnt:int64");
}

TEST(GmdjLocalTest, CountColumnSkipsNulls) {
  Table detail(MakeSchema({{"g", ValueType::kInt64}, {"v", ValueType::kInt64}}));
  detail.AddRow({Value(1), Value(10)});
  detail.AddRow({Value(1), Value::Null()});
  detail.AddRow({Value(1), Value(20)});
  Table base(MakeSchema({{"g", ValueType::kInt64}}));
  base.AddRow({Value(1)});

  GmdjOp op;
  op.detail_table = "T";
  GmdjBlock block;
  block.aggs = {AggSpec::Count("stars"), AggSpec::CountCol("v", "vals")};
  block.theta = MustParse("B.g = R.g");
  op.blocks.push_back(std::move(block));

  LocalGmdjOptions options;
  ASSERT_OK_AND_ASSIGN(Table result, EvalGmdjOp(base, detail, op, options));
  EXPECT_EQ(result.Get(0, 1), Value(3));
  EXPECT_EQ(result.Get(0, 2), Value(2));
}

TEST(GmdjLocalTest, EmptyDetailRelation) {
  Table detail(MakeTinyTable().schema_ptr());
  Table base(MakeSchema({{"g", ValueType::kInt64}}));
  base.AddRow({Value(1)});
  const GmdjOp op = SimpleCountOp("B.g = R.g");
  LocalGmdjOptions options;
  ASSERT_OK_AND_ASSIGN(Table result, EvalGmdjOp(base, detail, op, options));
  ASSERT_EQ(result.num_rows(), 1);
  EXPECT_EQ(result.Get(0, 1), Value(int64_t{0}));
}

TEST(GmdjLocalTest, EmptyBaseRelation) {
  const Table detail = MakeTinyTable();
  Table base(MakeSchema({{"g", ValueType::kInt64}}));
  const GmdjOp op = SimpleCountOp("B.g = R.g");
  LocalGmdjOptions options;
  ASSERT_OK_AND_ASSIGN(Table result, EvalGmdjOp(base, detail, op, options));
  EXPECT_EQ(result.num_rows(), 0);
}

TEST(GmdjLocalTest, TouchedOnlyAndSubMode) {
  Table base(MakeSchema({{"g", ValueType::kInt64}}));
  base.AddRow({Value(1)});
  base.AddRow({Value(999)});
  const Table detail = MakeTinyTable();
  GmdjOp op;
  op.detail_table = "T";
  op.blocks.push_back(
      GmdjBlock{{AggSpec::Avg("v", "av")}, MustParse("B.g = R.g")});

  LocalGmdjOptions options;
  options.mode = AggMode::kSub;
  options.touched_only = true;
  ASSERT_OK_AND_ASSIGN(Table result, EvalGmdjOp(base, detail, op, options));
  ASSERT_EQ(result.num_rows(), 1);
  EXPECT_EQ(result.Get(0, 0), Value(1));
  EXPECT_EQ(result.Get(0, 1), Value(21));  // sum
  EXPECT_EQ(result.Get(0, 2), Value(3));   // count
}

/// The GMDJ row at a time, as its definition reads: every (base, detail)
/// pair, the equi-key conjuncts compared with Value::operator== (a NULL on
/// either side is unknown, so no match), the residual through EvalBool,
/// and each match folded with AggState::Update in detail order. Final
/// mode, every base column carried.
std::vector<Row> ReferenceGmdjRows(const Table& base, const Table& detail,
                                   const GmdjOp& op) {
  static const Value kOne(int64_t{1});
  std::vector<Row> out(base.rows());
  for (const GmdjBlock& block : op.blocks) {
    const ThetaDecomposition theta = DecomposeTheta(block.theta);
    std::vector<std::pair<size_t, size_t>> keys;
    for (const EquiPair& pair : theta.pairs) {
      keys.emplace_back(*base.schema().IndexOf(pair.base_col),
                        *detail.schema().IndexOf(pair.detail_col));
    }
    std::optional<CompiledExpr> residual;
    if (theta.residual != nullptr) {
      auto compiled = CompiledExpr::Compile(theta.residual, &base.schema(),
                                            &detail.schema());
      EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
      residual = std::move(*compiled);
    }
    std::vector<int> inputs;  // -1 for COUNT(*)
    for (const AggSpec& spec : block.aggs) {
      inputs.push_back(spec.is_count_star()
                           ? -1
                           : *detail.schema().IndexOf(spec.input));
    }
    std::vector<std::vector<AggState>> states(out.size());
    for (std::vector<AggState>& row_states : states) {
      for (const AggSpec& spec : block.aggs) row_states.emplace_back(spec.func);
    }
    for (const Row& d : detail.rows()) {
      for (size_t b = 0; b < out.size(); ++b) {
        const Row& base_row = base.row(static_cast<int64_t>(b));
        bool match = true;
        for (const auto& [bk, dk] : keys) {
          match = match && !d[dk].is_null() && base_row[bk] == d[dk];
        }
        if (!match ||
            (residual.has_value() && !residual->EvalBool(&base_row, &d))) {
          continue;
        }
        for (size_t a = 0; a < inputs.size(); ++a) {
          states[b][a].Update(inputs[a] < 0
                                  ? kOne
                                  : d[static_cast<size_t>(inputs[a])]);
        }
      }
    }
    for (size_t b = 0; b < out.size(); ++b) {
      for (const AggState& state : states[b]) out[b].push_back(state.Final());
    }
  }
  return out;
}

/// EvalGmdjOp reproduces ReferenceGmdjRows byte for byte, scanning with
/// the typed kernels and probe and without them.
void ExpectMatchesReference(const Table& base, const Table& detail,
                            const GmdjOp& op) {
  const std::vector<Row> expected = ReferenceGmdjRows(base, detail, op);
  for (const bool vectorize : {true, false}) {
    LocalGmdjOptions options;
    options.num_threads = 1;
    options.vectorize = vectorize;
    ASSERT_OK_AND_ASSIGN(Table actual, EvalGmdjOp(base, detail, op, options));
    EXPECT_EQ(EncodeSkl1(actual),
              EncodeSkl1(Table(actual.schema_ptr(), expected)))
        << "vectorize " << vectorize;
  }
}

TEST(GmdjLocalTest, HashPathMatchesRowAtATimeReference) {
  Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    Table detail(MakeSchema({{"k", ValueType::kInt64},
                             {"k2", ValueType::kInt64},
                             {"v", ValueType::kInt64}}));
    const int64_t rows = rng.Uniform(0, 200);
    for (int64_t i = 0; i < rows; ++i) {
      detail.AddRow({rng.Chance(0.05) ? Value::Null()
                                      : Value(rng.Uniform(0, 12)),
                     Value(rng.Uniform(0, 3)), Value(rng.Uniform(-9, 9))});
    }
    ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"k", "k2"}));

    GmdjOp op;
    op.detail_table = "T";
    op.blocks.push_back(
        GmdjBlock{{AggSpec::Count("c"), AggSpec::Sum("v", "s")},
                  MustParse("B.k = R.k && B.k2 = R.k2")});
    op.blocks.push_back(GmdjBlock{{AggSpec::Max("v", "m")},
                                  MustParse("B.k = R.k && R.v > 0")});

    SCOPED_TRACE(testing::Message() << "trial " << trial);
    ExpectMatchesReference(base, detail, op);
  }
}

TEST(GmdjLocalTest, MixedAggregatesMatchReference) {
  // Integer, double and string inputs folded on one equi-key block.
  const Table detail = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"g"}));
  GmdjOp op;
  op.detail_table = "T";
  op.blocks.push_back(GmdjBlock{
      {AggSpec::Count("cnt"), AggSpec::Sum("v", "sv"),
       AggSpec::Avg("w", "aw"), AggSpec::Min("s", "lo")},
      MustParse("B.g = R.g")});
  ExpectMatchesReference(base, detail, op);
}

TEST(GmdjLocalTest, ResidualAndCompositeKeysMatchReference) {
  const Table detail = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(Table ints, DistinctProject(detail, {"g", "h"}));
  GmdjOp op;
  op.detail_table = "T";
  op.blocks.push_back(
      GmdjBlock{{AggSpec::Count("cnt")},
                MustParse("B.g = R.g && B.h = R.h && R.v >= 5")});
  ExpectMatchesReference(ints, detail, op);

  // A string key column beside an int64 one, with a double residual.
  ASSERT_OK_AND_ASSIGN(Table mixed, DistinctProject(detail, {"s", "g"}));
  GmdjOp string_op;
  string_op.detail_table = "T";
  string_op.blocks.push_back(
      GmdjBlock{{AggSpec::Count("cnt"), AggSpec::Max("v", "mv")},
                MustParse("B.s = R.s && B.g = R.g && R.w > 1")});
  ExpectMatchesReference(mixed, detail, string_op);
}

// A double key column probes typed against int64 base keys; a column
// holding both int64 and double cells is not usable columnar, so its block
// probes with boxed rows. Either way keys match as Value::operator== does.
TEST(GmdjLocalTest, CrossTypeAndMixedKeyColumnsMatchReference) {
  Table base(MakeSchema({{"k", ValueType::kInt64}}));
  for (const int64_t k : {5, 6, 7}) base.AddRow({Value(k)});
  GmdjOp op;
  op.detail_table = "T";
  op.blocks.push_back(
      GmdjBlock{{AggSpec::Count("cnt"), AggSpec::Sum("v", "sv")},
                MustParse("B.k = R.k")});

  Table doubles(
      MakeSchema({{"k", ValueType::kDouble}, {"v", ValueType::kInt64}}));
  doubles.AddRow({Value(5.0), Value(int64_t{1})});
  doubles.AddRow({Value(6.5), Value(int64_t{2})});
  doubles.AddRow({Value(7.0), Value(int64_t{3})});
  doubles.AddRow({Value::Null(), Value(int64_t{4})});
  doubles.AddRow({Value(5.0), Value(int64_t{5})});
  ASSERT_TRUE(doubles.columnar()->column(0).usable);
  ExpectMatchesReference(base, doubles, op);
  ASSERT_OK_AND_ASSIGN(Table typed,
                       EvalGmdjOp(base, doubles, op, LocalGmdjOptions()));
  EXPECT_EQ(typed.Get(0, 1), Value(int64_t{2}));  // 5 matches 5.0 twice
  EXPECT_EQ(typed.Get(1, 1), Value(int64_t{0}));  // 6 matches no 6.5
  EXPECT_EQ(typed.Get(2, 1), Value(int64_t{1}));

  Table mixed(
      MakeSchema({{"k", ValueType::kDouble}, {"v", ValueType::kInt64}}));
  mixed.AddRow({Value(5.0), Value(int64_t{1})});
  mixed.AddRow({Value(int64_t{6}), Value(int64_t{2})});
  mixed.AddRow({Value(7.5), Value(int64_t{3})});
  mixed.AddRow({Value(int64_t{7}), Value(int64_t{4})});
  mixed.AddRow({Value::Null(), Value(int64_t{5})});
  ASSERT_FALSE(mixed.columnar()->column(0).usable);
  ExpectMatchesReference(base, mixed, op);
  ASSERT_OK_AND_ASSIGN(Table boxed,
                       EvalGmdjOp(base, mixed, op, LocalGmdjOptions()));
  for (int64_t b = 0; b < 3; ++b) {
    EXPECT_EQ(boxed.Get(b, 1), Value(int64_t{1})) << "base row " << b;
  }
}

// A NULL equi-key is unknown, never equal, whichever form θ takes: a
// decomposed equi-key conjunct (the typed and the boxed probe) skips a
// detail tuple with a NULL in any key column, so it counts exactly what
// the nested loop counts for the same comparison left whole.
// docs/gmdj-algebra.md states the rule.
TEST(GmdjLocalTest, NullKeysMatchNothingWhicheverFormThetaTakes) {
  Table detail(MakeSchema({{"k", ValueType::kInt64},
                           {"k2", ValueType::kString}}));
  detail.AddRow({Value::Null(), Value("a")});
  detail.AddRow({Value(int64_t{1}), Value("a")});
  detail.AddRow({Value::Null(), Value::Null()});
  detail.AddRow({Value(int64_t{1}), Value::Null()});
  Table base(MakeSchema({{"k", ValueType::kInt64},
                         {"k2", ValueType::kString}}));
  base.AddRow({Value::Null(), Value("a")});
  base.AddRow({Value(int64_t{1}), Value("a")});
  base.AddRow({Value(int64_t{1}), Value::Null()});
  base.AddRow({Value::Null(), Value::Null()});
  struct Form {
    const char* keyed;  // decomposed into equi-keys: the probe
    const char* whole;  // the same comparison left whole: the nested loop
    std::vector<int64_t> counts;  // per base row
  };
  for (const Form& form : std::vector<Form>{
           {"B.k = R.k", "B.k = R.k || B.k = R.k", {0, 2, 2, 0}},
           {"B.k = R.k && B.k2 = R.k2",
            "(B.k = R.k && B.k2 = R.k2) || (B.k = R.k && B.k2 = R.k2)",
            {0, 1, 0, 0}}}) {
    SCOPED_TRACE(form.keyed);
    for (const bool vectorize : {true, false}) {
      LocalGmdjOptions options;
      options.vectorize = vectorize;
      ASSERT_OK_AND_ASSIGN(
          Table keyed,
          EvalGmdjOp(base, detail, SimpleCountOp(form.keyed), options));
      ASSERT_OK_AND_ASSIGN(
          Table whole,
          EvalGmdjOp(base, detail, SimpleCountOp(form.whole), options));
      const int count_col = base.schema().num_fields();
      for (int64_t b = 0; b < base.num_rows(); ++b) {
        const Value want(form.counts[static_cast<size_t>(b)]);
        EXPECT_EQ(keyed.Get(b, count_col), want)
            << "keyed, base row " << b << ", vectorize " << vectorize;
        EXPECT_EQ(whole.Get(b, count_col), want)
            << "whole, base row " << b << ", vectorize " << vectorize;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Centralized chain evaluation (the oracle itself).
// ---------------------------------------------------------------------------

TEST(CentralEvalTest, Example1ShapeOnTinyData) {
  Catalog catalog;
  catalog.PutTable("T", std::make_shared<const Table>(MakeTinyTable()));

  GmdjExpr expr;
  expr.base.source_table = "T";
  expr.base.project_cols = {"g"};
  GmdjOp md1;
  md1.detail_table = "T";
  GmdjBlock b1;
  b1.aggs = {AggSpec::Count("cnt1"), AggSpec::Sum("v", "sum1")};
  b1.theta = MustParse("B.g = R.g");
  md1.blocks.push_back(b1);
  expr.ops.push_back(md1);
  GmdjOp md2;
  md2.detail_table = "T";
  GmdjBlock b2;
  b2.aggs = {AggSpec::Count("cnt2")};
  b2.theta = MustParse("B.g = R.g && R.v >= B.sum1 / B.cnt1");
  md2.blocks.push_back(b2);
  expr.ops.push_back(md2);

  ASSERT_OK_AND_ASSIGN(Table result, EvalGmdjExprCentralized(expr, catalog));
  ASSERT_OK_AND_ASSIGN(Table sorted, SortedBy(result, {"g"}));
  ASSERT_EQ(sorted.num_rows(), 3);
  // g=1: v {5,7,9} avg 7 → above-or-equal {7,9} = 2.
  EXPECT_EQ(sorted.Get(0, 1), Value(3));
  EXPECT_EQ(sorted.Get(0, 2), Value(21));
  EXPECT_EQ(sorted.Get(0, 3), Value(2));
  // g=2: v {4,6,8,2} avg 5 → {6,8} = 2.
  EXPECT_EQ(sorted.Get(1, 3), Value(2));
  // g=3: v {1,3,5,7,9} avg 5 → {5,7,9} = 3.
  EXPECT_EQ(sorted.Get(2, 3), Value(3));
}

TEST(CentralEvalTest, BaseQueryWithFilter) {
  Catalog catalog;
  catalog.PutTable("T", std::make_shared<const Table>(MakeTinyTable()));

  GmdjExpr expr;
  expr.base.source_table = "T";
  expr.base.project_cols = {"g"};
  expr.base.filter = MustParse("v >= 7");
  GmdjOp op;
  op.detail_table = "T";
  GmdjBlock block;
  block.aggs = {AggSpec::Count("cnt")};
  block.theta = MustParse("B.g = R.g");
  op.blocks.push_back(block);
  expr.ops.push_back(op);

  ASSERT_OK_AND_ASSIGN(Table result, EvalGmdjExprCentralized(expr, catalog));
  // Only groups with some v >= 7 appear (g=1 has 7,9; g=2 has 8; g=3 has
  // 7,9) — all three survive here, but counts cover ALL tuples per group.
  ASSERT_OK_AND_ASSIGN(Table sorted, SortedBy(result, {"g"}));
  ASSERT_EQ(sorted.num_rows(), 3);
  EXPECT_EQ(sorted.Get(0, 1), Value(3));
}

TEST(CentralEvalTest, BaseQueryComesBackInKeyOrder) {
  // A composite key (a, b) whose a column holds NULL, doubles, int64s equal
  // to doubles, NaNs of both signs (each its own group) and a type-deviant
  // string: NULL < numbers by exact value < NaN < strings, ties in
  // first-appearance order.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t past_2_62 = (int64_t{1} << 62) + 1;  // == 2^62 as a double
  Table t(MakeSchema({{"a", ValueType::kDouble}, {"b", ValueType::kString}}));
  for (const Row& row : std::vector<Row>{
           {Value(3.0), Value("x")},           // 0
           {Value(nan), Value("y")},           // 1
           {Value::Null(), Value("z")},        // 2
           {Value(-1.0), Value("x")},          // 3
           {Value(-nan), Value("y")},          // 4
           {Value(3.0), Value("a")},           // 5
           {Value(int64_t{5}), Value("m")},    // 6
           {Value(4.5), Value("m")},           // 7
           {Value("s"), Value("m")},           // 8
           {Value(int64_t{3}), Value("x")},    // 9: row 0's group
           {Value(nan), Value("b")},           // 10
           {Value(past_2_62), Value("m")},     // 11
           {Value(0x1p62), Value("m")}}) {     // 12: row 11's group
    t.AddRow(row);
  }
  BaseQuery base;
  base.source_table = "T";
  base.project_cols = {"a", "b"};
  ASSERT_OK_AND_ASSIGN(Table b, EvalBaseQuery(base, t));
  auto rows_of = [&t](const std::vector<int64_t>& ids) {
    std::vector<Row> rows;
    for (int64_t id : ids) rows.push_back(t.row(id));
    return Table(t.schema_ptr(), std::move(rows));
  };
  EXPECT_EQ(EncodeSkl1(b),
            EncodeSkl1(rows_of({2, 3, 5, 0, 7, 6, 11, 10, 1, 4, 8})));
  // Without DISTINCT every row stays: int64 3 ties with 3.0 after it, and
  // double 2^62 sorts before 2^62 + 1, which it equals only as a double.
  base.distinct = false;
  ASSERT_OK_AND_ASSIGN(Table bag, EvalBaseQuery(base, t));
  EXPECT_EQ(EncodeSkl1(bag),
            EncodeSkl1(rows_of({2, 3, 5, 0, 9, 7, 6, 12, 11, 10, 1, 4, 8})));
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

class ValidationTest : public ::testing::Test {
 protected:
  ValidationTest() {
    schemas_["T"] = MakeTinyTable().schema_ptr();
    expr_.base.source_table = "T";
    expr_.base.project_cols = {"g"};
    GmdjOp op;
    op.detail_table = "T";
    GmdjBlock block;
    block.aggs = {AggSpec::Count("cnt")};
    block.theta = MustParse("B.g = R.g");
    op.blocks.push_back(block);
    expr_.ops.push_back(op);
  }

  SchemaMap schemas_;
  GmdjExpr expr_;
};

TEST_F(ValidationTest, ValidExpressionPasses) {
  EXPECT_OK(ValidateGmdjExpr(expr_, schemas_));
}

TEST_F(ValidationTest, UnknownDetailTable) {
  expr_.ops[0].detail_table = "missing";
  EXPECT_FALSE(ValidateGmdjExpr(expr_, schemas_).ok());
}

TEST_F(ValidationTest, UnknownProjectionColumn) {
  expr_.base.project_cols = {"nope"};
  EXPECT_FALSE(ValidateGmdjExpr(expr_, schemas_).ok());
}

TEST_F(ValidationTest, DuplicateOutputName) {
  expr_.ops[0].blocks[0].aggs.push_back(AggSpec::Sum("v", "cnt"));
  auto status = ValidateGmdjExpr(expr_, schemas_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST_F(ValidationTest, OutputCollidingWithKeyRejected) {
  expr_.ops[0].blocks[0].aggs[0].output = "g";
  EXPECT_FALSE(ValidateGmdjExpr(expr_, schemas_).ok());
}

TEST_F(ValidationTest, ThetaReferencingFutureOutputRejected) {
  expr_.ops[0].blocks[0].theta = MustParse("B.g = R.g && B.cnt > 0");
  EXPECT_FALSE(ValidateGmdjExpr(expr_, schemas_).ok());
}

TEST_F(ValidationTest, ThetaReferencingPastOutputAccepted) {
  GmdjOp op2;
  op2.detail_table = "T";
  GmdjBlock block;
  block.aggs = {AggSpec::Count("cnt2")};
  block.theta = MustParse("B.g = R.g && R.v > B.cnt");
  op2.blocks.push_back(block);
  expr_.ops.push_back(op2);
  EXPECT_OK(ValidateGmdjExpr(expr_, schemas_));
}

TEST_F(ValidationTest, SumOverStringRejected) {
  expr_.ops[0].blocks[0].aggs.push_back(AggSpec::Sum("s", "bad"));
  EXPECT_FALSE(ValidateGmdjExpr(expr_, schemas_).ok());
}

TEST_F(ValidationTest, EmptyBlocksRejected) {
  expr_.ops[0].blocks.clear();
  EXPECT_FALSE(ValidateGmdjExpr(expr_, schemas_).ok());
}

TEST_F(ValidationTest, BaseResultSchemaGrowsPerRound) {
  ASSERT_OK_AND_ASSIGN(SchemaPtr s0, BaseResultSchema(expr_, schemas_, 0));
  EXPECT_EQ(s0->num_fields(), 1);
  ASSERT_OK_AND_ASSIGN(SchemaPtr s1, BaseResultSchema(expr_, schemas_, 1));
  EXPECT_EQ(s1->num_fields(), 2);
  EXPECT_FALSE(BaseResultSchema(expr_, schemas_, 2).ok());
}

TEST_F(ValidationTest, PrinterMentionsStructure) {
  const std::string s = GmdjExprToString(expr_);
  EXPECT_NE(s.find("MD("), std::string::npos);
  EXPECT_NE(s.find("pi_{g}"), std::string::npos);
  EXPECT_NE(s.find("count(*) -> cnt"), std::string::npos);
}

}  // namespace
}  // namespace skalla
