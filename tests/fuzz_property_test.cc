// Randomized end-to-end property test: for arbitrary GMDJ chains over
// arbitrary partitionings, every optimizer configuration and both
// coordinator architectures must reproduce the centralized evaluation
// exactly (Theorems 1, 3, 4, 5; Propositions 1, 2).
//
// All numeric data is integer-valued (including the double column) so that
// distributed merge order cannot perturb results through floating-point
// rounding — any mismatch is a real bug.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "gmdj/local_eval.h"
#include "skalla/warehouse.h"
#include "skl1_oracle.h"
#include "storage/serializer.h"
#include "test_util.h"
#include "tpc/partitioner.h"

namespace skalla {
namespace {

SchemaPtr FuzzSchema() {
  return MakeSchema({{"g1", ValueType::kInt64},
                     {"g2", ValueType::kInt64},
                     {"s", ValueType::kString},
                     {"v1", ValueType::kInt64},
                     {"v2", ValueType::kInt64},
                     {"w", ValueType::kDouble}});
}

Table RandomTable(Rng* rng, int64_t rows) {
  Table t(FuzzSchema());
  static const char* kStrings[] = {"alpha", "beta", "gamma", "delta"};
  for (int64_t i = 0; i < rows; ++i) {
    Row row;
    row.push_back(Value(rng->Uniform(0, 7)));
    row.push_back(Value(rng->Uniform(0, 3)));
    row.push_back(Value(kStrings[rng->Uniform(0, 3)]));
    row.push_back(rng->Chance(0.08) ? Value::Null()
                                    : Value(rng->Uniform(-20, 20)));
    row.push_back(Value(rng->Uniform(0, 100)));
    row.push_back(Value(static_cast<double>(rng->Uniform(-50, 50))));
    t.AddRow(std::move(row));
  }
  return t;
}

/// Columns usable as aggregate inputs (numeric) and as θ operands.
const std::vector<std::string>& NumericCols() {
  static const std::vector<std::string> cols = {"v1", "v2", "w"};
  return cols;
}

struct FuzzQuery {
  GmdjExpr expr;
  /// Numeric aggregate outputs available for residual references.
  std::vector<std::string> numeric_outputs;
};

AggSpec RandomAgg(Rng* rng, int* counter,
                  std::vector<std::string>* numeric_outputs) {
  const std::string output = "o" + std::to_string((*counter)++);
  const int kind = static_cast<int>(rng->Uniform(0, 6));
  AggSpec spec;
  switch (kind) {
    case 0:
      spec = AggSpec::Count(output);
      break;
    case 1:
      spec = AggSpec::Sum(rng->Pick(NumericCols()), output);
      break;
    case 2:
      spec = AggSpec::Avg(rng->Pick(NumericCols()), output);
      break;
    case 3:
      spec = AggSpec::Min(rng->Pick(NumericCols()), output);
      break;
    case 4:
      spec = AggSpec::Var(rng->Pick(NumericCols()), output);
      break;
    case 5:
      spec = AggSpec::StdDev(rng->Pick(NumericCols()), output);
      break;
    default:
      spec = AggSpec::Max(rng->Pick(NumericCols()), output);
      break;
  }
  numeric_outputs->push_back(output);
  return spec;
}

/// A residual condition over base and detail columns; may reference
/// earlier aggregate outputs (all numeric).
ExprPtr RandomResidual(Rng* rng,
                       const std::vector<std::string>& numeric_outputs) {
  const int kind = static_cast<int>(rng->Uniform(0, 3));
  const BinaryOp cmps[] = {BinaryOp::kLt, BinaryOp::kLe, BinaryOp::kGt,
                           BinaryOp::kGe, BinaryOp::kEq, BinaryOp::kNe};
  const BinaryOp cmp = cmps[rng->Uniform(0, 5)];
  ExprPtr lhs = RCol(rng->Pick(NumericCols()));
  ExprPtr rhs;
  switch (kind) {
    case 0:
      rhs = Lit(Value(rng->Uniform(-30, 30)));
      break;
    case 1:
      if (numeric_outputs.empty()) {
        rhs = Lit(Value(rng->Uniform(-10, 10)));
      } else {
        rhs = Add(BCol(rng->Pick(numeric_outputs)),
                  Lit(Value(rng->Uniform(-5, 5))));
      }
      break;
    default:
      rhs = Mul(RCol(rng->Pick(NumericCols())), Lit(Value(rng->Uniform(0, 2))));
      break;
  }
  return std::make_shared<BinaryExpr>(cmp, std::move(lhs), std::move(rhs));
}

FuzzQuery RandomQuery(Rng* rng) {
  FuzzQuery q;
  q.expr.base.source_table = "T";

  // Random non-empty key subset.
  const std::vector<std::string> candidates = {"g1", "g2", "s"};
  for (const std::string& col : candidates) {
    if (rng->Chance(0.5)) q.expr.base.project_cols.push_back(col);
  }
  if (q.expr.base.project_cols.empty()) {
    q.expr.base.project_cols.push_back(rng->Pick(candidates));
  }
  if (rng->Chance(0.3)) {
    q.expr.base.filter = Ge(RCol("v2"), Lit(Value(rng->Uniform(0, 40))));
  }

  int counter = 0;
  const int num_ops = static_cast<int>(rng->Uniform(1, 3));
  for (int op_idx = 0; op_idx < num_ops; ++op_idx) {
    GmdjOp op;
    op.detail_table = "T";
    // θ conditions may reference only outputs of *earlier* operators —
    // never outputs of any block of this same operator.
    const std::vector<std::string> visible = q.numeric_outputs;
    const int num_blocks = static_cast<int>(rng->Uniform(1, 2));
    for (int b = 0; b < num_blocks; ++b) {
      GmdjBlock block;
      const int num_aggs = static_cast<int>(rng->Uniform(1, 3));
      for (int a = 0; a < num_aggs; ++a) {
        block.aggs.push_back(RandomAgg(rng, &counter, &q.numeric_outputs));
      }
      // θ: usually key equality (+ optional residual); sometimes a pure
      // inequality condition exercising the nested-loop path.
      std::vector<ExprPtr> conjuncts;
      if (rng->Chance(0.85)) {
        for (const std::string& key : q.expr.base.project_cols) {
          conjuncts.push_back(Eq(BCol(key), RCol(key)));
        }
      } else {
        // Pure-inequality θ exercising the nested-loop path. The base
        // operand must be numeric: prefer an integer key column, else an
        // overlapping-range comparison against a literal.
        ExprPtr base_operand;
        for (const std::string& key : q.expr.base.project_cols) {
          if (key != "s") {
            base_operand = BCol(key);
            break;
          }
        }
        if (base_operand == nullptr) {
          base_operand = Lit(Value(rng->Uniform(20, 120)));
        } else {
          base_operand =
              Add(base_operand, Lit(Value(rng->Uniform(20, 120))));
        }
        conjuncts.push_back(Le(RCol("v2"), std::move(base_operand)));
      }
      if (rng->Chance(0.6)) {
        conjuncts.push_back(RandomResidual(rng, visible));
      }
      block.theta = AndAll(conjuncts);
      op.blocks.push_back(std::move(block));
    }
    q.expr.ops.push_back(std::move(op));
  }
  return q;
}

class FuzzPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPropertyTest, DistributedMatchesCentralizedEverywhere) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);

  const int num_sites = static_cast<int>(rng.Uniform(1, 5));
  const int64_t rows = rng.Uniform(0, 600);
  Table data = RandomTable(&rng, rows);

  Warehouse wh(num_sites);
  const int partitioning = static_cast<int>(rng.Uniform(0, 2));
  if (partitioning == 0) {
    ASSERT_OK(wh.LoadByRange("T", data, "g1", 0, 7, {"g1", "g2", "v2"}));
  } else if (partitioning == 1) {
    ASSERT_OK(wh.LoadByHash("T", data, "g2"));
  } else {
    ASSERT_OK_AND_ASSIGN(PartitionedData parts,
                         PartitionRoundRobin(data, num_sites));
    ASSERT_OK(wh.LoadPartitioned("T", std::move(parts)));
  }

  const FuzzQuery q = RandomQuery(&rng);
  SCOPED_TRACE(GmdjExprToString(q.expr));

  ASSERT_OK_AND_ASSIGN(Table expected, wh.ExecuteCentralized(q.expr));

  // Random optimizer subset + the two extremes.
  OptimizerOptions random_options;
  random_options.coalesce = rng.Chance(0.5);
  random_options.independent_group_reduction = rng.Chance(0.5);
  random_options.aware_group_reduction = rng.Chance(0.5);
  random_options.sync_reduction = rng.Chance(0.5);

  for (const OptimizerOptions& options :
       {OptimizerOptions::None(), random_options, OptimizerOptions::All()}) {
    ASSERT_OK_AND_ASSIGN(QueryResult result, wh.Execute(q.expr, options));
    ExpectSameRows(result.table, expected);

    // Theorem 2's transfer bound must hold for every plan.
    const int64_t bound = TheoremTwoGroupBound(result.plan, num_sites,
                                               result.table.num_rows());
    EXPECT_LE(result.metrics.GroupsToSites() + result.metrics.GroupsToCoord(),
              bound);
  }

  // Tree coordinator spot check (it requires full participation, which
  // site exclusion may have removed).
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(q.expr, random_options));
  bool full_participation = plan.base_sites.empty();
  for (const PlanRound& round : plan.rounds) {
    if (!round.participating_sites.empty()) full_participation = false;
  }
  if (full_participation) {
    const int fan_in = static_cast<int>(rng.Uniform(2, 4));
    ASSERT_OK_AND_ASSIGN(QueryResult tree, wh.ExecutePlanTree(plan, fan_in));
    ExpectSameRows(tree.table, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPropertyTest, ::testing::Range(0, 72));

/// Fault-randomized variant: under an arbitrary *recoverable* fault
/// schedule (random message loss bounded below the retry budget, plus a
/// random straggler), every optimizer configuration must still reproduce
/// the centralized evaluation exactly — faults may only change the cost
/// metrics. Theorem 2's transfer bound is checked against the *logical*
/// traffic, i.e. total groups minus the retry surcharge, because
/// retransmissions are real wire traffic the theorem does not model.
class FuzzFaultPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzFaultPropertyTest, FaultsNeverChangeAnswers) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);

  const int num_sites = static_cast<int>(rng.Uniform(1, 5));
  const int64_t rows = rng.Uniform(0, 400);
  Table data = RandomTable(&rng, rows);

  NetworkConfig net;
  net.retry.max_attempts = 4;
  Warehouse wh(num_sites, net);
  if (rng.Chance(0.5)) {
    ASSERT_OK(wh.LoadByRange("T", data, "g1", 0, 7, {"g1", "g2", "v2"}));
  } else {
    ASSERT_OK(wh.LoadByHash("T", data, "g2"));
  }

  const FuzzQuery q = RandomQuery(&rng);
  SCOPED_TRACE(GmdjExprToString(q.expr));

  ASSERT_OK_AND_ASSIGN(Table expected, wh.ExecuteCentralized(q.expr));

  // Messages drop with up to 40% probability on the first two attempts of
  // an exchange; attempts >= 2 always deliver, so a four-attempt policy
  // always recovers. One random site is a straggler (no deadlines are
  // configured, so it is merely slow).
  FaultInjector injector(static_cast<uint64_t>(GetParam()) * 31 + 5);
  injector.set_random_drop(0.1 + 0.3 * rng.Chance(0.5), /*max_attempt=*/2);
  injector.SlowSite(static_cast<int>(rng.Uniform(0, num_sites - 1)),
                    /*factor=*/1.0 + rng.Uniform(0, 9));
  wh.set_fault_injector(&injector);
  wh.set_parallel_site_execution(rng.Chance(0.5));

  for (const OptimizerOptions& options :
       {OptimizerOptions::None(), OptimizerOptions::All()}) {
    ASSERT_OK_AND_ASSIGN(QueryResult result, wh.Execute(q.expr, options));
    ExpectSameRows(result.table, expected);

    // Theorem 2 bounds the logical traffic; subtract the retry surcharge.
    const int64_t bound = TheoremTwoGroupBound(result.plan, num_sites,
                                               result.table.num_rows());
    EXPECT_LE(result.metrics.GroupsToSites() + result.metrics.GroupsToCoord() -
                  result.metrics.RetryGroupsToSites() -
                  result.metrics.RetryGroupsToCoord(),
              bound);
  }

  // Tree spot check under the same schedule.
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(q.expr, OptimizerOptions::None()));
  bool full_participation = plan.base_sites.empty();
  for (const PlanRound& round : plan.rounds) {
    if (!round.participating_sites.empty()) full_participation = false;
  }
  if (full_participation) {
    ASSERT_OK_AND_ASSIGN(QueryResult tree, wh.ExecutePlanTree(plan, 2));
    ExpectSameRows(tree.table, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFaultPropertyTest, ::testing::Range(0, 24));

// ---------------------------------------------------------------------------
// Vectorized-vs-scalar byte identity: for arbitrary single-operator GMDJ
// evaluations — including extreme doubles (NaN, ±inf, -0.0) and INT64
// extremes, which the theorem fuzz above deliberately avoids — the
// vectorized scan (options.vectorize) must reproduce the scalar scan
// bit-for-bit on the SKL1 wire image, for every join path, thread count,
// and morsel size.
// ---------------------------------------------------------------------------

Table RandomVectorizeBase(Rng* rng, int64_t rows) {
  Table t(MakeSchema({{"k", ValueType::kInt64},
                      {"ks", ValueType::kString},
                      {"lim", ValueType::kInt64}}));
  static const char* kStrings[] = {"alpha", "beta", "gamma", "delta"};
  for (int64_t i = 0; i < rows; ++i) {
    Row row;
    row.push_back(Value(rng->Uniform(0, 7)));
    row.push_back(Value(kStrings[rng->Uniform(0, 3)]));
    row.push_back(rng->Chance(0.05) ? Value::Null()
                                    : Value(rng->Uniform(-40, 40)));
    t.AddRow(std::move(row));
  }
  return t;
}

Table RandomVectorizeDetail(Rng* rng, int64_t rows) {
  Table t(MakeSchema({{"k", ValueType::kInt64},
                      {"ks", ValueType::kString},
                      {"v", ValueType::kInt64},
                      {"w", ValueType::kDouble}}));
  static const char* kStrings[] = {"alpha", "beta", "gamma", "delta"};
  for (int64_t i = 0; i < rows; ++i) {
    Row row;
    row.push_back(Value(rng->Uniform(0, 7)));
    row.push_back(rng->Chance(0.05) ? Value::Null()
                                    : Value(kStrings[rng->Uniform(0, 3)]));
    if (rng->Chance(0.06)) {
      row.push_back(Value::Null());
    } else if (rng->Chance(0.05)) {
      row.push_back(rng->Chance(0.5)
                        ? Value(std::numeric_limits<int64_t>::min())
                        : Value(std::numeric_limits<int64_t>::max()));
    } else {
      row.push_back(Value(rng->Uniform(-50, 50)));
    }
    if (rng->Chance(0.06)) {
      row.push_back(Value::Null());
    } else if (rng->Chance(0.1)) {
      const double extremes[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 -0.0};
      row.push_back(Value(extremes[rng->Uniform(0, 3)]));
    } else {
      row.push_back(Value(rng->UniformDouble(-100.0, 100.0)));
    }
    t.AddRow(std::move(row));
  }
  return t;
}

GmdjOp RandomVectorizeOp(Rng* rng) {
  GmdjOp op;
  op.detail_table = "T";
  const std::vector<std::string> inputs = {"v", "w"};
  const int num_blocks = static_cast<int>(rng->Uniform(1, 2));
  int counter = 0;
  for (int b = 0; b < num_blocks; ++b) {
    GmdjBlock block;
    const int num_aggs = static_cast<int>(rng->Uniform(1, 4));
    for (int a = 0; a < num_aggs; ++a) {
      const std::string output = "o" + std::to_string(counter++);
      switch (static_cast<int>(rng->Uniform(0, 7))) {
        case 0:
          block.aggs.push_back(AggSpec::Count(output));
          break;
        case 1:
          block.aggs.push_back(AggSpec::Sum(rng->Pick(inputs), output));
          break;
        case 2:
          block.aggs.push_back(AggSpec::Avg(rng->Pick(inputs), output));
          break;
        case 3:
          block.aggs.push_back(AggSpec::Min(rng->Pick(inputs), output));
          break;
        case 4:
          block.aggs.push_back(AggSpec::Var(rng->Pick(inputs), output));
          break;
        case 5:
          block.aggs.push_back(AggSpec::StdDev(rng->Pick(inputs), output));
          break;
        default:
          block.aggs.push_back(AggSpec::Max(rng->Pick(inputs), output));
          break;
      }
    }
    std::vector<ExprPtr> conjuncts;
    switch (static_cast<int>(rng->Uniform(0, 3))) {
      case 0:  // equi-key θ (hash path); sometimes a string key,
               // exercising the dictionary-hash typed probe
        if (rng->Chance(0.3)) {
          conjuncts.push_back(Eq(BCol("ks"), RCol("ks")));
        } else {
          conjuncts.push_back(Eq(BCol("k"), RCol("k")));
        }
        break;
      case 1:  // pure inequality θ (nested-loop path)
        conjuncts.push_back(
            Le(RCol("v"), Add(BCol("lim"), Lit(Value(rng->Uniform(0, 60))))));
        break;
      default:  // equi-key plus a residual with doubles and strings
        conjuncts.push_back(Eq(BCol("k"), RCol("k")));
        if (rng->Chance(0.5)) {
          conjuncts.push_back(
              Gt(RCol("w"), Lit(Value(rng->UniformDouble(-60.0, 60.0)))));
        } else {
          conjuncts.push_back(Eq(RCol("ks"), Lit(Value("beta"))));
        }
        break;
    }
    if (rng->Chance(0.4)) {
      conjuncts.push_back(
          Ge(Mul(RCol("v"), Lit(Value(rng->Uniform(0, 2)))),
             Lit(Value(rng->Uniform(-20, 20)))));
    }
    // String ordering against a literal: batch-supported via the
    // per-dictionary order index (rank compares, not string compares).
    if (rng->Chance(0.2)) {
      static const char* kPivots[] = {"", "alpha", "bet", "beta", "gamma",
                                      "zz"};
      const std::string pivot = kPivots[rng->Uniform(0, 5)];
      switch (static_cast<int>(rng->Uniform(0, 3))) {
        case 0:
          conjuncts.push_back(Lt(RCol("ks"), Lit(Value(pivot))));
          break;
        case 1:
          conjuncts.push_back(Ge(RCol("ks"), Lit(Value(pivot))));
          break;
        default:  // constant on the left: the compare direction flips
          conjuncts.push_back(Le(Lit(Value(pivot)), RCol("ks")));
          break;
      }
    }
    // String ordering against a *runtime* constant (the base row's string,
    // unknowable statically): also order-index batched now, including the
    // NULL-constant and numeric-vs-string cases the base side can produce.
    if (rng->Chance(0.15)) {
      conjuncts.push_back(Lt(RCol("ks"), BCol("ks")));
    }
    block.theta = AndAll(conjuncts);
    op.blocks.push_back(std::move(block));
  }
  return op;
}

class FuzzVectorizeTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzVectorizeTest, VectorizedScanIsByteIdenticalToScalar) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 50021 + 3);

  Table base = RandomVectorizeBase(&rng, rng.Uniform(0, 24));
  Table detail = RandomVectorizeDetail(&rng, rng.Uniform(0, 500));
  const GmdjOp op = RandomVectorizeOp(&rng);

  for (const AggMode mode : {AggMode::kFinal, AggMode::kSub}) {
    LocalGmdjOptions options;
    options.mode = mode;
    options.touched_only = rng.Chance(0.5);
    options.carry_cols = {"k"};

    // The byte-identity contract is per configuration: flipping ONLY the
    // vectorize bit must change nothing, for any thread count and morsel
    // grid. (With non-integral doubles, different morsel grids may
    // legitimately differ from each other through FP accumulation order;
    // that is the documented determinism model, not a vectorization
    // property.)
    for (const int threads : {1, 2, 4}) {
      options.num_threads = threads;
      options.morsel_rows = threads == 1 ? 0 : rng.Uniform(16, 128);
      options.vectorize = false;
      ASSERT_OK_AND_ASSIGN(Table scalar, EvalGmdjOp(base, detail, op, options));
      options.vectorize = true;
      ASSERT_OK_AND_ASSIGN(Table vectorized,
                           EvalGmdjOp(base, detail, op, options));
      EXPECT_EQ(EncodeSkl1(vectorized), EncodeSkl1(scalar))
          << "threads=" << threads
          << " mode=" << (mode == AggMode::kFinal ? "final" : "sub");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzVectorizeTest, ::testing::Range(0, 48));

// ---------------------------------------------------------------------------
// Wire-format round-trip properties: arbitrary tables — including NaN/±inf
// doubles, -0.0, empty and multi-KB strings, and all-null columns — must
// survive SKL2 and the SKL1 decoder (fed by the tests' SKL1 encoder)
// bit-exactly, and an SKLD delta against an arbitrary row-prefix base must
// always decode back to the original. Bit-exactness is asserted on the
// canonical SKL1 byte string (Value equality would treat NaN as unequal to
// itself).
// ---------------------------------------------------------------------------

Value ExtremeValue(Rng* rng, ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      switch (static_cast<int>(rng->Uniform(0, 3))) {
        case 0:
          return Value(std::numeric_limits<int64_t>::min());
        case 1:
          return Value(std::numeric_limits<int64_t>::max());
        default:
          return Value(rng->Uniform(-1000000000, 1000000000));
      }
    case ValueType::kDouble:
      switch (static_cast<int>(rng->Uniform(0, 5))) {
        case 0:
          return Value(std::numeric_limits<double>::quiet_NaN());
        case 1:
          return Value(std::numeric_limits<double>::infinity());
        case 2:
          return Value(-std::numeric_limits<double>::infinity());
        case 3:
          return Value(-0.0);
        default:
          return Value(rng->UniformDouble(-1e18, 1e18));
      }
    default:
      switch (static_cast<int>(rng->Uniform(0, 3))) {
        case 0:
          return Value(std::string());
        case 1:  // multi-KB payload
          return Value(rng->AlphaString(
              static_cast<int>(rng->Uniform(2048, 4096))));
        default:
          return Value(
              rng->AlphaString(static_cast<int>(rng->Uniform(0, 12))));
      }
  }
}

class WireFormatFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(WireFormatFuzzTest, BothFormatsRoundTripBitExactly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761ull + 17);

  const int ncols = static_cast<int>(rng.Uniform(1, 4));
  std::vector<Field> fields;
  std::vector<bool> all_null;
  for (int c = 0; c < ncols; ++c) {
    fields.push_back(Field{"c" + std::to_string(c),
                           static_cast<ValueType>(rng.Uniform(1, 3))});
    all_null.push_back(rng.Chance(0.15));
  }
  Table t(MakeSchema(fields));
  const int64_t rows = rng.Uniform(0, 60);
  for (int64_t r = 0; r < rows; ++r) {
    Row row;
    for (int c = 0; c < ncols; ++c) {
      if (all_null[static_cast<size_t>(c)] || rng.Chance(0.1)) {
        row.push_back(Value::Null());
      } else {
        row.push_back(
            ExtremeValue(&rng, fields[static_cast<size_t>(c)].type));
      }
    }
    t.AddRow(std::move(row));
  }

  const std::string canonical = EncodeSkl1(t);
  const uint64_t hash = Serializer::ContentHash(t);
  EXPECT_EQ(canonical.size(), Serializer::Skl1Size(t));
  const std::string skl2 = Serializer::SerializeTable(t);
  EXPECT_EQ(skl2.size(), Serializer::WireSize(t));

  for (const bool skl1 : {true, false}) {
    SCOPED_TRACE(skl1 ? "SKL1" : "SKL2");
    const std::string& bytes = skl1 ? canonical : skl2;
    ASSERT_OK_AND_ASSIGN(Table decoded, Serializer::DeserializeTable(bytes));
    EXPECT_EQ(EncodeSkl1(decoded), canonical);
    EXPECT_EQ(Serializer::ContentHash(decoded), hash);
  }

  // Delta against a random row-prefix of itself (the coordinator's cache
  // shape) always reproduces the full table.
  Table base(t.schema_ptr());
  const int64_t keep = rng.Uniform(0, rows);
  for (int64_t r = 0; r < keep; ++r) {
    Row row;
    for (int c = 0; c < ncols; ++c) row.push_back(t.Get(r, c));
    base.AddRow(std::move(row));
  }
  const std::string delta = Serializer::SerializeDelta(base, t);
  ASSERT_OK_AND_ASSIGN(Table patched,
                       Serializer::DecodeShipment(&base, delta));
  EXPECT_EQ(EncodeSkl1(patched), canonical);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFormatFuzzTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace skalla
