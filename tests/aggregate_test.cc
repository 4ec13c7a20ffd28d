#include "agg/aggregate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "test_util.h"

namespace skalla {
namespace {

TEST(AggSpecTest, Factories) {
  EXPECT_TRUE(AggSpec::Count("c").is_count_star());
  EXPECT_FALSE(AggSpec::CountCol("x", "c").is_count_star());
  EXPECT_EQ(AggSpec::Sum("v", "s").ToString(), "sum(v) -> s");
  EXPECT_EQ(AggSpec::Avg("v", "a").func, AggFunc::kAvg);
}

TEST(AggSpecTest, FromString) {
  ASSERT_OK_AND_ASSIGN(AggFunc f, AggFuncFromString("AVG"));
  EXPECT_EQ(f, AggFunc::kAvg);
  EXPECT_FALSE(AggFuncFromString("median").ok());
}

TEST(AggStateTest, CountStarCountsEverything) {
  AggState state(AggFunc::kCount);
  for (int i = 0; i < 5; ++i) state.Update(Value(1));
  EXPECT_EQ(state.Final(), Value(5));
}

TEST(AggStateTest, CountColumnSkipsNulls) {
  AggState state(AggFunc::kCount);
  state.Update(Value(7));
  state.Update(Value::Null());
  state.Update(Value(9));
  EXPECT_EQ(state.Final(), Value(2));
}

TEST(AggStateTest, SumIntStaysInt) {
  AggState state(AggFunc::kSum);
  state.Update(Value(3));
  state.Update(Value(4));
  const Value v = state.Final();
  EXPECT_TRUE(v.is_int64());
  EXPECT_EQ(v, Value(7));
}

TEST(AggStateTest, SumMixedPromotesToDouble) {
  AggState state(AggFunc::kSum);
  state.Update(Value(3));
  state.Update(Value(0.5));
  EXPECT_TRUE(state.Final().is_double());
  EXPECT_DOUBLE_EQ(state.Final().AsDouble(), 3.5);
}

TEST(AggStateTest, EmptySumIsNull) {
  AggState state(AggFunc::kSum);
  EXPECT_TRUE(state.Final().is_null());
}

TEST(AggStateTest, EmptyCountIsZero) {
  AggState state(AggFunc::kCount);
  EXPECT_EQ(state.Final(), Value(int64_t{0}));
}

TEST(AggStateTest, MinMax) {
  AggState min_state(AggFunc::kMin);
  AggState max_state(AggFunc::kMax);
  for (int64_t v : {5, 2, 9, 2}) {
    min_state.Update(Value(v));
    max_state.Update(Value(v));
  }
  EXPECT_EQ(min_state.Final(), Value(2));
  EXPECT_EQ(max_state.Final(), Value(9));
}

TEST(AggStateTest, MinMaxStrings) {
  AggState min_state(AggFunc::kMin);
  AggState max_state(AggFunc::kMax);
  for (const char* s : {"pear", "apple", "plum"}) {
    min_state.Update(Value(s));
    max_state.Update(Value(s));
  }
  EXPECT_EQ(min_state.Final(), Value("apple"));
  EXPECT_EQ(max_state.Final(), Value("plum"));
}

TEST(AggStateTest, AvgIsRealValued) {
  AggState state(AggFunc::kAvg);
  state.Update(Value(1));
  state.Update(Value(2));
  EXPECT_DOUBLE_EQ(state.Final().AsDouble(), 1.5);
}

TEST(AggStateTest, EmptyAvgIsNull) {
  AggState state(AggFunc::kAvg);
  EXPECT_TRUE(state.Final().is_null());
}

TEST(SubAggregateTest, Arity) {
  EXPECT_EQ(SubArity(AggFunc::kCount), 1);
  EXPECT_EQ(SubArity(AggFunc::kSum), 1);
  EXPECT_EQ(SubArity(AggFunc::kMin), 1);
  EXPECT_EQ(SubArity(AggFunc::kMax), 1);
  EXPECT_EQ(SubArity(AggFunc::kAvg), 2);
  EXPECT_EQ(SubArity(AggFunc::kVar), 3);
  EXPECT_EQ(SubArity(AggFunc::kStdDev), 3);
}

TEST(SubAggregateTest, FieldsAndTypes) {
  const Schema detail({{"v", ValueType::kInt64},
                       {"w", ValueType::kDouble},
                       {"s", ValueType::kString}});
  ASSERT_OK_AND_ASSIGN(Field count_f,
                       FinalFieldFor(AggSpec::Count("c"), detail));
  EXPECT_EQ(count_f.type, ValueType::kInt64);
  ASSERT_OK_AND_ASSIGN(Field sum_f,
                       FinalFieldFor(AggSpec::Sum("w", "s1"), detail));
  EXPECT_EQ(sum_f.type, ValueType::kDouble);
  ASSERT_OK_AND_ASSIGN(Field avg_f,
                       FinalFieldFor(AggSpec::Avg("v", "a1"), detail));
  EXPECT_EQ(avg_f.type, ValueType::kDouble);
  ASSERT_OK_AND_ASSIGN(Field min_f,
                       FinalFieldFor(AggSpec::Min("s", "m1"), detail));
  EXPECT_EQ(min_f.type, ValueType::kString);

  ASSERT_OK_AND_ASSIGN(std::vector<Field> avg_subs,
                       SubFieldsFor(AggSpec::Avg("v", "a1"), detail));
  ASSERT_EQ(avg_subs.size(), 2u);
  EXPECT_EQ(avg_subs[0].name, "a1__sum");
  EXPECT_EQ(avg_subs[1].name, "a1__cnt");
  EXPECT_EQ(avg_subs[1].type, ValueType::kInt64);
}

TEST(SubAggregateTest, SumOverStringRejected) {
  const Schema detail({{"s", ValueType::kString}});
  EXPECT_FALSE(FinalFieldFor(AggSpec::Sum("s", "x"), detail).ok());
  EXPECT_FALSE(SubFieldsFor(AggSpec::Avg("s", "x"), detail).ok());
}

TEST(SubAggregateTest, MissingInputColumnRejected) {
  const Schema detail({{"v", ValueType::kInt64}});
  EXPECT_FALSE(FinalFieldFor(AggSpec::Sum("nope", "x"), detail).ok());
}

// ---------------------------------------------------------------------------
// The Theorem 1 decomposition property: merging any partition of the input
// through sub/super aggregates equals aggregating the whole multiset.
// ---------------------------------------------------------------------------

class DecompositionPropertyTest : public ::testing::TestWithParam<AggFunc> {};

TEST_P(DecompositionPropertyTest, MergeOfPartitionsEqualsWhole) {
  const AggFunc func = GetParam();
  Rng rng(1234 + static_cast<uint64_t>(func));
  for (int trial = 0; trial < 50; ++trial) {
    const int64_t n = rng.Uniform(0, 60);
    std::vector<Value> values;
    for (int64_t i = 0; i < n; ++i) {
      if (rng.Chance(0.15)) {
        values.push_back(Value::Null());
      } else {
        values.push_back(Value(rng.Uniform(-50, 50)));
      }
    }

    // Whole-multiset aggregation.
    AggState whole(func);
    for (const Value& v : values) whole.Update(v);

    // Random partition into up to 5 parts, each aggregated separately and
    // merged through the sub/super value interface.
    const int parts = static_cast<int>(rng.Uniform(1, 5));
    std::vector<AggState> part_states(static_cast<size_t>(parts),
                                      AggState(func));
    for (const Value& v : values) {
      part_states[static_cast<size_t>(rng.Uniform(0, parts - 1))].Update(v);
    }
    std::vector<Value> acc(static_cast<size_t>(SubArity(func)));
    InitSubValues(func, acc.data());
    for (const AggState& state : part_states) {
      std::vector<Value> sub;
      state.EmitSub(&sub);
      MergeSubValues(func, sub.data(), acc.data());
    }
    const Value merged = FinalizeSubValues(func, acc.data());
    const Value expected = whole.Final();

    if (expected.is_null()) {
      EXPECT_TRUE(merged.is_null()) << AggFuncToString(func);
    } else {
      EXPECT_EQ(merged, expected)
          << AggFuncToString(func) << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFunctions, DecompositionPropertyTest,
                         ::testing::Values(AggFunc::kCount, AggFunc::kSum,
                                           AggFunc::kMin, AggFunc::kMax,
                                           AggFunc::kAvg, AggFunc::kVar,
                                           AggFunc::kStdDev),
                         [](const ::testing::TestParamInfo<AggFunc>& info) {
                           return AggFuncToString(info.param);
                         });

TEST(SubAggregateTest, InitValuesAreIdentities) {
  for (AggFunc func : {AggFunc::kCount, AggFunc::kSum, AggFunc::kMin,
                       AggFunc::kMax, AggFunc::kAvg, AggFunc::kVar,
                       AggFunc::kStdDev}) {
    std::vector<Value> identity(static_cast<size_t>(SubArity(func)));
    InitSubValues(func, identity.data());
    // Merging a sub-result into the identity must reproduce it.
    AggState state(func);
    state.Update(Value(3));
    state.Update(Value(5));
    std::vector<Value> sub;
    state.EmitSub(&sub);
    std::vector<Value> acc = identity;
    MergeSubValues(func, sub.data(), acc.data());
    EXPECT_EQ(FinalizeSubValues(func, acc.data()), state.Final())
        << AggFuncToString(func);
  }
}

// The super-aggregate step per carrier: MIN and MAX keep the accumulator
// on a tie (int64 5 vs double 5.0, -0.0 vs 0, NaN vs anything), NULL never
// wins; Add adopts across NULL, wraps int64, promotes a mixed pair to
// double and keeps the accumulator's NaN.
TEST(SubAggregateTest, MergeCarrierTiesAndAddRules) {
  auto merge = [](CarrierOp op, Value acc, const Value& sub) {
    MergeCarrier(op, sub, &acc);
    return acc;
  };
  for (CarrierOp op : {CarrierOp::kMin, CarrierOp::kMax}) {
    EXPECT_TRUE(merge(op, Value(int64_t{5}), Value(5.0)).is_int64());
    EXPECT_TRUE(merge(op, Value(5.0), Value(int64_t{5})).is_double());
    EXPECT_TRUE(std::signbit(merge(op, Value(-0.0), Value(0.0)).AsDouble()));
    EXPECT_TRUE(std::isnan(merge(op, Value(std::nan("")), Value(1.0))
                               .AsDouble()));
    EXPECT_EQ(merge(op, Value(int64_t{3}), Value::Null()), Value(int64_t{3}));
    EXPECT_EQ(merge(op, Value::Null(), Value("x")), Value("x"));
  }
  EXPECT_EQ(merge(CarrierOp::kMin, Value(int64_t{3}), Value("a")),
            Value(int64_t{3}));  // numerics order before strings
  EXPECT_EQ(merge(CarrierOp::kMax, Value(int64_t{3}), Value("a")), Value("a"));

  const int64_t max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(merge(CarrierOp::kAdd, Value(max), Value(int64_t{1})),
            Value(std::numeric_limits<int64_t>::min()));
  EXPECT_TRUE(merge(CarrierOp::kAdd, Value(int64_t{2}), Value(0.5))
                  .is_double());
  EXPECT_TRUE(std::signbit(
      merge(CarrierOp::kAdd, Value::Null(), Value(-0.0)).AsDouble()));
  const double acc_nan = -std::nan("");
  const Value sum = merge(CarrierOp::kAdd, Value(acc_nan), Value(std::nan("")));
  EXPECT_TRUE(std::signbit(sum.AsDouble()));  // the accumulator's NaN
  EXPECT_EQ(merge(CarrierOp::kAdd, Value(int64_t{4}), Value::Null()),
            Value(int64_t{4}));
}

}  // namespace
}  // namespace skalla
