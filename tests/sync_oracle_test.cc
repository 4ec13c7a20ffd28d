// Pins the column-at-a-time SubResultFold (dist/sync.h) and the
// GroupMap-keyed DistinctProject to the row-at-a-time code they replaced
// (sync_oracle.h): over seeded random replies, the fold must produce the
// same X — same rows in the same order, bit for bit (ContentHash) — as the
// root's old row-at-a-time merge and row-copy finalize, and the same H as the
// aggregators' old CombineSubResults. The replies mix every edge the
// super-aggregates care about: NULL carriers, NaN / -0.0 / ±inf doubles,
// int64 carriers at the wrap boundary, int64 and double in one carrier,
// strings in MIN/MAX, duplicate and composite keys, 5 vs 5.0 keys, and
// NULL and NaN keys.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "dist/sync.h"
#include "engine/operators.h"
#include "storage/serializer.h"
#include "sync_oracle.h"
#include "test_util.h"

namespace skalla {
namespace {

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kMaxInt = std::numeric_limits<int64_t>::max();
constexpr int64_t kMinInt = std::numeric_limits<int64_t>::min();

/// Every aggregate function once: COUNT, SUM, MIN, MAX, AVG (2 carriers),
/// VAR and STDDEV (3 each) — 12 carriers.
std::vector<SubSlot> AllSlots(int* sub_width) {
  const std::vector<std::pair<AggFunc, Field>> specs = {
      {AggFunc::kCount, {"c", ValueType::kInt64}},
      {AggFunc::kSum, {"s", ValueType::kDouble}},
      {AggFunc::kMin, {"lo", ValueType::kString}},
      {AggFunc::kMax, {"hi", ValueType::kString}},
      {AggFunc::kAvg, {"a", ValueType::kDouble}},
      {AggFunc::kVar, {"v", ValueType::kDouble}},
      {AggFunc::kStdDev, {"sd", ValueType::kDouble}}};
  std::vector<SubSlot> slots;
  int width = 0;
  for (const auto& [func, field] : specs) {
    slots.push_back(SubSlot{func, width, SubArity(func), field});
    width += SubArity(func);
  }
  *sub_width = width;
  return slots;
}

/// Seeded random replies over a key width and a slot layout.
class ReplyGen {
 public:
  ReplyGen(uint64_t seed, int num_key, const std::vector<SubSlot>* slots,
           int sub_width, bool null_counts)
      : rng_(seed),
        num_key_(num_key),
        slots_(slots),
        sub_width_(sub_width),
        null_counts_(null_counts) {
    std::vector<Field> fields;
    for (int c = 0; c < num_key_ + sub_width_; ++c) {
      fields.push_back(Field{"f" + std::to_string(c), ValueType::kInt64});
    }
    schema_ = MakeSchema(std::move(fields));
  }

  Rng& rng() { return rng_; }
  SchemaPtr key_schema() const {
    std::vector<Field> fields(schema_->fields().begin(),
                              schema_->fields().begin() + num_key_);
    return MakeSchema(std::move(fields));
  }

  /// A key value: small ints, 5 and 5.0, 0 and -0.0, NULL, NaN, strings.
  Value KeyValue() {
    static const std::vector<Value> pool = {
        Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{5}), Value(5.0),
        Value(int64_t{0}), Value(-0.0),       Value::Null(),     Value(kNaN),
        Value("a"),        Value("b"),        Value(2.5)};
    return rng_.Pick(pool);
  }

  /// A reply of up to `max_rows` rows; keys come from `keys` when given
  /// (an X round's replies name X's groups), else from KeyValue().
  Table Reply(int64_t max_rows, const std::vector<Row>* keys = nullptr) {
    Table t(schema_);
    const int64_t n = rng_.Uniform(0, max_rows);
    for (int64_t r = 0; r < n; ++r) {
      Row row;
      if (keys != nullptr) {
        row = rng_.Pick(*keys);
      } else {
        for (int c = 0; c < num_key_; ++c) row.push_back(KeyValue());
      }
      if (slots_ != nullptr) {
        for (const SubSlot& slot : *slots_) {
          for (int i = 0; i < slot.arity; ++i) {
            row.push_back(Carrier(slot.func, i));
          }
        }
      }
      t.AddRow(std::move(row));
    }
    return t;
  }

 private:
  Value Carrier(AggFunc func, int i) {
    if (func == AggFunc::kMin || func == AggFunc::kMax) return Extreme();
    const bool count = func == AggFunc::kCount ||
                       (func != AggFunc::kSum && i == SubArity(func) - 1);
    return count ? Count() : Addend();
  }

  Value Count() {
    if (null_counts_ && rng_.Chance(0.1)) return Value::Null();
    return rng_.Chance(0.2) ? Value(kMaxInt - rng_.Uniform(0, 3))
                            : Value(rng_.Uniform(0, 5));
  }

  /// SUM and the sum/sum-of-squares carriers: int64 and double mixed.
  Value Addend() {
    switch (rng_.Uniform(0, 10)) {
      case 0:
        return Value::Null();
      case 1:
        return Value(kMaxInt - rng_.Uniform(0, 3));
      case 2:
        return Value(kMinInt + rng_.Uniform(0, 3));
      case 3:
        return Value(rng_.Chance(0.5) ? kNaN : -kNaN);
      case 4:
        return Value(-0.0);
      case 5:
        return Value(rng_.Chance(0.5) ? kInf : -kInf);
      case 6:
        return Value(rng_.UniformDouble(-10, 10));
      default:
        return Value(rng_.Uniform(-20, 20));
    }
  }

  /// MIN/MAX carriers: strings, numbers of both types, NaN, NULL.
  Value Extreme() {
    switch (rng_.Uniform(0, 6)) {
      case 0:
        return Value::Null();
      case 1:
        return Value(rng_.AlphaString(static_cast<int>(rng_.Uniform(0, 3))));
      case 2:
        return Value(kNaN);
      case 3:
        return Value(-0.0);
      case 4:
        return Value(rng_.UniformDouble(-5, 5));
      default:
        return Value(rng_.Uniform(-5, 5));
    }
  }

  Rng rng_;
  int num_key_;
  const std::vector<SubSlot>* slots_;
  int sub_width_;
  bool null_counts_;
  SchemaPtr schema_;
};

std::vector<const Table*> Pointers(const std::vector<Table>& tables) {
  std::vector<const Table*> out;
  for (const Table& t : tables) out.push_back(&t);
  return out;
}

/// Same schema, same rows in the same order, bit for bit.
void ExpectIdentical(const Table& fold, const Table& oracle) {
  EXPECT_TRUE(fold.schema().Equals(oracle.schema()));
  ASSERT_EQ(fold.num_rows(), oracle.num_rows());
  EXPECT_EQ(Serializer::ContentHash(fold), Serializer::ContentHash(oracle))
      << "fold:\n"
      << fold.ToString(50) << "row-wise:\n"
      << oracle.ToString(50);
}

/// X's rows whose keys a site can name again: a NaN key equals nothing.
std::vector<Row> MatchableKeys(const Table& x, int num_key) {
  std::vector<Row> keys;
  for (const Row& row : x.rows()) {
    Row key(row.begin(), row.begin() + num_key);
    bool nan = false;
    for (const Value& v : key) nan |= v.is_double() && std::isnan(v.AsDouble());
    if (!nan) keys.push_back(std::move(key));
  }
  return keys;
}

// A plan-only round — the base query (no slots) or a round fused with it
// — builds X from nothing: groups in first-appearance order, each with
// every carrier folded from the identities.
TEST(SyncOracleTest, PlanOnlyRoundsMatchRowwise) {
  int width = 0;
  const std::vector<SubSlot> all = AllSlots(&width);
  for (int trial = 0; trial < 200; ++trial) {
    const int num_key = 1 + trial % 2;
    const bool base = trial % 3 == 0;
    const std::vector<SubSlot> slots = base ? std::vector<SubSlot>{} : all;
    const int sub_width = base ? 0 : width;
    ReplyGen gen(1000 + static_cast<uint64_t>(trial), num_key, &slots,
                 sub_width, /*null_counts=*/true);
    std::vector<Table> replies;
    for (int64_t i = gen.rng().Uniform(1, 4); i > 0; --i) {
      replies.push_back(gen.Reply(12));
    }
    const Table x(gen.key_schema());
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_OK_AND_ASSIGN(
        Table expected, SynchronizeRowwise(x, Pointers(replies), num_key,
                                           slots, sub_width, true));
    ASSERT_OK_AND_ASSIGN(
        Table actual, SynchronizeWithFold(x, Pointers(replies), num_key,
                                          slots, sub_width, true));
    ExpectIdentical(actual, expected);
  }
}

// X rounds merge into the groups X already has, and two in a row widen
// X's rows twice.
TEST(SyncOracleTest, XRoundsMatchRowwise) {
  int width = 0;
  const std::vector<SubSlot> slots = AllSlots(&width);
  for (int trial = 0; trial < 100; ++trial) {
    const int num_key = 1 + trial % 2;
    const std::vector<SubSlot> no_slots;
    ReplyGen base_gen(3000 + static_cast<uint64_t>(trial), num_key,
                      &no_slots, 0, true);
    std::vector<Table> b = {base_gen.Reply(16), base_gen.Reply(16)};
    ASSERT_OK_AND_ASSIGN(
        Table x, SynchronizeWithFold(Table(base_gen.key_schema()),
                                     Pointers(b), num_key, {}, 0, true));
    const std::vector<Row> keys = MatchableKeys(x, num_key);
    if (keys.empty()) continue;
    ReplyGen gen(4000 + static_cast<uint64_t>(trial), num_key, &slots, width,
                 /*null_counts=*/true);
    Table expected = x;
    Table actual = x;
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " round " +
                   std::to_string(round));
      std::vector<Table> replies;
      for (int64_t i = gen.rng().Uniform(1, 4); i > 0; --i) {
        replies.push_back(gen.Reply(12, &keys));
      }
      // Later rounds' slots carry new output names.
      std::vector<SubSlot> round_slots = slots;
      for (SubSlot& slot : round_slots) {
        slot.final_field.name += std::to_string(round);
      }
      ASSERT_OK_AND_ASSIGN(
          expected, SynchronizeRowwise(expected, Pointers(replies), num_key,
                                       round_slots, width, false));
      ASSERT_OK_AND_ASSIGN(
          actual, SynchronizeWithFold(actual, Pointers(replies), num_key,
                                      round_slots, width, false));
      ExpectIdentical(actual, expected);
    }
  }
}

// Outside a plan-only round a reply may only name X's groups; a NaN key
// names none, not even a NaN group of X's own.
TEST(SyncOracleTest, XRoundRejectsGroupsXLacks) {
  int width = 0;
  const std::vector<SubSlot> slots = AllSlots(&width);
  Table x(MakeSchema({{"f0", ValueType::kInt64}}));
  x.AddRow({Value(int64_t{1})});
  x.AddRow({Value(kNaN)});
  for (const Value& key : {Value(int64_t{2}), Value(kNaN), Value::Null()}) {
    ReplyGen gen(7, 1, &slots, width, false);
    const std::vector<Row> keys = {{key}};
    Table reply = gen.Reply(0);
    while (reply.num_rows() == 0) reply = gen.Reply(3, &keys);
    const Result<Table> expected =
        SynchronizeRowwise(x, {&reply}, 1, slots, width, false);
    const Result<Table> actual =
        SynchronizeWithFold(x, {&reply}, 1, slots, width, false);
    ASSERT_FALSE(expected.ok());
    ASSERT_FALSE(actual.ok());
    EXPECT_EQ(actual.status().code(), StatusCode::kInternal);
    EXPECT_EQ(actual.status().ToString(), expected.status().ToString());
  }
}

// An aggregator's combined H equals CombineSubResults' bit for bit, with
// and without slots. The fold starts every group at the identities where
// CombineSubResults copied a group's first row, so the two can differ only
// where identity + carrier != carrier: a NULL COUNT carrier (0 + NULL = 0),
// which no site emits — its counts are never NULL. These replies draw
// count carriers the way sites send them; the next test shows the
// difference and that X comes out the same either way.
TEST(SyncOracleTest, AggregatorMatchesCombineSubResults) {
  int width = 0;
  const std::vector<SubSlot> all = AllSlots(&width);
  for (int trial = 0; trial < 200; ++trial) {
    const int num_key = 1 + trial % 2;
    const bool base = trial % 4 == 0;
    const std::vector<SubSlot> slots = base ? std::vector<SubSlot>{} : all;
    const int sub_width = base ? 0 : width;
    ReplyGen gen(5000 + static_cast<uint64_t>(trial), num_key, &slots,
                 sub_width, /*null_counts=*/false);
    std::vector<Table> replies;
    for (int64_t i = gen.rng().Uniform(1, 4); i > 0; --i) {
      replies.push_back(gen.Reply(12));
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_OK_AND_ASSIGN(
        Table expected,
        CombineSubResultsRowwise(Pointers(replies), num_key, slots));
    ASSERT_OK_AND_ASSIGN(
        Table actual,
        CombineWithFold(Pointers(replies), num_key, slots, sub_width));
    ExpectIdentical(actual, expected);
  }
}

TEST(SyncOracleTest, NullCountCarrierIsTheOnlyAggregatorDifference) {
  const std::vector<SubSlot> slots = {
      SubSlot{AggFunc::kCount, 0, 1, Field{"c", ValueType::kInt64}}};
  Table h(MakeSchema({{"g", ValueType::kInt64}, {"c", ValueType::kInt64}}));
  h.AddRow({Value(int64_t{1}), Value::Null()});
  ASSERT_OK_AND_ASSIGN(Table rowwise, CombineSubResultsRowwise({&h}, 1, slots));
  ASSERT_OK_AND_ASSIGN(Table folded, CombineWithFold({&h}, 1, slots, 1));
  EXPECT_TRUE(rowwise.Get(0, 1).is_null());
  EXPECT_EQ(folded.Get(0, 1), Value(int64_t{0}));
  // The root folds either H from the identities, so X is the same.
  const Table x(MakeSchema({{"g", ValueType::kInt64}}));
  ASSERT_OK_AND_ASSIGN(Table from_rowwise,
                       SynchronizeWithFold(x, {&rowwise}, 1, slots, 1, true));
  ASSERT_OK_AND_ASSIGN(Table from_folded,
                       SynchronizeWithFold(x, {&folded}, 1, slots, 1, true));
  ExpectIdentical(from_folded, from_rowwise);
}

// int64 5 then double 5.0 is one group that keeps the int64, and the
// other way round keeps the double; within one reply and across replies.
TEST(SyncOracleTest, FirstRepresentationOfAKeyIsKept) {
  const std::vector<SubSlot> slots = {
      SubSlot{AggFunc::kSum, 0, 1, Field{"s", ValueType::kInt64}}};
  auto reply = [](std::vector<std::pair<Value, int64_t>> rows) {
    Table t(MakeSchema({{"g", ValueType::kDouble}, {"s", ValueType::kInt64}}));
    for (auto& [key, v] : rows) t.AddRow({key, Value(v)});
    return t;
  };
  const Table a = reply({{Value(int64_t{5}), 1}, {Value(5.0), 2}});
  const Table b = reply({{Value(5.0), 4}, {Value(int64_t{5}), 8}});
  const Table x(MakeSchema({{"g", ValueType::kDouble}}));
  for (const auto& order : std::vector<std::vector<const Table*>>{
           {&a, &b}, {&b, &a}}) {
    ASSERT_OK_AND_ASSIGN(Table actual,
                         SynchronizeWithFold(x, order, 1, slots, 1, true));
    ASSERT_OK_AND_ASSIGN(Table expected,
                         SynchronizeRowwise(x, order, 1, slots, 1, true));
    ExpectIdentical(actual, expected);
    ASSERT_EQ(actual.num_rows(), 1);
    EXPECT_EQ(actual.Get(0, 0).type(), order[0]->Get(0, 0).type());
    EXPECT_EQ(actual.Get(0, 1), Value(int64_t{15}));
    ASSERT_OK_AND_ASSIGN(Table combined, CombineWithFold(order, 1, slots, 1));
    EXPECT_EQ(combined.Get(0, 0).type(), order[0]->Get(0, 0).type());
  }
}

// NULL keys are one group; every NaN key is a group of its own.
TEST(SyncOracleTest, NullAndNaNKeys) {
  const std::vector<SubSlot> slots = {
      SubSlot{AggFunc::kCount, 0, 1, Field{"c", ValueType::kInt64}}};
  Table h(MakeSchema({{"g", ValueType::kDouble}, {"c", ValueType::kInt64}}));
  for (const Value& key : {Value::Null(), Value(kNaN), Value::Null(),
                           Value(kNaN), Value(1.0)}) {
    h.AddRow({key, Value(int64_t{1})});
  }
  const Table x(MakeSchema({{"g", ValueType::kDouble}}));
  ASSERT_OK_AND_ASSIGN(Table actual,
                       SynchronizeWithFold(x, {&h, &h}, 1, slots, 1, true));
  ASSERT_OK_AND_ASSIGN(Table expected,
                       SynchronizeRowwise(x, {&h, &h}, 1, slots, 1, true));
  ExpectIdentical(actual, expected);
  ASSERT_EQ(actual.num_rows(), 6);  // NULL, 4 NaNs, 1.0
  EXPECT_TRUE(actual.Get(0, 0).is_null());
  EXPECT_EQ(actual.Get(0, 1), Value(int64_t{4}));
}

// Each site's B_i: first-appearance order, NULL grouping with NULL, NaN
// never matching, 5 and 5.0 one key, composite keys — as the unordered_set
// version did.
TEST(DistinctProjectOracleTest, MatchesRowwiseReference) {
  for (int trial = 0; trial < 100; ++trial) {
    ReplyGen gen(6000 + static_cast<uint64_t>(trial), 3, nullptr, 0, true);
    Table t = gen.Reply(40);
    SCOPED_TRACE("trial " + std::to_string(trial));
    for (const std::vector<std::string>& cols :
         std::vector<std::vector<std::string>>{
             {"f0"}, {"f1", "f0"}, {"f2", "f0", "f1"}}) {
      ASSERT_OK_AND_ASSIGN(Table expected, DistinctProjectRowwise(t, cols));
      ASSERT_OK_AND_ASSIGN(Table actual, DistinctProject(t, cols));
      ExpectIdentical(actual, expected);
    }
  }
}

}  // namespace
}  // namespace skalla
