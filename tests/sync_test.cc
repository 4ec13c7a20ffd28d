// Unit tests for the Theorem-1 synchronization helpers (dist/sync.h) —
// including the associativity property that makes multi-tier merging
// correct: combining sub-results in any grouping yields the same relation.

#include "dist/sync.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "test_util.h"

namespace skalla {
namespace {

SchemaMap TinySchemas() {
  SchemaMap schemas;
  schemas["T"] = MakeTinyTable().schema_ptr();
  return schemas;
}

std::vector<GmdjOp> OneOp() {
  GmdjOp op;
  op.detail_table = "T";
  GmdjBlock block;
  block.aggs = {AggSpec::Count("c"), AggSpec::Avg("v", "a"),
                AggSpec::Min("v", "lo")};
  block.theta = Eq(BCol("g"), RCol("g"));
  op.blocks.push_back(block);
  return {op};
}

TEST(BuildSubSlotsTest, LayoutAndWidth) {
  int width = 0;
  ASSERT_OK_AND_ASSIGN(std::vector<SubSlot> slots,
                       BuildSubSlots(OneOp(), TinySchemas(), &width));
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_EQ(width, 4);  // count(1) + avg(2) + min(1)
  EXPECT_EQ(slots[0].offset, 0);
  EXPECT_EQ(slots[1].offset, 1);
  EXPECT_EQ(slots[1].arity, 2);
  EXPECT_EQ(slots[2].offset, 3);
  EXPECT_EQ(slots[2].final_field.name, "lo");
}

TEST(BuildSubSlotsTest, UnknownRelationRejected) {
  int width = 0;
  EXPECT_FALSE(BuildSubSlots(OneOp(), SchemaMap{}, &width).ok());
}

/// H schema for OneOp: g + c + a__sum + a__cnt + lo.
SchemaPtr HSchema() {
  return MakeSchema({{"g", ValueType::kInt64},
                     {"c", ValueType::kInt64},
                     {"a__sum", ValueType::kInt64},
                     {"a__cnt", ValueType::kInt64},
                     {"lo", ValueType::kInt64}});
}

Table MakeH(std::vector<std::array<int64_t, 5>> rows) {
  Table t(HSchema());
  for (const auto& r : rows) {
    t.AddRow({Value(r[0]), Value(r[1]), Value(r[2]), Value(r[3]),
              Value(r[4])});
  }
  return t;
}

TEST(CombineSubResultsTest, MergesByKey) {
  int width = 0;
  ASSERT_OK_AND_ASSIGN(std::vector<SubSlot> slots,
                       BuildSubSlots(OneOp(), TinySchemas(), &width));
  const Table h1 = MakeH({{1, 2, 10, 2, 4}, {2, 1, 5, 1, 5}});
  const Table h2 = MakeH({{1, 3, 12, 3, 2}, {3, 1, 7, 1, 7}});
  ASSERT_OK_AND_ASSIGN(Table combined,
                       CombineSubResults({&h1, &h2}, 1, slots));
  const Table expected =
      MakeH({{1, 5, 22, 5, 2}, {2, 1, 5, 1, 5}, {3, 1, 7, 1, 7}});
  ExpectSameRows(combined, expected);
}

TEST(CombineSubResultsTest, EmptyAndSingleInputs) {
  int width = 0;
  ASSERT_OK_AND_ASSIGN(std::vector<SubSlot> slots,
                       BuildSubSlots(OneOp(), TinySchemas(), &width));
  EXPECT_FALSE(CombineSubResults({}, 1, slots).ok());
  const Table h = MakeH({{1, 2, 10, 2, 4}});
  ASSERT_OK_AND_ASSIGN(Table combined, CombineSubResults({&h}, 1, slots));
  ExpectSameRows(combined, h);
}

TEST(CombineSubResultsTest, SchemaMismatchRejected) {
  int width = 0;
  ASSERT_OK_AND_ASSIGN(std::vector<SubSlot> slots,
                       BuildSubSlots(OneOp(), TinySchemas(), &width));
  const Table h = MakeH({{1, 2, 10, 2, 4}});
  Table wrong(MakeSchema({{"g", ValueType::kInt64}}));
  wrong.AddRow({Value(1)});
  EXPECT_FALSE(CombineSubResults({&h, &wrong}, 1, slots).ok());
}

TEST(CombineSubResultsTest, AssociativityProperty) {
  // Theorem 1 composes: combine(combine(a,b),c) == combine(a,b,c) ==
  // combine(a,combine(b,c)) as multisets, for random inputs.
  int width = 0;
  ASSERT_OK_AND_ASSIGN(std::vector<SubSlot> slots,
                       BuildSubSlots(OneOp(), TinySchemas(), &width));
  Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    auto random_h = [&rng]() {
      std::vector<std::array<int64_t, 5>> rows;
      const int64_t n = rng.Uniform(0, 10);
      for (int64_t i = 0; i < n; ++i) {
        const int64_t cnt = rng.Uniform(1, 5);
        rows.push_back({rng.Uniform(0, 5), cnt, rng.Uniform(-20, 20), cnt,
                        rng.Uniform(-9, 9)});
      }
      return MakeH(std::move(rows));
    };
    const Table a = random_h();
    const Table b = random_h();
    const Table c = random_h();

    ASSERT_OK_AND_ASSIGN(Table all, CombineSubResults({&a, &b, &c}, 1, slots));
    ASSERT_OK_AND_ASSIGN(Table ab, CombineSubResults({&a, &b}, 1, slots));
    ASSERT_OK_AND_ASSIGN(Table ab_c, CombineSubResults({&ab, &c}, 1, slots));
    ASSERT_OK_AND_ASSIGN(Table bc, CombineSubResults({&b, &c}, 1, slots));
    ASSERT_OK_AND_ASSIGN(Table a_bc, CombineSubResults({&a, &bc}, 1, slots));
    ExpectSameRows(ab_c, all);
    ExpectSameRows(a_bc, all);
  }
}

// The base round merges B_i relations through the same fold with no
// sub-aggregates: a duplicate-eliminating union of the keys.
TEST(CombineSubResultsTest, NoSlotsIsADistinctUnion) {
  Table a(MakeSchema({{"g", ValueType::kInt64}}));
  a.AddRow({Value(1)});
  a.AddRow({Value(2)});
  Table b(MakeSchema({{"g", ValueType::kInt64}}));
  b.AddRow({Value(2)});
  b.AddRow({Value(3)});
  ASSERT_OK_AND_ASSIGN(Table merged, CombineSubResults({&a, &b}, 1, {}));
  EXPECT_EQ(merged.num_rows(), 3);
}

}  // namespace
}  // namespace skalla
