#include "engine/operators.h"

#include <gtest/gtest.h>

#include "expr/parser.h"
#include "test_util.h"

namespace skalla {
namespace {

ExprPtr MustParse(const std::string& text) {
  auto result = ParseExpr(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

TEST(ProjectTest, KeepsColumnsInRequestedOrder) {
  const Table t = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(Table p, Project(t, {"v", "g"}));
  EXPECT_EQ(p.schema().ToString(), "v:int64, g:int64");
  EXPECT_EQ(p.num_rows(), t.num_rows());
  EXPECT_EQ(p.Get(0, 0), Value(5));
  EXPECT_EQ(p.Get(0, 1), Value(1));
}

TEST(ProjectTest, MissingColumnFails) {
  EXPECT_FALSE(Project(MakeTinyTable(), {"nope"}).ok());
}

TEST(FilterTest, KeepsMatchingRows) {
  ASSERT_OK_AND_ASSIGN(Table f, Filter(MakeTinyTable(), MustParse("v >= 7")));
  EXPECT_EQ(f.num_rows(), 5);
  for (int64_t r = 0; r < f.num_rows(); ++r) {
    EXPECT_GE(f.Get(r, 2).AsInt64(), 7);
  }
}

TEST(FilterTest, NullPredicateRowsDropped) {
  Table t(MakeSchema({{"x", ValueType::kInt64}}));
  t.AddRow({Value(1)});
  t.AddRow({Value::Null()});
  ASSERT_OK_AND_ASSIGN(Table f, Filter(t, MustParse("x > 0")));
  EXPECT_EQ(f.num_rows(), 1);
}

TEST(DistinctTest, RemovesDuplicates) {
  Table t(MakeSchema({{"a", ValueType::kInt64}, {"b", ValueType::kString}}));
  t.AddRow({Value(1), Value("x")});
  t.AddRow({Value(1), Value("x")});
  t.AddRow({Value(1), Value("y")});
  t.AddRow({Value::Null(), Value("x")});
  t.AddRow({Value::Null(), Value("x")});
  // δ is δπ over every column.
  ASSERT_OK_AND_ASSIGN(Table d, DistinctProject(t, {"a", "b"}));
  EXPECT_EQ(d.num_rows(), 3);  // NULLs group together for distinct
}

TEST(DistinctProjectTest, MatchesProjectThenDistinct) {
  const Table t = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(Table a, DistinctProject(t, {"g", "h"}));
  ASSERT_OK_AND_ASSIGN(Table projected, Project(t, {"g", "h"}));
  ASSERT_OK_AND_ASSIGN(Table b, DistinctProject(projected, {"g", "h"}));
  ExpectSameRows(a, b);
  EXPECT_EQ(a.num_rows(), 7);
}

TEST(UnionAllTest, ConcatenatesMultisets) {
  const Table t = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(Table u, UnionAll({&t, &t, &t}));
  EXPECT_EQ(u.num_rows(), 36);
}

TEST(UnionAllTest, EmptyInputGivesEmptyTable) {
  ASSERT_OK_AND_ASSIGN(Table u, UnionAll({}));
  EXPECT_EQ(u.num_rows(), 0);
}

TEST(UnionAllTest, IncompatibleSchemasRejected) {
  const Table a = MakeTinyTable();
  Table b(MakeSchema({{"x", ValueType::kInt64}}));
  EXPECT_FALSE(UnionAll({&a, &b}).ok());
}

TEST(SortedByTest, SortsWithoutMutatingInput) {
  const Table t = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(Table sorted, SortedBy(t, {"v"}));
  EXPECT_EQ(t.Get(0, 2), Value(5));  // input unchanged
  for (int64_t i = 1; i < sorted.num_rows(); ++i) {
    EXPECT_LE(sorted.Get(i - 1, 2).Compare(sorted.Get(i, 2)), 0);
  }
}

TEST(HashGroupByTest, CountSumAvgPerGroup) {
  const Table t = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(
      Table g, HashGroupBy(t, {"g"},
                           {AggSpec::Count("cnt"), AggSpec::Sum("v", "sv"),
                            AggSpec::Avg("v", "av")}));
  ASSERT_OK_AND_ASSIGN(Table sorted, SortedBy(g, {"g"}));
  ASSERT_EQ(sorted.num_rows(), 3);
  // Group 1: v ∈ {5,7,9}.
  EXPECT_EQ(sorted.Get(0, 1), Value(3));
  EXPECT_EQ(sorted.Get(0, 2), Value(21));
  EXPECT_DOUBLE_EQ(sorted.Get(0, 3).AsDouble(), 7.0);
  // Group 2: v ∈ {4,6,8,2}.
  EXPECT_EQ(sorted.Get(1, 1), Value(4));
  EXPECT_EQ(sorted.Get(1, 2), Value(20));
  // Group 3: v ∈ {1,3,5,7,9}.
  EXPECT_EQ(sorted.Get(2, 1), Value(5));
  EXPECT_EQ(sorted.Get(2, 2), Value(25));
}

TEST(HashGroupByTest, MultiColumnGroups) {
  const Table t = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(Table g,
                       HashGroupBy(t, {"g", "h"}, {AggSpec::Count("cnt")}));
  EXPECT_EQ(g.num_rows(), 7);
}

TEST(HashGroupByTest, MinMaxOnStrings) {
  const Table t = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(
      Table g,
      HashGroupBy(t, {"g"}, {AggSpec::Min("s", "lo"), AggSpec::Max("s", "hi")}));
  ASSERT_OK_AND_ASSIGN(Table sorted, SortedBy(g, {"g"}));
  EXPECT_EQ(sorted.Get(0, 1), Value("a"));
  EXPECT_EQ(sorted.Get(0, 2), Value("b"));
}

TEST(ExtendTest, AddsComputedColumn) {
  const Table t = MakeTinyTable();
  ASSERT_OK_AND_ASSIGN(Table e, Extend(t, "v2", MustParse("v * 2")));
  EXPECT_EQ(e.schema().num_fields(), 6);
  EXPECT_EQ(e.Get(0, 5), Value(10));
}

TEST(LimitTest, TruncatesAndClamps) {
  const Table t = MakeTinyTable();
  EXPECT_EQ(Limit(t, 5).num_rows(), 5);
  EXPECT_EQ(Limit(t, 100).num_rows(), 12);
  EXPECT_EQ(Limit(t, 0).num_rows(), 0);
}

}  // namespace
}  // namespace skalla
