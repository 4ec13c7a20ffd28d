#include <gtest/gtest.h>

#include <span>

#include "storage/catalog.h"
#include "storage/group_map.h"
#include "storage/partition_info.h"
#include "test_util.h"

namespace skalla {
namespace {

TEST(RowGroupsTest, SingleColumnLookup) {
  const Table t = MakeTinyTable();
  const RowGroups groups = RowGroups::Of(t, {0});  // key on g

  const Row probe = {Value(2)};
  const int64_t g = groups.Find(probe, {0});
  ASSERT_GE(g, 0);
  const std::span<const int64_t> rows = groups.rows(g);
  EXPECT_EQ(rows.size(), 4u);
  for (int64_t row_id : rows) {
    EXPECT_EQ(t.Get(row_id, 0), Value(2));
  }
}

TEST(RowGroupsTest, CompositeKeyLookup) {
  const Table t = MakeTinyTable();
  const RowGroups groups = RowGroups::Of(t, {0, 1});  // (g, h)

  const Row probe = {Value(3), Value(30)};
  const int64_t g = groups.Find(probe, {0, 1});
  ASSERT_GE(g, 0);
  EXPECT_EQ(groups.rows(g).size(), 3u);
}

TEST(RowGroupsTest, MissReturnsNull) {
  const Table t = MakeTinyTable();
  const RowGroups groups = RowGroups::Of(t, {0});
  const Row probe = {Value(42)};
  EXPECT_EQ(groups.Find(probe, {0}), -1);
}

TEST(RowGroupsTest, ProbeColumnsMayDifferFromKeyColumns) {
  const Table t = MakeTinyTable();
  const RowGroups groups = RowGroups::Of(t, {0});
  // Probe row where the key lives in column 2.
  const Row probe = {Value("pad"), Value("pad"), Value(1)};
  const int64_t g = groups.Find(probe, {2});
  ASSERT_GE(g, 0);
  EXPECT_EQ(groups.rows(g).size(), 3u);
}

TEST(RowGroupsTest, CrossTypeNumericKeysUnify) {
  Table t(MakeSchema({{"k", ValueType::kDouble}}));
  t.AddRow({Value(5.0)});
  const RowGroups groups = RowGroups::Of(t, {0});
  const Row probe = {Value(int64_t{5})};
  EXPECT_GE(groups.Find(probe, {0}), 0);
}

TEST(RowGroupsTest, NullKeysFormOneGroup) {
  Table t(MakeSchema({{"k", ValueType::kInt64}}));
  t.AddRow({Value(int64_t{7})});
  t.AddRow({Value::Null()});
  t.AddRow({Value(int64_t{7})});
  t.AddRow({Value(int64_t{-3})});
  t.AddRow({Value::Null()});
  const RowGroups groups = RowGroups::Of(t, {0});
  ASSERT_EQ(groups.num_groups(), 3);
  auto rows_of = [&groups](const Value& key) {
    const int64_t g = groups.Find(Row{key}, {0});
    if (g < 0) return std::vector<int64_t>{};
    const std::span<const int64_t> rows = groups.rows(g);
    return std::vector<int64_t>(rows.begin(), rows.end());
  };
  EXPECT_EQ(rows_of(Value(int64_t{7})), (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(rows_of(Value::Null()), (std::vector<int64_t>{1, 4}));
  EXPECT_EQ(rows_of(Value(int64_t{-3})), (std::vector<int64_t>{3}));
  EXPECT_EQ(groups.Find(Row{Value::Null()}, {0}), 1);  // first appearance
  EXPECT_EQ(groups.Find(Row{Value(int64_t{8})}, {0}), -1);
}

TEST(RowGroupsTest, EmptyTableFindsNothing) {
  const Table t(MakeSchema({{"k", ValueType::kInt64}}));
  const RowGroups groups = RowGroups::Of(t, {0});
  EXPECT_EQ(groups.num_groups(), 0);
  EXPECT_EQ(groups.Find(Row{Value(int64_t{1})}, {0}), -1);
  EXPECT_EQ(groups.Find(Row{Value::Null()}, {0}), -1);
}

TEST(AttrDomainTest, RangeMayContain) {
  const AttrDomain d = AttrDomain::Range(Value(1), Value(25));
  EXPECT_TRUE(d.MayContain(Value(1)));
  EXPECT_TRUE(d.MayContain(Value(25)));
  EXPECT_FALSE(d.MayContain(Value(0)));
  EXPECT_FALSE(d.MayContain(Value(26)));
}

TEST(AttrDomainTest, HalfOpenRange) {
  const AttrDomain d = AttrDomain::Range(Value(10), Value::Null());
  EXPECT_TRUE(d.MayContain(Value(1000000)));
  EXPECT_FALSE(d.MayContain(Value(9)));
  double lo = 0;
  double hi = 0;
  EXPECT_FALSE(d.NumericBounds(&lo, &hi));  // unbounded above
}

TEST(AttrDomainTest, ValueSet) {
  const AttrDomain d = AttrDomain::Set({Value(2), Value(4)});
  EXPECT_TRUE(d.MayContain(Value(2)));
  EXPECT_FALSE(d.MayContain(Value(3)));
  double lo = 0;
  double hi = 0;
  ASSERT_TRUE(d.NumericBounds(&lo, &hi));
  EXPECT_EQ(lo, 2);
  EXPECT_EQ(hi, 4);
}

TEST(AttrDomainTest, EmptySetContainsNothing) {
  const AttrDomain d = AttrDomain::Set({});
  EXPECT_FALSE(d.MayContain(Value(1)));
}

TEST(AttrDomainTest, AnyContainsEverything) {
  const AttrDomain d = AttrDomain::Any();
  EXPECT_TRUE(d.MayContain(Value(1)));
  EXPECT_TRUE(d.MayContain(Value("x")));
}

TEST(PartitionInfoTest, DomainsAndToString) {
  PartitionInfo info;
  info.SetDomain("NationKey", AttrDomain::Range(Value(0), Value(2)));
  EXPECT_TRUE(info.HasDomain("NationKey"));
  EXPECT_FALSE(info.HasDomain("Other"));
  EXPECT_EQ(info.Domain("Other").kind, AttrDomain::Kind::kAny);
  EXPECT_NE(info.ToString().find("NationKey in [0, 2]"), std::string::npos);
}

TEST(PartitionAttributeTest, DisjointRanges) {
  std::vector<PartitionInfo> sites(3);
  sites[0].SetDomain("a", AttrDomain::Range(Value(0), Value(9)));
  sites[1].SetDomain("a", AttrDomain::Range(Value(10), Value(19)));
  sites[2].SetDomain("a", AttrDomain::Range(Value(20), Value(29)));
  EXPECT_TRUE(IsPartitionAttribute("a", sites));
}

TEST(PartitionAttributeTest, OverlappingRangesRejected) {
  std::vector<PartitionInfo> sites(2);
  sites[0].SetDomain("a", AttrDomain::Range(Value(0), Value(10)));
  sites[1].SetDomain("a", AttrDomain::Range(Value(10), Value(20)));
  EXPECT_FALSE(IsPartitionAttribute("a", sites));
}

TEST(PartitionAttributeTest, MissingDomainRejected) {
  std::vector<PartitionInfo> sites(2);
  sites[0].SetDomain("a", AttrDomain::Range(Value(0), Value(9)));
  EXPECT_FALSE(IsPartitionAttribute("a", sites));
}

TEST(PartitionAttributeTest, DisjointValueSets) {
  std::vector<PartitionInfo> sites(2);
  sites[0].SetDomain("a", AttrDomain::Set({Value(1), Value(3)}));
  sites[1].SetDomain("a", AttrDomain::Set({Value(2), Value(4)}));
  EXPECT_TRUE(IsPartitionAttribute("a", sites));
}

TEST(PartitionAttributeTest, SetVersusRange) {
  std::vector<PartitionInfo> sites(2);
  sites[0].SetDomain("a", AttrDomain::Set({Value(1), Value(3)}));
  sites[1].SetDomain("a", AttrDomain::Range(Value(5), Value(9)));
  EXPECT_TRUE(IsPartitionAttribute("a", sites));
  sites[1].SetDomain("a", AttrDomain::Range(Value(3), Value(9)));
  EXPECT_FALSE(IsPartitionAttribute("a", sites));
}

TEST(PartitionAttributeTest, SingleSiteIsTriviallyPartitioned) {
  std::vector<PartitionInfo> sites(1);
  EXPECT_TRUE(IsPartitionAttribute("anything", sites));
}

TEST(PartitionAttributeTest, UnboundedRangesUnprovable) {
  std::vector<PartitionInfo> sites(2);
  sites[0].SetDomain("a", AttrDomain::Range(Value::Null(), Value(9)));
  sites[1].SetDomain("a", AttrDomain::Range(Value::Null(), Value(20)));
  EXPECT_FALSE(IsPartitionAttribute("a", sites));
}

TEST(CatalogTest, AddGetDrop) {
  Catalog catalog;
  auto table = std::make_shared<const Table>(MakeTinyTable());
  ASSERT_OK(catalog.AddTable("t", table));
  EXPECT_TRUE(catalog.HasTable("t"));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> got,
                       catalog.GetTable("t"));
  EXPECT_EQ(got.get(), table.get());
  EXPECT_TRUE(catalog.DropTable("t"));
  EXPECT_FALSE(catalog.DropTable("t"));
  EXPECT_FALSE(catalog.GetTable("t").ok());
}

TEST(CatalogTest, DuplicateAddRejectedButPutReplaces) {
  Catalog catalog;
  auto table = std::make_shared<const Table>(MakeTinyTable());
  ASSERT_OK(catalog.AddTable("t", table));
  EXPECT_EQ(catalog.AddTable("t", table).code(), StatusCode::kAlreadyExists);
  catalog.PutTable("t", table);  // no error
  EXPECT_EQ(catalog.TableNames(), std::vector<std::string>{"t"});
}

}  // namespace
}  // namespace skalla
