// Unit tests for the Theorem-1 synchronization (dist/sync.h): the slot
// layout, the SubResultFold as an aggregator runs it — including the
// associativity property that makes multi-tier merging correct: combining
// sub-results in any grouping yields the same relation — the fold's reply
// checks, and the GroupMap (storage/group_map.h) that keys it, with its
// typed probe and RowGroups.

#include "dist/sync.h"

#include <gtest/gtest.h>

#include <limits>
#include <span>

#include "common/random.h"
#include "engine/operators.h"
#include "storage/group_map.h"
#include "sync_oracle.h"
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

/// Combines through the fold, as an aggregator does (sync_oracle.h).
Result<Table> Combine(const std::vector<const Table*>& inputs,
                      const std::vector<SubSlot>& slots, int width) {
  return CombineWithFold(inputs, 1, slots, width);
}

TEST(SubResultFoldTest, MergesByKey) {
  int width = 0;
  ASSERT_OK_AND_ASSIGN(std::vector<SubSlot> slots,
                       BuildSubSlots(OneOp(), TinySchemas(), &width));
  const Table h1 = MakeH({{1, 2, 10, 2, 4}, {2, 1, 5, 1, 5}});
  const Table h2 = MakeH({{1, 3, 12, 3, 2}, {3, 1, 7, 1, 7}});
  ASSERT_OK_AND_ASSIGN(Table combined, Combine({&h1, &h2}, slots, width));
  const Table expected =
      MakeH({{1, 5, 22, 5, 2}, {2, 1, 5, 1, 5}, {3, 1, 7, 1, 7}});
  ExpectSameRows(combined, expected);
}

TEST(SubResultFoldTest, EmptyAndSingleInputs) {
  int width = 0;
  ASSERT_OK_AND_ASSIGN(std::vector<SubSlot> slots,
                       BuildSubSlots(OneOp(), TinySchemas(), &width));
  // A fold that saw no reply holds no group.
  GroupMap groups(1);
  SubResultFold fold(&groups, slots, width, /*add_groups=*/true);
  EXPECT_EQ(fold.Emit(HSchema()).num_rows(), 0);
  const Table h = MakeH({{1, 2, 10, 2, 4}});
  ASSERT_OK_AND_ASSIGN(Table combined, Combine({&h}, slots, width));
  ExpectSameRows(combined, h);
}

TEST(SubResultFoldTest, SchemaMismatchRejected) {
  int width = 0;
  ASSERT_OK_AND_ASSIGN(std::vector<SubSlot> slots,
                       BuildSubSlots(OneOp(), TinySchemas(), &width));
  const Table h = MakeH({{1, 2, 10, 2, 4}});
  Table wrong(MakeSchema({{"g", ValueType::kInt64}}));
  wrong.AddRow({Value(1)});
  EXPECT_FALSE(Combine({&h, &wrong}, slots, width).ok());
}

TEST(SubResultFoldTest, AssociativityProperty) {
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

    ASSERT_OK_AND_ASSIGN(Table all, Combine({&a, &b, &c}, slots, width));
    ASSERT_OK_AND_ASSIGN(Table ab, Combine({&a, &b}, slots, width));
    ASSERT_OK_AND_ASSIGN(Table ab_c, Combine({&ab, &c}, slots, width));
    ASSERT_OK_AND_ASSIGN(Table bc, Combine({&b, &c}, slots, width));
    ASSERT_OK_AND_ASSIGN(Table a_bc, Combine({&a, &bc}, slots, width));
    ExpectSameRows(ab_c, all);
    ExpectSameRows(a_bc, all);
  }
}

// The base round merges B_i relations through the same fold with no
// sub-aggregates: a duplicate-eliminating union of the keys.
TEST(SubResultFoldTest, NoSlotsIsADistinctUnion) {
  Table a(MakeSchema({{"g", ValueType::kInt64}}));
  a.AddRow({Value(1)});
  a.AddRow({Value(2)});
  Table b(MakeSchema({{"g", ValueType::kInt64}}));
  b.AddRow({Value(2)});
  b.AddRow({Value(3)});
  ASSERT_OK_AND_ASSIGN(Table merged, Combine({&a, &b}, {}, 0));
  EXPECT_EQ(merged.num_rows(), 3);
}

/// Folds `reply` into a fresh map, returning the fold's status.
Status FoldOne(const Table& reply, const std::vector<SubSlot>& slots,
               int width) {
  GroupMap groups(1);
  SubResultFold fold(&groups, slots, width, /*add_groups=*/true);
  Result<DecodedColumns> h =
      Serializer::DecodeColumns(Serializer::SerializeTable(reply));
  if (!h.ok()) return h.status();
  return fold.Fold(*h, 0);
}

// A reply must carry exactly the keys and the round's carriers: a short
// one used to be read past its rows' ends, a long one merged misaligned.
TEST(SubResultFoldTest, ShortAndLongRepliesRejected) {
  int width = 0;
  ASSERT_OK_AND_ASSIGN(std::vector<SubSlot> slots,
                       BuildSubSlots(OneOp(), TinySchemas(), &width));
  Table short_reply(MakeSchema({{"g", ValueType::kInt64},
                                {"c", ValueType::kInt64},
                                {"a__sum", ValueType::kInt64},
                                {"a__cnt", ValueType::kInt64}}));
  short_reply.AddRow({Value(1), Value(2), Value(10), Value(2)});
  Table long_reply(MakeSchema({{"g", ValueType::kInt64},
                               {"c", ValueType::kInt64},
                               {"a__sum", ValueType::kInt64},
                               {"a__cnt", ValueType::kInt64},
                               {"lo", ValueType::kInt64},
                               {"extra", ValueType::kInt64}}));
  long_reply.AddRow({Value(1), Value(2), Value(10), Value(2), Value(4),
                     Value(9)});
  for (const Table* reply : {&short_reply, &long_reply}) {
    const Status st = FoldOne(*reply, slots, width);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
  EXPECT_OK(FoldOne(MakeH({{1, 2, 10, 2, 4}}), slots, width));
}

// A string in an adding carrier used to reach Value::AsDouble and end
// the process with std::bad_variant_access; a count carrier must be an
// int64, which finalization reads it as. MIN/MAX carriers take anything.
TEST(SubResultFoldTest, CarrierTypesChecked) {
  int width = 0;
  ASSERT_OK_AND_ASSIGN(std::vector<SubSlot> slots,
                       BuildSubSlots(OneOp(), TinySchemas(), &width));
  auto reply = [](Value c, Value sum, Value cnt, Value lo) {
    Table t(HSchema());
    t.AddRow({Value(1), Value(2), Value(10), Value(2), Value(4)});
    t.AddRow({Value(1), std::move(c), std::move(sum), std::move(cnt),
              std::move(lo)});
    return t;
  };
  for (const Table& bad :
       {reply(Value(1), Value("x"), Value(1), Value(3)),
        reply(Value("x"), Value(1), Value(1), Value(3)),
        reply(Value(1), Value(1), Value("x"), Value(3)),
        reply(Value(1.0), Value(1), Value(1), Value(3)),
        reply(Value(1), Value(1), Value(1.0), Value(3))}) {
    const Status st = FoldOne(bad, slots, width);
    EXPECT_EQ(st.code(), StatusCode::kTypeError) << st.ToString();
  }
  EXPECT_OK(FoldOne(reply(Value(1), Value(1.5), Value::Null(), Value("x")),
                    slots, width));
}

TEST(GroupMapTest, IdsInFirstAppearanceOrderAcrossGrowth) {
  // Two-column keys, enough of them to regrow the slot array many times;
  // every key probed again after all inserts still finds its first id.
  GroupMap groups(2);
  std::vector<Row> keys;
  for (int64_t i = 0; i < 5000; ++i) {
    keys.push_back({Value(i % 71), Value("k" + std::to_string(i / 71))});
  }
  auto hash_of = [](const Row& key) {
    return GroupMap::Hash(2, [&key](int c) -> const Value& {
      return key[static_cast<size_t>(c)];
    });
  };
  for (size_t i = 0; i < keys.size(); ++i) {
    const Row& key = keys[i];
    auto key_at = [&key](int c) -> const Value& {
      return key[static_cast<size_t>(c)];
    };
    bool inserted = false;
    EXPECT_EQ(groups.FindOrInsert(hash_of(key), key_at, &inserted),
              static_cast<int64_t>(i));
    EXPECT_TRUE(inserted);
  }
  ASSERT_EQ(groups.size(), 5000);
  for (size_t i = 0; i < keys.size(); ++i) {
    const Row& key = keys[i];
    auto key_at = [&key](int c) -> const Value& {
      return key[static_cast<size_t>(c)];
    };
    EXPECT_EQ(groups.Find(hash_of(key), key_at), static_cast<int64_t>(i));
    EXPECT_EQ(groups.key(static_cast<int64_t>(i))[1], key[1]);
  }
  const Row absent{Value(int64_t{0}), Value("nowhere")};
  EXPECT_EQ(groups.Find(hash_of(absent),
                        [&absent](int c) -> const Value& {
                          return absent[static_cast<size_t>(c)];
                        }),
            -1);
}

TEST(GroupMapTest, GroupsAsValueEquality) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  GroupMap groups(1);
  auto insert = [&groups](const Value& v) {
    auto key_at = [&v](int) -> const Value& { return v; };
    bool inserted = false;
    return groups.FindOrInsert(GroupMap::Hash(1, key_at), key_at, &inserted);
  };
  EXPECT_EQ(insert(Value(int64_t{5})), 0);
  EXPECT_EQ(insert(Value(5.0)), 0);  // one group, the int64 kept
  EXPECT_TRUE(groups.key(0)->is_int64());
  EXPECT_EQ(insert(Value::Null()), 1);
  EXPECT_EQ(insert(Value::Null()), 1);  // NULL groups with NULL
  EXPECT_EQ(insert(Value(nan)), 2);
  EXPECT_EQ(insert(Value(nan)), 3);  // NaN never matches
  EXPECT_EQ(insert(Value(-0.0)), 4);
  EXPECT_EQ(insert(Value(int64_t{0})), 4);  // -0.0 == 0
  EXPECT_EQ(insert(Value("5")), 5);  // strings never equal numbers
  EXPECT_EQ(groups.size(), 6);
  // The empty key is one group.
  GroupMap none(0);
  static const Value kUnused;
  auto no_key = [](int) -> const Value& { return kUnused; };
  bool inserted = false;
  EXPECT_EQ(none.FindOrInsert(GroupMap::Hash(0, no_key), no_key, &inserted), 0);
  EXPECT_EQ(none.FindOrInsert(GroupMap::Hash(0, no_key), no_key, &inserted), 0);
  EXPECT_FALSE(inserted);
}

// The typed probe — hashes from CombineProbeHashes over columnar cells,
// equality from CellEqualsValue through FindIf — must answer every probe
// exactly as the boxed Find does, NULL, NaN, -0.0 and cross-type numerics
// included.
void ExpectTypedProbeAgrees(const GroupMap& groups, const Table& probes) {
  const std::shared_ptr<const ColumnarTable> view = probes.columnar();
  const int width = groups.width();
  ASSERT_EQ(probes.schema().num_fields(), width);
  std::vector<std::vector<uint64_t>> code_hashes(static_cast<size_t>(width));
  for (int c = 0; c < width; ++c) {
    ASSERT_TRUE(view->column(c).usable);
    for (const std::string& str : view->column(c).dict) {
      code_hashes[static_cast<size_t>(c)].push_back(
          Value::HashOf(std::string_view(str)));
    }
  }
  const size_t n = static_cast<size_t>(probes.num_rows());
  std::vector<uint64_t> hashes(n, GroupMap::Seed());
  for (int c = 0; c < width; ++c) {
    CombineProbeHashes(view->column(c), code_hashes[static_cast<size_t>(c)], 0,
                       n, hashes.data());
  }
  for (size_t i = 0; i < n; ++i) {
    const Row& row = probes.row(static_cast<int64_t>(i));
    auto key_at = [&row](int c) -> const Value& {
      return row[static_cast<size_t>(c)];
    };
    ASSERT_EQ(hashes[i], GroupMap::Hash(width, key_at)) << "row " << i;
    const int64_t typed = groups.FindIf(hashes[i], [&](const Value* key) {
      for (int c = 0; c < width; ++c) {
        if (!CellEqualsValue(view->column(c), static_cast<int64_t>(i),
                             key[c])) {
          return false;
        }
      }
      return true;
    });
    EXPECT_EQ(typed, groups.Find(hashes[i], key_at)) << "row " << i;
  }
}

GroupMap MapOf(int width, const std::vector<Row>& keys) {
  GroupMap groups(width);
  for (const Row& key : keys) {
    auto key_at = [&key](int c) -> const Value& {
      return key[static_cast<size_t>(c)];
    };
    bool inserted = false;
    groups.FindOrInsert(GroupMap::Hash(width, key_at), key_at, &inserted);
  }
  return groups;
}

TEST(GroupMapTest, TypedProbeAgreesWithFind) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t big = std::numeric_limits<int64_t>::max();
  // 2^53 + 1 is not a double: operator== compares it with a double through
  // the conversion, which rounds it to 2^53.
  const int64_t past_2_53 = (int64_t{1} << 53) + 1;
  const GroupMap single =
      MapOf(1, {{Value(int64_t{5})}, {Value(9.0)}, {Value(-0.0)},
                {Value(nan)}, {Value::Null()}, {Value("a")}, {Value(2.5)},
                {Value(big)}, {Value("5")}, {Value(0x1p53)}});
  auto lookup = [&single](const Value& v) {
    auto key_at = [&v](int) -> const Value& { return v; };
    return single.Find(GroupMap::Hash(1, key_at), key_at);
  };
  // The cases the typed probe must get right, as Find answers them.
  EXPECT_EQ(lookup(Value(int64_t{9})), 1);  // int64 9 finds double 9.0
  EXPECT_EQ(lookup(Value(5.0)), 0);         // double 5.0 finds int64 5
  EXPECT_EQ(lookup(Value(int64_t{0})), 2);  // 0 == -0.0
  EXPECT_EQ(lookup(Value(nan)), -1);        // NaN never matches
  EXPECT_EQ(lookup(Value::Null()), 4);      // NULL finds NULL
  ASSERT_EQ(Value(past_2_53), Value(0x1p53));
  EXPECT_EQ(Value(past_2_53).Hash(), Value(0x1p53).Hash());
  EXPECT_EQ(lookup(Value(past_2_53)), 9);   // equal beyond 2^53 finds it

  Table ints(MakeSchema({{"k", ValueType::kInt64}}));
  for (const Value& v : {Value(int64_t{5}), Value(int64_t{9}), Value(int64_t{0}),
                         Value::Null(), Value(int64_t{7}), Value(big),
                         Value(big - 1), Value(int64_t{2}),
                         Value(past_2_53)}) {
    ints.AddRow({v});
  }
  ExpectTypedProbeAgrees(single, ints);

  Table doubles(MakeSchema({{"k", ValueType::kDouble}}));
  for (const Value& v : {Value(5.0), Value(9.0), Value(-0.0), Value(0.0),
                         Value(nan), Value::Null(), Value(2.5), Value(2.25),
                         Value(9.2233720368547758e18)}) {
    doubles.AddRow({v});
  }
  ExpectTypedProbeAgrees(single, doubles);

  Table strings(MakeSchema({{"k", ValueType::kString}}));
  for (const Value& v : {Value("a"), Value("5"), Value::Null(), Value("b"),
                         Value("a")}) {
    strings.AddRow({v});
  }
  ExpectTypedProbeAgrees(single, strings);

  const GroupMap composite =
      MapOf(2, {{Value(int64_t{1}), Value("a")},
                {Value(2.0), Value("b")},
                {Value::Null(), Value("a")},
                {Value(int64_t{1}), Value::Null()},
                {Value(nan), Value("c")}});
  Table pairs(MakeSchema({{"k", ValueType::kInt64}, {"s", ValueType::kString}}));
  for (const Row& row : std::vector<Row>{{Value(int64_t{1}), Value("a")},
                                         {Value(int64_t{2}), Value("b")},
                                         {Value::Null(), Value("a")},
                                         {Value(int64_t{1}), Value::Null()},
                                         {Value(int64_t{1}), Value("b")},
                                         {Value(int64_t{3}), Value("c")},
                                         {Value::Null(), Value::Null()}}) {
    pairs.AddRow(row);
  }
  ExpectTypedProbeAgrees(composite, pairs);
}

TEST(GroupMapTest, EqualKeysBeyond2To53FormOneGroup) {
  // int64 2^53 + 1 == double 2^53 (operator== compares through the
  // double), so every grouping puts them in one group: the hash agrees
  // with ==.
  const int64_t past_2_53 = (int64_t{1} << 53) + 1;
  Table t(MakeSchema({{"k", ValueType::kDouble}}));
  t.AddRow({Value(0x1p53)});
  t.AddRow({Value(past_2_53)});
  t.AddRow({Value(1.0)});
  t.AddRow({Value(past_2_53)});
  ASSERT_OK_AND_ASSIGN(Table distinct, DistinctProject(t, {"k"}));
  ASSERT_EQ(distinct.num_rows(), 2);
  EXPECT_EQ(distinct.Get(0, 0), Value(0x1p53));
  const RowGroups groups = RowGroups::Of(t, {0});
  ASSERT_EQ(groups.num_groups(), 2);
  EXPECT_EQ(std::vector<int64_t>(groups.rows(0).begin(), groups.rows(0).end()),
            (std::vector<int64_t>{0, 1, 3}));
  const Row probe{Value(past_2_53)};
  EXPECT_EQ(groups.Find(probe, {0}), 0);
}

TEST(RowGroupsTest, RepeatedKeyRowsAscendAcrossGrowth) {
  // 1500 keys, each on four rows 1500 apart: the map regrows several
  // times while the repeats arrive, and every group must still list its
  // rows in ascending order, under first-appearance group ids.
  Table t(MakeSchema({{"k", ValueType::kInt64}, {"s", ValueType::kString}}));
  for (int64_t r = 0; r < 6000; ++r) {
    t.AddRow({Value(r % 1500), Value(r < 3000 ? "early" : "late")});
  }
  const RowGroups groups = RowGroups::Of(t, {0});
  ASSERT_EQ(groups.num_groups(), 1500);
  for (int64_t g = 0; g < groups.num_groups(); ++g) {
    EXPECT_EQ(groups.map().key(g)[0], Value(g));
    const std::span<const int64_t> rows = groups.rows(g);
    EXPECT_EQ(std::vector<int64_t>(rows.begin(), rows.end()),
              (std::vector<int64_t>{g, g + 1500, g + 3000, g + 4500}));
  }

  // A composite key over the same rows: 3000 groups of two rows each.
  const RowGroups pairs = RowGroups::Of(t, {1, 0});
  ASSERT_EQ(pairs.num_groups(), 3000);
  for (int64_t g = 0; g < pairs.num_groups(); ++g) {
    const std::span<const int64_t> rows = pairs.rows(g);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1] - rows[0], 1500);
    for (int64_t r : rows) EXPECT_EQ(pairs.Find(t.row(r), {1, 0}), g);
  }
}

}  // namespace
}  // namespace skalla
