// Wire-format suite (ctest label "wire"): SKL2 columnar codecs, SKLD
// delta shipping, byte-exact size accounting, and end-to-end result
// identity across formats. Runs as its own binary (skalla_wire_tests) so
// it can be exercised in isolation, e.g. under -DSKALLA_SANITIZE=address.

#include "storage/wire_format.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "dist/coordinator.h"
#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "storage/serializer.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

std::string TableBytes(const Table& t) {
  return Serializer::SerializeTable(t);
}

// ---------------------------------------------------------------------------
// Format plumbing.
// ---------------------------------------------------------------------------

TEST(WireFormatTest, ParseAndName) {
  for (const char* name : {"SKL1", "skl1", "1"}) {
    auto parsed = ParseWireFormat(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, WireFormat::kSkl1);
  }
  for (const char* name : {"SKL2", "skl2", "2"}) {
    auto parsed = ParseWireFormat(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, WireFormat::kSkl2);
  }
  EXPECT_FALSE(ParseWireFormat("SKL9").has_value());
  EXPECT_FALSE(ParseWireFormat("").has_value());
  EXPECT_STREQ(WireFormatName(WireFormat::kSkl1), "SKL1");
  EXPECT_STREQ(WireFormatName(WireFormat::kSkl2), "SKL2");
}

// ---------------------------------------------------------------------------
// Size accounting: WireSize and Table::SerializedSize must be byte-exact
// for both formats, on hand-built and randomized tables.
// ---------------------------------------------------------------------------

/// A table exercising every codec: delta-friendly ints, raw doubles with
/// NaN/±inf, dictionary strings with repeats and an empty string, an
/// all-null column, and nulls sprinkled through the others.
Table CodecZoo() {
  Table t(MakeSchema({{"i", ValueType::kInt64},
                      {"d", ValueType::kDouble},
                      {"s", ValueType::kString},
                      {"n", ValueType::kInt64}}));
  const double vals[] = {0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(), 3.5};
  const char* strs[] = {"alpha", "", "alpha", "b", "alpha", ""};
  for (int i = 0; i < 6; ++i) {
    Row row;
    row.push_back(i == 2 ? Value::Null()
                         : Value(static_cast<int64_t>(i) * 1000 - 7));
    row.push_back(i == 4 ? Value::Null() : Value(vals[i]));
    row.push_back(i == 5 ? Value::Null() : Value(strs[i]));
    row.push_back(Value::Null());
    t.AddRow(std::move(row));
  }
  return t;
}

void ExpectExactSizes(const Table& t) {
  // Bit-exact round-trip witness (Value equality would reject NaN == NaN).
  const std::string canonical =
      Serializer::SerializeTable(t, WireFormat::kSkl1);
  for (const WireFormat format : {WireFormat::kSkl1, WireFormat::kSkl2}) {
    SCOPED_TRACE(WireFormatName(format));
    const std::string bytes = Serializer::SerializeTable(t, format);
    EXPECT_EQ(Serializer::WireSize(t, format), bytes.size());
    // Table::SerializedSize is the payload after the common header, and the
    // header's size equals the wire size of an empty table over the same
    // schema.
    Table empty(t.schema_ptr());
    EXPECT_EQ(t.SerializedSize(format),
              bytes.size() - Serializer::WireSize(empty, format));
    ASSERT_OK_AND_ASSIGN(Table decoded, Serializer::DeserializeTable(bytes));
    EXPECT_EQ(Serializer::SerializeTable(decoded, WireFormat::kSkl1),
              canonical);
  }
}

TEST(WireFormatTest, ExactSizesOnCodecZoo) { ExpectExactSizes(CodecZoo()); }

TEST(WireFormatTest, ExactSizesOnTinyAndEmptyTables) {
  ExpectExactSizes(MakeTinyTable());
  Table empty(MakeSchema({{"a", ValueType::kInt64},
                          {"s", ValueType::kString}}));
  ExpectExactSizes(empty);
  // An empty table has no payload in either format.
  EXPECT_EQ(empty.SerializedSize(WireFormat::kSkl1), 0u);
  EXPECT_EQ(empty.SerializedSize(WireFormat::kSkl2), 0u);
}

TEST(WireFormatTest, ExactSizesOnRandomTables) {
  Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    Table t(MakeSchema({{"i", ValueType::kInt64},
                        {"d", ValueType::kDouble},
                        {"s", ValueType::kString}}));
    const int64_t rows = rng.Uniform(0, 50);
    for (int64_t r = 0; r < rows; ++r) {
      Row row;
      row.push_back(rng.Chance(0.15) ? Value::Null()
                                     : Value(rng.Uniform(-1000000, 1000000)));
      row.push_back(rng.Chance(0.15) ? Value::Null()
                                     : Value(rng.UniformDouble(-1e9, 1e9)));
      row.push_back(rng.Chance(0.15)
                        ? Value::Null()
                        : Value(rng.AlphaString(
                              static_cast<int>(rng.Uniform(0, 20)))));
      t.AddRow(std::move(row));
    }
    ExpectExactSizes(t);
  }
}

TEST(WireFormatTest, Skl2IsSmallerOnRepetitiveData) {
  // Dictionary + varint delta encoding must beat the row format on the
  // kind of table the coordinator actually ships: a sorted key column and
  // low-cardinality strings.
  Table t(MakeSchema({{"k", ValueType::kInt64}, {"s", ValueType::kString}}));
  const char* names[] = {"pending", "shipped", "billed"};
  for (int64_t i = 0; i < 500; ++i) t.AddRow({Value(i), Value(names[i % 3])});
  EXPECT_LT(Serializer::WireSize(t, WireFormat::kSkl2),
            Serializer::WireSize(t, WireFormat::kSkl1) / 4);
}

// ---------------------------------------------------------------------------
// SKLD delta payloads.
// ---------------------------------------------------------------------------

Table BaseX() {
  Table t(MakeSchema({{"k", ValueType::kInt64}, {"c", ValueType::kInt64}}));
  for (int64_t i = 0; i < 100; ++i) t.AddRow({Value(i), Value(i * 3)});
  return t;
}

/// BaseX extended the way a GMDJ round extends X: same rows, one appended
/// aggregate column.
Table ExtendedX() {
  Table t(MakeSchema({{"k", ValueType::kInt64},
                      {"c", ValueType::kInt64},
                      {"o1", ValueType::kDouble}}));
  for (int64_t i = 0; i < 100; ++i) {
    t.AddRow({Value(i), Value(i * 3), Value(static_cast<double>(i) / 2)});
  }
  return t;
}

TEST(WireDeltaTest, AppendedColumnShipsOnlyTheNewColumn) {
  const Table base = BaseX();
  const Table next = ExtendedX();
  const std::string delta = Serializer::SerializeDelta(base, next);
  const std::string full =
      Serializer::SerializeTable(next, WireFormat::kSkl2);
  EXPECT_LT(delta.size(), full.size());
  // The delta carries only the appended o1 column (plus a bounded
  // preamble) — the unchanged k and c columns are never re-shipped.
  Table o1_only(MakeSchema({{"o1", ValueType::kDouble}}));
  for (int64_t i = 0; i < 100; ++i) {
    o1_only.AddRow({Value(static_cast<double>(i) / 2)});
  }
  EXPECT_LT(delta.size(),
            o1_only.SerializedSize(WireFormat::kSkl2) + 128);
  ASSERT_OK_AND_ASSIGN(Table decoded, Serializer::DecodeShipment(&base, delta));
  EXPECT_EQ(TableBytes(decoded), TableBytes(next));
}

TEST(WireDeltaTest, AppendedRowsShipOnlyTheSuffix) {
  const Table base = BaseX();
  Table next = BaseX();
  for (int64_t i = 100; i < 110; ++i) next.AddRow({Value(i), Value(i * 3)});
  const std::string delta = Serializer::SerializeDelta(base, next);
  const std::string full =
      Serializer::SerializeTable(next, WireFormat::kSkl2);
  EXPECT_LT(delta.size(), full.size() / 2);
  ASSERT_OK_AND_ASSIGN(Table decoded, Serializer::DecodeShipment(&base, delta));
  EXPECT_EQ(TableBytes(decoded), TableBytes(next));
}

TEST(WireDeltaTest, DeltaNeedsItsExactBase) {
  const Table base = BaseX();
  const std::string delta = Serializer::SerializeDelta(base, ExtendedX());

  // No cached base at all.
  auto no_base = Serializer::DecodeShipment(nullptr, delta);
  ASSERT_FALSE(no_base.ok());
  EXPECT_EQ(no_base.status().code(), StatusCode::kIoError);

  // A different base: the content hash must catch it.
  Table other = BaseX();
  other.AddRow({Value(int64_t{999}), Value(int64_t{0})});
  auto wrong_base = Serializer::DecodeShipment(&other, delta);
  ASSERT_FALSE(wrong_base.ok());
  EXPECT_EQ(wrong_base.status().code(), StatusCode::kIoError);
  EXPECT_NE(wrong_base.status().message().find("hash"), std::string::npos);

  // The plain table decoder never accepts a delta.
  auto as_table = Serializer::DeserializeTable(delta);
  ASSERT_FALSE(as_table.ok());
  EXPECT_EQ(as_table.status().code(), StatusCode::kIoError);
}

TEST(WireDeltaTest, FullPayloadDecodesWithOrWithoutCache) {
  // The fault-fallback path re-ships a full SKL2 table to a site whose
  // cache state is unknown; it must decode standalone and also when the
  // receiver still holds an older (now superseded) base.
  const Table next = ExtendedX();
  const std::string full =
      Serializer::SerializeTable(next, WireFormat::kSkl2);
  ASSERT_OK_AND_ASSIGN(Table standalone,
                       Serializer::DecodeShipment(nullptr, full));
  EXPECT_EQ(TableBytes(standalone), TableBytes(next));
  const Table stale = BaseX();
  ASSERT_OK_AND_ASSIGN(Table replaced,
                       Serializer::DecodeShipment(&stale, full));
  EXPECT_EQ(TableBytes(replaced), TableBytes(next));
}

TEST(WireDeltaTest, ContentHashIsBitExact) {
  EXPECT_EQ(Serializer::ContentHash(BaseX()), Serializer::ContentHash(BaseX()));
  EXPECT_NE(Serializer::ContentHash(BaseX()),
            Serializer::ContentHash(ExtendedX()));
  // -0.0 and +0.0 compare equal as Values but differ on the wire.
  Table pos(MakeSchema({{"d", ValueType::kDouble}}));
  pos.AddRow({Value(0.0)});
  Table neg(MakeSchema({{"d", ValueType::kDouble}}));
  neg.AddRow({Value(-0.0)});
  EXPECT_NE(Serializer::ContentHash(pos), Serializer::ContentHash(neg));
}

// ---------------------------------------------------------------------------
// End-to-end: every format/delta configuration returns byte-identical
// results, delta shipping cuts total traffic >= 2x on the Fig. 2 workload,
// and the metrics equal the simulated network's records exactly.
// ---------------------------------------------------------------------------

class WireEndToEndTest : public ::testing::Test {
 protected:
  void Load(Warehouse* wh) {
    TpcConfig config;
    config.num_rows = 12000;
    config.num_customers = 800;
    config.num_clerks = 40;
    config.seed = 7;
    ASSERT_OK(wh->LoadByRange("TPCR", GenerateTpcr(config), "NationKey", 0, 24,
                              {"CustKey", "ClerkKey"}));
  }

  static NetworkConfig Config(WireFormat format, bool delta) {
    NetworkConfig net;
    net.wire_format = format;
    net.delta_shipping = delta;
    return net;
  }
};

TEST_F(WireEndToEndTest, ResultsAreByteIdenticalAcrossFormats) {
  Warehouse wh(8);
  Load(&wh);
  for (const GmdjExpr& query :
       {queries::GroupReductionQuery("CustKey"),
        queries::CombinedQuery("CustKey"),
        queries::CoalescingQuery("ClerkKey")}) {
    ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                         wh.Plan(query, OptimizerOptions::None()));
    wh.set_network_config(Config(WireFormat::kSkl1, false));
    ASSERT_OK_AND_ASSIGN(QueryResult reference, wh.ExecutePlan(plan));
    const std::string expected = TableBytes(reference.table);

    for (const bool delta : {false, true}) {
      for (const bool parallel : {false, true}) {
        SCOPED_TRACE(delta ? "skl2+delta" : "skl2");
        wh.set_network_config(Config(WireFormat::kSkl2, delta));
        wh.set_parallel_site_execution(parallel);
        ASSERT_OK_AND_ASSIGN(QueryResult flat, wh.ExecutePlan(plan));
        EXPECT_EQ(TableBytes(flat.table), expected);
        ASSERT_OK_AND_ASSIGN(QueryResult tree, wh.ExecutePlanTree(plan, 2));
        EXPECT_EQ(TableBytes(tree.table), expected);
      }
    }
    wh.set_parallel_site_execution(false);
  }
}

TEST_F(WireEndToEndTest, DeltaShippingCutsTrafficAtLeastTwofold) {
  Warehouse wh(8);
  Load(&wh);
  ASSERT_OK_AND_ASSIGN(
      DistributedPlan plan,
      wh.Plan(queries::GroupReductionQuery("CustKey"),
              OptimizerOptions::None()));

  wh.set_network_config(Config(WireFormat::kSkl1, false));
  ASSERT_OK_AND_ASSIGN(QueryResult skl1, wh.ExecutePlan(plan));

  wh.set_network_config(Config(WireFormat::kSkl2, true));
  ASSERT_OK_AND_ASSIGN(QueryResult skl2_delta, wh.ExecutePlan(plan));

  EXPECT_EQ(TableBytes(skl2_delta.table), TableBytes(skl1.table));
  EXPECT_GE(skl1.metrics.TotalBytes(), 2 * skl2_delta.metrics.TotalBytes())
      << "SKL1 " << skl1.metrics.TotalBytes() << " vs SKL2+delta "
      << skl2_delta.metrics.TotalBytes();

  // The new counters: savings recorded, baseline consistent, ratio > 1.
  EXPECT_GT(skl2_delta.metrics.BytesSavedByDelta(), 0u);
  EXPECT_GE(skl2_delta.metrics.BytesBaselineSkl1(),
            skl2_delta.metrics.TotalBytes());
  EXPECT_GT(skl2_delta.metrics.CompressionRatio(), 1.0);

  // SKL1 full-ship is its own baseline.
  EXPECT_EQ(skl1.metrics.BytesSavedByDelta(), 0u);
  EXPECT_DOUBLE_EQ(skl1.metrics.CompressionRatio(), 1.0);

  // The same holds on the aggregation tree.
  wh.set_network_config(Config(WireFormat::kSkl1, false));
  ASSERT_OK_AND_ASSIGN(QueryResult tree_skl1, wh.ExecutePlanTree(plan, 2));
  wh.set_network_config(Config(WireFormat::kSkl2, true));
  ASSERT_OK_AND_ASSIGN(QueryResult tree_delta, wh.ExecutePlanTree(plan, 2));
  EXPECT_EQ(TableBytes(tree_delta.table), TableBytes(tree_skl1.table));
  EXPECT_GE(tree_skl1.metrics.TotalBytes(),
            2 * tree_delta.metrics.TotalBytes());
  EXPECT_GT(tree_delta.metrics.BytesSavedByDelta(), 0u);
}

void ExpectBytesMatchNetwork(const ExecutionMetrics& metrics,
                             const SimNetwork& net) {
  size_t bytes_down = 0, bytes_up = 0;
  for (const TransferRecord& r : net.transfers()) {
    (r.dir == TransferDirection::kToSite ? bytes_down : bytes_up) += r.bytes;
  }
  EXPECT_EQ(metrics.BytesToSites(), bytes_down);
  EXPECT_EQ(metrics.BytesToCoord(), bytes_up);
  EXPECT_EQ(metrics.TotalBytes(), net.TotalBytes());
}

TEST_F(WireEndToEndTest, MetricsEqualNetworkBytesUnderDelta) {
  Warehouse wh(8);
  Load(&wh);
  ASSERT_OK_AND_ASSIGN(
      DistributedPlan plan,
      wh.Plan(queries::CombinedQuery("CustKey"), OptimizerOptions::None()));
  std::vector<Site*> sites;
  for (int i = 0; i < wh.num_sites(); ++i) sites.push_back(&wh.site(i));

  for (const WireFormat format : {WireFormat::kSkl1, WireFormat::kSkl2}) {
    for (const bool delta : {false, true}) {
      SCOPED_TRACE(std::string(WireFormatName(format)) +
                   (delta ? "+delta" : ""));
      Coordinator flat(sites, Config(format, delta));
      ExecutionMetrics flat_metrics;
      ASSERT_OK_AND_ASSIGN(Table flat_table,
                           flat.Execute(plan, &flat_metrics));
      EXPECT_GT(flat_table.num_rows(), 0);
      ExpectBytesMatchNetwork(flat_metrics, flat.network());

      Coordinator tree(sites, /*fan_in=*/2, Config(format, delta));
      ExecutionMetrics tree_metrics;
      ASSERT_OK_AND_ASSIGN(Table tree_table,
                           tree.Execute(plan, &tree_metrics));
      EXPECT_EQ(TableBytes(tree_table), TableBytes(flat_table));
      ExpectBytesMatchNetwork(tree_metrics, tree.network());
    }
  }
}

}  // namespace
}  // namespace skalla
