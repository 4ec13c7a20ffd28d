// Wire-format suite (ctest label "wire"): SKL2 columnar codecs, SKLD
// delta shipping, byte-exact size accounting, end-to-end result identity
// with and without deltas, and warehouse files in the SKL1 format the
// library still decodes. Runs as its own binary (skalla_wire_tests) so it
// can be exercised in isolation, e.g. under -DSKALLA_SANITIZE=address.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "common/random.h"
#include "common/wrapping.h"
#include "dist/coordinator.h"
#include "engine/operators.h"
#include "obs/metrics.h"
#include "skalla/persistence.h"
#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "skl1_oracle.h"
#include "storage/serializer.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

// ---------------------------------------------------------------------------
// Size accounting: WireSize, Table::SerializedSize and Skl1Size must be
// byte-exact, on hand-built and randomized tables.
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
  const std::string canonical = EncodeSkl1(t);
  EXPECT_EQ(Serializer::Skl1Size(t), canonical.size());
  const std::string bytes = Serializer::SerializeTable(t);
  EXPECT_EQ(Serializer::WireSize(t), bytes.size());
  // Table::SerializedSize is the payload after the common header, and the
  // header's size equals the wire size of an empty table over the same
  // schema.
  Table empty(t.schema_ptr());
  EXPECT_EQ(t.SerializedSize(), bytes.size() - Serializer::WireSize(empty));
  ASSERT_OK_AND_ASSIGN(Table decoded, Serializer::DeserializeTable(bytes));
  EXPECT_EQ(EncodeSkl1(decoded), canonical);
}

TEST(WireFormatTest, ExactSizesOnCodecZoo) { ExpectExactSizes(CodecZoo()); }

TEST(WireFormatTest, ExactSizesOnTinyAndEmptyTables) {
  ExpectExactSizes(MakeTinyTable());
  Table empty(MakeSchema({{"a", ValueType::kInt64},
                          {"s", ValueType::kString}}));
  ExpectExactSizes(empty);
  // An empty table has no payload.
  EXPECT_EQ(empty.SerializedSize(), 0u);
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

TEST(WireFormatTest, SizingRecordsNoEncodeMetrics) {
  // WireSize measures by encoding; only SerializeTable counts as a send.
  obs::EnableMetrics(true);
  obs::Histogram& skl2_bytes = obs::GetHistogram(
      "skalla_storage_wire_bytes{format=\"SKL2\"}",
      obs::HistogramLayout::Bytes());
  const Table t = CodecZoo();
  const uint64_t before = skl2_bytes.Count();
  EXPECT_EQ(Serializer::WireSize(t), Serializer::SerializeTable(t).size());
  EXPECT_GT(t.SerializedSize(), 0u);
  EXPECT_EQ(skl2_bytes.Count(), before + 1);
}

TEST(WireFormatTest, Skl2IsSmallerOnRepetitiveData) {
  // Dictionary + varint delta encoding must beat the row format on the
  // kind of table the coordinator actually ships: a sorted key column and
  // low-cardinality strings.
  Table t(MakeSchema({{"k", ValueType::kInt64}, {"s", ValueType::kString}}));
  const char* names[] = {"pending", "shipped", "billed"};
  for (int64_t i = 0; i < 500; ++i) t.AddRow({Value(i), Value(names[i % 3])});
  EXPECT_LT(Serializer::WireSize(t), Serializer::Skl1Size(t) / 4);
}

// ---------------------------------------------------------------------------
// Size codecs: integral doubles, repeated sections and null-free columns.
// Each is used only when it makes its section strictly smaller, so the
// tests read the tag byte both where a codec is taken and where it is not.
// ---------------------------------------------------------------------------

constexpr uint8_t kTagAllNull = 0x00;
constexpr uint8_t kTagInt64 = 0x01;
constexpr uint8_t kTagDouble = 0x02;
constexpr uint8_t kTagIntegralDouble = 0x05;
constexpr uint8_t kTagPacked = 0x40;
constexpr uint8_t kTagNullFree = 0x80;

/// The SKL2 column sections of `t`: its payload after the common header.
std::string Sections(const Table& t) {
  const std::string bytes = Serializer::SerializeTable(t);
  return bytes.substr(Serializer::WireSize(Table(t.schema_ptr())));
}

uint8_t Tag(const std::string& sections, size_t offset = 0) {
  return static_cast<uint8_t>(sections.at(offset));
}

Table DoubleColumn(const std::vector<double>& values) {
  Table t(MakeSchema({{"d", ValueType::kDouble}}));
  for (const double d : values) t.AddRow({Value(d)});
  return t;
}

TEST(WireCodecTest, IntegralDoublesShipAsInt64Deltas) {
  const Table t =
      DoubleColumn({1.0, 2.0, 1000.0, -5.0, 0x1p53, 0x1p53 + 2, -0x1p62});
  const std::string sections = Sections(t);
  EXPECT_EQ(Tag(sections), kTagIntegralDouble | kTagNullFree);
  EXPECT_LT(sections.size(), 1 + 8 * 7u);
  ExpectExactSizes(t);
}

TEST(WireCodecTest, IntegralCodecDeclinesWhenNotSmallerOrNotExact) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& values : std::vector<std::vector<double>>{
           // Exact, but every varint takes 8 bytes or more.
           {0x1p56, -0x1p56, 0x1p60},
           {-0x1p63},
           {0x1p53},
           // Not an int64 bit for bit.
           {1.0, -0.0},
           {1.0, nan},
           {1.0, inf},
           {1.0, -inf},
           {1.0, 0x1p63},
           {1.0, 0.5}}) {
    SCOPED_TRACE(testing::PrintToString(values));
    const Table t = DoubleColumn(values);
    const std::string sections = Sections(t);
    EXPECT_EQ(Tag(sections), kTagDouble | kTagNullFree);
    EXPECT_EQ(sections.size(), 1 + 8 * values.size());
    ExpectExactSizes(t);
  }
}

TEST(WireCodecTest, NullFreeColumnsDropTheBitmap) {
  Table t(MakeSchema({{"i", ValueType::kInt64}}));
  for (int64_t i = 0; i < 16; ++i) t.AddRow({Value(i)});
  // Tag and the packed differences (layout byte, first value 0, every
  // difference 1 at width 0): no bitmap.
  EXPECT_EQ(Sections(t),
            std::string("\xc1\x80\x00\x02", 4));
  EXPECT_EQ(Tag(Sections(t)), kTagInt64 | kTagPacked | kTagNullFree);
  ExpectExactSizes(t);
  // One NULL brings back the 3-byte bitmap of 17 rows; the values ship
  // as before.
  t.AddRow({Value::Null()});
  EXPECT_EQ(Tag(Sections(t)), kTagInt64 | kTagPacked);
  EXPECT_EQ(Sections(t).size(), 4u + 3u);
  ExpectExactSizes(t);
}

TEST(WireCodecTest, EqualSectionsShipAsARepeat) {
  Table t(MakeSchema({{"a", ValueType::kInt64},
                      {"b", ValueType::kInt64},
                      {"d", ValueType::kDouble}}));
  for (int64_t i = 0; i < 100; ++i) {
    t.AddRow({Value(i), Value(i), Value(static_cast<double>(i))});
  }
  const std::string sections = Sections(t);
  // a: tag + 3 bytes of packed differences; b: a repeat of field 0.
  EXPECT_EQ(Tag(sections), kTagInt64 | kTagPacked | kTagNullFree);
  EXPECT_EQ(sections.substr(4, 2), std::string("\x06\x00", 2));
  // d has a's packed bytes under another tag: different bytes, no repeat.
  EXPECT_EQ(Tag(sections, 6), kTagIntegralDouble | kTagPacked | kTagNullFree);
  EXPECT_EQ(sections.substr(7), sections.substr(1, 3));
  EXPECT_EQ(sections.size(), 6 + 4u);
  ExpectExactSizes(t);
}

TEST(WireCodecTest, RepeatDeclinesWhenNotSmaller) {
  // A one-row section costs two bytes, and so would its repeat.
  Table one(MakeSchema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  one.AddRow({Value(int64_t{5}), Value(int64_t{5})});
  EXPECT_EQ(Sections(one), std::string("\x81\x0a\x81\x0a", 4));
  ExpectExactSizes(one);
  // An all-null section is one byte whatever the row count.
  Table nulls(MakeSchema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}));
  for (int i = 0; i < 50; ++i) nulls.AddRow({Value::Null(), Value::Null()});
  EXPECT_EQ(Sections(nulls), std::string(2, static_cast<char>(kTagAllNull)));
  ExpectExactSizes(nulls);
}

// ---------------------------------------------------------------------------
// Encoder paths: the columnar-fed SerializeTable and the row-path
// SerializeTableRowPath must write identical SKL2 bytes, codec choices
// included.
// ---------------------------------------------------------------------------

void ExpectPathsAgree(const Table& t) {
  EXPECT_EQ(Serializer::SerializeTable(t),
            Serializer::SerializeTableRowPath(t));
}

const char* const kWords[] = {"alpha", "", "beta", "gamma"};

/// A random table whose columns exercise every codec choice: NULL-free or
/// not, integral or fractional doubles, and copies of earlier columns.
Table RandomCodecTable(Rng* rng) {
  const int ncols = static_cast<int>(rng->Uniform(1, 6));
  std::vector<Field> fields;
  for (int c = 0; c < ncols; ++c) {
    fields.push_back(Field{std::string(1, static_cast<char>('a' + c)),
                           static_cast<ValueType>(rng->Uniform(1, 3))});
  }
  std::vector<double> null_rate(static_cast<size_t>(ncols));
  std::vector<bool> integral(static_cast<size_t>(ncols));
  std::vector<int> copy_of(static_cast<size_t>(ncols), -1);
  for (int c = 0; c < ncols; ++c) {
    null_rate[static_cast<size_t>(c)] = rng->Chance(0.5) ? 0.0 : 0.2;
    integral[static_cast<size_t>(c)] = rng->Chance(0.5);
    for (int k = 0; k < c; ++k) {
      if (fields[static_cast<size_t>(k)].type ==
              fields[static_cast<size_t>(c)].type &&
          rng->Chance(0.4)) {
        copy_of[static_cast<size_t>(c)] = k;
        break;
      }
    }
  }
  Table t(MakeSchema(fields));
  const int64_t rows = rng->Uniform(0, 60);
  for (int64_t r = 0; r < rows; ++r) {
    Row row;
    for (int c = 0; c < ncols; ++c) {
      const size_t i = static_cast<size_t>(c);
      if (copy_of[i] >= 0) {
        row.push_back(row[static_cast<size_t>(copy_of[i])]);
      } else if (rng->Chance(null_rate[i])) {
        row.push_back(Value::Null());
      } else if (fields[i].type == ValueType::kInt64) {
        row.push_back(Value(rng->Uniform(-100000, 100000)));
      } else if (fields[i].type == ValueType::kDouble) {
        row.push_back(integral[i]
                          ? Value(static_cast<double>(
                                rng->Uniform(-100000, 100000)))
                          : Value(rng->UniformDouble(-1e6, 1e6)));
      } else {
        row.push_back(Value(kWords[rng->Uniform(0, 3)]));
      }
    }
    t.AddRow(std::move(row));
  }
  return t;
}

TEST(WireEncoderPathsTest, AgreeOnCodecZooAndRandomTables) {
  ExpectPathsAgree(CodecZoo());
  ExpectPathsAgree(MakeTinyTable());
  Rng rng(1313);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    const Table t = RandomCodecTable(&rng);
    ExpectPathsAgree(t);
    ExpectExactSizes(t);
  }
}

TEST(WireEncoderPathsTest, AgreeOnTypeDeviantColumns) {
  // Declared types the cells do not follow: the snapshot marks these
  // columns unusable, so SerializeTable falls back to the row path for
  // them while encoding the usable neighbour from the snapshot.
  Table t(MakeSchema({{"mixed", ValueType::kInt64},
                      {"ints_as_double", ValueType::kDouble},
                      {"doubles_as_int", ValueType::kInt64},
                      {"strings_as_int", ValueType::kInt64},
                      {"usable", ValueType::kInt64}}));
  for (int64_t i = 0; i < 20; ++i) {
    Row row{Value(i), Value(i * 10), Value(static_cast<double>(i) * 2),
            Value(kWords[i % 4]), Value(i * 10)};
    if (i % 3 == 0) row[0] = Value(static_cast<double>(i));
    if (i == 4) row[3] = Value::Null();
    t.AddRow(std::move(row));
  }
  ExpectPathsAgree(t);
  ExpectExactSizes(t);
}

TEST(WireEncoderPathsTest, AgreeOnEveryNewCodecCase) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Integral edges, one column per edge next to plain integral values.
  for (const double edge : {-0.0, nan, inf, -inf, 0x1p53, 0x1p53 + 2,
                            -0x1p63, 0x1p63, 0x1p56}) {
    SCOPED_TRACE(edge);
    for (const bool with_null : {false, true}) {
      Table t(MakeSchema({{"d", ValueType::kDouble}}));
      t.AddRow({Value(1.0)});
      t.AddRow({Value(edge)});
      if (with_null) t.AddRow({Value::Null()});
      t.AddRow({Value(3.0)});
      ExpectPathsAgree(t);
      ExpectExactSizes(t);
    }
  }
  // Repeated columns, with and without NULLs, and NULL-free strings.
  Table t(MakeSchema({{"a", ValueType::kInt64},
                      {"s", ValueType::kString},
                      {"b", ValueType::kInt64},
                      {"t", ValueType::kString},
                      {"an", ValueType::kInt64},
                      {"bn", ValueType::kInt64}}));
  for (int64_t i = 0; i < 40; ++i) {
    Row row{Value(i), Value(kWords[i % 3]), Value(i), Value(kWords[i % 3]),
            Value(i), Value(i)};
    if (i % 5 == 0) row[4] = row[5] = Value::Null();
    t.AddRow(std::move(row));
  }
  const std::string sections = Sections(t);
  ExpectPathsAgree(t);
  ExpectExactSizes(t);
  EXPECT_NE(sections.find(std::string("\x06\x00", 2)), std::string::npos);
  EXPECT_NE(sections.find(std::string("\x06\x01", 2)), std::string::npos);
  EXPECT_NE(sections.find(std::string("\x06\x04", 2)), std::string::npos);
}

// ---------------------------------------------------------------------------
// Packed integer sections: an Int64 or IntegralDouble section ships
// frame-of-reference bit-packed, over its values or its successive
// differences, whenever that is strictly smaller than the zig-zag varint
// deltas. Layout byte: bit 7 = differences, bits 0-6 = the bit width.
// ---------------------------------------------------------------------------

constexpr uint8_t kLayoutDifferences = 0x80;

Table IntColumn(const std::vector<Value>& values) {
  Table t(MakeSchema({{"i", ValueType::kInt64}}));
  for (const Value& v : values) t.AddRow({v});
  return t;
}

/// The layout byte of a null-free packed single-column section.
uint8_t Layout(const Table& t) {
  const std::string sections = Sections(t);
  EXPECT_NE(Tag(sections) & kTagPacked, 0) << "not packed";
  return static_cast<uint8_t>(sections.at(1));
}

/// Bit-exact round trip through both encoders and the decoder.
void ExpectRoundTrip(const Table& t) {
  ExpectPathsAgree(t);
  ExpectExactSizes(t);
}

TEST(WirePackedTest, CountsShipAsPackedValues) {
  // Counts in [1, 30]: 5 bits each over min 1, where a varint delta
  // takes a byte.
  Rng rng(77);
  std::vector<Value> counts;
  for (int i = 0; i < 200; ++i) counts.push_back(Value(rng.Uniform(1, 30)));
  counts[0] = Value(int64_t{1});
  counts[1] = Value(int64_t{30});
  const Table t = IntColumn(counts);
  EXPECT_EQ(Tag(Sections(t)), kTagInt64 | kTagPacked | kTagNullFree);
  EXPECT_EQ(Layout(t), 5);
  // Tag, layout byte, zz(min 1), then ceil(200 * 5 / 8) packed bytes.
  EXPECT_EQ(Sections(t).size(), 3 + 125u);
  ExpectRoundTrip(t);
}

TEST(WirePackedTest, SortedKeysShipAsPackedDifferences) {
  // Ascending keys with gaps of 1-4: differences 1..4 pack into 2 bits
  // over the minimum difference 1.
  Rng rng(78);
  std::vector<Value> keys;
  int64_t k = 1000;
  for (int i = 0; i < 300; ++i) {
    keys.push_back(Value(k));
    k += rng.Uniform(1, 4);
  }
  const Table t = IntColumn(keys);
  EXPECT_EQ(Layout(t), kLayoutDifferences | 2);
  // Tag, layout, zz(1000) in 2 bytes, zz(1), then ceil(299 * 2 / 8).
  EXPECT_EQ(Sections(t).size(), 5 + 75u);
  ExpectRoundTrip(t);
}

TEST(WirePackedTest, EdgeWidthsRoundTrip) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  // Width 0: a constant column is a layout byte and its value.
  const Table constant = IntColumn(std::vector<Value>(50, Value(int64_t{7})));
  EXPECT_EQ(Sections(constant), std::string("\xc1\x00\x0e", 3));
  ExpectRoundTrip(constant);
  // Width 64: values spread over the whole int64 range.
  Rng rng(79);
  std::vector<Value> wide = {Value(lo), Value(hi)};
  for (int i = 0; i < 40; ++i) {
    wide.push_back(Value(static_cast<int64_t>(
        (static_cast<uint64_t>(rng.Uniform(0, 1 << 30)) << 34) ^
        static_cast<uint64_t>(rng.Uniform(0, 1 << 30)))));
  }
  const Table full_range = IntColumn(wide);
  EXPECT_EQ(Layout(full_range), 64);
  ExpectRoundTrip(full_range);
  // Differences that wrap: hi, lo, hi, lo ... differ by +1 and -1 mod 2^64.
  std::vector<Value> alternating;
  for (int i = 0; i < 40; ++i) alternating.push_back(Value(i % 2 ? lo : hi));
  const Table wrapping = IntColumn(alternating);
  EXPECT_EQ(Layout(wrapping), kLayoutDifferences | 2);
  ExpectRoundTrip(wrapping);
  // NULLs interleaved with packed values, and a section whose bitmap ends
  // mid-byte.
  for (const int64_t rows : {64, 61}) {
    std::vector<Value> sparse;
    for (int64_t i = 0; i < rows; ++i) {
      sparse.push_back(i % 3 == 1 ? Value::Null() : Value((i * 37) % 50));
    }
    const Table nulls = IntColumn(sparse);
    EXPECT_EQ(Tag(Sections(nulls)), kTagInt64 | kTagPacked);
    ExpectRoundTrip(nulls);
  }
  // Integral doubles pack like their int64s.
  Table sums(MakeSchema({{"d", ValueType::kDouble}}));
  for (int i = 0; i < 100; ++i) {
    sums.AddRow({i % 7 == 0 ? Value::Null() : Value(1000.0 + (i * 13) % 200)});
  }
  EXPECT_EQ(Tag(Sections(sums)), kTagIntegralDouble | kTagPacked);
  ExpectRoundTrip(sums);
}

/// The bytes a section of int64s, or of int64-exact doubles, took before
/// packed sections existed: the tag, the null bitmap unless null-free, and
/// the zig-zag varint deltas — for doubles only when those are smaller than
/// 8 bytes a value, raw doubles otherwise.
size_t VarintSectionSize(const Table& t) {
  size_t deltas = 0;
  size_t non_null = 0;
  int64_t prev = 0;
  for (const Row& row : t.rows()) {
    const Value& v = row[0];
    if (v.is_null()) continue;
    ++non_null;
    const int64_t i =
        v.is_int64() ? v.AsInt64() : static_cast<int64_t>(v.AsDouble());
    const int64_t diff = WrapSub(i, prev);
    uint64_t zz = (static_cast<uint64_t>(diff) << 1) ^
                  static_cast<uint64_t>(diff >> 63);
    for (deltas += 1; zz >= 0x80; zz >>= 7) ++deltas;
    prev = i;
  }
  const size_t bitmap =
      non_null == static_cast<size_t>(t.num_rows())
          ? 0
          : static_cast<size_t>((t.num_rows() + 7) / 8);
  const bool raw = t.schema().field(0).type == ValueType::kDouble &&
                   deltas >= 8 * non_null;
  return 1 + bitmap + (raw ? 8 * non_null : deltas);
}

TEST(WirePackedTest, NoSectionLargerThanItsVarintDeltas) {
  // Never larger: a section is packed only when that is strictly smaller
  // than the varint deltas the codec chose before, and is byte-for-byte
  // the same size otherwise.
  Rng rng(80);
  int packed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(trial);
    const bool doubles = rng.Chance(0.3);
    const int64_t rows = rng.Uniform(1, 80);
    const double null_rate = rng.Chance(0.5) ? 0.0 : 0.25;
    const int64_t span = int64_t{1} << rng.Uniform(0, 40);
    const bool sorted = rng.Chance(0.5);
    Table t(MakeSchema({{"v", doubles ? ValueType::kDouble
                                      : ValueType::kInt64}}));
    int64_t run = rng.Uniform(-span, span);
    for (int64_t r = 0; r < rows; ++r) {
      run = sorted ? run + rng.Uniform(0, span) : rng.Uniform(-span, span);
      if (rng.Chance(null_rate)) {
        t.AddRow({Value::Null()});
      } else {
        t.AddRow({doubles ? Value(static_cast<double>(run)) : Value(run)});
      }
    }
    const std::string sections = Sections(t);
    if (sections.size() == 1) continue;  // all NULL
    const size_t before = VarintSectionSize(t);
    if ((Tag(sections) & kTagPacked) != 0) {
      ++packed;
      EXPECT_LT(sections.size(), before);
    } else {
      EXPECT_EQ(sections.size(), before);
    }
    ExpectRoundTrip(t);
  }
  EXPECT_GT(packed, 100);
}

// ---------------------------------------------------------------------------
// Quotient sections (codec 7): a finalized AVG column shipped as its exact
// (sum, count) carriers.
// ---------------------------------------------------------------------------

constexpr uint8_t kTagQuotient = 0x07;
constexpr uint8_t kCodecBits = 0x0f;

/// An X-shaped table: a sorted int64 key and one AVG column, built the way
/// SubResultFold::FinalizeInto builds it — FinalizeSubValues over each
/// group's merged (sum, count) — with the carriers AvgQuotient finds.
struct AvgTable {
  Table table{MakeSchema({{"k", ValueType::kInt64},
                          {"avg", ValueType::kDouble}})};
  std::vector<QuotientCarriers> carriers{QuotientCarriers{1, {}, {}}};

  /// Appends a group whose AVG carriers are `sum` (int64, double or NULL)
  /// and `count`.
  void Add(const Value& sum, int64_t count) {
    const Value acc[2] = {sum, Value(count)};
    table.AddRow({Value(table.num_rows()),
                  FinalizeSubValues(AggFunc::kAvg, acc)});
    int64_t num = 0;
    int64_t den = 0;
    AvgQuotient(acc, &num, &den);
    carriers[0].num.push_back(num);
    carriers[0].den.push_back(den);
  }
};

/// Random groups: counts of 1-30 and sums of up to `max_value` a row,
/// integral doubles when `doubles`, one group in `null_every` with no
/// input rows (count 0, a NULL AVG).
AvgTable RandomAvgs(Rng* rng, int64_t groups, bool doubles,
                    int64_t max_value, int null_every = 0) {
  AvgTable t;
  for (int64_t g = 0; g < groups; ++g) {
    if (null_every > 0 && g % null_every == 0) {
      t.Add(Value::Null(), 0);
      continue;
    }
    const int64_t count = rng->Uniform(1, 30);
    const int64_t sum = rng->Uniform(count, count * max_value);
    t.Add(doubles ? Value(static_cast<double>(sum)) : Value(sum), count);
  }
  return t;
}

/// The AVG column's section of `t` encoded with `carriers`.
std::string AvgSection(const Table& t,
                       std::span<const QuotientCarriers> carriers) {
  const std::string bytes = Serializer::SerializeTable(t, carriers);
  const std::string key_only = Serializer::SerializeTable(*Project(t, {"k"}));
  // The header differs only in the second field; the key section follows
  // it in both.
  const size_t header = Serializer::WireSize(Table(t.schema_ptr()));
  const size_t key_header =
      Serializer::WireSize(Table(MakeSchema({{"k", ValueType::kInt64}})));
  return bytes.substr(header + (key_only.size() - key_header));
}

/// Both encoder paths write the same bytes with carriers, and they decode
/// to `t` bit for bit — through DeserializeTable and DecodeColumns.
void ExpectCarriersRoundTrip(const Table& t,
                             std::span<const QuotientCarriers> carriers) {
  const std::string bytes = Serializer::SerializeTable(t, carriers);
  EXPECT_EQ(bytes, Serializer::SerializeTableRowPath(t, carriers));
  ASSERT_OK_AND_ASSIGN(Table rows, Serializer::DeserializeTable(bytes));
  EXPECT_EQ(Serializer::ContentHash(rows), Serializer::ContentHash(t));
  ASSERT_OK_AND_ASSIGN(DecodedColumns columns,
                       Serializer::DecodeColumns(bytes));
  ASSERT_EQ(columns.num_rows, t.num_rows());
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (int c = 0; c < t.schema().num_fields(); ++c) {
      const Value& got = columns.columns[static_cast<size_t>(c)]
                                        [static_cast<size_t>(r)];
      ASSERT_EQ(got.type(), t.Get(r, c).type());
      if (got.is_double()) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got.AsDouble()),
                  std::bit_cast<uint64_t>(t.Get(r, c).AsDouble()));
      }
    }
  }
  // The decode re-encodes, without carriers, to the raw encoding.
  EXPECT_EQ(Serializer::SerializeTable(rows), Serializer::SerializeTable(t));
}

TEST(WireQuotientTest, AvgOverInt64ShipsAsCarriers) {
  Rng rng(90);
  const AvgTable t = RandomAvgs(&rng, 3000, /*doubles=*/false, 50);
  const std::string raw = AvgSection(t.table, {});
  const std::string quotient = AvgSection(t.table, t.carriers);
  EXPECT_EQ(Tag(raw), kTagDouble | kTagNullFree);
  EXPECT_EQ(Tag(quotient), kTagQuotient | kTagNullFree);
  // Sums under 1,500 and counts of 1-30 take 11 and 5 bits, against 8
  // bytes a value.
  EXPECT_LT(quotient.size() * 3, raw.size()) << quotient.size();
  ExpectCarriersRoundTrip(t.table, t.carriers);
}

TEST(WireQuotientTest, AvgOverIntegralDoublesShipsAsCarriers) {
  Rng rng(91);
  const AvgTable t = RandomAvgs(&rng, 3000, /*doubles=*/true, 100000);
  const std::string quotient = AvgSection(t.table, t.carriers);
  EXPECT_EQ(Tag(quotient), kTagQuotient | kTagNullFree);
  EXPECT_LT(quotient.size(), AvgSection(t.table, {}).size() / 2);
  ExpectCarriersRoundTrip(t.table, t.carriers);
}

TEST(WireQuotientTest, NullGroupsKeepTheBitmap) {
  // A group with no input rows finalizes to NULL (count 0): the section
  // keeps the Double section's bitmap, and the sub-sections carry only
  // the non-null rows.
  Rng rng(92);
  const AvgTable t = RandomAvgs(&rng, 500, /*doubles=*/false, 50,
                                /*null_every=*/7);
  const std::string quotient = AvgSection(t.table, t.carriers);
  EXPECT_EQ(Tag(quotient), kTagQuotient);
  EXPECT_EQ(Tag(AvgSection(t.table, {})), kTagDouble);
  EXPECT_LT(quotient.size(), AvgSection(t.table, {}).size());
  ExpectCarriersRoundTrip(t.table, t.carriers);
}

TEST(WireQuotientTest, SumsBeyond2To53RoundTrip) {
  // An int64 sum past 2^53 finalizes through its rounded double on both
  // sides, so the carriers still reproduce the cell bit for bit.
  Rng rng(93);
  AvgTable t = RandomAvgs(&rng, 200, /*doubles=*/false, 50);
  t.Add(Value((int64_t{1} << 53) + 1), 3);
  t.Add(Value((int64_t{1} << 62) + 12345), 7);
  t.Add(Value(std::numeric_limits<int64_t>::max()), 1);
  t.Add(Value(std::numeric_limits<int64_t>::min()), 2);
  t.Add(Value(0x1p62), 5);  // an integral double sum beyond 2^53
  EXPECT_EQ(Tag(AvgSection(t.table, t.carriers)),
            kTagQuotient | kTagNullFree);
  ExpectCarriersRoundTrip(t.table, t.carriers);
}

TEST(WireQuotientTest, InexactCellsKeepRawDoubles) {
  // Whatever one row's carriers say, a cell they do not reproduce bit for
  // bit sends the whole column raw: -0.0, NaN, ±inf, a non-integral sum
  // (no carriers: AvgQuotient declines it), and carriers that disagree.
  const std::vector<std::pair<const char*, AvgTable (*)(AvgTable)>> cases = {
      {"-0.0 sum",
       [](AvgTable t) {
         t.Add(Value(-0.0), 4);
         return t;
       }},
      {"NaN sum",
       [](AvgTable t) {
         t.Add(Value(std::nan("")), 4);
         return t;
       }},
      {"+inf sum",
       [](AvgTable t) {
         t.Add(Value(std::numeric_limits<double>::infinity()), 4);
         return t;
       }},
      {"-inf sum",
       [](AvgTable t) {
         t.Add(Value(-std::numeric_limits<double>::infinity()), 4);
         return t;
       }},
      {"non-integral sum",
       [](AvgTable t) {
         t.Add(Value(2.75), 3);
         return t;
       }},
      {"disagreeing carriers",
       [](AvgTable t) {
         t.Add(Value(int64_t{10}), 4);
         t.carriers[0].num.back() = 11;
         return t;
       }},
      {"-0.0 cell claimed as 0 / 5",
       [](AvgTable t) {
         t.Add(Value(int64_t{0}), 5);
         t.table.mutable_row(t.table.num_rows() - 1)[1] = Value(-0.0);
         return t;
       }},
  };
  Rng rng(94);
  const AvgTable common = RandomAvgs(&rng, 100, /*doubles=*/false, 50);
  for (const auto& [name, make] : cases) {
    SCOPED_TRACE(name);
    const AvgTable t = make(common);
    EXPECT_EQ(Tag(AvgSection(t.table, t.carriers)) & kCodecBits, kTagDouble);
    EXPECT_EQ(AvgSection(t.table, t.carriers), AvgSection(t.table, {}));
    ExpectCarriersRoundTrip(t.table, t.carriers);
  }
}

TEST(WireQuotientTest, AbsentCarriersKeepRawDoubles) {
  Rng rng(95);
  AvgTable t = RandomAvgs(&rng, 100, /*doubles=*/false, 50);
  const std::string raw = AvgSection(t.table, {});
  // Carriers for another field, or fewer carriers than rows, are none.
  std::vector<QuotientCarriers> elsewhere = t.carriers;
  elsewhere[0].field = 0;
  EXPECT_EQ(AvgSection(t.table, elsewhere), raw);
  std::vector<QuotientCarriers> short_by_one = t.carriers;
  short_by_one[0].num.pop_back();
  short_by_one[0].den.pop_back();
  EXPECT_EQ(AvgSection(t.table, short_by_one), raw);
  // A row whose carriers are missing (den 0) sends the column raw.
  t.carriers[0].den[40] = 0;
  EXPECT_EQ(AvgSection(t.table, t.carriers), raw);
}

TEST(WireQuotientTest, NoSectionLargerThanWithoutCarriers) {
  // Never larger: carriers replace a section only when strictly smaller —
  // a constant AVG ships as one packed integral double, which no pair of
  // sub-sections beats.
  AvgTable constant;
  for (int64_t g = 0; g < 50; ++g) {
    constant.Add(Value(int64_t{10} * (g + 1)), g + 1);
  }
  EXPECT_EQ(Tag(AvgSection(constant.table, constant.carriers)),
            kTagIntegralDouble | kTagPacked | kTagNullFree);
  Rng rng(96);
  int quotients = 0;
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    const AvgTable t = RandomAvgs(
        &rng, rng.Uniform(1, 60), rng.Chance(0.5),
        int64_t{1} << rng.Uniform(0, 50),
        rng.Chance(0.5) ? 0 : static_cast<int>(rng.Uniform(1, 5)));
    const std::string with = AvgSection(t.table, t.carriers);
    const std::string without = AvgSection(t.table, {});
    if ((Tag(with) & kCodecBits) == kTagQuotient) {
      ++quotients;
      EXPECT_LT(with.size(), without.size());
    } else {
      EXPECT_EQ(with, without);
    }
    ExpectCarriersRoundTrip(t.table, t.carriers);
  }
  EXPECT_GT(quotients, 100);
}

TEST(WireQuotientTest, DeltaNewColumnShipsAsCarriers) {
  // Round r + 1's X is round r's plus the AVG column round r finalized:
  // the SKLD delta ships that new column as its carriers too.
  Rng rng(97);
  const AvgTable t = RandomAvgs(&rng, 1000, /*doubles=*/true, 10000,
                                /*null_every=*/9);
  const Table base = *Project(t.table, {"k"});
  const std::string raw = Serializer::SerializeDelta(base, t.table);
  const std::string delta =
      Serializer::SerializeDelta(base, t.table, t.carriers);
  EXPECT_LT(delta.size() * 2, raw.size());
  ASSERT_OK_AND_ASSIGN(Table decoded,
                       Serializer::DecodeShipment(&base, delta));
  EXPECT_EQ(Serializer::ContentHash(decoded),
            Serializer::ContentHash(t.table));
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
  const std::string full = Serializer::SerializeTable(next);
  EXPECT_LT(delta.size(), full.size());
  // The delta carries only the appended o1 column (plus a bounded
  // preamble) — the unchanged k and c columns are never re-shipped.
  Table o1_only(MakeSchema({{"o1", ValueType::kDouble}}));
  for (int64_t i = 0; i < 100; ++i) {
    o1_only.AddRow({Value(static_cast<double>(i) / 2)});
  }
  EXPECT_LT(delta.size(), o1_only.SerializedSize() + 128);
  ASSERT_OK_AND_ASSIGN(Table decoded, Serializer::DecodeShipment(&base, delta));
  EXPECT_EQ(TableBytes(decoded), TableBytes(next));
}

TEST(WireDeltaTest, AppendedRowsShipOnlyTheSuffix) {
  // c is scrambled, so each row costs bytes in either payload (an
  // arithmetic column packs to a few bytes whatever its length).
  auto row = [](int64_t i) { return Row{Value(i), Value((i * 7919) % 1000)}; };
  Table base(MakeSchema({{"k", ValueType::kInt64}, {"c", ValueType::kInt64}}));
  for (int64_t i = 0; i < 100; ++i) base.AddRow(row(i));
  Table next = base;
  for (int64_t i = 100; i < 110; ++i) next.AddRow(row(i));
  const std::string delta = Serializer::SerializeDelta(base, next);
  const std::string full = Serializer::SerializeTable(next);
  EXPECT_LT(delta.size(), full.size() / 2);
  ASSERT_OK_AND_ASSIGN(Table decoded, Serializer::DecodeShipment(&base, delta));
  EXPECT_EQ(TableBytes(decoded), TableBytes(next));
}

TEST(WireDeltaTest, EqualSectionsRepeatInsideADelta) {
  Table base(MakeSchema({{"k", ValueType::kInt64}}));
  for (int64_t i = 0; i < 10; ++i) base.AddRow({Value(i)});
  Table next(MakeSchema({{"k", ValueType::kInt64},
                         {"o1", ValueType::kInt64},
                         {"o2", ValueType::kInt64}}));
  for (int64_t i = 0; i < 12; ++i) {
    next.AddRow({Value(i), Value(i * 7), Value(i * 7)});
  }
  const std::string delta = Serializer::SerializeDelta(base, next);
  // k ships its 2 appended rows, o1 all 12, and o2 repeats field 1.
  EXPECT_EQ(delta.substr(delta.size() - 2), std::string("\x06\x01", 2));
  ASSERT_OK_AND_ASSIGN(Table decoded, Serializer::DecodeShipment(&base, delta));
  EXPECT_EQ(TableBytes(decoded), TableBytes(next));
}

TEST(WireDeltaTest, RepeatNeedsAnEqualRowCount) {
  // k ships rows 1-9 as [NULL, 1..8] and the new o all 10 rows as
  // [NULL, 1..8, NULL]: the same 6 section bytes (tag, 2-byte bitmap,
  // 3 bytes of packed differences) over 9 and 10 rows. Both must ship as
  // literals.
  Table base(MakeSchema({{"k", ValueType::kInt64}}));
  base.AddRow({Value(int64_t{100})});
  Table next(MakeSchema({{"k", ValueType::kInt64},
                         {"o", ValueType::kInt64}}));
  next.AddRow({Value(int64_t{100}), Value::Null()});
  next.AddRow({Value::Null(), Value(int64_t{1})});
  for (int64_t i = 1; i <= 8; ++i) {
    Row row{Value(i), Value(i + 1)};
    if (i == 8) row[1] = Value::Null();
    next.AddRow(std::move(row));
  }
  const std::string delta = Serializer::SerializeDelta(base, next);
  ASSERT_GT(delta.size(), 12u);
  const std::string tail = delta.substr(delta.size() - 12);
  EXPECT_EQ(Tag(tail), kTagInt64 | kTagPacked);
  EXPECT_EQ(tail.substr(0, 6), tail.substr(6));
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
  const std::string full = Serializer::SerializeTable(next);
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
// End-to-end: every delta, parallel and topology configuration returns
// byte-identical results, delta shipping cuts total traffic >= 2x against
// full SKL1 shipping on the Fig. 2 workload, and the metrics equal the
// simulated network's records exactly.
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

  static NetworkConfig Config(bool delta) {
    NetworkConfig net;
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
    // The reference ships every X in full, serially and flat.
    wh.set_network_config(Config(false));
    ASSERT_OK_AND_ASSIGN(QueryResult reference, wh.ExecutePlan(plan));
    const std::string expected = TableBytes(reference.table);

    for (const bool delta : {false, true}) {
      for (const bool parallel : {false, true}) {
        SCOPED_TRACE(std::string(delta ? "skl2+delta" : "skl2") +
                     (parallel ? " parallel" : " serial"));
        wh.set_network_config(Config(delta));
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
  // Against full SKL1 shipping, which BytesBaselineSkl1() prices exactly
  // (Skl1BaselineEqualsSkl1RunBytes).
  Warehouse wh(8);
  Load(&wh);
  ASSERT_OK_AND_ASSIGN(
      DistributedPlan plan,
      wh.Plan(queries::GroupReductionQuery("CustKey"),
              OptimizerOptions::None()));

  wh.set_network_config(Config(true));
  ASSERT_OK_AND_ASSIGN(QueryResult delta, wh.ExecutePlan(plan));
  wh.set_network_config(Config(false));
  ASSERT_OK_AND_ASSIGN(QueryResult full, wh.ExecutePlan(plan));

  EXPECT_EQ(TableBytes(delta.table), TableBytes(full.table));
  EXPECT_GE(delta.metrics.BytesBaselineSkl1(), 2 * delta.metrics.TotalBytes())
      << "SKL1 " << delta.metrics.BytesBaselineSkl1() << " vs SKL2+delta "
      << delta.metrics.TotalBytes();

  // The counters: savings recorded, ratio > 1.
  EXPECT_GT(delta.metrics.BytesSavedByDelta(), 0u);
  EXPECT_GT(delta.metrics.CompressionRatio(), 1.0);

  // Without deltas nothing is saved, against the same baseline.
  EXPECT_EQ(full.metrics.BytesSavedByDelta(), 0u);
  EXPECT_EQ(full.metrics.BytesBaselineSkl1(),
            delta.metrics.BytesBaselineSkl1());
  EXPECT_LT(delta.metrics.TotalBytes(), full.metrics.TotalBytes());

  // The same holds on the aggregation tree.
  wh.set_network_config(Config(true));
  ASSERT_OK_AND_ASSIGN(QueryResult tree_delta, wh.ExecutePlanTree(plan, 2));
  EXPECT_EQ(TableBytes(tree_delta.table), TableBytes(full.table));
  EXPECT_GE(tree_delta.metrics.BytesBaselineSkl1(),
            2 * tree_delta.metrics.TotalBytes());
  EXPECT_GT(tree_delta.metrics.BytesSavedByDelta(), 0u);
}

TEST_F(WireEndToEndTest, Skl1BaselineEqualsSkl1RunBytes) {
  // BytesBaselineSkl1() is what every message of the query would cost as a
  // full SKL1 payload: exactly the bytes each query shipped, flat and on
  // the fan-in-2 tree, when NetworkConfig could still select SKL1 (the
  // recorded numbers), whatever the run saves with deltas.
  struct Case {
    GmdjExpr query;
    size_t flat;
    size_t tree;
  };
  const Case cases[] = {
      {queries::GroupReductionQuery("CustKey"), 604811, 1082953},
      {queries::CombinedQuery("CustKey"), 1071315, 1907145},
      {queries::CoalescingQuery("ClerkKey"), 42432, 75006}};
  Warehouse wh(8);
  Load(&wh);
  for (const Case& c : cases) {
    ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                         wh.Plan(c.query, OptimizerOptions::None()));
    for (const bool delta : {false, true}) {
      SCOPED_TRACE(delta ? "skl2+delta" : "skl2");
      wh.set_network_config(Config(delta));
      ASSERT_OK_AND_ASSIGN(QueryResult flat, wh.ExecutePlan(plan));
      EXPECT_EQ(flat.metrics.BytesBaselineSkl1(), c.flat);
      ASSERT_OK_AND_ASSIGN(QueryResult tree, wh.ExecutePlanTree(plan, 2));
      EXPECT_EQ(tree.metrics.BytesBaselineSkl1(), c.tree);
    }
  }
}

TEST_F(WireEndToEndTest, FusedRoundRepliesStayUnderTenBytesPerGroup) {
  // Under All() the query runs as one fused round whose replies carry
  // CustKey, cnt1, avg1's (sum, count), cnt2 and avg2's (sum, count). The
  // integral codec sends avg2's whole-dollar price sums as integers and the
  // repeat codec sends each AVG count equal to its COUNT(*) column as two
  // bytes; key-ordered groups and packed integer sections bring it to 6.7
  // bytes per group, against 9.2 with varint deltas, 14.2 without the
  // integral codec, 11.2 without repeats and 17.0 with neither.
  Warehouse wh(8);
  Load(&wh);
  wh.set_network_config(Config(true));
  ASSERT_OK_AND_ASSIGN(
      DistributedPlan plan,
      wh.Plan(queries::GroupReductionQuery("CustKey"),
              OptimizerOptions::All()));
  ASSERT_TRUE(plan.fuse_base);
  ASSERT_OK_AND_ASSIGN(QueryResult result, wh.ExecutePlan(plan));
  ASSERT_EQ(result.metrics.NumRounds(), 1);
  const RoundMetrics& fused = result.metrics.rounds[0];
  ASSERT_GT(fused.groups_to_coord, 0);
  EXPECT_LT(static_cast<double>(fused.bytes_to_coord) /
                static_cast<double>(fused.groups_to_coord),
            10.0)
      << fused.bytes_to_coord << " bytes for " << fused.groups_to_coord
      << " groups";
}

TEST_F(WireEndToEndTest, AvgCarriersLeaveResultsUnchanged) {
  // Every plan — Theorem-4 reduced and column-pruned views under All(),
  // deltas, trees — gives the bytes of the serial flat run without deltas,
  // and that run holds the rows of the centralized evaluation, which ships
  // nothing and so no carriers.
  Warehouse wh(8);
  Load(&wh);
  for (const GmdjExpr& query :
       {queries::GroupReductionQuery("CustKey"),
        queries::CoalescingQuery("ClerkKey"),
        queries::SyncReductionQuery("CustKey"),
        queries::CombinedQuery("CustKey"),
        queries::MultiFeatureQuery("ClerkKey")}) {
    ASSERT_OK_AND_ASSIGN(Table central, wh.ExecuteCentralized(query));
    for (const bool all : {false, true}) {
      ASSERT_OK_AND_ASSIGN(
          DistributedPlan plan,
          wh.Plan(query,
                  all ? OptimizerOptions::All() : OptimizerOptions::None()));
      wh.set_network_config(Config(false));
      ASSERT_OK_AND_ASSIGN(QueryResult reference, wh.ExecutePlan(plan));
      ExpectSameRows(reference.table, central);
      const std::string expected = TableBytes(reference.table);
      for (const bool delta : {false, true}) {
        SCOPED_TRACE(std::string(all ? "All()" : "None()") +
                     (delta ? " skl2+delta" : " skl2"));
        wh.set_network_config(Config(delta));
        ASSERT_OK_AND_ASSIGN(QueryResult flat, wh.ExecutePlan(plan));
        EXPECT_EQ(TableBytes(flat.table), expected);
        ASSERT_OK_AND_ASSIGN(QueryResult tree, wh.ExecutePlanTree(plan, 2));
        EXPECT_EQ(TableBytes(tree.table), expected);
      }
    }
  }
}

TEST_F(WireEndToEndTest, XViewsShipAvgsAsCarriersAndAResumedXRaw) {
  // Round 2 of the Fig. 2 query ships X with avg1 to all 8 sites. Its
  // views carry avg1 as (sum, count) carriers; an X resumed from a cached
  // prefix has none, so it ships the raw view — and the answers agree.
  Warehouse wh(8);
  Load(&wh);
  std::vector<Site*> sites;
  for (int i = 0; i < wh.num_sites(); ++i) sites.push_back(&wh.site(i));
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(queries::GroupReductionQuery("CustKey"),
                               OptimizerOptions::None()));
  ASSERT_EQ(plan.rounds.size(), 2u);

  Coordinator fresh(sites, Config(false));
  std::optional<Table> x1;
  fresh.set_round_observer([&x1](size_t ops_done, const Table& x) {
    if (ops_done == 1) x1 = x;
  });
  ExecutionMetrics fresh_metrics;
  ASSERT_OK_AND_ASSIGN(Table fresh_table, fresh.Execute(plan, &fresh_metrics));
  ASSERT_TRUE(x1.has_value());
  const size_t raw_views =
      sites.size() * Serializer::SerializeTable(*x1).size();
  const size_t carrier_views = fresh_metrics.rounds.back().bytes_to_sites;
  // Raw, a view takes ≈9 bytes a group, 8 of them avg1's; with avg1's
  // carriers it takes ≈3.
  EXPECT_LT(carrier_views * 2, raw_views)
      << carrier_views << " vs " << raw_views;

  Coordinator resumed(sites, Config(false));
  resumed.set_resume(&*x1, 1);
  ExecutionMetrics resumed_metrics;
  ASSERT_OK_AND_ASSIGN(Table resumed_table,
                       resumed.Execute(plan, &resumed_metrics));
  EXPECT_EQ(TableBytes(resumed_table), TableBytes(fresh_table));
  ASSERT_EQ(resumed_metrics.rounds.size(), 1u);
  EXPECT_EQ(resumed_metrics.rounds[0].bytes_to_sites, raw_views);
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
  std::vector<Site*> sites;
  for (int i = 0; i < wh.num_sites(); ++i) sites.push_back(&wh.site(i));

  // All() adds aware group reduction, fused rounds and column pruning: the
  // reduced, pruned X views and their deltas must match the log too.
  for (const bool all : {false, true}) {
    ASSERT_OK_AND_ASSIGN(
        DistributedPlan plan,
        wh.Plan(queries::CombinedQuery("CustKey"),
                all ? OptimizerOptions::All() : OptimizerOptions::None()));
    for (const bool delta : {false, true}) {
      SCOPED_TRACE(std::string(all ? "All() " : "None() ") +
                   (delta ? "skl2+delta" : "skl2"));
      Coordinator flat(sites, Config(delta));
      ExecutionMetrics flat_metrics;
      ASSERT_OK_AND_ASSIGN(Table flat_table,
                           flat.Execute(plan, &flat_metrics));
      EXPECT_GT(flat_table.num_rows(), 0);
      ExpectBytesMatchNetwork(flat_metrics, flat.network());

      Coordinator tree(sites, /*fan_in=*/2, Config(delta));
      ExecutionMetrics tree_metrics;
      ASSERT_OK_AND_ASSIGN(Table tree_table,
                           tree.Execute(plan, &tree_metrics));
      EXPECT_EQ(TableBytes(tree_table), TableBytes(flat_table));
      ExpectBytesMatchNetwork(tree_metrics, tree.network());
    }
  }
}

// ---------------------------------------------------------------------------
// Seed-era warehouse files: SaveWarehouse once wrote every fragment as SKL1
// under the same manifest, so LoadWarehouse must still read them and give
// the same answers.
// ---------------------------------------------------------------------------

TEST(WireSkl1FileTest, Skl1FragmentsLoadToByteIdenticalAnswers) {
  Warehouse original(4);
  TpcConfig config;
  config.num_rows = 4000;
  config.num_customers = 300;
  config.num_clerks = 40;
  config.seed = 7;
  ASSERT_OK(original.LoadByRange("TPCR", GenerateTpcr(config), "NationKey", 0,
                                 24, {"CustKey", "ClerkKey"}));
  const std::string dir = ::testing::TempDir() + "/skalla_wh_skl1";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_OK(SaveWarehouse(original, dir));

  // Rewrite each fragment file as its SKL1 encoding.
  int rewritten = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.path().extension() != ".skl") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    in.close();
    ASSERT_OK_AND_ASSIGN(Table fragment, Serializer::DeserializeTable(bytes));
    ASSERT_EQ(bytes, Serializer::SerializeTable(fragment));  // saved as SKL2
    std::ofstream(entry.path(), std::ios::binary | std::ios::trunc)
        << EncodeSkl1(fragment);
    ++rewritten;
  }
  EXPECT_EQ(rewritten, original.num_sites());

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Warehouse> restored,
                       LoadWarehouse(dir));
  ASSERT_EQ(restored->num_sites(), original.num_sites());
  for (int s = 0; s < original.num_sites(); ++s) {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> a,
                         original.site(s).catalog().GetTable("TPCR"));
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> b,
                         restored->site(s).catalog().GetTable("TPCR"));
    EXPECT_EQ(EncodeSkl1(*b), EncodeSkl1(*a)) << "site " << s;
  }
  for (const GmdjExpr& query :
       {queries::GroupReductionQuery("CustKey"),
        queries::CoalescingQuery("ClerkKey"),
        queries::SyncReductionQuery("CustKey"),
        queries::CombinedQuery("CustKey"),
        queries::MultiFeatureQuery("ClerkKey")}) {
    for (const bool all : {false, true}) {
      const OptimizerOptions options =
          all ? OptimizerOptions::All() : OptimizerOptions::None();
      ASSERT_OK_AND_ASSIGN(QueryResult expected,
                           original.Execute(query, options));
      ASSERT_OK_AND_ASSIGN(QueryResult actual,
                           restored->Execute(query, options));
      EXPECT_EQ(TableBytes(actual.table), TableBytes(expected.table));
    }
  }
}

}  // namespace
}  // namespace skalla
