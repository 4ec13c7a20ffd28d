#include "storage/serializer.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/random.h"
#include "storage/csv.h"
#include "test_util.h"

namespace skalla {
namespace {

TEST(SerializerTest, RoundTripTinyTable) {
  const Table original = MakeTinyTable();
  const std::string bytes = Serializer::SerializeTable(original);
  ASSERT_OK_AND_ASSIGN(Table decoded, Serializer::DeserializeTable(bytes));
  EXPECT_TRUE(decoded.schema().Equals(original.schema()));
  ExpectSameRows(decoded, original);
}

TEST(SerializerTest, RoundTripEmptyTable) {
  Table original(MakeSchema({{"a", ValueType::kInt64}}));
  const std::string bytes = Serializer::SerializeTable(original);
  ASSERT_OK_AND_ASSIGN(Table decoded, Serializer::DeserializeTable(bytes));
  EXPECT_EQ(decoded.num_rows(), 0);
  EXPECT_TRUE(decoded.schema().Equals(original.schema()));
}

TEST(SerializerTest, RoundTripNulls) {
  Table original(MakeSchema(
      {{"a", ValueType::kInt64}, {"b", ValueType::kString}}));
  original.AddRow({Value::Null(), Value::Null()});
  original.AddRow({Value(1), Value("x")});
  const std::string bytes = Serializer::SerializeTable(original);
  ASSERT_OK_AND_ASSIGN(Table decoded, Serializer::DeserializeTable(bytes));
  EXPECT_TRUE(decoded.Get(0, 0).is_null());
  EXPECT_TRUE(decoded.Get(0, 1).is_null());
  EXPECT_EQ(decoded.Get(1, 1), Value("x"));
}

TEST(SerializerTest, WireSizeMatchesActualBytes) {
  const Table t = MakeTinyTable();
  EXPECT_EQ(Serializer::WireSize(t), Serializer::SerializeTable(t).size());
}

TEST(SerializerTest, WireSizeMatchesForEmptyTable) {
  Table t(MakeSchema({{"long_column_name", ValueType::kString}}));
  EXPECT_EQ(Serializer::WireSize(t), Serializer::SerializeTable(t).size());
}

TEST(SerializerTest, RejectsBadMagic) {
  std::string bytes = Serializer::SerializeTable(MakeTinyTable());
  bytes[0] = 'X';
  auto result = Serializer::DeserializeTable(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(SerializerTest, RejectsTruncation) {
  const std::string bytes = Serializer::SerializeTable(MakeTinyTable());
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{5}}) {
    auto result =
        Serializer::DeserializeTable(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
  }
}

TEST(SerializerTest, RejectsTrailingGarbage) {
  std::string bytes = Serializer::SerializeTable(MakeTinyTable());
  bytes += "junk";
  auto result = Serializer::DeserializeTable(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("trailing"), std::string::npos);
}

TEST(SerializerTest, RandomizedRoundTripProperty) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const int ncols = static_cast<int>(rng.Uniform(1, 6));
    std::vector<Field> fields;
    for (int c = 0; c < ncols; ++c) {
      const int type = static_cast<int>(rng.Uniform(1, 3));
      fields.push_back(Field{"c" + std::to_string(c),
                             static_cast<ValueType>(type)});
    }
    Table t(MakeSchema(fields));
    const int64_t nrows = rng.Uniform(0, 40);
    for (int64_t r = 0; r < nrows; ++r) {
      Row row;
      for (int c = 0; c < ncols; ++c) {
        if (rng.Chance(0.1)) {
          row.push_back(Value::Null());
          continue;
        }
        switch (fields[static_cast<size_t>(c)].type) {
          case ValueType::kInt64:
            row.push_back(Value(rng.Uniform(-1000000, 1000000)));
            break;
          case ValueType::kDouble:
            row.push_back(Value(rng.UniformDouble(-10, 10)));
            break;
          default:
            row.push_back(Value(rng.AlphaString(
                static_cast<int>(rng.Uniform(0, 12)))));
        }
      }
      t.AddRow(std::move(row));
    }
    const std::string bytes = Serializer::SerializeTable(t);
    EXPECT_EQ(bytes.size(), Serializer::WireSize(t));
    ASSERT_OK_AND_ASSIGN(Table decoded, Serializer::DeserializeTable(bytes));
    ExpectSameRows(decoded, t);
  }
}

TEST(SerializerTest, BothFormatsRoundTripExplicitly) {
  const Table t = MakeTinyTable();
  for (const WireFormat format : {WireFormat::kSkl1, WireFormat::kSkl2}) {
    SCOPED_TRACE(WireFormatName(format));
    const std::string bytes = Serializer::SerializeTable(t, format);
    EXPECT_EQ(bytes.size(), Serializer::WireSize(t, format));
    ASSERT_OK_AND_ASSIGN(Table decoded, Serializer::DeserializeTable(bytes));
    ExpectSameRows(decoded, t);
  }
}

// ---------------------------------------------------------------------------
// Malformed-input corpus: every corruption must surface as a clean IoError,
// never a crash, hang, or silently wrong table. (Prime target for
// -DSKALLA_SANITIZE=address on the "wire" label.)
// ---------------------------------------------------------------------------

/// One int64 column "a": SKL2 header is magic(4) + nfields(4) +
/// field(1 + 4 + 1) + nrows(8) = 22 bytes, then the column codec tag.
constexpr size_t kSkl2OneColHeader = 22;

void ExpectIoError(const Result<Table>& result, const char* substring) {
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find(substring), std::string::npos)
      << result.status().ToString();
}

TEST(SerializerMalformedTest, BadMagicBothFormats) {
  for (const WireFormat format : {WireFormat::kSkl1, WireFormat::kSkl2}) {
    std::string bytes = Serializer::SerializeTable(MakeTinyTable(), format);
    bytes[0] = 'X';
    ExpectIoError(Serializer::DeserializeTable(bytes), "magic");
  }
}

TEST(SerializerMalformedTest, TruncatedNullBitmap) {
  // One NULL keeps the bitmap: a column without NULLs is sent null-free.
  Table t(MakeSchema({{"a", ValueType::kInt64}}));
  for (int64_t i = 0; i < 16; ++i) {
    if (i == 3) {
      t.AddRow({Value::Null()});
    } else {
      t.AddRow({Value(i)});
    }
  }
  const std::string bytes = Serializer::SerializeTable(t, WireFormat::kSkl2);
  // Cut inside the 2-byte bitmap that follows the column tag.
  const std::string_view cut =
      std::string_view(bytes).substr(0, kSkl2OneColHeader + 2);
  ExpectIoError(Serializer::DeserializeTable(cut), "bitmap");
}

TEST(SerializerMalformedTest, OverflowingVarint) {
  Table t(MakeSchema({{"a", ValueType::kInt64}}));
  t.AddRow({Value(int64_t{5})});
  std::string bytes = Serializer::SerializeTable(t, WireFormat::kSkl2);
  // Replace the single-byte varint delta with ten 0xff continuation bytes:
  // more than 64 bits of payload must be rejected, not wrapped.
  bytes.resize(kSkl2OneColHeader + 1);  // keep the null-free tag
  bytes.append(10, '\xff');
  ExpectIoError(Serializer::DeserializeTable(bytes), "varint");
}

TEST(SerializerMalformedTest, TruncatedVarint) {
  Table t(MakeSchema({{"a", ValueType::kInt64}}));
  t.AddRow({Value(int64_t{5})});
  std::string bytes = Serializer::SerializeTable(t, WireFormat::kSkl2);
  bytes.resize(kSkl2OneColHeader + 1);  // keep the null-free tag
  bytes.push_back('\x80');  // continuation bit set, then EOF
  ExpectIoError(Serializer::DeserializeTable(bytes), "varint");
}

TEST(SerializerMalformedTest, OutOfRangeDictionaryCode) {
  Table t(MakeSchema({{"s", ValueType::kString}}));
  t.AddRow({Value("x")});
  t.AddRow({Value("y")});
  std::string bytes = Serializer::SerializeTable(t, WireFormat::kSkl2);
  // The last byte is row 2's dictionary code; the dictionary has 2 entries.
  bytes.back() = '\x07';
  ExpectIoError(Serializer::DeserializeTable(bytes), "dictionary");
}

TEST(SerializerMalformedTest, UnknownColumnCodec) {
  Table t(MakeSchema({{"a", ValueType::kInt64}}));
  t.AddRow({Value(int64_t{5})});
  std::string bytes = Serializer::SerializeTable(t, WireFormat::kSkl2);
  bytes[kSkl2OneColHeader] = '\x63';
  ExpectIoError(Serializer::DeserializeTable(bytes), "codec");
}

/// A hand-built SKL2 payload: the header of `schema` claiming `nrows` rows,
/// then `sections` verbatim.
std::string Skl2Payload(SchemaPtr schema, uint64_t nrows,
                        const std::string& sections) {
  std::string bytes =
      Serializer::SerializeTable(Table(std::move(schema)), WireFormat::kSkl2);
  std::memcpy(bytes.data() + bytes.size() - 8, &nrows, 8);
  return bytes + sections;
}

/// Decodes `sections` as the payload of a 2-row table of int64 columns a,
/// b and c.
Result<Table> DecodeThreeInts(const std::string& sections) {
  return Serializer::DeserializeTable(
      Skl2Payload(MakeSchema({{"a", ValueType::kInt64},
                              {"b", ValueType::kInt64},
                              {"c", ValueType::kInt64}}),
                  2, sections));
}

/// A null-free int64 section of the two values 1 and 2.
std::string OneTwo() { return std::string("\x81\x02\x02", 3); }

TEST(SerializerMalformedTest, RepeatMustNameAnEarlierSection) {
  // b repeats a, and c repeats b: a chain of repeats is fine.
  ASSERT_OK_AND_ASSIGN(
      Table ok, DecodeThreeInts(OneTwo() + std::string("\x06\x00\x06\x01", 4)));
  EXPECT_EQ(ok.Get(1, 2), Value(int64_t{2}));
  for (const std::string& repeat : {
           std::string("\x06\x01", 2),  // b names itself
           std::string("\x06\x02", 2),  // b names the later c
           std::string("\x06\x03", 2),  // no field 3
           std::string("\x06\xff\xff\xff\xff\x0f", 6),
       }) {
    ExpectIoError(DecodeThreeInts(OneTwo() + repeat + OneTwo()), "repeat");
  }
  // The first section has nothing to repeat.
  ExpectIoError(
      DecodeThreeInts(std::string("\x06\x00", 2) + OneTwo() + OneTwo()),
      "repeat");
}

TEST(SerializerMalformedTest, RepeatIndexVarintChecked) {
  ExpectIoError(DecodeThreeInts(OneTwo() + std::string("\x06\x80", 2)),
                "varint");
  ExpectIoError(DecodeThreeInts(OneTwo() + "\x06" + std::string(10, '\xff')),
                "varint");
}

TEST(SerializerMalformedTest, DeltaRepeatAcrossRowCountsRejected) {
  Table base(MakeSchema({{"k", ValueType::kInt64}}));
  Table next(MakeSchema({{"k", ValueType::kInt64},
                         {"o", ValueType::kInt64}}));
  for (int64_t i = 0; i < 12; ++i) {
    if (i < 10) base.AddRow({Value(i)});
    next.AddRow({Value(i), Value(i * 7)});
  }
  // k ships its 2 appended rows; the new o ends the payload with its
  // 12 rows: a null-free tag, then deltas 0 and eleven times 7.
  std::string delta = Serializer::SerializeDelta(base, next);
  const std::string o_section =
      std::string("\x81\x00", 2) + std::string(11, '\x0e');
  ASSERT_EQ(delta.substr(delta.size() - o_section.size()), o_section);
  // o as a repeat of the 2-row k section.
  delta.resize(delta.size() - o_section.size());
  delta += std::string("\x06\x00", 2);
  ExpectIoError(Serializer::DecodeShipment(&base, delta), "row count");
}

TEST(SerializerMalformedTest, IntegralSectionVarintsChecked) {
  Table t(MakeSchema({{"d", ValueType::kDouble}}));
  t.AddRow({Value(5.0)});
  std::string bytes = Serializer::SerializeTable(t, WireFormat::kSkl2);
  ASSERT_EQ(bytes.substr(kSkl2OneColHeader), std::string("\x85\x0a", 2));
  bytes.resize(kSkl2OneColHeader + 1);
  ExpectIoError(Serializer::DeserializeTable(bytes), "varint");
  ExpectIoError(Serializer::DeserializeTable(bytes + '\x80'), "varint");
  ExpectIoError(Serializer::DeserializeTable(bytes + std::string(10, '\xff')),
                "varint");
}

TEST(SerializerMalformedTest, NullFreeFlagOnlyOnBitmapCodecs) {
  Table all_null(MakeSchema({{"a", ValueType::kInt64}}));
  all_null.AddRow({Value::Null()});
  Table mixed(MakeSchema({{"a", ValueType::kInt64}}));
  mixed.AddRow({Value(int64_t{1})});
  mixed.AddRow({Value("x")});
  for (const Table* t : {&all_null, &mixed}) {
    std::string bytes = Serializer::SerializeTable(*t, WireFormat::kSkl2);
    ASSERT_LE(static_cast<uint8_t>(bytes[kSkl2OneColHeader]), 0x04);
    bytes[kSkl2OneColHeader] |= '\x80';
    ExpectIoError(Serializer::DeserializeTable(bytes), "null-free");
  }
  ExpectIoError(DecodeThreeInts(OneTwo() + std::string("\x86\x00", 2)),
                "null-free");
}

TEST(SerializerMalformedTest, UnknownCodecFlagBitsAndCodecsRejected) {
  Table t(MakeSchema({{"a", ValueType::kInt64}}));
  t.AddRow({Value(int64_t{5})});
  const std::string bytes = Serializer::SerializeTable(t, WireFormat::kSkl2);
  ASSERT_EQ(static_cast<uint8_t>(bytes[kSkl2OneColHeader]), 0x81);
  for (const char tag : {'\x91', '\xa1', '\xc1', '\x11', '\x07', '\x0f'}) {
    std::string bad = bytes;
    bad[kSkl2OneColHeader] = tag;
    ExpectIoError(Serializer::DeserializeTable(bad), "codec");
  }
}

TEST(SerializerMalformedTest, CellCapBoundsRepeatSections) {
  // Two one-byte sections (all NULL, then its repeat) claiming 2^31 + 1
  // rows each: over the 2^32-cell cap, rejected before any allocation.
  ExpectIoError(
      Serializer::DeserializeTable(Skl2Payload(
          MakeSchema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}}),
          (uint64_t{1} << 31) + 1, std::string("\x00\x06\x00", 3))),
      "row count");
}

TEST(SerializerMalformedTest, AbsurdRowCountRejectedBeforeAllocating) {
  // Corrupting the u64 row count to an astronomical value must fail with a
  // clean IoError, not an allocation failure: the decoder validates the
  // claimed count against the remaining payload before reserving.
  Table t(MakeSchema({{"a", ValueType::kInt64}}));
  t.AddRow({Value(int64_t{5})});
  for (const WireFormat format : {WireFormat::kSkl1, WireFormat::kSkl2}) {
    SCOPED_TRACE(WireFormatName(format));
    std::string bytes = Serializer::SerializeTable(t, format);
    for (size_t i = kSkl2OneColHeader - 8; i < kSkl2OneColHeader; ++i) {
      bytes[i] = '\xff';
    }
    auto result = Serializer::DeserializeTable(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  }
}

TEST(SerializerMalformedTest, EveryTruncationRejectedCleanlyBothFormats) {
  const Table zoo = [] {
    Table t(MakeSchema({{"a", ValueType::kInt64},
                        {"d", ValueType::kDouble},
                        {"s", ValueType::kString}}));
    t.AddRow({Value(int64_t{1}), Value(1.5), Value("hello")});
    t.AddRow({Value::Null(), Value::Null(), Value::Null()});
    t.AddRow({Value(int64_t{-9}), Value(-0.0), Value("hello")});
    return t;
  }();
  for (const WireFormat format : {WireFormat::kSkl1, WireFormat::kSkl2}) {
    const std::string bytes = Serializer::SerializeTable(zoo, format);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      auto result =
          Serializer::DeserializeTable(std::string_view(bytes).substr(0, cut));
      ASSERT_FALSE(result.ok())
          << WireFormatName(format) << " cut at " << cut;
      EXPECT_EQ(result.status().code(), StatusCode::kIoError);
    }
  }
}

TEST(SerializerMalformedTest, DeltaTruncationsRejectedCleanly) {
  Table base(MakeSchema({{"k", ValueType::kInt64}}));
  Table next(MakeSchema({{"k", ValueType::kInt64},
                         {"o", ValueType::kInt64}}));
  for (int64_t i = 0; i < 10; ++i) {
    base.AddRow({Value(i)});
    next.AddRow({Value(i), Value(i * i)});
  }
  const std::string delta = Serializer::SerializeDelta(base, next);
  for (size_t cut = 0; cut < delta.size(); ++cut) {
    auto result = Serializer::DecodeShipment(
        &base, std::string_view(delta).substr(0, cut));
    ASSERT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  }
  // And trailing garbage after a valid delta.
  auto result = Serializer::DecodeShipment(&base, delta + "zz");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, RoundTripThroughString) {
  const Table original = MakeTinyTable();
  const std::string csv = CsvToString(original);
  ASSERT_OK_AND_ASSIGN(Table decoded,
                       CsvFromString(csv, original.schema_ptr()));
  ExpectSameRows(decoded, original);
}

TEST(CsvTest, QuotingSpecialCharacters) {
  Table t(MakeSchema({{"s", ValueType::kString}}));
  t.AddRow({Value("plain")});
  t.AddRow({Value("with,comma")});
  t.AddRow({Value("with\"quote")});
  const std::string csv = CsvToString(t);
  ASSERT_OK_AND_ASSIGN(Table decoded, CsvFromString(csv, t.schema_ptr()));
  ExpectSameRows(decoded, t);
}

TEST(CsvTest, EmptyFieldIsNull) {
  auto schema = MakeSchema({{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  ASSERT_OK_AND_ASSIGN(Table t, CsvFromString("a,b\n,x\n1,\n", schema));
  EXPECT_TRUE(t.Get(0, 0).is_null());
  EXPECT_EQ(t.Get(0, 1), Value("x"));
  EXPECT_EQ(t.Get(1, 0), Value(1));
  EXPECT_TRUE(t.Get(1, 1).is_null());
}

TEST(CsvTest, HeaderMismatchRejected) {
  auto schema = MakeSchema({{"a", ValueType::kInt64}});
  auto result = CsvFromString("wrong\n1\n", schema);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, BadIntegerRejectedWithLineInfo) {
  auto schema = MakeSchema({{"a", ValueType::kInt64}});
  auto result = CsvFromString("a\n1\nnot_a_number\n", schema);
  ASSERT_FALSE(result.ok());
}

TEST(CsvTest, FileRoundTrip) {
  const Table original = MakeTinyTable();
  const std::string path = ::testing::TempDir() + "/skalla_csv_test.csv";
  ASSERT_OK(WriteCsv(original, path));
  ASSERT_OK_AND_ASSIGN(Table decoded, ReadCsv(path, original.schema_ptr()));
  ExpectSameRows(decoded, original);
}

}  // namespace
}  // namespace skalla
