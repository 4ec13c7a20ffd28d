// Golden values of Value's hash, order, equality, rendering and sizes, and
// of the SKL1/SKL2/SKLD bytes and ContentHash of a mixed table, captured
// from the std::variant-based Value this cell layout replaced. They pin
// that the cell's layout changes no hash, no order and no byte. The SKL1
// bytes, which only the tests' encoder (skl1_oracle.h) writes now, pin that
// encoder and Serializer::Skl1Size too.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/hash_util.h"
#include "skl1_oracle.h"
#include "storage/schema.h"
#include "storage/serializer.h"
#include "storage/table.h"
#include "storage/value.h"

namespace skalla {
namespace {

/// One of every kind a cell can hold, and the edges of each: the int64s a
/// double cannot tell apart, both zeros, NaN, the inline/heap string
/// boundary (15/16/17 bytes), embedded NULs and bytes above 0x7f.
std::vector<Value> GoldenSamples() {
  return {
      Value::Null(),
      Value(int64_t{0}),
      Value(int64_t{1}),
      Value(int64_t{-1}),
      Value(int64_t{42}),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value((int64_t{1} << 53) + 1),
      Value(0.0),
      Value(-0.0),
      Value(2.5),
      Value(42.0),
      Value(-1e300),
      Value(9007199254740992.0),
      Value(std::numeric_limits<double>::infinity()),
      Value(std::numeric_limits<double>::quiet_NaN()),
      Value(""),
      Value("a"),
      Value("AUTOMOBILE"),
      Value("Clerk#000000042"),
      Value(std::string(15, 'x')),
      Value(std::string(16, 'x')),
      Value(std::string(17, 'x')),
      Value("Customer#000000042"),
      Value(std::string("a\0b", 3)),
      Value(std::string(1, '\0')),
      Value(std::string(16, '\0') + "z"),
      Value("\xff\x80 high bytes"),
  };
}

/// A 1 MiB string of every byte value.
std::string MebibyteString() {
  std::string s(size_t{1} << 20, '\0');
  for (size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<char>((i * 131 + i / 977) & 0xff);
  }
  return s;
}

/// A mixed relation: int64, double and string columns with NULLs, short
/// and long strings (some repeated, so SKL2 dictionaries them), 64 rows.
Table GoldenTable() {
  Table t(MakeSchema({{"k", ValueType::kInt64},
                      {"d", ValueType::kDouble},
                      {"s", ValueType::kString},
                      {"name", ValueType::kString}}));
  for (int64_t i = 0; i < 64; ++i) {
    Value k = i % 11 == 5 ? Value::Null() : Value(i * 7 - 100);
    Value d = i % 13 == 3 ? Value::Null() : Value(static_cast<double>(i) / 4);
    Value s = i % 9 == 0 ? Value::Null()
                         : Value(std::string(static_cast<size_t>(i % 20),
                                             static_cast<char>('a' + i % 5)));
    Value name = Value("Customer#" + std::to_string(1000000 + i % 17) +
                       (i % 3 == 0 ? std::string("-with-a-longer-tail") : ""));
    t.AddRow({std::move(k), std::move(d), std::move(s), std::move(name)});
  }
  return t;
}

TEST(ValueGoldenTest, Hashes) {
  const uint64_t kHashes[] = {
      0x000000006e756c6cULL,
      0x0000000000000000ULL,
      0x2a20cd80798dae26ULL,
      0x460496b06c9f8487ULL,
      0x0525ba2e08eadc1bULL,
      0xb95fdf58adf046e1ULL,
      0xcdbfd470b87a2b70ULL,
      0xf60a593f9af9c158ULL,
      0x0000000000000000ULL,
      0x0000000000000000ULL,
      0xf53d8805b0b9e2b1ULL,
      0x0525ba2e08eadc1bULL,
      0xd0beafda672718c4ULL,
      0xf60a593f9af9c158ULL,
      0xce5683aaaedc68d0ULL,
      0x469bf2dcc1aa179bULL,
      0xcbf29ce484222325ULL,
      0xaf63dc4c8601ec8cULL,
      0x6d481076afd59c08ULL,
      0xb31cb34ffcb35807ULL,
      0x79ce3fa94ea34effULL,
      0x9cc4b3b09f7e6f65ULL,
      0xe0ac721f03d6ce47ULL,
      0x257c505d3ef23af8ULL,
      0xe5d29919042666b2ULL,
      0xaf63bd4c8601b7dfULL,
      0x4dfa06ffd1f720adULL,
      0x557de6d94ade6299ULL,
  };
  const std::vector<Value> samples = GoldenSamples();
  ASSERT_EQ(samples.size(), std::size(kHashes));
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].Hash(), kHashes[i]) << "sample " << i;
  }
}

TEST(ValueGoldenTest, SerializedSizes) {
  const size_t kSizes[] = {1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 5, 6, 15, 20, 20, 21, 22, 23, 8, 6, 22, 18};
  const std::vector<Value> samples = GoldenSamples();
  ASSERT_EQ(samples.size(), std::size(kSizes));
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].SerializedSize(), kSizes[i]) << "sample " << i;
  }
}

TEST(ValueGoldenTest, Renderings) {
  const std::string kRenderings[] = {
      std::string("NULL", 4),
      std::string("0", 1),
      std::string("1", 1),
      std::string("-1", 2),
      std::string("42", 2),
      std::string("-9223372036854775808", 20),
      std::string("9223372036854775807", 19),
      std::string("9007199254740993", 16),
      std::string("0", 1),
      std::string("-0", 2),
      std::string("2.5", 3),
      std::string("42", 2),
      std::string("-1e+300", 7),
      std::string("9.0072e+15", 10),
      std::string("inf", 3),
      std::string("nan", 3),
      std::string("", 0),
      std::string("a", 1),
      std::string("AUTOMOBILE", 10),
      std::string("Clerk#000000042", 15),
      std::string("xxxxxxxxxxxxxxx", 15),
      std::string("xxxxxxxxxxxxxxxx", 16),
      std::string("xxxxxxxxxxxxxxxxx", 17),
      std::string("Customer#000000042", 18),
      std::string("a\x00" "b", 3),
      std::string("\x00" "", 1),
      std::string("\x00" "\x00" "\x00" "\x00" "\x00" "\x00" "\x00" "\x00" "\x00" "\x00" "\x00" "\x00" "\x00" "\x00" "\x00" "\x00" "z", 17),
      std::string("\xff" "\x80" " high bytes", 13),
  };
  const std::vector<Value> samples = GoldenSamples();
  ASSERT_EQ(samples.size(), std::size(kRenderings));
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].ToString(), kRenderings[i]) << "sample " << i;
  }
}

// Row i, column j is the sign of samples[i].Compare(samples[j]).
TEST(ValueGoldenTest, CompareMatrix) {
  const std::string kOrder =
    "=<<<<<<<<<<<<<<<<<<<<<<<<<<<"
    ">=<><><<==<<><<=<<<<<<<<<<<<"
    ">>=><><<>><<><<=<<<<<<<<<<<<"
    "><<=<><<<<<<><<=<<<<<<<<<<<<"
    ">>>>=><<>>>=><<=<<<<<<<<<<<<"
    "><<<<=<<<<<<><<=<<<<<<<<<<<<"
    ">>>>>>=>>>>>>><=<<<<<<<<<<<<"
    ">>>>>><=>>>>>=<=<<<<<<<<<<<<"
    ">=<><><<==<<><<=<<<<<<<<<<<<"
    ">=<><><<==<<><<=<<<<<<<<<<<<"
    ">>>><><<>>=<><<=<<<<<<<<<<<<"
    ">>>>=><<>>>=><<=<<<<<<<<<<<<"
    "><<<<<<<<<<<=<<=<<<<<<<<<<<<"
    ">>>>>><=>>>>>=<=<<<<<<<<<<<<"
    ">>>>>>>>>>>>>>==<<<<<<<<<<<<"
    ">===============<<<<<<<<<<<<"
    ">>>>>>>>>>>>>>>>=<<<<<<<<<<<"
    ">>>>>>>>>>>>>>>>>=>><<<><>><"
    ">>>>>>>>>>>>>>>>><=<<<<<<>><"
    ">>>>>>>>>>>>>>>>><>=<<<<<>><"
    ">>>>>>>>>>>>>>>>>>>>=<<>>>><"
    ">>>>>>>>>>>>>>>>>>>>>=<>>>><"
    ">>>>>>>>>>>>>>>>>>>>>>=>>>><"
    ">>>>>>>>>>>>>>>>><>><<<=<>><"
    ">>>>>>>>>>>>>>>>>>>><<<>=>><"
    ">>>>>>>>>>>>>>>>><<<<<<<<=<<"
    ">>>>>>>>>>>>>>>>><<<<<<<<>=<"
    ">>>>>>>>>>>>>>>>>>>>>>>>>>>=";
  const std::vector<Value> samples = GoldenSamples();
  std::string order;
  for (const Value& a : samples) {
    for (const Value& b : samples) {
      const int c = a.Compare(b);
      order += c < 0 ? '<' : (c > 0 ? '>' : '=');
      EXPECT_EQ(a < b, c < 0);
    }
  }
  EXPECT_EQ(order, kOrder);
}

// Row i, column j is samples[i] == samples[j].
TEST(ValueGoldenTest, EqualityMatrix) {
  const std::string kEqual =
    "1000000000000000000000000000"
    "0100000011000000000000000000"
    "0010000000000000000000000000"
    "0001000000000000000000000000"
    "0000100000010000000000000000"
    "0000010000000000000000000000"
    "0000001000000000000000000000"
    "0000000100000100000000000000"
    "0100000011000000000000000000"
    "0100000011000000000000000000"
    "0000000000100000000000000000"
    "0000100000010000000000000000"
    "0000000000001000000000000000"
    "0000000100000100000000000000"
    "0000000000000010000000000000"
    "0000000000000000000000000000"
    "0000000000000000100000000000"
    "0000000000000000010000000000"
    "0000000000000000001000000000"
    "0000000000000000000100000000"
    "0000000000000000000010000000"
    "0000000000000000000001000000"
    "0000000000000000000000100000"
    "0000000000000000000000010000"
    "0000000000000000000000001000"
    "0000000000000000000000000100"
    "0000000000000000000000000010"
    "0000000000000000000000000001";
  const std::vector<Value> samples = GoldenSamples();
  std::string equal;
  for (const Value& a : samples) {
    for (const Value& b : samples) {
      equal += a == b ? '1' : '0';
      EXPECT_NE(a == b, a != b);
    }
  }
  EXPECT_EQ(equal, kEqual);
}

TEST(ValueGoldenTest, MebibyteString) {
  const Value v(MebibyteString());
  EXPECT_EQ(v.Hash(), 0xdff2d33ec885f1e4ULL);
  EXPECT_EQ(v.SerializedSize(), size_t{1048581});
  EXPECT_EQ(v.ToString(), MebibyteString());
}

TEST(ValueGoldenTest, TableBytesAndContentHash) {
  const Table t = GoldenTable();
  const std::string skl1 = EncodeSkl1(t);
  const std::string skl2 = Serializer::SerializeTable(t);
  Table base = GoldenTable();
  for (int64_t r = 0; r < base.num_rows(); r += 5) {
    base.mutable_row(r)[1] = Value(-1.5);
  }
  const std::string skld = Serializer::SerializeDelta(base, t);
  EXPECT_EQ(skl1.size(), size_t{3661});
  EXPECT_EQ(Serializer::Skl1Size(t), size_t{3661});
  EXPECT_EQ(HashBytes(skl1), 0x053cc01ead439fb6ULL);
  EXPECT_EQ(skl2.size(), size_t{1802});
  EXPECT_EQ(HashBytes(skl2), 0xaa6cf07c0c41ac55ULL);
  EXPECT_EQ(skld.size(), size_t{1808});
  EXPECT_EQ(HashBytes(skld), 0x75ec0436501c14daULL);
  EXPECT_EQ(Serializer::ContentHash(t), 0xef8bf73c8d346b63ULL);
}

}  // namespace
}  // namespace skalla
