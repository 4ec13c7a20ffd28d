#include "storage/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash_util.h"

namespace skalla {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, Int64Basics) {
  Value v(int64_t{42});
  EXPECT_TRUE(v.is_int64());
  EXPECT_TRUE(v.is_numeric());
  EXPECT_EQ(v.AsInt64(), 42);
  EXPECT_DOUBLE_EQ(v.ToDouble(), 42.0);
  EXPECT_EQ(v.ToString(), "42");
}

TEST(ValueTest, IntLiteralConstructor) {
  Value v(7);
  EXPECT_TRUE(v.is_int64());
  EXPECT_EQ(v.AsInt64(), 7);
}

TEST(ValueTest, DoubleBasics) {
  Value v(2.5);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.AsDouble(), 2.5);
}

TEST(ValueTest, StringBasics) {
  Value v("hello");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "hello");
  EXPECT_EQ(v.ToString(), "hello");
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_EQ(Value(int64_t{5}), Value(5.0));
  EXPECT_EQ(Value(5.0), Value(int64_t{5}));
  EXPECT_NE(Value(int64_t{5}), Value(5.5));
}

TEST(ValueTest, NullEquality) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value(int64_t{0}));
  EXPECT_NE(Value(""), Value::Null());
}

TEST(ValueTest, CrossTypeHashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(5.0).Hash());
  EXPECT_EQ(Value(int64_t{-3}).Hash(), Value(-3.0).Hash());
  EXPECT_EQ(Value("x").Hash(), Value(std::string("x")).Hash());
}

TEST(ValueTest, CompareTotalOrder) {
  // NULL < numeric < string.
  EXPECT_LT(Value::Null().Compare(Value(int64_t{0})), 0);
  EXPECT_LT(Value(int64_t{7}).Compare(Value("a")), 0);
  EXPECT_GT(Value("b").Compare(Value("a")), 0);
  EXPECT_EQ(Value(int64_t{3}).Compare(Value(3.0)), 0);
  EXPECT_LT(Value(2.5).Compare(Value(int64_t{3})), 0);
}

TEST(ValueTest, CompareLargeInt64Exact) {
  // Values distinguishable in int64 but not in double must compare exactly.
  const int64_t a = (int64_t{1} << 62) + 1;
  const int64_t b = (int64_t{1} << 62) + 2;
  EXPECT_LT(Value(a).Compare(Value(b)), 0);
  EXPECT_NE(Value(a), Value(b));
}

TEST(ValueTest, SerializedSize) {
  EXPECT_EQ(Value::Null().SerializedSize(), 1u);
  EXPECT_EQ(Value(int64_t{1}).SerializedSize(), 9u);
  EXPECT_EQ(Value(1.0).SerializedSize(), 9u);
  EXPECT_EQ(Value("abc").SerializedSize(), 1u + 4u + 3u);
}

TEST(ValueTest, NegativeZeroNormalizedInHash) {
  EXPECT_EQ(Value(0.0).Hash(), Value(-0.0).Hash());
  EXPECT_EQ(Value(0.0), Value(-0.0));
}

// ---------------------------------------------------------------------------
// The 16-byte cell: inline and heap strings, copies and moves.
// ---------------------------------------------------------------------------

TEST(ValueCellTest, IsSixteenBytes) {
  static_assert(sizeof(Value) == 16);
  static_assert(std::is_nothrow_move_constructible_v<Value>);
  static_assert(std::is_nothrow_move_assignable_v<Value>);
}

/// True when `v`'s string lives inside the 16-byte cell itself.
bool IsInline(const Value& v) {
  const auto cell = reinterpret_cast<uintptr_t>(&v);
  const auto data = reinterpret_cast<uintptr_t>(v.AsString().data());
  return data >= cell && data < cell + sizeof(Value);
}

/// `n` bytes that include NULs and bytes above 0x7f.
std::string Bytes(size_t n) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>((i * 37 + 11) % 256);
  return s;
}

TEST(ValueCellTest, StringLengthsAcrossTheInlineBoundary) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17},
                   size_t{1} << 20}) {
    const std::string s = Bytes(n);
    for (const Value& v : {Value(s), Value(std::string_view(s))}) {
      ASSERT_TRUE(v.is_string()) << n;
      EXPECT_EQ(v.AsString(), s) << n;
      EXPECT_EQ(v.AsString().size(), n);
      EXPECT_EQ(v.ToString(), s) << n;
      EXPECT_EQ(v.SerializedSize(), 1 + 4 + n);
      EXPECT_EQ(v.Hash(), HashBytes(s)) << n;
      EXPECT_EQ(IsInline(v), n <= Value::kMaxInlineString) << n;
      EXPECT_EQ(v, Value(s));
      EXPECT_EQ(v.Compare(Value(s)), 0);
    }
  }
}

TEST(ValueCellTest, StringViewConstructorCopiesOnlyTheView) {
  const std::string text = "a long backing buffer, longer than fifteen";
  const Value inline_part(std::string_view(text).substr(2, 4));
  const Value heap_part(std::string_view(text).substr(2, 20));
  EXPECT_EQ(inline_part.AsString(), "long");
  EXPECT_EQ(heap_part.AsString(), text.substr(2, 20));
  EXPECT_TRUE(IsInline(inline_part));
  EXPECT_FALSE(IsInline(heap_part));
  // The Value owns its bytes: it outlives the buffer it was built from.
  std::string scratch = text;
  const Value owned{std::string_view(scratch)};
  scratch.assign(scratch.size(), '#');
  EXPECT_EQ(owned.AsString(), text);
}

TEST(ValueCellTest, EmbeddedNulStrings) {
  const std::string with_nul("a\0b", 3);
  const Value v(with_nul);
  EXPECT_EQ(v.AsString().size(), 3u);
  EXPECT_EQ(v.AsString(), with_nul);
  EXPECT_NE(v, Value("a"));  // a C string stops at its NUL
  EXPECT_EQ(Value("a\0b").AsString(), "a");
  EXPECT_LT(Value("a").Compare(v), 0);  // a proper prefix sorts first
  EXPECT_LT(v.Compare(Value(std::string("a\0c", 3))), 0);
  const std::string long_nul = std::string(20, '\0') + "tail";
  const Value heap(long_nul);
  EXPECT_EQ(heap.AsString(), long_nul);
  EXPECT_NE(heap, Value(std::string(20, '\0') + "tale"));
  EXPECT_EQ(heap.Hash(), HashBytes(long_nul));
}

/// One Value of each kind a cell can hold.
std::vector<Value> OneOfEachKind() {
  return {Value::Null(), Value(int64_t{-77}), Value(3.25),
          Value("inline str"), Value("a string too long to be inline")};
}

/// Same kind, same content.
void ExpectSame(const Value& a, const Value& b) {
  ASSERT_EQ(a.type(), b.type());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.Hash(), b.Hash());
  if (a.is_string()) {
    EXPECT_EQ(IsInline(a), IsInline(b));
  }
}

bool IsHeapString(const Value& v) { return v.is_string() && !IsInline(v); }

TEST(ValueCellTest, CopyConstructionFromEveryKind) {
  for (const Value& a : OneOfEachKind()) {
    const Value copy(a);
    ExpectSame(copy, a);
    if (IsHeapString(a)) {
      // A deep copy: its own heap block.
      EXPECT_NE(copy.AsString().data(), a.AsString().data());
    }
  }
}

TEST(ValueCellTest, MoveConstructionFromEveryKindLeavesNull) {
  for (const Value& a : OneOfEachKind()) {
    Value source(a);
    const char* block = IsHeapString(a) ? source.AsString().data() : nullptr;
    const Value moved(std::move(source));
    ExpectSame(moved, a);
    EXPECT_TRUE(source.is_null());  // NOLINT(bugprone-use-after-move)
    // The heap block changes owner; no byte is copied.
    if (block != nullptr) {
      EXPECT_EQ(moved.AsString().data(), block);
    }
  }
}

TEST(ValueCellTest, CopyAssignmentBetweenEveryPairOfKinds) {
  const std::vector<Value> kinds = OneOfEachKind();
  for (const Value& from : kinds) {
    for (const Value& to : kinds) {
      Value target(to);
      target = from;
      ExpectSame(target, from);
      if (IsHeapString(from)) {
        EXPECT_NE(target.AsString().data(), from.AsString().data());
      }
    }
  }
}

TEST(ValueCellTest, MoveAssignmentBetweenEveryPairOfKinds) {
  const std::vector<Value> kinds = OneOfEachKind();
  for (const Value& from : kinds) {
    for (const Value& to : kinds) {
      Value target(to);
      Value source(from);
      target = std::move(source);
      ExpectSame(target, from);
      EXPECT_TRUE(source.is_null());  // NOLINT(bugprone-use-after-move)
    }
  }
}

TEST(ValueCellTest, SelfAssignmentAndSelfMoveKeepTheValue) {
  for (const Value& a : OneOfEachKind()) {
    Value v(a);
    const Value& alias = v;
    v = alias;
    ExpectSame(v, a);
    Value& moved_alias = v;
    v = std::move(moved_alias);
    ExpectSame(v, a);
  }
}

TEST(ValueCellTest, SwapBetweenEveryPairOfKinds) {
  const std::vector<Value> kinds = OneOfEachKind();
  for (const Value& a : kinds) {
    for (const Value& b : kinds) {
      Value x(a);
      Value y(b);
      std::swap(x, y);
      ExpectSame(x, b);
      ExpectSame(y, a);
    }
  }
}

TEST(ValueCellTest, VectorGrowthMovesCellsWithoutCopyingStrings) {
  const std::vector<Value> kinds = OneOfEachKind();
  std::vector<Value> cells;
  for (int i = 0; i < 1000; ++i) {
    cells.push_back(kinds[static_cast<size_t>(i) % kinds.size()]);
  }
  const char* first_heap_block = cells[4].AsString().data();
  for (int i = 0; i < 5000; ++i) cells.emplace_back(int64_t{i});
  EXPECT_EQ(cells[4].AsString().data(), first_heap_block);
  for (int i = 0; i < 1000; ++i) {
    ExpectSame(cells[static_cast<size_t>(i)],
               kinds[static_cast<size_t>(i) % kinds.size()]);
  }
  const std::vector<Value> copy = cells;
  ASSERT_EQ(copy.size(), cells.size());
  for (size_t i = 0; i < copy.size(); ++i) ExpectSame(copy[i], cells[i]);
  cells.erase(cells.begin(), cells.begin() + 3);
  ExpectSame(cells[0], kinds[3]);
  ExpectSame(cells[1], kinds[4]);
}

}  // namespace
}  // namespace skalla
