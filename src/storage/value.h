#ifndef SKALLA_STORAGE_VALUE_H_
#define SKALLA_STORAGE_VALUE_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/hash_util.h"

namespace skalla {

/// Value::Hash of NULL ("null").
inline constexpr uint64_t kNullValueHash = 0x6e756c6cULL;

/// Runtime type of a Value.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

/// \brief Returns a human-readable name ("int64", "double", ...).
const char* ValueTypeToString(ValueType type);

/// \brief A dynamically-typed SQL value: NULL, INT64, DOUBLE, or STRING.
///
/// Value is the cell type of every relation in Skalla. Semantics follow SQL
/// where it matters for OLAP aggregation:
///  - numeric comparisons cross int64/double boundaries by value;
///  - NULLs compare equal to each other for grouping/ordering purposes
///    (predicate evaluation handles NULL separately, see expr/evaluator.h);
///  - Hash() is consistent with operator== across numeric types.
///
/// A Value is a 16-byte tagged cell. Byte 15 is the tag: its low two bits
/// are the ValueType. An int64 or a double sits in bytes 0-7. A string of
/// up to 15 bytes sits inline in bytes 0-14, its length in the tag's bits
/// 3-6; a longer one lives in one heap block the Value owns (pointer in
/// bytes 0-7, length in bytes 8-11) and deep-copies. Moves never allocate
/// and leave the source NULL.
class Value {
 public:
  /// Longest string stored inline, without a heap block.
  static constexpr size_t kMaxInlineString = 15;

  /// NULL value.
  Value() noexcept { set_tag(kTagNull); }
  Value(int64_t v) noexcept {  // NOLINT(runtime/explicit)
    std::memcpy(bytes_, &v, sizeof(v));
    set_tag(kTagInt64);
  }
  Value(int v) noexcept : Value(int64_t{v}) {}  // NOLINT(runtime/explicit)
  Value(double v) noexcept {  // NOLINT(runtime/explicit)
    std::memcpy(bytes_, &v, sizeof(v));
    set_tag(kTagDouble);
  }
  Value(std::string_view v) {  // NOLINT(runtime/explicit)
    if (v.size() > kMaxInlineString) {
      InitHeapString(v);
      return;
    }
    if (!v.empty()) std::memcpy(bytes_, v.data(), v.size());
    set_tag(static_cast<uint8_t>(kTagString | (v.size() << kLengthShift)));
  }
  Value(const std::string& v)  // NOLINT(runtime/explicit)
      : Value(std::string_view(v)) {}
  Value(const char* v)  // NOLINT(runtime/explicit)
      : Value(std::string_view(v)) {}

  Value(const Value& other) {
    if (other.is_heap_string()) {
      InitHeapString(other.AsString());
    } else {
      std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    }
  }
  Value(Value&& other) noexcept {
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    other.set_tag(kTagNull);
  }
  Value& operator=(const Value& other) {
    if (this == &other) return *this;
    if (is_heap_string() || other.is_heap_string()) {
      *this = Value(other);
    } else {
      std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this == &other) return *this;
    if (is_heap_string()) FreeHeapString();
    std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
    other.set_tag(kTagNull);
    return *this;
  }
  ~Value() {
    if (is_heap_string()) FreeHeapString();
  }

  static Value Null() { return Value(); }

  ValueType type() const { return static_cast<ValueType>(tag() & kTypeMask); }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_int64() const { return type() == ValueType::kInt64; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_numeric() const { return is_int64() || is_double(); }

  /// The contained int64; must be is_int64().
  int64_t AsInt64() const {
    assert(is_int64());
    int64_t v = 0;
    std::memcpy(&v, bytes_, sizeof(v));
    return v;
  }
  /// The contained double; must be is_double().
  double AsDouble() const {
    assert(is_double());
    double v = 0;
    std::memcpy(&v, bytes_, sizeof(v));
    return v;
  }
  /// The contained string; must be is_string(). The view is valid while
  /// this Value lives and is not moved from or assigned to.
  std::string_view AsString() const {
    assert(is_string());
    if (is_heap_string()) return {heap_data(), heap_size()};
    return {bytes_, static_cast<size_t>(tag() >> kLengthShift)};
  }

  /// Numeric coercion to double; must be is_numeric().
  double ToDouble() const {
    return is_int64() ? static_cast<double>(AsInt64()) : AsDouble();
  }

  /// Structural/value equality (see class comment).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order: NULL < numerics (by value) < strings (lexicographic).
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Hash consistent with operator==.
  uint64_t Hash() const;

  /// Hash() of a non-NULL value of each type, without boxing it, so typed
  /// columnar cells hash exactly as their Values do. An int64 hashes
  /// through its double, the conversion operator== compares through, so
  /// every int64/double pair it calls equal hashes alike (5 and 5.0, and
  /// 2^53 + 1 and 2^53 as a double); -0.0 hashes as +0.0.
  static uint64_t HashOf(int64_t v) { return HashOf(static_cast<double>(v)); }
  static uint64_t HashOf(double d) {
    if (d == 0.0) d = 0.0;  // normalize -0.0
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return HashInt64(bits);
  }
  static uint64_t HashOf(std::string_view s) { return HashBytes(s); }

  /// SQL-style rendering; NULL renders as "NULL", strings unquoted.
  std::string ToString() const;

  /// Serialized payload size in bytes (tag byte included); used by the
  /// byte-exact network accounting.
  size_t SerializedSize() const;

 private:
  // Tag byte: bits 0-1 the ValueType, bit 2 set for a heap string, bits
  // 3-6 an inline string's length.
  static constexpr uint8_t kTypeMask = 0x3;
  static constexpr uint8_t kHeapBit = 0x4;
  static constexpr int kLengthShift = 3;
  static constexpr uint8_t kTagNull = 0;
  static constexpr uint8_t kTagInt64 = 1;
  static constexpr uint8_t kTagDouble = 2;
  static constexpr uint8_t kTagString = 3;
  static constexpr size_t kTagByte = 15;
  static constexpr size_t kHeapSizeOffset = 8;

  uint8_t tag() const { return static_cast<uint8_t>(bytes_[kTagByte]); }
  void set_tag(uint8_t t) { bytes_[kTagByte] = static_cast<char>(t); }
  bool is_heap_string() const { return (tag() & kHeapBit) != 0; }
  char* heap_data() const {
    char* p = nullptr;
    std::memcpy(&p, bytes_, sizeof(p));
    return p;
  }
  size_t heap_size() const {
    uint32_t n = 0;
    std::memcpy(&n, bytes_ + kHeapSizeOffset, sizeof(n));
    return n;
  }
  /// Copies `s` (longer than kMaxInlineString) into a new heap block.
  void InitHeapString(std::string_view s);
  void FreeHeapString();

  alignas(8) char bytes_[16] = {};
};

static_assert(sizeof(Value) == 16, "Value is a 16-byte cell");

}  // namespace skalla

#endif  // SKALLA_STORAGE_VALUE_H_
