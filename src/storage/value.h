#ifndef SKALLA_STORAGE_VALUE_H_
#define SKALLA_STORAGE_VALUE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <variant>

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
class Value {
 public:
  /// NULL value.
  Value() : data_(std::monostate{}) {}
  Value(int64_t v) : data_(v) {}           // NOLINT(runtime/explicit)
  Value(int v) : data_(int64_t{v}) {}      // NOLINT(runtime/explicit)
  Value(double v) : data_(v) {}            // NOLINT(runtime/explicit)
  Value(std::string v) : data_(std::move(v)) {}  // NOLINT(runtime/explicit)
  Value(const char* v) : data_(std::string(v)) {}  // NOLINT(runtime/explicit)

  static Value Null() { return Value(); }

  ValueType type() const {
    return static_cast<ValueType>(data_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_int64() const { return type() == ValueType::kInt64; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_numeric() const { return is_int64() || is_double(); }

  /// The contained int64; must be is_int64().
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  /// The contained double; must be is_double().
  double AsDouble() const { return std::get<double>(data_); }
  /// The contained string; must be is_string().
  const std::string& AsString() const { return std::get<std::string>(data_); }

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
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_VALUE_H_
