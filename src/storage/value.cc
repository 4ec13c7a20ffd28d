#include "storage/value.h"

#include <limits>
#include <new>
#include <stdexcept>

#include "common/string_util.h"

namespace skalla {

void Value::InitHeapString(std::string_view s) {
  if (s.size() > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("Value: a string cell holds at most 4 GiB");
  }
  char* p = static_cast<char*>(::operator new(s.size()));
  std::memcpy(p, s.data(), s.size());
  const uint32_t n = static_cast<uint32_t>(s.size());
  std::memcpy(bytes_, &p, sizeof(p));
  std::memcpy(bytes_ + kHeapSizeOffset, &n, sizeof(n));
  set_tag(kTagString | kHeapBit);
}

void Value::FreeHeapString() { ::operator delete(heap_data(), heap_size()); }

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

bool Value::operator==(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (is_numeric() && other.is_numeric()) {
    if (is_int64() && other.is_int64()) return AsInt64() == other.AsInt64();
    return ToDouble() == other.ToDouble();
  }
  if (is_string() && other.is_string()) return AsString() == other.AsString();
  return false;
}

int Value::Compare(const Value& other) const {
  // NULL sorts first.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  const bool lhs_num = is_numeric();
  const bool rhs_num = other.is_numeric();
  if (lhs_num && rhs_num) {
    if (is_int64() && other.is_int64()) {
      const int64_t a = AsInt64();
      const int64_t b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    const double a = ToDouble();
    const double b = other.ToDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (lhs_num != rhs_num) return lhs_num ? -1 : 1;  // numerics before strings
  const int cmp = AsString().compare(other.AsString());
  return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
}

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return kNullValueHash;
    case ValueType::kInt64:
      return HashOf(AsInt64());
    case ValueType::kDouble:
      return HashOf(AsDouble());
    case ValueType::kString:
      return HashOf(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble: {
      // Render integral doubles without trailing zeros noise.
      return StrFormat("%g", AsDouble());
    }
    case ValueType::kString:
      return std::string(AsString());
  }
  return "?";
}

size_t Value::SerializedSize() const {
  switch (type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 1 + 8;
    case ValueType::kString:
      return 1 + 4 + AsString().size();
  }
  return 1;
}

}  // namespace skalla
