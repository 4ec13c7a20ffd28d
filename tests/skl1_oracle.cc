#include "skl1_oracle.h"

#include <cstdint>
#include <cstring>

namespace skalla {
namespace {

/// Appends the little-endian bytes of a fixed-width value.
template <typename T>
void PutFixed(std::string* out, T v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out->append(buf, sizeof v);
}

}  // namespace

std::string EncodeSkl1(const Table& table) {
  std::string out;
  PutFixed(&out, uint32_t{0x534b4c31});  // 'SKL1'
  PutFixed(&out, static_cast<uint32_t>(table.schema().num_fields()));
  for (const Field& f : table.schema().fields()) {
    out.push_back(static_cast<char>(f.type));
    PutFixed(&out, static_cast<uint32_t>(f.name.size()));
    out.append(f.name);
  }
  PutFixed(&out, static_cast<uint64_t>(table.num_rows()));
  for (const Row& row : table.rows()) {
    for (const Value& v : row) {
      out.push_back(static_cast<char>(v.type()));
      switch (v.type()) {
        case ValueType::kNull:
          break;
        case ValueType::kInt64:
          PutFixed(&out, static_cast<uint64_t>(v.AsInt64()));
          break;
        case ValueType::kDouble:
          PutFixed(&out, v.AsDouble());
          break;
        case ValueType::kString:
          PutFixed(&out, static_cast<uint32_t>(v.AsString().size()));
          out.append(v.AsString());
          break;
      }
    }
  }
  return out;
}

}  // namespace skalla
