#include "columnar_oracle.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>

namespace skalla {

std::vector<ColumnarTable::Column> BuildColumnsOracle(const Table& table) {
  const int64_t n = table.num_rows();
  const int num_cols = table.schema().num_fields();
  std::vector<ColumnarTable::Column> columns(static_cast<size_t>(num_cols));
  const size_t words = static_cast<size_t>((n + 63) / 64);
  for (int c = 0; c < num_cols; ++c) {
    ColumnarTable::Column& col = columns[static_cast<size_t>(c)];
    col.type = table.schema().field(c).type;
    col.usable = true;
    col.valid.assign(words, 0);
    switch (col.type) {
      case ValueType::kInt64:
        col.ints.assign(static_cast<size_t>(n), 0);
        break;
      case ValueType::kDouble:
        col.doubles.assign(static_cast<size_t>(n), 0.0);
        break;
      case ValueType::kString:
        col.codes.assign(static_cast<size_t>(n), -1);
        break;
      case ValueType::kNull:
        break;
    }
    std::unordered_map<std::string, int32_t> dict_index;
    for (int64_t i = 0; i < n && col.usable; ++i) {
      const Value& v = table.row(i)[static_cast<size_t>(c)];
      if (v.is_null()) {
        col.has_nulls = true;
        continue;
      }
      if (v.type() != col.type) {
        col.usable = false;
        break;
      }
      col.valid[static_cast<size_t>(i) >> 6] |= uint64_t{1} << (i & 63);
      switch (col.type) {
        case ValueType::kInt64:
          col.ints[static_cast<size_t>(i)] = v.AsInt64();
          break;
        case ValueType::kDouble:
          col.doubles[static_cast<size_t>(i)] = v.AsDouble();
          break;
        case ValueType::kString: {
          const std::string s(v.AsString());
          auto it = dict_index.find(s);
          if (it == dict_index.end()) {
            it = dict_index.emplace(s, static_cast<int32_t>(col.dict.size()))
                     .first;
            col.dict.push_back(s);
          }
          col.codes[static_cast<size_t>(i)] = it->second;
          break;
        }
        case ValueType::kNull:
          break;
      }
    }
    if (!col.usable || !col.has_nulls) col.valid.clear();
    if (!col.usable) {
      col.ints.clear();
      col.doubles.clear();
      col.codes.clear();
      col.dict.clear();
    }
    if (col.usable && col.type == ValueType::kString) {
      col.sorted_codes.resize(col.dict.size());
      std::iota(col.sorted_codes.begin(), col.sorted_codes.end(), 0);
      std::sort(col.sorted_codes.begin(), col.sorted_codes.end(),
                [&col](int32_t a, int32_t b) {
                  return col.dict[static_cast<size_t>(a)] <
                         col.dict[static_cast<size_t>(b)];
                });
      col.order_rank.resize(col.dict.size());
      for (size_t r = 0; r < col.sorted_codes.size(); ++r) {
        col.order_rank[static_cast<size_t>(col.sorted_codes[r])] =
            static_cast<int32_t>(r);
      }
    }
  }
  return columns;
}

}  // namespace skalla
