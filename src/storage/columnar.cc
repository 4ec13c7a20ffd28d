#include "storage/columnar.h"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "storage/table.h"

namespace skalla {

int32_t ColumnarTable::Column::LowerBoundRank(std::string_view s) const {
  auto it = std::lower_bound(
      sorted_codes.begin(), sorted_codes.end(), s,
      [this](int32_t code, std::string_view key) {
        return std::string_view(dict[static_cast<size_t>(code)]) < key;
      });
  return static_cast<int32_t>(it - sorted_codes.begin());
}

std::shared_ptr<const ColumnarTable> ColumnarTable::Build(const Table& table) {
  auto view = std::shared_ptr<ColumnarTable>(new ColumnarTable());
  const int64_t n = table.num_rows();
  const int num_cols = table.schema().num_fields();
  view->num_rows_ = n;
  view->columns_.resize(static_cast<size_t>(num_cols));
  const size_t words = static_cast<size_t>((n + 63) / 64);
  for (int c = 0; c < num_cols; ++c) {
    Column& col = view->columns_[static_cast<size_t>(c)];
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
        // A declared-NULL column is usable iff every cell really is NULL:
        // the batch evaluator then folds it to a constant.
        break;
    }
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
          const std::string_view s = v.AsString();
          auto it = col.dict_index.find(s);
          if (it == col.dict_index.end()) {
            it = col.dict_index
                     .emplace(s, static_cast<int32_t>(col.dict.size()))
                     .first;
            col.dict.emplace_back(s);
          }
          col.codes[static_cast<size_t>(i)] = it->second;
          break;
        }
        case ValueType::kNull:
          break;
      }
    }
    if (!col.usable || !col.has_nulls) col.valid.clear();
    col.valid.shrink_to_fit();
    if (!col.usable) {
      col.ints.clear();
      col.doubles.clear();
      col.codes.clear();
      col.dict.clear();
      col.dict_index.clear();
    }
    if (col.usable && col.type == ValueType::kString) {
      // Order index: dictionary entries are distinct, so a plain sort by
      // string yields one well-defined lexicographic rank per code.
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
  return view;
}

namespace {
// Guards the lazy per-Table snapshot build. Build-under-lock keeps the
// "thread-safe once" contract trivially TSan-clean; a table is built at
// most once per lifetime, so the serialization cost is negligible.
std::mutex g_columnar_mutex;
}  // namespace

std::shared_ptr<const ColumnarTable> Table::columnar() const {
  std::lock_guard<std::mutex> lock(g_columnar_mutex);
  if (columnar_cache_ == nullptr) {
    columnar_cache_ = ColumnarTable::Build(*this);
  }
  return columnar_cache_;
}

}  // namespace skalla
