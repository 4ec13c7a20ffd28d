#include "storage/columnar.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "storage/table.h"

namespace skalla {

int32_t ColumnarTable::Column::CodeOf(std::string_view s) const {
  const size_t rank = static_cast<size_t>(LowerBoundRank(s));
  if (rank == sorted_codes.size()) return -1;
  const int32_t code = sorted_codes[rank];
  return dict[static_cast<size_t>(code)] == s ? code : -1;
}

int32_t ColumnarTable::Column::LowerBoundRank(std::string_view s) const {
  auto it = std::lower_bound(
      sorted_codes.begin(), sorted_codes.end(), s,
      [this](int32_t code, std::string_view key) {
        return std::string_view(dict[static_cast<size_t>(code)]) < key;
      });
  return static_cast<int32_t>(it - sorted_codes.begin());
}

namespace {

/// Hands out one string column's first-appearance dictionary codes while
/// Build runs, appending each new string to the column's `dict`. The
/// (hash, code) slot array is open-addressing with linear probing, at most
/// half full; it is dropped with the coder, so the snapshot keeps no index.
class DictCoder {
 public:
  int32_t Code(std::string_view s, std::vector<std::string>* dict) {
    if (2 * (dict->size() + 1) > slots_.size()) Grow();
    const uint64_t hash = std::hash<std::string_view>{}(s);
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.code < 0) {
        slot = {hash, static_cast<int32_t>(dict->size())};
        dict->emplace_back(s);
        return slot.code;
      }
      if (slot.hash == hash && (*dict)[static_cast<size_t>(slot.code)] == s) {
        return slot.code;
      }
    }
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    int32_t code = -1;
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, 2 * old.size()), Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.code < 0) continue;
      size_t i = slot.hash & mask_;
      while (slots_[i].code >= 0) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

}  // namespace

std::shared_ptr<const ColumnarTable> ColumnarTable::Build(const Table& table) {
  auto view = std::shared_ptr<ColumnarTable>(new ColumnarTable());
  const int64_t n = table.num_rows();
  const size_t num_cols = static_cast<size_t>(table.schema().num_fields());
  view->num_rows_ = n;
  view->columns_.resize(num_cols);
  const size_t words = static_cast<size_t>((n + 63) / 64);
  std::vector<DictCoder> coders(num_cols);
  // The columns still being filled; a type-deviant cell drops its column.
  std::vector<size_t> live(num_cols);
  std::iota(live.begin(), live.end(), size_t{0});
  for (size_t c = 0; c < num_cols; ++c) {
    Column& col = view->columns_[c];
    col.type = table.schema().field(static_cast<int>(c)).type;
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
  }

  // One row-major pass: each boxed row is visited once.
  for (int64_t i = 0; i < n && !live.empty(); ++i) {
    const Row& row = table.row(i);
    const size_t at = static_cast<size_t>(i);
    const uint64_t bit = uint64_t{1} << (i & 63);
    for (size_t k = 0; k < live.size();) {
      const size_t c = live[k];
      Column& col = view->columns_[c];
      const Value& v = row[c];
      if (v.is_null()) {
        col.has_nulls = true;
        ++k;
        continue;
      }
      if (v.type() != col.type) {
        col.usable = false;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        continue;
      }
      col.valid[at >> 6] |= bit;
      switch (col.type) {
        case ValueType::kInt64:
          col.ints[at] = v.AsInt64();
          break;
        case ValueType::kDouble:
          col.doubles[at] = v.AsDouble();
          break;
        case ValueType::kString:
          col.codes[at] = coders[c].Code(v.AsString(), &col.dict);
          break;
        case ValueType::kNull:
          break;
      }
      ++k;
    }
  }

  for (Column& col : view->columns_) {
    if (!col.usable || !col.has_nulls) col.valid.clear();
    col.valid.shrink_to_fit();
    if (!col.usable) {
      col.ints.clear();
      col.doubles.clear();
      col.codes.clear();
      col.dict.clear();
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

std::shared_ptr<const ColumnarTable> Table::columnar() const {
  // A moved-from table holds no slot; its snapshot is built and not kept.
  if (columnar_ == nullptr) return ColumnarTable::Build(*this);
  ColumnarSlot& slot = *columnar_;
  std::call_once(slot.once,
                 [&] { slot.snapshot = ColumnarTable::Build(*this); });
  return slot.snapshot;
}

}  // namespace skalla
