#include "storage/group_map.h"

namespace skalla {

void GroupMap::Grow(size_t groups) {
  size_t capacity = slots_.empty() ? 16 : slots_.size();
  while (capacity < 2 * groups) capacity <<= 1;
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  for (size_t id = 0; id < hashes_.size(); ++id) {
    size_t s = hashes_[id] & mask_;
    while (slots_[s].id >= 0) s = (s + 1) & mask_;
    slots_[s] = Slot{hashes_[id], static_cast<int64_t>(id)};
  }
}

RowGroups RowGroups::Of(const Table& table, const std::vector<int>& key_cols) {
  const int width = static_cast<int>(key_cols.size());
  const size_t num_rows = static_cast<size_t>(table.num_rows());
  RowGroups out;
  out.map_ = GroupMap(width);
  std::vector<int64_t> group_of(num_rows);
  std::vector<int64_t> counts;
  for (size_t r = 0; r < num_rows; ++r) {
    const Row& row = table.row(static_cast<int64_t>(r));
    auto key_at = [&row, &key_cols](int c) -> const Value& {
      return row[static_cast<size_t>(key_cols[static_cast<size_t>(c)])];
    };
    bool inserted = false;
    const int64_t g =
        out.map_.FindOrInsert(GroupMap::Hash(width, key_at), key_at, &inserted);
    if (inserted) counts.push_back(0);
    ++counts[static_cast<size_t>(g)];
    group_of[r] = g;
  }
  // A counting sort by group: placing the rows in ascending id order keeps
  // each group's ids ascending. `counts` becomes the write cursors.
  out.offsets_.assign(counts.size() + 1, 0);
  for (size_t g = 0; g < counts.size(); ++g) {
    out.offsets_[g + 1] = out.offsets_[g] + counts[g];
    counts[g] = out.offsets_[g];
  }
  out.row_ids_.resize(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    int64_t& next = counts[static_cast<size_t>(group_of[r])];
    out.row_ids_[static_cast<size_t>(next++)] = static_cast<int64_t>(r);
  }
  return out;
}

void CombineProbeHashes(const ColumnarTable::Column& col,
                        const std::vector<uint64_t>& code_hashes, int64_t lo,
                        size_t n, uint64_t* hashes) {
  switch (col.type) {
    case ValueType::kInt64:
      for (size_t k = 0; k < n; ++k) {
        const int64_t i = lo + static_cast<int64_t>(k);
        const uint64_t vh =
            col.IsValid(i) ? Value::HashOf(col.ints[static_cast<size_t>(i)])
                           : kNullValueHash;
        hashes[k] = HashCombine(hashes[k], vh);
      }
      return;
    case ValueType::kDouble:
      for (size_t k = 0; k < n; ++k) {
        const int64_t i = lo + static_cast<int64_t>(k);
        const uint64_t vh =
            col.IsValid(i) ? Value::HashOf(col.doubles[static_cast<size_t>(i)])
                           : kNullValueHash;
        hashes[k] = HashCombine(hashes[k], vh);
      }
      return;
    case ValueType::kString:
      for (size_t k = 0; k < n; ++k) {
        const int32_t code = col.codes[static_cast<size_t>(lo) + k];
        const uint64_t vh =
            code < 0 ? kNullValueHash : code_hashes[static_cast<size_t>(code)];
        hashes[k] = HashCombine(hashes[k], vh);
      }
      return;
    case ValueType::kNull:
      // A usable declared-NULL column is all NULL.
      for (size_t k = 0; k < n; ++k) {
        hashes[k] = HashCombine(hashes[k], kNullValueHash);
      }
      return;
  }
}

}  // namespace skalla
