#ifndef SKALLA_STORAGE_ROW_H_
#define SKALLA_STORAGE_ROW_H_

#include <cstdint>
#include <vector>

#include "common/hash_util.h"
#include "storage/value.h"

namespace skalla {

/// A tuple: one Value per schema column, in schema order.
using Row = std::vector<Value>;

/// The start value of RowKeyHash's combine chain ("ROWK").
inline constexpr uint64_t kRowKeyHashSeed = 0x524f574bULL;

/// Hash of the projection of `row` onto the given column indices;
/// consistent with RowKeyEquals.
inline uint64_t RowKeyHash(const Row& row, const std::vector<int>& cols) {
  uint64_t h = kRowKeyHashSeed;
  for (int c : cols) {
    h = HashCombine(h, row[static_cast<size_t>(c)].Hash());
  }
  return h;
}

/// True if the two rows agree on their respective key columns.
inline bool RowKeyEquals(const Row& a, const std::vector<int>& a_cols,
                         const Row& b, const std::vector<int>& b_cols) {
  if (a_cols.size() != b_cols.size()) return false;
  for (size_t i = 0; i < a_cols.size(); ++i) {
    if (!(a[static_cast<size_t>(a_cols[i])] ==
          b[static_cast<size_t>(b_cols[i])])) {
      return false;
    }
  }
  return true;
}

}  // namespace skalla

#endif  // SKALLA_STORAGE_ROW_H_
