#ifndef SKALLA_STORAGE_COLUMNAR_H_
#define SKALLA_STORAGE_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/schema.h"

namespace skalla {

class Table;

/// \brief An immutable columnar snapshot of a row-store Table.
///
/// The vectorized GMDJ scan (docs/vectorized-execution.md) reads detail
/// relations column-at-a-time through this view instead of boxing every
/// cell through Value: int64/double columns become typed arrays plus an
/// LSB-first validity bitmap, string columns become first-appearance
/// dictionary codes. The view is built lazily once per Table, in one
/// row-major pass (Table::columnar()), and shared across blocks, morsels,
/// and rounds — detail partitions persist in the site Catalog, so later
/// rounds reuse the snapshot for free.
///
/// A column is only `usable` when every non-NULL cell matches the declared
/// schema type; a type-deviant column keeps the row-store path (the batch
/// evaluator and the typed aggregate kernels fall back per column, never
/// per cell — see the fallback rules in docs/vectorized-execution.md).
class ColumnarTable {
 public:
  struct Column {
    ValueType type = ValueType::kNull;  ///< declared schema type
    /// Every non-NULL cell matches `type`; false disables the typed arrays
    /// for this column (they are left empty).
    bool usable = false;
    bool has_nulls = false;
    /// LSB-first validity bitmap (bit i set = row i non-NULL); empty when
    /// the column has no NULLs.
    std::vector<uint64_t> valid;
    std::vector<int64_t> ints;     ///< kInt64 payload
    std::vector<double> doubles;   ///< kDouble payload
    /// kString payload: dictionary code per row, -1 for NULL.
    std::vector<int32_t> codes;
    std::vector<std::string> dict;  ///< first-appearance order
    /// Order index over `dict`: order_rank[code] is the rank of dict[code]
    /// under lexicographic (Value::Compare) string order, so ordering
    /// comparisons between two values of this column — and against a
    /// constant, via LowerBoundRank — become integer compares on ranks.
    std::vector<int32_t> order_rank;
    /// Dictionary codes sorted by their strings (the inverse permutation
    /// of order_rank); used to binary-search constants not in the dict.
    std::vector<int32_t> sorted_codes;

    bool IsValid(int64_t i) const {
      if (!has_nulls) return true;
      return (valid[static_cast<size_t>(i) >> 6] >> (i & 63)) & 1;
    }
    /// Bitmap for the batch kernels: nullptr means "no NULLs".
    const uint64_t* valid_words() const {
      return has_nulls ? valid.data() : nullptr;
    }
    /// Dictionary code of `s`, or -1 when the column never contains it
    /// (a binary search over sorted_codes).
    int32_t CodeOf(std::string_view s) const;
    /// Number of dictionary strings lexicographically < `s` — the rank a
    /// constant would occupy. With CodeOf, every ordering comparison of a
    /// column value against `s` reduces to an integer compare on ranks:
    /// value < s  ⟺  order_rank[code] < LowerBoundRank(s).
    int32_t LowerBoundRank(std::string_view s) const;
  };

  /// Materializes the snapshot; O(rows × columns), one pass over the rows.
  static std::shared_ptr<const ColumnarTable> Build(const Table& table);

  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  const Column& column(int i) const {
    return columns_[static_cast<size_t>(i)];
  }

 private:
  ColumnarTable() = default;

  int64_t num_rows_ = 0;
  std::vector<Column> columns_;
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_COLUMNAR_H_
