#ifndef SKALLA_STORAGE_TABLE_H_
#define SKALLA_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "storage/row.h"
#include "storage/schema.h"

namespace skalla {

class ColumnarTable;

/// \brief An in-memory row-store relation: a schema plus a vector of rows.
///
/// Table is the unit of data exchanged between Skalla sites and the
/// coordinator (after binary serialization, see serializer.h) and the unit
/// operated on by the local engine (engine/operators.h).
class Table {
 public:
  Table() : schema_(MakeSchema({})) {}
  explicit Table(SchemaPtr schema) : schema_(std::move(schema)) {}
  Table(SchemaPtr schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  const Schema& schema() const { return *schema_; }
  const SchemaPtr& schema_ptr() const { return schema_; }

  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }
  bool empty() const { return rows_.empty(); }

  const Row& row(int64_t i) const { return rows_[static_cast<size_t>(i)]; }
  Row& mutable_row(int64_t i) {
    DropColumnar();
    return rows_[static_cast<size_t>(i)];
  }
  const std::vector<Row>& rows() const { return rows_; }

  /// Hands the rows out, leaving the table empty. With
  /// `Table(schema, rows)` this lets a caller widen every row in place
  /// under a new schema instead of copying the relation.
  std::vector<Row> ReleaseRows() {
    DropColumnar();
    return std::move(rows_);
  }

  const Value& Get(int64_t row, int col) const {
    return rows_[static_cast<size_t>(row)][static_cast<size_t>(col)];
  }

  /// Appends a row; the caller must supply exactly one value per column.
  void AddRow(Row row);

  /// Appends all rows of `other`; schemas must be field-count compatible.
  void Append(const Table& other);

  void Reserve(int64_t n) { rows_.reserve(static_cast<size_t>(n)); }
  void Clear() {
    rows_.clear();
    DropColumnar();
  }

  /// The lazily built, cached columnar snapshot of this table
  /// (storage/columnar.h). Built once: concurrent first callers share one
  /// build and different tables build at the same time; copies share the
  /// snapshot, and every mutator drops it. Defined in columnar.cc.
  std::shared_ptr<const ColumnarTable> columnar() const;

  /// Stable sort by the given columns ascending (Value::Compare order).
  void SortBy(const std::vector<int>& cols);

  /// Sort by all columns; used to compare relations as multisets in tests.
  void SortAllColumns();

  /// Payload bytes of the table's SKL2 wire form (exact: the serializer's
  /// output minus its fixed magic/schema/nrows header). Zero when empty.
  size_t SerializedSize() const;

  /// Renders the first `max_rows` rows as an aligned ASCII table.
  std::string ToString(int64_t max_rows = 20) const;

  /// True if both tables contain the same multiset of rows (schema
  /// field-count must match; compares after sorting copies).
  bool SameRowMultiset(const Table& other) const;

 private:
  /// The once-built snapshot of one row set. Copies of a table share its
  /// slot (so a snapshot built through either serves both); a mutator
  /// gives its table a fresh slot.
  struct ColumnarSlot {
    std::once_flag once;
    std::shared_ptr<const ColumnarTable> snapshot;
  };

  /// Gives this table an unbuilt slot of its own, unless it already holds
  /// one (so appending row after row allocates once).
  void DropColumnar();

  SchemaPtr schema_;
  std::vector<Row> rows_;
  std::shared_ptr<ColumnarSlot> columnar_ = std::make_shared<ColumnarSlot>();
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_TABLE_H_
