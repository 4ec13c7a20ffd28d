#include "storage/table.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "storage/serializer.h"

namespace skalla {

namespace {

bool RowLess(const Row& a, const Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

}  // namespace

void Table::AddRow(Row row) {
  SKALLA_DCHECK(static_cast<int>(row.size()) == schema_->num_fields())
      << "row arity " << row.size() << " vs schema " << schema_->num_fields();
  columnar_cache_.reset();
  rows_.push_back(std::move(row));
}

void Table::Append(const Table& other) {
  SKALLA_DCHECK(other.schema().num_fields() == schema_->num_fields());
  columnar_cache_.reset();
  rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
}

void Table::SortBy(const std::vector<int>& cols) {
  columnar_cache_.reset();
  std::stable_sort(rows_.begin(), rows_.end(),
                   [&cols](const Row& a, const Row& b) {
                     for (int c : cols) {
                       const int cmp = a[static_cast<size_t>(c)].Compare(
                           b[static_cast<size_t>(c)]);
                       if (cmp != 0) return cmp < 0;
                     }
                     return false;
                   });
}

void Table::SortAllColumns() {
  columnar_cache_.reset();
  std::sort(rows_.begin(), rows_.end(), RowLess);
}

size_t Table::SerializedSize() const {
  return Serializer::TablePayloadSize(*this);
}

std::string Table::ToString(int64_t max_rows) const {
  std::ostringstream os;
  // Compute column widths over header + shown rows.
  const int ncols = schema_->num_fields();
  const int64_t shown = std::min<int64_t>(max_rows, num_rows());
  std::vector<size_t> width(static_cast<size_t>(ncols));
  for (int c = 0; c < ncols; ++c) {
    width[static_cast<size_t>(c)] = schema_->field(c).name.size();
  }
  std::vector<std::vector<std::string>> cells(static_cast<size_t>(shown));
  for (int64_t r = 0; r < shown; ++r) {
    auto& line = cells[static_cast<size_t>(r)];
    line.reserve(static_cast<size_t>(ncols));
    for (int c = 0; c < ncols; ++c) {
      line.push_back(Get(r, c).ToString());
      width[static_cast<size_t>(c)] =
          std::max(width[static_cast<size_t>(c)], line.back().size());
    }
  }
  for (int c = 0; c < ncols; ++c) {
    os << (c ? " | " : "");
    const std::string& name = schema_->field(c).name;
    os << name << std::string(width[static_cast<size_t>(c)] - name.size(), ' ');
  }
  os << "\n";
  for (int64_t r = 0; r < shown; ++r) {
    for (int c = 0; c < ncols; ++c) {
      os << (c ? " | " : "");
      const std::string& cell = cells[static_cast<size_t>(r)][static_cast<size_t>(c)];
      os << cell << std::string(width[static_cast<size_t>(c)] - cell.size(), ' ');
    }
    os << "\n";
  }
  if (shown < num_rows()) {
    os << "... (" << (num_rows() - shown) << " more rows)\n";
  }
  return os.str();
}

bool Table::SameRowMultiset(const Table& other) const {
  if (num_rows() != other.num_rows()) return false;
  if (schema().num_fields() != other.schema().num_fields()) return false;
  std::vector<Row> a = rows_;
  std::vector<Row> b = other.rows_;
  std::sort(a.begin(), a.end(), RowLess);
  std::sort(b.begin(), b.end(), RowLess);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (!(a[i][j] == b[i][j])) return false;
    }
  }
  return true;
}

}  // namespace skalla
