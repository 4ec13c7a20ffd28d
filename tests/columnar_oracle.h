#ifndef SKALLA_TESTS_COLUMNAR_ORACLE_H_
#define SKALLA_TESTS_COLUMNAR_ORACLE_H_

#include <vector>

#include "storage/columnar.h"
#include "storage/table.h"

namespace skalla {

/// The columns of `table`'s columnar snapshot, built column at a time: one
/// walk over every row per column, string codes handed out through a
/// std::unordered_map. This is the snapshot build the library had before
/// its one row-major pass; tests compare ColumnarTable::Build with it
/// field by field.
std::vector<ColumnarTable::Column> BuildColumnsOracle(const Table& table);

}  // namespace skalla

#endif  // SKALLA_TESTS_COLUMNAR_ORACLE_H_
