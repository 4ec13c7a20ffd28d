#ifndef SKALLA_TESTS_SKL1_ORACLE_H_
#define SKALLA_TESTS_SKL1_ORACLE_H_

#include <string>

#include "storage/table.h"

namespace skalla {

/// The SKL1 encoding of `table` (docs/wire-format.md §2): the row-oriented
/// format the library decodes but no longer writes. Every cell is written
/// as its type tag and full payload, so two tables encode alike exactly
/// when they hold the same types and bits in the same order (NaN equals
/// itself, -0.0 differs from +0.0). Tests compare tables through it and
/// write seed-era warehouse files with it; bench_wire_format times it.
std::string EncodeSkl1(const Table& table);

}  // namespace skalla

#endif  // SKALLA_TESTS_SKL1_ORACLE_H_
