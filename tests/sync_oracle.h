#ifndef SKALLA_TESTS_SYNC_ORACLE_H_
#define SKALLA_TESTS_SYNC_ORACLE_H_

// The row-at-a-time synchronization the coordinator ran before the
// column-at-a-time SubResultFold (dist/sync.h), kept as the fold's test
// reference: every sub-result row finds its group by a linear scan with
// RowKeyEquals — no code shared with the GroupMap the fold keys on — and
// merges with MergeSubValues, and finalizing copies each X row to append
// the new columns.

#include <string>
#include <vector>

#include "common/result.h"
#include "dist/sync.h"
#include "storage/table.h"

namespace skalla {

/// The aggregators' combine: the first row of each group is copied as is,
/// later rows merge into it with the super-aggregates. Output rows are in
/// first-appearance order under the first input's schema.
Result<Table> CombineSubResultsRowwise(const std::vector<const Table*>& inputs,
                                       int num_key,
                                       const std::vector<SubSlot>& slots);

/// The root's synchronization of one round: per-X-row accumulators start
/// at the identities, each reply row merges into its group's (a plan-only
/// round appends a key row for a group X lacks; any other round fails on
/// one), then every X row is copied with the slots' finalized values
/// appended.
Result<Table> SynchronizeRowwise(const Table& x,
                                 const std::vector<const Table*>& replies,
                                 int num_key,
                                 const std::vector<SubSlot>& slots,
                                 int sub_width, bool plan_only);

/// The same two steps through the production SubResultFold, as the
/// coordinator drives it: each table is serialized, decoded with
/// Serializer::DecodeColumns and folded in order. CombineWithFold emits a
/// fresh map's groups under the first input's schema, as an aggregator
/// does; SynchronizeWithFold keys `x`'s rows and finalizes the fold into
/// a copy of it, as the root does.
Result<Table> CombineWithFold(const std::vector<const Table*>& inputs,
                              int num_key, const std::vector<SubSlot>& slots,
                              int sub_width);
Result<Table> SynchronizeWithFold(const Table& x,
                                  const std::vector<const Table*>& replies,
                                  int num_key,
                                  const std::vector<SubSlot>& slots,
                                  int sub_width, bool plan_only);

/// δπ through an unordered_set of row pointers, keeping each key's first
/// row in input order.
Result<Table> DistinctProjectRowwise(const Table& input,
                                     const std::vector<std::string>& cols);

}  // namespace skalla

#endif  // SKALLA_TESTS_SYNC_ORACLE_H_
