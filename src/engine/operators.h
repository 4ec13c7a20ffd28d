#ifndef SKALLA_ENGINE_OPERATORS_H_
#define SKALLA_ENGINE_OPERATORS_H_

#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "common/result.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace skalla {

/// π: keeps the named columns, in the given order.
Result<Table> Project(const Table& input, const std::vector<std::string>& cols);

/// σ: keeps rows satisfying the predicate. Column references in `pred` bind
/// to the input relation on the detail side (Side::kDetail); base-side
/// references fail to compile.
Result<Table> Filter(const Table& input, const ExprPtr& pred);

/// δπ: the paper's typical base-values query `B₀ = π_attrs(R)` with
/// duplicate elimination, computed in one hashing pass.
Result<Table> DistinctProject(const Table& input,
                              const std::vector<std::string>& cols);

/// ⊔: multiset union of tables with compatible schemas (the first table's
/// schema is used for the result).
Result<Table> UnionAll(const std::vector<const Table*>& inputs);

/// Ascending multi-column sort (copy).
Result<Table> SortedBy(const Table& input, const std::vector<std::string>& cols);

/// One ORDER BY key.
struct SortKey {
  std::string column;
  bool descending = false;
};

/// Multi-key sort honoring per-key direction, with a deterministic
/// full-row tie-break (so ORDER BY + LIMIT yields the same rows no matter
/// how the input rows were ordered — required for distributed ==
/// centralized under LIMIT).
Result<Table> SortedByKeys(const Table& input,
                           const std::vector<SortKey>& keys);

/// Conventional hash GROUP BY with the Skalla aggregate functions; provided
/// for examples and for cross-checking GMDJ results (a single-block GMDJ
/// whose θ is key equality is equivalent to a GROUP BY).
Result<Table> HashGroupBy(const Table& input,
                          const std::vector<std::string>& group_cols,
                          const std::vector<AggSpec>& aggs);

/// Adds a computed column `name` = expr(row) to every row.
Result<Table> Extend(const Table& input, const std::string& name,
                     const ExprPtr& expr);

/// Keeps the first n rows.
Table Limit(const Table& input, int64_t n);

/// Inner hash equi-join: probes `right` (build side) with each `left` row.
/// Output columns are all of `left`'s followed by all of `right`'s; a
/// right column whose name collides with a left column is prefixed with
/// `right_prefix` (which must then be non-empty). SQL semantics: NULL keys
/// never match. Used by the star-schema denormalizer (tpc/star.h) — the
/// paper's test database is a denormalized join of the TPC(R) tables.
Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<std::string>& left_keys,
                       const std::vector<std::string>& right_keys,
                       const std::string& right_prefix = "r_");

/// Unpivot (Graefe et al., cited by the paper for extracting marginal
/// distributions): turns the named measure columns into rows. Every input
/// row produces one output row per measure column, with schema
///   [untouched columns...] + name_col:string + value_col.
/// The measure columns must share one type (which becomes value_col's
/// type); NULL measures are skipped (SQL UNPIVOT semantics).
Result<Table> Unpivot(const Table& input,
                      const std::vector<std::string>& measure_cols,
                      const std::string& name_col,
                      const std::string& value_col);

}  // namespace skalla

#endif  // SKALLA_ENGINE_OPERATORS_H_
