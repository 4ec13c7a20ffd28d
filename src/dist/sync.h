#ifndef SKALLA_DIST_SYNC_H_
#define SKALLA_DIST_SYNC_H_

#include <vector>

#include "common/result.h"
#include "gmdj/gmdj.h"
#include "storage/table.h"

namespace skalla {

/// Sub-aggregate layout of a round's H relations: after the key columns,
/// each aggregate occupies `arity` consecutive columns starting at
/// `offset` (within the sub-column region).
struct SubSlot {
  AggFunc func;
  int offset;
  int arity;
  Field final_field;
};

/// Computes the SubSlot layout for the operators chained in one round,
/// and the total sub-column width.
Result<std::vector<SubSlot>> BuildSubSlots(const std::vector<GmdjOp>& ops,
                                           const SchemaMap& schemas,
                                           int* sub_width);

/// \brief Merges several sub-result relations H_i into one H.
///
/// Each input has the same schema: `num_key` key columns followed by the
/// slots' sub-aggregate columns. Rows with equal keys are combined with the
/// super-aggregates (Theorem 1 applies at any level of an aggregation
/// tree, which is what makes multi-tier coordinators possible). The output
/// row order is unspecified.
Result<Table> CombineSubResults(const std::vector<const Table*>& inputs,
                                int num_key,
                                const std::vector<SubSlot>& slots);

}  // namespace skalla

#endif  // SKALLA_DIST_SYNC_H_
