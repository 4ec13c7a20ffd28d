#ifndef SKALLA_DIST_SYNC_H_
#define SKALLA_DIST_SYNC_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "gmdj/gmdj.h"
#include "storage/group_map.h"
#include "storage/serializer.h"
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

/// Keys the first `num_key` columns of `x`'s rows: group id i is row i.
/// Fails when two rows share a key, since a base-result structure holds
/// each group once.
Result<GroupMap> GroupMapOfRows(const Table& x, int num_key);

/// \brief Theorem 1's synchronization: folds sub-result relations H_i into
/// one set of super-aggregate accumulators per group, a carrier column at
/// a time.
///
/// Groups are the ids of a GroupMap — at the coordinator, X's row
/// positions. Every group starts at the identities (InitSubValues), the
/// groups the fold adds included, and the accumulators are one flat array
/// of groups x sub-width values. Replies merge in the order folded and
/// each reply's rows in row order, so every accumulator sees the values a
/// row-at-a-time merge would, in the same order. Theorem 1 holds at every
/// level of an aggregation tree: the root finalizes the fold into X, an
/// aggregator emits it as its own H.
class SubResultFold {
 public:
  /// A fold keyed by `groups` (borrowed; it must outlive the fold) over
  /// replies of groups->width() key columns followed by `sub_width`
  /// carriers laid out by `slots`. With `add_groups` a key missing from
  /// `groups` is added to it; otherwise it fails the fold.
  SubResultFold(GroupMap* groups, std::vector<SubSlot> slots, int sub_width,
                bool add_groups);

  /// Folds one decoded reply sent by `from` (a site slot or an aggregator
  /// endpoint, named in errors). The reply is checked before any
  /// accumulator moves: a field count other than key width + sub-width
  /// is InvalidArgument; a string in an adding carrier, or a count
  /// carrier (COUNT's, and the last of AVG, VAR and STDDEV) holding
  /// anything but int64 or NULL, is TypeError. A key missing from the map
  /// without `add_groups` is Internal.
  Status Fold(const DecodedColumns& reply, int from);

  /// Writes the fold into X, whose rows are the map's first
  /// x->num_rows() groups: each existing row gains one finalized column
  /// per slot, in place, and each group the fold added becomes a new row —
  /// its key, then its finalized columns. Rows are reserved for
  /// `row_capacity` values, so later rounds widen them without moving.
  /// `*carriers` (may be null) holds X's QuotientCarriers: each AVG slot's
  /// column gains the exact (sum, count) it finalized from, one per row of
  /// the new X (AvgQuotient; den 0 where there is none).
  void FinalizeInto(Table* x, size_t row_capacity,
                    std::vector<QuotientCarriers>* carriers) const;

  /// The combined sub-result relation under `schema`: one row per group
  /// in id order, its key followed by its carriers.
  Table Emit(SchemaPtr schema) const;

 private:
  Status Validate(const DecodedColumns& reply, int from) const;
  /// Sets the accumulators of the groups added to the map since the last
  /// call to the identities.
  void InitNewGroups();

  GroupMap* groups_;
  std::vector<SubSlot> slots_;
  size_t sub_width_;
  bool add_groups_;
  std::vector<Value> init_;  ///< one group's identities, sub_width_ values
  std::vector<Value> acc_;   ///< groups x sub_width_, by group id
  // Per-reply scratch, kept to reuse its capacity.
  std::vector<uint64_t> hashes_;
  std::vector<int64_t> ids_;
};

}  // namespace skalla

#endif  // SKALLA_DIST_SYNC_H_
