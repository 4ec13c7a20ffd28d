#ifndef SKALLA_STORAGE_GROUP_MAP_H_
#define SKALLA_STORAGE_GROUP_MAP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash_util.h"
#include "storage/columnar.h"
#include "storage/row.h"
#include "storage/table.h"
#include "storage/value.h"

namespace skalla {

/// \brief A flat map from a composite group key to a dense group id.
///
/// The one structure that groups rows by key: the coordinator's Theorem-1
/// synchronization, δπ, GROUP BY, CUBE roll-ups, the hash join and the
/// local GMDJ's equi-key probe all key through it (the last two through
/// RowGroups below).
///
/// Ids are handed out in first-appearance order, 0, 1, 2, ..., so they
/// double as row positions in the relation the keys came from. The map
/// owns one copy of each distinct key. Grouping is exactly the row
/// engine's: keys hash with RowKeyHash's function and compare with
/// Value::operator==, so int64 5 and double 5.0 are one group (the first
/// representation is the one kept), NULL groups with NULL, and a NaN key
/// never matches — each NaN row is a group of its own.
///
/// The slot array is open-addressing with linear probing at most half
/// full; it grows by doubling, reinserting in id order, so among keys of
/// one hash the earliest id is always probed first.
///
/// Keys are passed as a callable `key_at(c)` returning the c-th key value
/// (c in [0, width)), so callers can probe straight from rows, columns, or
/// any other layout without building a key row.
class GroupMap {
 public:
  /// A map over keys of `width` values (0 = one group, the empty key).
  explicit GroupMap(int width = 0) : width_(width) {}

  int width() const { return width_; }
  int64_t size() const { return static_cast<int64_t>(hashes_.size()); }

  /// Hash() one key column at a time: starting from Seed() and combining
  /// each key column's value in order, which lets a caller hash a batch
  /// of keys column by column.
  static uint64_t Seed() { return kRowKeyHashSeed; }
  static uint64_t Combine(uint64_t partial, const Value& v) {
    return HashCombine(partial, v.Hash());
  }

  /// RowKeyHash's function over key_at(0..width-1).
  template <typename KeyAt>
  static uint64_t Hash(int width, const KeyAt& key_at) {
    uint64_t h = Seed();
    for (int c = 0; c < width; ++c) h = Combine(h, key_at(c));
    return h;
  }

  /// The id of the key equal to key_at(0..width-1), or -1. `hash` must be
  /// Hash(width(), key_at).
  template <typename KeyAt>
  int64_t Find(uint64_t hash, const KeyAt& key_at) const {
    return FindIf(hash, [this, &key_at](const Value* stored) {
      return KeyEquals(stored, key_at);
    });
  }

  /// Find() with the key comparison left to the caller: `equals(stored)`
  /// is asked, for the stored keys of hash `hash` in id order, whether the
  /// width() values at `stored` are the probed key; the first yes wins.
  /// `equals` must decide as Value::operator== does, which lets a probe
  /// compare a key held in another layout (typed columnar cells, see
  /// CellEqualsValue) without boxing it.
  template <typename Equals>
  int64_t FindIf(uint64_t hash, const Equals& equals) const {
    if (slots_.empty()) return -1;
    for (size_t s = hash & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.id < 0) return -1;
      if (slot.hash == hash && equals(key(slot.id))) return slot.id;
    }
  }

  /// Prefetches the slot a probe of `hash` starts at, so a batched probe
  /// can hide its cache miss a few keys ahead.
  void Prefetch(uint64_t hash) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[hash & mask_]);
  }

  /// Find(), adding the key under the next id when absent; `*inserted`
  /// says which happened.
  template <typename KeyAt>
  int64_t FindOrInsert(uint64_t hash, const KeyAt& key_at, bool* inserted) {
    if (2 * (hashes_.size() + 1) > slots_.size()) Grow(hashes_.size() + 1);
    size_t s = hash & mask_;
    for (;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.id < 0) break;
      if (slot.hash == hash && KeyEquals(key(slot.id), key_at)) {
        *inserted = false;
        return slot.id;
      }
    }
    const int64_t id = size();
    slots_[s] = Slot{hash, id};
    hashes_.push_back(hash);
    // resize + assign appends Values faster than push_back.
    const size_t at = keys_.size();
    keys_.resize(at + static_cast<size_t>(width_));
    for (int c = 0; c < width_; ++c) {
      keys_[at + static_cast<size_t>(c)] = key_at(c);
    }
    *inserted = true;
    return id;
  }

  /// The key of group `id`: width() values.
  const Value* key(int64_t id) const {
    return keys_.data() + static_cast<size_t>(id) * width_;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    int64_t id = -1;  ///< -1 = empty
  };

  /// Value::operator==, with the int64 pair (the common group key) inline.
  static bool ValueEquals(const Value& a, const Value& b) {
    if (a.is_int64() && b.is_int64()) return a.AsInt64() == b.AsInt64();
    return a == b;
  }

  template <typename KeyAt>
  bool KeyEquals(const Value* stored, const KeyAt& key_at) const {
    for (int c = 0; c < width_; ++c) {
      if (!ValueEquals(stored[c], key_at(c))) return false;
    }
    return true;
  }

  /// Doubles the slot array until `groups` keys fill at most half of it,
  /// reinserting every key in id order.
  void Grow(size_t groups);

  int width_;
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  std::vector<uint64_t> hashes_;  ///< by id, for regrowth
  std::vector<Value> keys_;       ///< by id, width_ values each
};

/// \brief A relation's rows grouped by key: the GroupMap of the key
/// columns plus, per group, the ids of the rows that hold its key.
///
/// Group ids are the map's, in first-appearance order, and each group's
/// row ids ascend. They are kept as one offsets array and one row-id
/// array: group g's rows are row_ids[offsets[g], offsets[g + 1]). Built
/// once and then only read, so any number of threads may probe it.
class RowGroups {
 public:
  RowGroups() = default;

  /// Groups `table`'s rows by their values in `key_cols`.
  static RowGroups Of(const Table& table, const std::vector<int>& key_cols);

  const GroupMap& map() const { return map_; }
  int64_t num_groups() const { return map_.size(); }

  /// The ids of the rows of group `g`, ascending.
  std::span<const int64_t> rows(int64_t g) const {
    const int64_t begin = offsets_[static_cast<size_t>(g)];
    const int64_t end = offsets_[static_cast<size_t>(g) + 1];
    return {row_ids_.data() + begin, static_cast<size_t>(end - begin)};
  }

  /// The group whose key equals `row`'s values in `cols` (one column per
  /// key column, in key order), or -1.
  int64_t Find(const Row& row, const std::vector<int>& cols) const {
    auto key_at = [&row, &cols](int c) -> const Value& {
      return row[static_cast<size_t>(cols[static_cast<size_t>(c)])];
    };
    return map_.Find(GroupMap::Hash(map_.width(), key_at), key_at);
  }

 private:
  GroupMap map_;
  std::vector<int64_t> offsets_;  ///< num_groups() + 1 entries
  std::vector<int64_t> row_ids_;  ///< grouped; ascending within a group
};

/// GroupMap::Combine over cells [lo, lo + n) of one usable columnar column,
/// into hashes[0..n): each cell hashes as its boxed Value would (NULL to
/// kNullValueHash, the rest through Value::HashOf; `code_hashes` holds
/// HashOf of each dictionary string of a string column). Starting from
/// GroupMap::Seed() and combining every key column in order gives each
/// row's GroupMap::Hash.
void CombineProbeHashes(const ColumnarTable::Column& col,
                        const std::vector<uint64_t>& code_hashes, int64_t lo,
                        size_t n, uint64_t* hashes);

/// Value::operator== of cell `i` of a usable columnar column and a boxed
/// value: NULL equals only NULL, an int64 pair compares exactly, mixed
/// numerics compare as doubles, strings compare bytes, and values of
/// different kinds are never equal.
inline bool CellEqualsValue(const ColumnarTable::Column& col, int64_t i,
                            const Value& v) {
  if (!col.IsValid(i)) return v.is_null();
  if (v.is_null()) return false;
  switch (col.type) {
    case ValueType::kInt64: {
      if (!v.is_numeric()) return false;
      const int64_t c = col.ints[static_cast<size_t>(i)];
      if (v.is_int64()) return c == v.AsInt64();
      return static_cast<double>(c) == v.AsDouble();
    }
    case ValueType::kDouble:
      return v.is_numeric() &&
             col.doubles[static_cast<size_t>(i)] == v.ToDouble();
    case ValueType::kString:
      return v.is_string() &&
             col.dict[static_cast<size_t>(col.codes[static_cast<size_t>(i)])] ==
                 v.AsString();
    case ValueType::kNull:
      return false;  // IsValid above already handled the all-NULL column
  }
  return false;
}

}  // namespace skalla

#endif  // SKALLA_STORAGE_GROUP_MAP_H_
