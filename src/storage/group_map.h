#ifndef SKALLA_STORAGE_GROUP_MAP_H_
#define SKALLA_STORAGE_GROUP_MAP_H_

#include <cstdint>
#include <vector>

#include "common/hash_util.h"
#include "storage/row.h"
#include "storage/value.h"

namespace skalla {

/// \brief A flat map from a composite group key to a dense group id.
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
    if (slots_.empty()) return -1;
    for (size_t s = hash & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.id < 0) return -1;
      if (slot.hash == hash && KeyEquals(slot.id, key_at)) return slot.id;
    }
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
      if (slot.hash == hash && KeyEquals(slot.id, key_at)) {
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
  bool KeyEquals(int64_t id, const KeyAt& key_at) const {
    const Value* stored = key(id);
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

}  // namespace skalla

#endif  // SKALLA_STORAGE_GROUP_MAP_H_
