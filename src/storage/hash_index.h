#ifndef SKALLA_STORAGE_HASH_INDEX_H_
#define SKALLA_STORAGE_HASH_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/hash_util.h"
#include "storage/table.h"

namespace skalla {

/// \brief A hash index from a composite column key to row positions.
///
/// The local GMDJ evaluator's hot path: it probes the base-values relation
/// with each detail tuple's equi-join key. (The coordinator's Theorem-1
/// synchronization keys groups with the flat GroupMap instead, see
/// storage/group_map.h.)
///
/// The index stores row ids bucketed by hash; lookups verify equality to
/// handle collisions. Duplicate keys are supported (all matching row ids
/// are returned).
class HashIndex {
 public:
  /// One distinct indexed key: every row id holding it, in insertion
  /// order. The front row is the representative for equality checks.
  struct Bucket {
    std::vector<int64_t> row_ids;
  };

  HashIndex() = default;

  /// Builds the index over `table` keyed on `key_cols`. The table must
  /// outlive the index and must not be mutated in ways that move rows.
  void Build(const Table& table, std::vector<int> key_cols);

  /// Returns row ids whose key equals the projection of `probe` onto
  /// `probe_cols` (which must have the same arity as the build key).
  /// The returned pointer is invalidated by the next Build/Insert; null
  /// when there is no match.
  const std::vector<int64_t>* Lookup(const Row& probe,
                                     const std::vector<int>& probe_cols) const;

  /// Lookup with a caller-supplied key hash: `hash` must equal
  /// RowKeyHash(probe, probe_cols). The vectorized hash-path probe
  /// (docs/vectorized-execution.md) computes probe hashes in batches over
  /// the typed column arrays and hands them in here, skipping the
  /// per-probe Value materialization while keeping the boxed equality
  /// verification against the bucket representative. Served from the flat
  /// probe mirror when one is built.
  const std::vector<int64_t>* LookupHashed(
      uint64_t hash, const Row& probe,
      const std::vector<int>& probe_cols) const;

  /// Returns the collision chains bucketed under `hash` (one Bucket per
  /// distinct key sharing it), or nullptr when no indexed key hashes
  /// there. The vectorized probe walks the chains itself so equality can
  /// be verified in typed columnar form instead of through boxed rows.
  /// Served from the flat mirror when one is built; inline so the probe
  /// loop compiles down to the slot access.
  const std::vector<Bucket>* ChainsForHash(uint64_t hash) const {
    if (!flat_.empty()) {
      // Linear probe; a nullptr chain list marks the end of the run.
      size_t s = hash & flat_mask_;
      while (true) {
        const FlatSlot& slot = flat_[s];
        if (slot.chains == nullptr) return nullptr;
        if (slot.hash == hash) return slot.chains;
        s = (s + 1) & flat_mask_;
      }
    }
    auto it = buckets_.find(hash);
    return it == buckets_.end() ? nullptr : &it->second;
  }

  /// Builds a probe-optimized mirror of the hash buckets: a power-of-2
  /// open-addressing slot array (linear probing, ~50% load) whose slots
  /// point at the chain lists the node-based map owns. A batched probe
  /// then costs one predictable slot access instead of a node walk, and
  /// `Prefetch` can hide the slot's cache miss across a hash chunk.
  /// Lookup answers are identical with or without the mirror. Idempotent;
  /// invalidated by `Insert`. Not thread-safe — call from the same
  /// single-threaded setup that called Build.
  ///
  /// When the key is a single column and every indexed key value is int64
  /// or NULL, this additionally builds the int64 fast probe
  /// (`has_int64_probe`): a typed open-addressing map from the raw key to
  /// its bucket, replacing the hash-replication + chain-walk + boxed
  /// verification of the generic probe with one exact integer compare.
  void BuildFlatProbe();

  /// True when `LookupInt64` / `LookupNullKey` serve this index.
  bool has_int64_probe() const { return !int64_slots_.empty(); }

  /// Row ids whose (single-column) key is exactly the int64 `key`, or
  /// nullptr. Only meaningful when `has_int64_probe()`; equality is exact
  /// integer equality, which matches Value::operator== because an
  /// all-int64 build side leaves no cross-type numeric pair to compare.
  const std::vector<int64_t>* LookupInt64(int64_t key) const {
    size_t s = HashInt64(static_cast<uint64_t>(key)) & int64_mask_;
    while (true) {
      const Int64Slot& slot = int64_slots_[s];
      if (slot.rows == nullptr) return nullptr;
      if (slot.key == key) return slot.rows;
      s = (s + 1) & int64_mask_;
    }
  }

  /// Row ids whose key is NULL (scalar probing matches NULL to NULL), or
  /// nullptr. Only meaningful when `has_int64_probe()`.
  const std::vector<int64_t>* LookupNullKey() const {
    return null_key_rows_;
  }

  /// Prefetches the probe slot for `hash`. No-op without a flat mirror.
  void Prefetch(uint64_t hash) const {
    if (!flat_.empty()) {
      __builtin_prefetch(&flat_[hash & flat_mask_]);
    }
  }

  /// Adds one more row of the indexed table (by id) to the index.
  void Insert(const Table& table, int64_t row_id);

  int64_t num_entries() const { return num_entries_; }

 private:
  struct FlatSlot {
    uint64_t hash = 0;
    // Chain list for `hash` (owned by buckets_); nullptr = empty slot.
    const std::vector<Bucket>* chains = nullptr;
  };
  struct Int64Slot {
    int64_t key = 0;
    // Row ids for `key` (owned by buckets_); nullptr = empty slot.
    const std::vector<int64_t>* rows = nullptr;
  };

  const Table* table_ = nullptr;
  std::vector<int> key_cols_;
  std::unordered_map<uint64_t, std::vector<Bucket>> buckets_;
  std::vector<FlatSlot> flat_;
  size_t flat_mask_ = 0;
  std::vector<Int64Slot> int64_slots_;
  size_t int64_mask_ = 0;
  const std::vector<int64_t>* null_key_rows_ = nullptr;
  int64_t num_entries_ = 0;
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_HASH_INDEX_H_
