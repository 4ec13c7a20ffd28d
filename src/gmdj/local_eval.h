#ifndef SKALLA_GMDJ_LOCAL_EVAL_H_
#define SKALLA_GMDJ_LOCAL_EVAL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "gmdj/gmdj.h"
#include "storage/fragment_list.h"
#include "storage/table.h"

namespace skalla {

/// Whether the evaluator emits finalized aggregate values (centralized
/// evaluation) or shippable sub-aggregates (site-side evaluation, to be
/// merged by the coordinator's super-aggregates — Theorem 1).
enum class AggMode { kFinal, kSub };

/// Options of one local GMDJ evaluation.
struct LocalGmdjOptions {
  AggMode mode = AggMode::kFinal;

  /// Distribution-independent group reduction (Proposition 1): emit only
  /// base tuples b with |RNG(b, R_i, θ₁ ∨ … ∨ θ_m)| > 0. Equivalent to the
  /// paper's guard COUNT(*) over the θ-disjunction followed by a COUNT > 0
  /// selection, fused into the evaluation.
  bool touched_only = false;

  /// Base columns copied into the output ahead of the aggregate columns.
  /// Empty means "all base columns" (centralized evaluation); distributed
  /// rounds ship only the key attributes K.
  std::vector<std::string> carry_cols;

  /// Lanes for the morsel-driven detail scan: the detail relation is split
  /// into fixed-size morsels evaluated on the shared pool
  /// (common/thread_pool.h) with worker-private accumulators, merged back
  /// in morsel order. 0 = ThreadPool::DefaultThreadCount() (the
  /// SKALLA_THREADS knob, default hardware concurrency); 1 = the exact
  /// sequential pre-pool behavior. Results are independent of the lane
  /// count (see docs/parallelism.md).
  int num_threads = 0;

  /// Detail rows per morsel; 0 = default (kDefaultMorselRows). The morsel
  /// grid — and therefore the merge order — depends only on this and the
  /// relation sizes, never on num_threads.
  int64_t morsel_rows = 0;

  /// Vectorized detail scan (docs/vectorized-execution.md): batch predicate
  /// evaluation over the cached columnar view, a typed equi-key probe, and
  /// typed aggregate kernels. false runs the scalar row-at-a-time path;
  /// either way the result is byte-identical. A detail relation of several
  /// fragments always scans scalar.
  bool vectorize = true;

  /// Restricts the detail scan to detail rows [scan_lo, scan_hi);
  /// scan_hi = -1 means "to the end". Used by skew rebalancing
  /// (docs/skew.md) to split one site's detail relation into disjoint
  /// fragments evaluated on different executors: because sub-aggregates
  /// merge associatively (Theorem 1),
  /// any disjoint cover of [0, |R|) produces sub-results whose merge is
  /// byte-identical to the unsplit scan.
  int64_t scan_lo = 0;
  int64_t scan_hi = -1;
};

/// \brief Counts of one GMDJ detail scan, reported to EvalGmdjOp's caller
/// (added into its ScanCounters, so a caller chaining several operators
/// sums them).
struct ScanCounters {
  /// Detail positions visited by scan_range (Σ (hi − lo) over morsels,
  /// summed across blocks, so a two-block operator counts the relation
  /// twice — each block is its own scan).
  int64_t rows_scanned = 0;
  /// Matches folded into accumulators: Σ |RNG(b, morsel, θ)| over base
  /// tuples — i.e. (base, detail) pairs, not distinct detail rows.
  int64_t rows_matched = 0;
  /// Morsels (sequential scans count as one) executed on the vectorized
  /// path vs the scalar row-at-a-time path.
  int64_t morsels_vectorized = 0;
  int64_t morsels_scalar = 0;

  ScanCounters& operator+=(const ScanCounters& other) {
    rows_scanned += other.rows_scanned;
    rows_matched += other.rows_matched;
    morsels_vectorized += other.morsels_vectorized;
    morsels_scalar += other.morsels_scalar;
    return *this;
  }
};

/// Default morsel granularity: small enough to load-balance skewed
/// equi-key runs across workers, large enough that the per-morsel partial
/// accumulators (|B| × |aggs| states each, folded after the scan) stay a
/// small fraction of the scan work itself.
inline constexpr int64_t kDefaultMorselRows = 65536;

/// \brief Evaluates one GMDJ operator MD(base, detail, blocks) locally.
///
/// Implementation: per block, θ is decomposed (expr/analyzer.h) into
/// `B.x = R.y` equi-conjuncts plus a residual. With equi-conjuncts present,
/// the base relation's rows grouped on the x-columns (storage/group_map.h)
/// are probed once per detail tuple — O(|B| + |R|·matches) — with the
/// residual evaluated per candidate match. Without equi-conjuncts the evaluator
/// falls back to the nested loop O(|B|·|R|) demanded by GMDJ generality
/// (RNG sets may overlap arbitrarily).
///
/// The output contains one row per base tuple (or per *touched* base tuple
/// when options.touched_only): carry columns followed by, for every block
/// in order, every aggregate's value(s) in `options.mode` form.
///
/// The detail scan is morsel-driven: with num_threads lanes > 1 it is split
/// into fixed-size morsels evaluated concurrently on the shared pool, each
/// into private accumulators, merged back in morsel order — the in-memory
/// analogue of the Theorem 1 sub/super-aggregate split, with the same
/// determinism guarantee (docs/parallelism.md). When `scan` is non-null
/// the evaluation's scan counts are added to it.
///
/// `detail` is a site's fragment (a Table converts) or a relation read in
/// place as its fragments, scanned as the rows of their union in the
/// union's order: the answer equals the evaluation over the union, byte
/// for byte.
Result<Table> EvalGmdjOp(const Table& base, const FragmentList& detail,
                         const GmdjOp& op, const LocalGmdjOptions& options,
                         ScanCounters* scan = nullptr);

}  // namespace skalla

#endif  // SKALLA_GMDJ_LOCAL_EVAL_H_
