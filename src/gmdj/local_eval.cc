#include "gmdj/local_eval.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <span>
#include <utility>

#include "common/thread_pool.h"
#include "expr/analyzer.h"
#include "expr/evaluator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/columnar.h"
#include "storage/group_map.h"

namespace skalla {

namespace {

/// How one aggregate consumes matched detail rows on the vectorized path.
/// Chosen per (block, aggregate) from the columnar view: typed kernels need
/// a usable column of the matching type; everything else — unusable
/// columns, string inputs, mixed-type columns — keeps the boxed Update,
/// which is the scalar path and therefore trivially identical to it.
struct AggKernel {
  enum class Kind : uint8_t { kCountStar, kInt64, kDouble, kBoxed };
  Kind kind = Kind::kBoxed;
  int col = -1;  ///< detail column index; -1 for COUNT(*)
};

/// Per-block execution artifacts prepared before the detail scan.
struct BlockPlan {
  // Hash path: base/probe key column indices (empty → nested loop).
  std::vector<int> base_key_cols;
  std::vector<int> detail_key_cols;
  // Residual predicate (hash path) or the full θ (nested-loop path);
  // nullopt when the hash keys fully cover θ.
  std::optional<CompiledExpr> predicate;
  // Detail column index per aggregate; -1 for COUNT(*).
  std::vector<int> agg_inputs;
};

/// Where one scan lane accumulates matches: |B| × |aggs| states (one
/// block's layout) plus the touched bitmap. Either the shared result
/// arrays (sequential path) or a morsel-private partial (parallel path).
struct ScanTarget {
  AggState* states = nullptr;
  char* touched = nullptr;
};

/// What one scan_range invocation (one morsel, or the whole relation on
/// the sequential path) did — summed into the call's ScanCounters and,
/// when the lane span is armed, written into its detail string.
struct MorselStats {
  int64_t rows = 0;     ///< detail positions visited (hi − lo)
  int64_t matched = 0;  ///< (base, detail) pairs folded
  bool vectorized = false;
};

/// Upper bound on per-morsel accumulator memory: the morsel count is
/// clamped so that Σ morsel partials ≤ this many AggStates per block. A
/// function of the relation sizes only — never of the lane count — so the
/// morsel grid (and with it the merge order) is reproducible.
constexpr int64_t kPartialStateBudget = int64_t{1} << 20;

/// Base rows per task of the parallel partial fold. Like the morsel grid,
/// a function of |B| only, so the fold decomposition is reproducible.
constexpr int64_t kMergeChunkRows = 4096;

/// Matched (base, detail) pairs buffered by the vectorized hash path are
/// flushed once this many accumulate, bounding the buffer while
/// amortizing the per-aggregate dispatch (longer per-base runs mean
/// fewer batch-kernel calls per pair).
constexpr size_t kHashPairFlush = 32768;

/// The vectorized hash path keeps one selection vector per base row (so
/// flushes run through the per-base batch kernels) while |B| is at most
/// this; larger bases fall back to a flat pair buffer, whose footprint
/// does not scale with |B|.
constexpr int64_t kMaxGroupedFlushBases = 65536;

/// Probe hashes are computed in chunks of this many detail rows, one key
/// column at a time over the typed arrays (the batched hash-path probe;
/// docs/vectorized-execution.md).
constexpr int64_t kProbeHashChunk = 1024;

}  // namespace

Result<Table> EvalGmdjOp(const Table& base, const FragmentList& detail,
                         const GmdjOp& op, const LocalGmdjOptions& options,
                         ScanCounters* scan) {
  obs::ScopedSpan eval_span("gmdj.local_eval");
  if (eval_span.armed()) {
    eval_span.set_detail("base " + std::to_string(base.num_rows()) +
                         " x detail " + std::to_string(detail.num_rows()));
  }
  const Schema& base_schema = base.schema();
  const Schema& detail_schema = detail.schema();

  // Resolve carry columns.
  std::vector<int> carry_indices;
  std::vector<Field> out_fields;
  if (options.carry_cols.empty()) {
    carry_indices.resize(static_cast<size_t>(base_schema.num_fields()));
    for (size_t i = 0; i < carry_indices.size(); ++i) {
      carry_indices[i] = static_cast<int>(i);
      out_fields.push_back(base_schema.field(static_cast<int>(i)));
    }
  } else {
    for (const std::string& name : options.carry_cols) {
      SKALLA_ASSIGN_OR_RETURN(int idx, base_schema.MustIndexOf(name));
      carry_indices.push_back(idx);
      out_fields.push_back(base_schema.field(idx));
    }
  }

  // Prepare per-block plans and output schema.
  std::vector<BlockPlan> plans;
  plans.reserve(op.blocks.size());
  for (const GmdjBlock& block : op.blocks) {
    BlockPlan plan;
    ThetaDecomposition decomposition = DecomposeTheta(block.theta);
    if (!decomposition.pairs.empty()) {
      for (const EquiPair& pair : decomposition.pairs) {
        SKALLA_ASSIGN_OR_RETURN(int b_idx,
                                base_schema.MustIndexOf(pair.base_col));
        SKALLA_ASSIGN_OR_RETURN(int d_idx,
                                detail_schema.MustIndexOf(pair.detail_col));
        plan.base_key_cols.push_back(b_idx);
        plan.detail_key_cols.push_back(d_idx);
      }
      if (decomposition.residual != nullptr) {
        SKALLA_ASSIGN_OR_RETURN(
            CompiledExpr compiled,
            CompiledExpr::Compile(decomposition.residual, &base_schema,
                                  &detail_schema));
        plan.predicate = std::move(compiled);
      }
    } else {
      SKALLA_ASSIGN_OR_RETURN(
          CompiledExpr compiled,
          CompiledExpr::Compile(block.theta, &base_schema, &detail_schema));
      plan.predicate = std::move(compiled);
    }
    for (const AggSpec& spec : block.aggs) {
      if (spec.is_count_star()) {
        plan.agg_inputs.push_back(-1);
      } else {
        SKALLA_ASSIGN_OR_RETURN(int idx,
                                detail_schema.MustIndexOf(spec.input));
        plan.agg_inputs.push_back(idx);
      }
      if (options.mode == AggMode::kFinal) {
        SKALLA_ASSIGN_OR_RETURN(Field f, FinalFieldFor(spec, detail_schema));
        out_fields.push_back(std::move(f));
      } else {
        SKALLA_ASSIGN_OR_RETURN(std::vector<Field> fs,
                                SubFieldsFor(spec, detail_schema));
        out_fields.insert(out_fields.end(), fs.begin(), fs.end());
      }
    }
    plans.push_back(std::move(plan));
  }

  // Aggregate states: per block, |B| × |aggs| accumulators.
  const size_t num_base = static_cast<size_t>(base.num_rows());
  std::vector<std::vector<AggState>> states(op.blocks.size());
  for (size_t blk = 0; blk < op.blocks.size(); ++blk) {
    const auto& aggs = op.blocks[blk].aggs;
    states[blk].reserve(num_base * aggs.size());
    for (size_t r = 0; r < num_base; ++r) {
      for (const AggSpec& spec : aggs) {
        states[blk].emplace_back(spec.func);
      }
    }
  }
  std::vector<char> touched(num_base, 0);

  static const Value kOne(int64_t{1});

  // The lane count: 1 runs the exact sequential pre-pool scan; more lanes
  // split the detail scan into morsels evaluated on the shared pool.
  int lanes = options.num_threads > 0 ? options.num_threads
                                      : ThreadPool::DefaultThreadCount();

  // The vectorized scan reads one Table, `vec_detail`, through its columnar
  // view, built lazily once per Table and cached (storage/columnar.h), so
  // repeated rounds over a persistent detail partition fetch it for free.
  // A detail relation of several fragments scans scalar, row by row across
  // its fragments in order.
  const bool vectorize_on = options.vectorize && detail.num_fragments() == 1;
  const Table& vec_detail = detail.fragment(0);
  std::shared_ptr<const ColumnarTable> columnar;
  if (vectorize_on) columnar = vec_detail.columnar();

  // Blocks typically share the same equi-key over B (key equality appears
  // in every θ), so B's rows are grouped once per key-column set and the
  // groups are reused across blocks.
  std::map<std::vector<int>, RowGroups> groups_cache;

  // Scan counts are added to the caller's counters, if it asked for them.
  ScanCounters unreported;
  ScanCounters& counts = scan != nullptr ? *scan : unreported;

  // One detail scan per block, morsel-parallel when lanes > 1.
  for (size_t blk = 0; blk < op.blocks.size(); ++blk) {
    const BlockPlan& plan = plans[blk];
    const size_t num_aggs = op.blocks[blk].aggs.size();

    // Vectorized-path planning: one kernel per aggregate (typed columns
    // get the batch/point kernels, everything else keeps the boxed Update)
    // and a static batch plan for the predicate. Decided per block from
    // the columnar view alone, never per row.
    std::vector<AggKernel> kernels(num_aggs);
    bool predicate_batch = false;
    if (vectorize_on) {
      for (size_t a = 0; a < num_aggs; ++a) {
        const int in = plan.agg_inputs[a];
        AggKernel& kernel = kernels[a];
        kernel.col = in;
        if (in < 0) {
          kernel.kind = AggKernel::Kind::kCountStar;
        } else {
          const ColumnarTable::Column& col = columnar->column(in);
          if (col.usable && col.type == ValueType::kInt64) {
            kernel.kind = AggKernel::Kind::kInt64;
          } else if (col.usable && col.type == ValueType::kDouble) {
            kernel.kind = AggKernel::Kind::kDouble;
          } else {
            kernel.kind = AggKernel::Kind::kBoxed;
          }
        }
      }
      predicate_batch = plan.predicate.has_value() &&
                        plan.predicate->SupportsBatchEval(*columnar);
    }

    // Path-specific shared read-only structures, built once per block.
    const bool hash_path = !plan.base_key_cols.empty();
    const RowGroups* groups = nullptr;
    if (hash_path) {
      auto [it, inserted] = groups_cache.try_emplace(plan.base_key_cols);
      if (inserted) it->second = RowGroups::Of(base, plan.base_key_cols);
      groups = &it->second;
    }

    // Per-path vectorization: the nested loop needs a batch-evaluable
    // predicate (it is nothing but the predicate); the hash path batches
    // the aggregate folds, so it vectorizes whenever the scan does.
    const bool vec_nested =
        vectorize_on && plan.base_key_cols.empty() && predicate_batch;
    const bool vec_hash = vectorize_on && hash_path;

    // Typed-probe plan: when every detail key column is usable, probe
    // hashes come chunk-at-a-time from the typed arrays (CombineProbeHashes
    // hashes each cell as its Value would) and equality is checked cell
    // against stored key (CellEqualsValue), so no boxed detail row is
    // touched. Any unusable key column keeps the boxed probe.
    std::vector<const ColumnarTable::Column*> probe_cols;
    std::vector<std::vector<uint64_t>> probe_code_hashes;
    if (vec_hash) {
      for (int c : plan.detail_key_cols) {
        const ColumnarTable::Column& col = columnar->column(c);
        if (!col.usable) {
          probe_cols.clear();
          break;
        }
        probe_cols.push_back(&col);
      }
      probe_code_hashes.resize(probe_cols.size());
      for (size_t i = 0; i < probe_cols.size(); ++i) {
        if (probe_cols[i]->type != ValueType::kString) continue;
        std::vector<uint64_t>& hs = probe_code_hashes[i];
        hs.reserve(probe_cols[i]->dict.size());
        for (const std::string& str : probe_cols[i]->dict) {
          hs.push_back(Value::HashOf(std::string_view(str)));
        }
      }
    }
    const bool vec_probe = !probe_cols.empty();
    const bool probe_nulls =
        std::any_of(probe_cols.begin(), probe_cols.end(),
                    [](const ColumnarTable::Column* col) {
                      return col->has_nulls;
                    });
    // A NULL equi-key compares unknown, never equal: a detail row with a
    // NULL in any key column matches no base row, as on the nested loop.
    auto null_key_row = [&plan](const Row& row) {
      return std::any_of(plan.detail_key_cols.begin(),
                         plan.detail_key_cols.end(), [&row](int c) {
                           return row[static_cast<size_t>(c)].is_null();
                         });
    };
    auto null_key_cell = [&probe_cols](int64_t d) {
      return std::any_of(probe_cols.begin(), probe_cols.end(),
                         [d](const ColumnarTable::Column* col) {
                           return !col->IsValid(d);
                         });
    };

    // Scans detail rows [lo, hi) into `target`. Match sets are
    // row-independent, so any disjoint cover of [0, |R|) visits each match
    // exactly once.
    //
    // Both modes produce byte-identical accumulators: every path feeds any
    // given (base row, aggregate) state its matching detail rows in the
    // same ascending scan order as the scalar loops, and the typed kernels
    // replicate AggState::Update's arithmetic exactly (agg/aggregate.h).
    auto scan_range = [&](int64_t lo, int64_t hi,
                          const ScanTarget& target) -> MorselStats {
      MorselStats stats;
      stats.rows = hi - lo;
      stats.vectorized = vec_nested || vec_hash;

      // Folds one matching (base row, detail row) pair into `target`
      // (scalar mode).
      auto update_match = [&](int64_t base_row_id, const Row& detail_row) {
        ++stats.matched;
        target.touched[static_cast<size_t>(base_row_id)] = 1;
        AggState* row_states =
            &target.states[static_cast<size_t>(base_row_id) * num_aggs];
        for (size_t a = 0; a < num_aggs; ++a) {
          const int in = plan.agg_inputs[a];
          row_states[a].Update(in < 0 ? kOne
                                      : detail_row[static_cast<size_t>(in)]);
        }
      };

      // Folds a selection vector of detail positions (in scan order) into
      // one base row's states through the per-aggregate kernels
      // (vectorized mode).
      auto update_selected = [&](int64_t base_row_id, const int64_t* sel_pos,
                                 size_t n) {
        if (n == 0) return;
        stats.matched += static_cast<int64_t>(n);
        target.touched[static_cast<size_t>(base_row_id)] = 1;
        AggState* row_states =
            &target.states[static_cast<size_t>(base_row_id) * num_aggs];
        for (size_t a = 0; a < num_aggs; ++a) {
          const AggKernel& kernel = kernels[a];
          switch (kernel.kind) {
            case AggKernel::Kind::kCountStar:
              row_states[a].UpdateBatchCountStar(n);
              break;
            case AggKernel::Kind::kInt64: {
              const ColumnarTable::Column& col = columnar->column(kernel.col);
              row_states[a].UpdateBatchInt64(col.ints.data(),
                                             col.valid_words(), sel_pos, n);
              break;
            }
            case AggKernel::Kind::kDouble: {
              const ColumnarTable::Column& col = columnar->column(kernel.col);
              row_states[a].UpdateBatchDouble(col.doubles.data(),
                                              col.valid_words(), sel_pos, n);
              break;
            }
            case AggKernel::Kind::kBoxed:
              for (size_t k = 0; k < n; ++k) {
                row_states[a].Update(
                    vec_detail.row(sel_pos[k])[static_cast<size_t>(
                        kernel.col)]);
              }
              break;
          }
        }
      };

      // Per-lane batch-evaluator buffers; local to the morsel so lanes
      // never share them.
      BatchScratch scratch;
      std::vector<int64_t> sel;

      if (hash_path) {
        if (vec_hash) {
          // The residual stays scalar (matches arrive one detail row at a
          // time), but the aggregate folds batch up. Preferred shape: one
          // selection vector per matched base row (affordable while |B|
          // fits the morsel budget), flushed through the same per-base
          // batch kernels as the nested path. Each base row's details are
          // appended in ascending probe order, so every state still sees
          // the exact scalar update sequence. Oversized bases fall back to
          // a flat (base, detail) pair buffer flushed aggregate-at-a-time
          // through the typed point kernels.
          const bool grouped = base.num_rows() <= kMaxGroupedFlushBases;
          // A batch-evaluable residual is applied at flush time over each
          // base row's candidate list (EvalBoolBatch's list mode), so the
          // probe loop touches no boxed detail row; non-batchable
          // residuals filter per pair instead.
          const bool residual_at_flush =
              grouped && plan.predicate.has_value() && predicate_batch;
          std::vector<std::vector<int64_t>> base_sel;
          std::vector<int64_t> flush_bases;
          size_t buffered = 0;
          if (grouped) base_sel.resize(static_cast<size_t>(base.num_rows()));
          std::vector<std::pair<int64_t, int64_t>> pairs;
          auto flush_grouped = [&]() {
            for (int64_t b : flush_bases) {
              std::vector<int64_t>& bsel = base_sel[static_cast<size_t>(b)];
              if (residual_at_flush) {
                sel.clear();
                plan.predicate->EvalBoolBatch(&base.row(b), vec_detail,
                                              *columnar, bsel.data(),
                                              bsel.size(), &scratch, &sel);
                update_selected(b, sel.data(), sel.size());
              } else {
                update_selected(b, bsel.data(), bsel.size());
              }
              bsel.clear();
            }
            flush_bases.clear();
            buffered = 0;
          };
          auto flush = [&]() {
            for (size_t a = 0; a < num_aggs; ++a) {
              const AggKernel& kernel = kernels[a];
              switch (kernel.kind) {
                case AggKernel::Kind::kCountStar:
                  for (const auto& [b, d] : pairs) {
                    target.states[static_cast<size_t>(b) * num_aggs + a]
                        .UpdateCountStar();
                  }
                  break;
                case AggKernel::Kind::kInt64: {
                  const ColumnarTable::Column& col =
                      columnar->column(kernel.col);
                  for (const auto& [b, d] : pairs) {
                    if (!col.IsValid(d)) continue;  // NULL input: ignored
                    target.states[static_cast<size_t>(b) * num_aggs + a]
                        .UpdateInt64(col.ints[static_cast<size_t>(d)]);
                  }
                  break;
                }
                case AggKernel::Kind::kDouble: {
                  const ColumnarTable::Column& col =
                      columnar->column(kernel.col);
                  for (const auto& [b, d] : pairs) {
                    if (!col.IsValid(d)) continue;
                    target.states[static_cast<size_t>(b) * num_aggs + a]
                        .UpdateDouble(col.doubles[static_cast<size_t>(d)]);
                  }
                  break;
                }
                case AggKernel::Kind::kBoxed:
                  for (const auto& [b, d] : pairs) {
                    target.states[static_cast<size_t>(b) * num_aggs + a]
                        .Update(kernel.col < 0
                                    ? kOne
                                    : vec_detail.row(d)[static_cast<size_t>(
                                          kernel.col)]);
                  }
                  break;
              }
            }
            pairs.clear();
          };
          // Folds one probed detail row's matches (after the residual)
          // into the flush buffer — shared by both probe modes. The boxed
          // detail row is only touched when a residual needs it, so the
          // pure equi-key probe streams the typed arrays alone.
          auto fold_matches = [&](int64_t d, std::span<const int64_t> matches) {
            const Row* detail_row = nullptr;
            for (int64_t base_row_id : matches) {
              if (plan.predicate.has_value() && !residual_at_flush) {
                if (detail_row == nullptr) detail_row = &vec_detail.row(d);
                if (!plan.predicate->EvalBool(&base.row(base_row_id),
                                              detail_row)) {
                  continue;
                }
              }
              if (grouped) {
                std::vector<int64_t>& bsel =
                    base_sel[static_cast<size_t>(base_row_id)];
                if (bsel.empty()) flush_bases.push_back(base_row_id);
                bsel.push_back(d);
                if (++buffered >= kHashPairFlush) flush_grouped();
              } else {
                ++stats.matched;
                target.touched[static_cast<size_t>(base_row_id)] = 1;
                pairs.emplace_back(base_row_id, d);
                if (pairs.size() >= kHashPairFlush) flush();
              }
            }
          };
          if (vec_probe) {
            const GroupMap& map = groups->map();
            uint64_t hashes[kProbeHashChunk];
            for (int64_t chunk = lo; chunk < hi; chunk += kProbeHashChunk) {
              const size_t n = static_cast<size_t>(
                  std::min(hi, chunk + kProbeHashChunk) - chunk);
              std::fill_n(hashes, n, GroupMap::Seed());
              for (size_t i = 0; i < probe_cols.size(); ++i) {
                CombineProbeHashes(*probe_cols[i], probe_code_hashes[i], chunk,
                                   n, hashes);
              }
              constexpr size_t kProbeLookahead = 8;
              for (size_t k = 0; k < n; ++k) {
                if (k + kProbeLookahead < n) {
                  map.Prefetch(hashes[k + kProbeLookahead]);
                }
                const int64_t d = chunk + static_cast<int64_t>(k);
                if (probe_nulls && null_key_cell(d)) continue;
                const int64_t g =
                    map.FindIf(hashes[k], [&probe_cols, d](const Value* key) {
                      for (size_t i = 0; i < probe_cols.size(); ++i) {
                        if (!CellEqualsValue(*probe_cols[i], d, key[i])) {
                          return false;
                        }
                      }
                      return true;
                    });
                if (g >= 0) fold_matches(d, groups->rows(g));
              }
            }
          } else {
            for (int64_t d = lo; d < hi; ++d) {
              const Row& detail_row = vec_detail.row(d);
              if (null_key_row(detail_row)) continue;
              const int64_t g = groups->Find(detail_row, plan.detail_key_cols);
              if (g >= 0) fold_matches(d, groups->rows(g));
            }
          }
          if (grouped) {
            flush_grouped();
          } else {
            flush();
          }
        } else {
          detail.ForEachRow(lo, hi, [&](const Row& detail_row) {
            if (null_key_row(detail_row)) return;
            const int64_t g = groups->Find(detail_row, plan.detail_key_cols);
            if (g < 0) return;
            for (int64_t base_row_id : groups->rows(g)) {
              if (plan.predicate.has_value() &&
                  !plan.predicate->EvalBool(&base.row(base_row_id),
                                            &detail_row)) {
                continue;
              }
              update_match(base_row_id, detail_row);
            }
          });
        }
      } else {
        if (vec_nested) {
          // Base-outer: each base row filters the whole morsel as one
          // batch. The scalar loop is detail-outer, but any one state's
          // updates arrive in ascending detail order either way.
          for (int64_t base_row_id = 0; base_row_id < base.num_rows();
               ++base_row_id) {
            sel.clear();
            plan.predicate->EvalBoolBatch(&base.row(base_row_id), vec_detail,
                                          *columnar, lo, hi, &scratch, &sel);
            update_selected(base_row_id, sel.data(), sel.size());
          }
        } else {
          detail.ForEachRow(lo, hi, [&](const Row& detail_row) {
            for (int64_t base_row_id = 0; base_row_id < base.num_rows();
                 ++base_row_id) {
              if (!plan.predicate->EvalBool(&base.row(base_row_id),
                                            &detail_row)) {
                continue;
              }
              update_match(base_row_id, detail_row);
            }
          });
        }
      }
      if (scratch.fallback_chunks > 0) {
        static obs::Counter& fallback_chunks =
            obs::GetCounter("skalla_gmdj_batch_fallback_chunks_total");
        fallback_chunks.Add(static_cast<uint64_t>(scratch.fallback_chunks));
      }
      return stats;
    };

    // The morsel grid depends only on the relation sizes and the
    // morsel_rows option — not on the lane count — so the merge below
    // always folds the same partials in the same order. Over several
    // fragments it is laid over their concatenated rows, morsels straddling
    // fragment boundaries, so every state folds the rows of the fragments'
    // union in the union's order. A scan_lo/scan_hi
    // window (skew rebalancing, docs/skew.md) restricts the grid to its
    // fragment; byte-identity across fragmentations holds because the
    // partial fold is associative, not because grids line up.
    const int64_t total_rows = detail.num_rows();
    const int64_t scan_lo =
        std::min(std::max<int64_t>(0, options.scan_lo), total_rows);
    const int64_t scan_end =
        options.scan_hi < 0 ? total_rows
                            : std::min(options.scan_hi, total_rows);
    const int64_t scan_rows = std::max<int64_t>(0, scan_end - scan_lo);
    int64_t morsel =
        options.morsel_rows > 0 ? options.morsel_rows : kDefaultMorselRows;
    const int64_t states_per_morsel =
        std::max<int64_t>(1, static_cast<int64_t>(num_base * num_aggs));
    const int64_t max_morsels =
        std::max<int64_t>(1, kPartialStateBudget / states_per_morsel);
    int64_t num_morsels = (scan_rows + morsel - 1) / std::max<int64_t>(1,
                                                                       morsel);
    if (num_morsels > max_morsels) {
      num_morsels = max_morsels;
      morsel = (scan_rows + num_morsels - 1) / num_morsels;
      num_morsels = (scan_rows + morsel - 1) / morsel;
    }

    // Adds one scan's statistics to the call's counts and its selectivity
    // to the registry (per morsel, on the calling thread, so well off the
    // per-row path). The counts reach the registry with the query's
    // ExecutionMetrics (PublishExecutionMetrics).
    auto flush_stats = [&counts](const MorselStats& s) {
      counts.rows_scanned += s.rows;
      counts.rows_matched += s.matched;
      ++(s.vectorized ? counts.morsels_vectorized : counts.morsels_scalar);
      if (s.rows > 0 && obs::MetricsEnabled()) {
        static obs::Histogram& selectivity = obs::GetHistogram(
            "skalla_gmdj_morsel_selectivity", obs::HistogramLayout::Ratio());
        selectivity.Observe(static_cast<double>(s.matched) /
                            static_cast<double>(s.rows));
      }
    };

    ScanTarget shared_target{states[blk].data(), touched.data()};
    if (lanes <= 1 || num_morsels <= 1) {
      // Sequential: one scan straight into the shared arrays, visiting
      // detail rows in exactly the pre-pool order.
      flush_stats(scan_range(scan_lo, scan_lo + scan_rows, shared_target));
      continue;
    }

    // Parallel: every morsel accumulates into private states + touched,
    // then the partials are folded into the shared arrays in ascending
    // morsel order (deterministic; see docs/parallelism.md).
    struct Partial {
      std::vector<AggState> states;
      std::vector<char> touched;
      MorselStats stats;
    };
    std::vector<Partial> partials(static_cast<size_t>(num_morsels));
    const auto& aggs = op.blocks[blk].aggs;
    const int morsel_sample = obs::MorselSampleEvery();
    ThreadPool::Shared().ParallelFor(
        num_morsels,
        [&](int64_t m) {
          // Lane-level span, sampled (every Nth morsel) so large scans do
          // not flood the span buffer; nulled name = disarmed.
          obs::ScopedSpan morsel_span(
              morsel_sample > 0 && m % morsel_sample == 0 ? "morsel"
                                                          : nullptr);
          const int64_t t0 = morsel_span.armed() ? obs::TraceNowNs() : 0;
          Partial& partial = partials[static_cast<size_t>(m)];
          partial.states.reserve(num_base * num_aggs);
          for (size_t r = 0; r < num_base; ++r) {
            for (const AggSpec& spec : aggs) {
              partial.states.emplace_back(spec.func);
            }
          }
          partial.touched.assign(num_base, 0);
          ScanTarget target{partial.states.data(), partial.touched.data()};
          partial.stats = scan_range(
              scan_lo + m * morsel,
              scan_lo + std::min(scan_rows, (m + 1) * morsel), target);
          const MorselStats& s = partial.stats;
          if (morsel_span.armed()) {
            // Straggler diagnostics: selectivity and throughput of this
            // lane's slice, next to its wall time on the timeline.
            const double secs =
                static_cast<double>(obs::TraceNowNs() - t0) * 1e-9;
            const double sel_pct =
                s.rows > 0 ? 100.0 * static_cast<double>(s.matched) /
                                 static_cast<double>(s.rows)
                           : 0.0;
            const double rows_per_sec =
                secs > 0 ? static_cast<double>(s.rows) / secs : 0.0;
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "morsel %lld/%lld (%s): %lld rows, %lld matched "
                          "(%.1f%%), %.2f Mrows/s",
                          static_cast<long long>(m),
                          static_cast<long long>(num_morsels),
                          s.vectorized ? "vectorized" : "scalar",
                          static_cast<long long>(s.rows),
                          static_cast<long long>(s.matched), sel_pct,
                          rows_per_sec * 1e-6);
            morsel_span.set_detail(buf);
          }
        },
        lanes);
    for (const Partial& partial : partials) flush_stats(partial.stats);
    // Fold the partials into the shared arrays. Every base row folds its
    // morsels in ascending order no matter how chunks land on lanes, and
    // distinct chunks write disjoint state ranges, so the fold itself can
    // run on the pool without perturbing the result.
    obs::ScopedSpan fold_span("morsel.fold");
    const int64_t num_chunks =
        (static_cast<int64_t>(num_base) + kMergeChunkRows - 1) /
        kMergeChunkRows;
    ThreadPool::Shared().ParallelFor(
        num_chunks,
        [&](int64_t c) {
          const size_t r_lo = static_cast<size_t>(c * kMergeChunkRows);
          const size_t r_hi =
              std::min(num_base, r_lo + static_cast<size_t>(kMergeChunkRows));
          for (const Partial& partial : partials) {
            for (size_t r = r_lo; r < r_hi; ++r) {
              if (!partial.touched[r]) continue;
              touched[r] = 1;
              AggState* dst = &states[blk][r * num_aggs];
              const AggState* src = &partial.states[r * num_aggs];
              for (size_t a = 0; a < num_aggs; ++a) dst[a].Merge(src[a]);
            }
          }
        },
        lanes);
    std::vector<Partial>().swap(partials);
  }

  // Emit output rows.
  Table out(MakeSchema(std::move(out_fields)));
  out.Reserve(base.num_rows());
  for (int64_t r = 0; r < base.num_rows(); ++r) {
    if (options.touched_only && !touched[static_cast<size_t>(r)]) continue;
    Row row;
    row.reserve(carry_indices.size() + 4);
    const Row& base_row = base.row(r);
    for (int idx : carry_indices) {
      row.push_back(base_row[static_cast<size_t>(idx)]);
    }
    for (size_t blk = 0; blk < op.blocks.size(); ++blk) {
      const size_t num_aggs = op.blocks[blk].aggs.size();
      const AggState* row_states =
          &states[blk][static_cast<size_t>(r) * num_aggs];
      for (size_t a = 0; a < num_aggs; ++a) {
        if (options.mode == AggMode::kFinal) {
          row.push_back(row_states[a].Final());
        } else {
          row_states[a].EmitSub(&row);
        }
      }
    }
    out.AddRow(std::move(row));
  }
  return out;
}

}  // namespace skalla
