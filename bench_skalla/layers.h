#ifndef BENCH_SKALLA_LAYERS_H_
#define BENCH_SKALLA_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "report.h"
#include "skalla/warehouse.h"
#include "trace.h"

namespace bench_skalla {

/// Runs one query text as ParseOlapQuery -> Warehouse::Plan ->
/// Warehouse::ExecutePlan with a span around each call and a "dist.round"
/// span between successive round-observer callbacks. When `capture_x` is
/// non-null the observer copies every round's base-result structure X into
/// it; otherwise the observer only takes a timestamp. `execute_ms` receives
/// the wall time of ExecutePlan.
skalla::Result<skalla::QueryResult> RunTracedQuery(
    skalla::Warehouse& warehouse, const std::string& text, SpanBuffer* buffer,
    int64_t request, std::vector<skalla::Table>* capture_x,
    double* execute_ms);

/// Accumulates what the per-layer metrics are computed from: the
/// ExecutionMetrics of traced executions and the spans of the traced run.
class LayerStats {
 public:
  explicit LayerStats(int num_sites) : num_sites_(num_sites) {}

  /// One traced execution.
  void AddExecution(const skalla::QueryResult& result, double execute_ms);

  /// Replays Serializer::SerializeTable and DeserializeTable on one query's
  /// captured X tables `reps` times, with a span around each call.
  static void ReplayStorage(const std::vector<skalla::Table>& xs, int reps,
                            SpanBuffer* buffer, int64_t request);

  /// Replays the front end on request payloads: EncodeFrame + DecodeFrame +
  /// ParseCommand as "server.frame", then ParseOlapQuery ("sql.parse") and
  /// CanonicalQueryKey ("sql.canonical_key") for QUERY requests.
  static void ReplayFrontEnd(const std::vector<std::string>& commands,
                             SpanBuffer* buffer, int64_t first_request);

  /// Replays Warehouse::EstimateCost ("opt.estimate") on `plans`.
  static void ReplayEstimate(skalla::Warehouse& warehouse,
                             const std::vector<skalla::DistributedPlan>& plans,
                             int reps, SpanBuffer* buffer,
                             int64_t first_request);

  /// Sets the sql, opt, dist, gmdj, storage and net metrics and
  /// server.frame_us from the accumulated executions and `totals` (the
  /// spans of the traced run, by name). `storage_queries` is how many
  /// query-sized sets of X tables the storage replay encoded and decoded,
  /// reps included.
  void Fill(const std::map<std::string, SpanTotals>& totals,
            int64_t storage_queries, Report* report) const;

 private:
  int num_sites_;
  int64_t executions_ = 0;
  double rounds_ = 0;
  double coord_cpu_ms_ = 0;
  double site_cpu_ms_ = 0;  ///< Σ over rounds and sites
  double unattributed_ms_ = 0;
  double groups_ = 0;
  double theorem2_ratio_ = 0;
  double skew_sum_ = 0;
  int64_t skew_rounds_ = 0;
  double compression_ = 0;
  double bytes_total_ = 0;
  double bytes_saved_ = 0;
  double bytes_to_sites_ = 0;
  double bytes_to_coord_ = 0;
  double comm_ms_ = 0;
  int64_t rows_scanned_ = 0;
  int64_t rows_matched_ = 0;
  int64_t morsels_vectorized_ = 0;
  int64_t morsels_scalar_ = 0;
};

}  // namespace bench_skalla

#endif  // BENCH_SKALLA_LAYERS_H_
