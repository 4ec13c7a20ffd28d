#ifndef SKALLA_DIST_SITE_H_
#define SKALLA_DIST_SITE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dist/plan.h"
#include "gmdj/local_eval.h"
#include "storage/catalog.h"
#include "storage/partition_info.h"

namespace skalla {

/// Input of one round of local processing at a site.
struct SiteRoundInput {
  /// The base-result structure fragment shipped by the coordinator
  /// (finalized visible form). Null when `base` is set (fused base round).
  const Table* x = nullptr;
  /// When non-null, the site derives its local base-values relation B_i
  /// from its own partition instead of receiving X (Proposition 2).
  const BaseQuery* base = nullptr;
  /// The GMDJ operators chained locally this round (one, or several under
  /// synchronization reduction).
  const std::vector<GmdjOp>* ops = nullptr;
  /// Key attributes K of the base-result structure.
  const std::vector<std::string>* key_attrs = nullptr;
  /// Distribution-independent group reduction: emit only touched groups.
  bool touched_only = false;
  /// Lanes for the site's morsel-driven local evaluation
  /// (LocalGmdjOptions::num_threads; 0 = the SKALLA_THREADS default, 1 =
  /// sequential). All sites of a wave share one pool, so this bounds the
  /// per-site fan-out, not the process-wide thread count.
  int num_threads = 0;
  /// Detail-scan fragment [detail_lo, detail_hi) this executor evaluates
  /// (skew rebalancing, docs/skew.md): positions of the single operator's
  /// detail scan ordering; detail_hi = -1 means "to the end". Only legal
  /// for single-operator, non-fused rounds — chained rounds finalize
  /// intermediate structures locally and cannot be range-split.
  int64_t detail_lo = 0;
  int64_t detail_hi = -1;
};

/// What one evaluation at a site reports alongside its result.
struct SiteEvalReport {
  /// Local compute seconds, divided by the site's compute_scale.
  double cpu_sec = 0;
  /// Detail-scan counts of the evaluation's GMDJ operators.
  ScanCounters scan;
};

/// \brief A local data warehouse adjacent to one collection point.
///
/// Holds the site's horizontal partition of each fact relation (in its
/// Catalog, registered under the global relation names) plus the partition
/// metadata φ_i describing what the partition can contain. All local
/// computation — base queries and GMDJ sub-aggregate evaluation — happens
/// here; the Site never sees other sites' data.
class Site {
 public:
  Site(int id, PartitionInfo info = PartitionInfo())
      : id_(id), info_(std::move(info)) {}

  int id() const { return id_; }
  const PartitionInfo& partition_info() const { return info_; }
  PartitionInfo& mutable_partition_info() { return info_; }

  /// Relative compute speed of this site's hardware: reported CPU times
  /// are divided by this factor (0.5 = half-speed straggler, 2.0 = a
  /// machine twice as fast). Models the heterogeneous local warehouses of
  /// a real deployment; response time takes the max across sites, so one
  /// straggler gates every synchronized round.
  double compute_scale() const { return compute_scale_; }
  void set_compute_scale(double scale) { compute_scale_ = scale; }

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Evaluates the base-values query over the local partition (round 0 of
  /// Alg. GMDJDistribEval); fills `cpu_sec` with the local compute time.
  Result<Table> EvalBase(const BaseQuery& base, double* cpu_sec) const;

  /// Evaluates one round: chains the round's operators over the local
  /// partitions and returns H_i = key attributes + sub-aggregate columns
  /// for every operator in the round (Theorem 1 / Theorem 5). Fills
  /// `report` with the evaluation's compute time and scan counts.
  Result<Table> EvalRound(const SiteRoundInput& input,
                          SiteEvalReport* report) const;

 private:
  int id_;
  PartitionInfo info_;
  Catalog catalog_;
  double compute_scale_ = 1.0;
};

}  // namespace skalla

#endif  // SKALLA_DIST_SITE_H_
