#ifndef BENCH_SKALLA_WORKLOADS_H_
#define BENCH_SKALLA_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "report.h"

namespace bench_skalla {

/// How one workload run is driven.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;  ///< measured time; set-up and checks come on top
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  bool quick = false;     ///< shrunken inputs for the smoke test
  std::string out_dir = ".";  ///< where trace_<workload>.json goes
};

/// The paper's analytic rounds: one client, closed loop, the five
/// skalla/queries.h templates through Warehouse::Execute.
struct OlapSpec {
  const char* name;
  /// Sites, rows, customers and clerks; the run's seed replaces its seed.
  skalla::bench::WarehouseSpec data;
  const char* group_attr;
};

/// Served queries over `kServeWorkers` connections into one server::Server:
/// a closed loop, open loops of Poisson arrivals at two fixed rates, and a
/// capacity search.
struct ServeSpec {
  const char* name;
  int sites;
  int64_t rows_per_site;
  int literals_per_template;  ///< distinct texts = 4 templates x this
  double zipf_s;              ///< skew of the text draw
  int mutate_every;           ///< one MUTATE per this many requests; 0 = none
  double rate_lo;             ///< req/s, about 40% of capacity
  double rate_hi;             ///< req/s, about 75% of capacity
  double limit_ms;            ///< p95 limit of the capacity search
  double search_max;          ///< upper end of the capacity search, req/s
  /// The tail percentile: the highest with ten samples beyond it in the
  /// faster half of a full-length `lo` phase.
  double tail;
};

/// Generator threads and client connections of the serve workloads (the
/// host's core count).
inline constexpr int kServeWorkers = 4;

/// Set-ups per run, spread over it; see SetupSeconds for what is reported.
inline constexpr int kSetups = 16;

const std::vector<OlapSpec>& OlapSpecs();
const std::vector<ServeSpec>& ServeSpecs();

/// Runs one workload and fills `report`. Prints its progress and
/// human-readable metric lines to stdout.
void RunOlap(const OlapSpec& spec, const RunOptions& options, Report* report);
void RunServe(const ServeSpec& spec, const RunOptions& options,
              Report* report);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

}  // namespace bench_skalla

#endif  // BENCH_SKALLA_WORKLOADS_H_
