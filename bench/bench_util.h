#ifndef SKALLA_BENCH_BENCH_UTIL_H_
#define SKALLA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "tpc/dbgen.h"

// Build provenance for JsonReport, defined by bench/CMakeLists.txt; other
// builds that include this header stamp "unknown".
#ifndef SKALLA_BENCH_COMMIT
#define SKALLA_BENCH_COMMIT "unknown"
#endif
#ifndef SKALLA_BENCH_BUILD_TYPE
#define SKALLA_BENCH_BUILD_TYPE "unknown"
#endif

namespace skalla {
namespace bench {

/// Parameters of a benchmark warehouse. The paper's speed-up experiments
/// hold per-site data constant and vary the number of sites (every added
/// site brings its own partition, so total data and total groups grow
/// linearly with n); the scale-up experiments hold sites constant and grow
/// the per-site data.
struct WarehouseSpec {
  int sites = 8;
  int64_t rows_per_site = 25000;
  int64_t groups_per_site = 1500;  ///< customers per site (high cardinality)
  int64_t clerks = 3000;           ///< low-cardinality attribute uniques
  uint64_t seed = 42;

  bool operator<(const WarehouseSpec& other) const {
    return std::tie(sites, rows_per_site, groups_per_site, clerks, seed) <
           std::tie(other.sites, other.rows_per_site, other.groups_per_site,
                    other.clerks, other.seed);
  }
};

/// Builds (and caches across benchmark repetitions) a TPCR warehouse with
/// `spec.sites` sites partitioned on NationKey, with CustKey/ClerkKey
/// profiled so that CustKey is a provable partition attribute.
inline Warehouse& GetWarehouse(const WarehouseSpec& spec) {
  static std::map<WarehouseSpec, std::unique_ptr<Warehouse>>& cache =
      *new std::map<WarehouseSpec, std::unique_ptr<Warehouse>>();
  auto it = cache.find(spec);
  if (it != cache.end()) return *it->second;

  TpcConfig config;
  config.num_rows = spec.rows_per_site * spec.sites;
  config.num_customers = spec.groups_per_site * spec.sites;
  config.num_clerks = spec.clerks;
  // 24 nations divide evenly for most site counts; customers are
  // block-mapped onto nations, so a NationKey range partitioning puts each
  // site's customers wholly on that site.
  config.num_nations = 24;
  config.seed = spec.seed;
  Table tpcr = GenerateTpcr(config);

  auto warehouse = std::make_unique<Warehouse>(spec.sites);
  Status status =
      warehouse->LoadByRange("TPCR", tpcr, "NationKey", 0,
                             config.num_nations - 1, {"CustKey", "ClerkKey"});
  if (!status.ok()) {
    std::fprintf(stderr, "warehouse load failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
  auto [inserted, ok] = cache.emplace(spec, std::move(warehouse));
  (void)ok;
  return *inserted->second;
}

/// Executes and returns the result, aborting on error (benchmark context).
inline QueryResult MustExecute(Warehouse& warehouse, const GmdjExpr& query,
                               const OptimizerOptions& options) {
  auto result = warehouse.Execute(query, options);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).ValueUnsafe();
}

/// Prints one row of a paper-style series table.
inline void PrintSeriesHeader(const char* title, const char* cols) {
  std::printf("\n%s\n%s\n", title, cols);
}

/// \brief Machine-readable benchmark output: BENCH_<name>.json.
///
/// Every bench binary can attach one of these and Add() a record per
/// measured configuration; the destructor writes the collected series as a
/// single JSON document in the working directory, so experiment sweeps can
/// be diffed and plotted without scraping stdout:
///
///   {"bench": "parallel_local",
///    "provenance": {"commit": "f7d8613", "build_type": "Release",
///                   "cores": 4},
///    "results": [{"name": "hash/t4",
///                 "params": {"threads": 4, "rows": 1048576},
///                 "wall_ms": 812.4, "bytes_shipped": 0}, ...]}
///
/// `provenance` names the build that measured the numbers: the commit at
/// configure time, CMAKE_BUILD_TYPE, and the hardware thread count.
/// `bytes_shipped` carries the simulated network volume for distributed
/// benchmarks (ExecutionMetrics::TotalBytes()) and 0 for purely local ones.
/// A record that no timed run stands behind has no `wall_ms`.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() { Write(); }

  void Add(std::string name,
           std::vector<std::pair<std::string, double>> params,
           std::optional<double> wall_ms, int64_t bytes_shipped = 0) {
    records_.push_back(
        Record{std::move(name), std::move(params), wall_ms, bytes_shipped});
  }

  /// Writes BENCH_<bench_name>.json (idempotent; also run by ~JsonReport).
  void Write() {
    if (written_) return;
    written_ = true;
    const std::string path = "BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f,
                 "{\"bench\": \"%s\",\n \"provenance\": {\"commit\": \"%s\", "
                 "\"build_type\": \"%s\", \"cores\": %u},\n \"results\": [",
                 bench_name_.c_str(), SKALLA_BENCH_COMMIT,
                 SKALLA_BENCH_BUILD_TYPE, std::thread::hardware_concurrency());
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "%s\n  {\"name\": \"%s\", \"params\": {",
                   i == 0 ? "" : ",", r.name.c_str());
      for (size_t p = 0; p < r.params.size(); ++p) {
        std::fprintf(f, "%s\"%s\": %g", p == 0 ? "" : ", ",
                     r.params[p].first.c_str(), r.params[p].second);
      }
      std::fprintf(f, "}");
      if (r.wall_ms.has_value()) {
        std::fprintf(f, ", \"wall_ms\": %.3f", *r.wall_ms);
      }
      std::fprintf(f, ", \"bytes_shipped\": %lld}",
                   static_cast<long long>(r.bytes_shipped));
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu record(s))\n", path.c_str(), records_.size());
  }

 private:
  struct Record {
    std::string name;
    std::vector<std::pair<std::string, double>> params;
    std::optional<double> wall_ms;
    int64_t bytes_shipped;
  };
  std::string bench_name_;
  std::vector<Record> records_;
  bool written_ = false;
};

}  // namespace bench
}  // namespace skalla

#endif  // SKALLA_BENCH_BENCH_UTIL_H_
