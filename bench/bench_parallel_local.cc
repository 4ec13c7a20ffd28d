// Thread-scaling benchmark of the morsel-driven local GMDJ evaluator
// (src/gmdj/local_eval.cc): one ≥1M-row detail scan evaluated at 1, 2, 4
// and 8 lanes over the shared pool. Besides the speedup series it checks
// the determinism guarantee — every lane count must produce a table that
// serializes byte-identically to the sequential (num_threads = 1) run —
// and writes the series to BENCH_parallel_local.json.
//
//   ./bench_parallel_local
//
// Custom main (not google-benchmark): the interesting output is one
// wall-clock number per lane count on a fixed large input, plus the
// byte-equality check, which the series table and JSON report carry
// directly.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "engine/operators.h"
#include "expr/parser.h"
#include "gmdj/local_eval.h"
#include "storage/serializer.h"
#include "tpc/dbgen.h"

namespace {

using namespace skalla;

constexpr int64_t kDetailRows = 1 << 20;  // ≥1M-row detail table
constexpr int kRepetitions = 3;           // best-of wall time per config

ExprPtr MustParse(const std::string& text) {
  auto result = ParseExpr(text);
  if (!result.ok()) std::abort();
  return *result;
}

Table MustEval(const Table& base, const Table& detail, const GmdjOp& op,
               const LocalGmdjOptions& options) {
  auto result = EvalGmdjOp(base, detail, op, options);
  if (!result.ok()) {
    std::fprintf(stderr, "EvalGmdjOp failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).ValueUnsafe();
}

}  // namespace

int main() {
  TpcConfig config;
  config.num_rows = kDetailRows;
  // Enough groups to be realistic, few enough that the per-morsel partial
  // accumulator budget still allows a fine morsel grid.
  config.num_customers = kDetailRows / 100;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency = %u%s\n", cores,
              cores <= 1 ? "  (single-core host: speedup is bounded by 1x;"
                           " this run only checks overhead + determinism)"
                         : "");
  std::printf("generating %lld-row TPCR detail ...\n",
              static_cast<long long>(kDetailRows));
  const Table detail = GenerateTpcr(config);
  auto base_or = DistinctProject(detail, {"CustKey"});
  if (!base_or.ok()) std::abort();
  const Table base = std::move(base_or).ValueUnsafe();

  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(GmdjBlock{
      {AggSpec::Count("cnt"), AggSpec::Avg("Quantity", "avg")},
      MustParse("B.CustKey = R.CustKey")});

  const std::vector<int> lane_counts = {1, 2, 4, 8};
  skalla::bench::JsonReport report("parallel_local");
  bool all_identical = true;
  skalla::bench::PrintSeriesHeader(
      (std::string("morsel-driven GMDJ, hash path, |R| = ") +
       std::to_string(kDetailRows))
          .c_str(),
      "threads   wall_ms   speedup   identical");
  std::string reference_bytes;
  double sequential_ms = 0;
  for (int threads : lane_counts) {
    LocalGmdjOptions options;
    options.num_threads = threads;
    double best_ms = 0;
    Table out;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      Stopwatch watch;
      out = MustEval(base, detail, op, options);
      const double ms = watch.ElapsedSeconds() * 1e3;
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    const std::string bytes = Serializer::SerializeTable(out);
    if (threads == 1) {
      reference_bytes = bytes;
      sequential_ms = best_ms;
    }
    const bool identical = bytes == reference_bytes;
    all_identical = all_identical && identical;
    std::printf("%7d %9.1f %8.2fx   %s\n", threads, best_ms,
                sequential_ms / best_ms, identical ? "yes" : "NO");
    report.Add("hash/t" + std::to_string(threads),
               {{"threads", static_cast<double>(threads)},
                {"rows", static_cast<double>(kDetailRows)},
                {"groups", static_cast<double>(base.num_rows())},
                {"cores", static_cast<double>(cores)}},
               best_ms);
  }
  report.Write();
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: parallel result differs from sequential result\n");
    return 1;
  }
  return 0;
}
