// Microbenchmarks of the substrate hot paths: the local GMDJ evaluator
// (hash-probe vs nested-loop), the conventional hash GROUP BY it
// generalizes, the Theorem-1 synchronization merge, and the wire
// serializer that defines the byte-exact traffic accounting.
//
//   ./bench_gmdj_local

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "engine/operators.h"
#include "expr/parser.h"
#include "gmdj/local_eval.h"
#include "storage/group_map.h"
#include "storage/serializer.h"
#include "tpc/dbgen.h"

namespace {

using namespace skalla;

ExprPtr MustParse(const std::string& text) {
  auto result = ParseExpr(text);
  if (!result.ok()) std::abort();
  return *result;
}

const Table& TpcrTable(int64_t rows) {
  static std::map<int64_t, Table>& cache = *new std::map<int64_t, Table>();
  auto it = cache.find(rows);
  if (it == cache.end()) {
    TpcConfig config;
    config.num_rows = rows;
    config.num_customers = rows / 20;
    it = cache.emplace(rows, GenerateTpcr(config)).first;
  }
  return it->second;
}

Table BaseFor(const Table& detail, const std::string& attr) {
  auto base = DistinctProject(detail, {attr});
  if (!base.ok()) std::abort();
  return std::move(base).ValueUnsafe();
}

void BM_GmdjHashPath(benchmark::State& state) {
  const Table& detail = TpcrTable(state.range(0));
  const Table base = BaseFor(detail, "CustKey");
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(GmdjBlock{
      {AggSpec::Count("cnt"), AggSpec::Avg("Quantity", "avg")},
      MustParse("B.CustKey = R.CustKey")});
  LocalGmdjOptions options;
  for (auto _ : state) {
    auto result = EvalGmdjOp(base, detail, op, options);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * detail.num_rows());
}
BENCHMARK(BM_GmdjHashPath)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_GmdjHashPathWithResidual(benchmark::State& state) {
  const Table& detail = TpcrTable(state.range(0));
  const Table base = BaseFor(detail, "CustKey");
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(
      GmdjBlock{{AggSpec::Count("cnt")},
                MustParse("B.CustKey = R.CustKey && R.Quantity >= 25")});
  LocalGmdjOptions options;
  for (auto _ : state) {
    auto result = EvalGmdjOp(base, detail, op, options);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * detail.num_rows());
}
BENCHMARK(BM_GmdjHashPathWithResidual)->Arg(10000)->Arg(50000);

void BM_GmdjNestedLoop(benchmark::State& state) {
  const Table& detail = TpcrTable(state.range(0));
  // 32 overlapping quantity thresholds — inexpressible as GROUP BY.
  Table base(MakeSchema({{"threshold", ValueType::kInt64}}));
  for (int64_t t = 0; t < 32; ++t) base.AddRow({Value(t * 2)});
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(GmdjBlock{{AggSpec::Count("cnt")},
                                MustParse("R.Quantity >= B.threshold")});
  LocalGmdjOptions options;
  for (auto _ : state) {
    auto result = EvalGmdjOp(base, detail, op, options);
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * detail.num_rows() * 32);
}
BENCHMARK(BM_GmdjNestedLoop)->Arg(2000)->Arg(10000);

void BM_HashGroupByReference(benchmark::State& state) {
  const Table& detail = TpcrTable(state.range(0));
  for (auto _ : state) {
    auto result = HashGroupBy(
        detail, {"CustKey"},
        {AggSpec::Count("cnt"), AggSpec::Avg("Quantity", "avg")});
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * detail.num_rows());
}
BENCHMARK(BM_HashGroupByReference)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_SerializeTable(benchmark::State& state) {
  const Table& table = TpcrTable(state.range(0));
  for (auto _ : state) {
    const std::string bytes = Serializer::SerializeTable(table);
    benchmark::DoNotOptimize(bytes.size());
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(Serializer::WireSize(table)));
}
BENCHMARK(BM_SerializeTable)->Arg(10000)->Arg(50000);

void BM_DeserializeTable(benchmark::State& state) {
  const std::string bytes =
      Serializer::SerializeTable(TpcrTable(state.range(0)));
  for (auto _ : state) {
    auto table = Serializer::DeserializeTable(bytes);
    if (!table.ok()) std::abort();
    benchmark::DoNotOptimize(table->num_rows());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_DeserializeTable)->Arg(10000)->Arg(50000);

void BM_RowGroupsBuild(benchmark::State& state) {
  const Table& table = TpcrTable(state.range(0));
  const std::vector<int> key = {
      *table.schema().IndexOf("CustKey")};
  for (auto _ : state) {
    const RowGroups groups = RowGroups::Of(table, key);
    benchmark::DoNotOptimize(groups.num_groups());
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_RowGroupsBuild)->Arg(10000)->Arg(50000);

// Mirrors every measured configuration into BENCH_gmdj_local.json via the
// shared JsonReport, on top of the normal console table.
class JsonForwardingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonForwardingReporter(skalla::bench::JsonReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      std::vector<std::pair<std::string, double>> params = {
          {"iterations", iters}};
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        params.emplace_back("items_per_second",
                            static_cast<double>(items->second));
      }
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        params.emplace_back("bytes_per_second",
                            static_cast<double>(bytes->second));
      }
      report_->Add(run.benchmark_name(), std::move(params),
                   run.real_accumulated_time * 1e3 / iters);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  skalla::bench::JsonReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  skalla::bench::JsonReport report("gmdj_local");
  JsonForwardingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  report.Write();
  return 0;
}
