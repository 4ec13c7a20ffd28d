// Wire-format ablation: SKL2 vs SKL2+delta on the paper's Fig. 2
// (group-reduction) and Fig. 5 (combined/coalescing) workloads, beside the
// full-ship SKL1 bytes of the same query, which the SKL2+delta run's
// BytesBaselineSkl1() prices message by message. Reports total simulated
// bytes shipped per configuration; raw encode/decode throughput on an
// X-shaped relation in SKL1 (the tests' encoder, the library's decoder) and
// SKL2, and on a reply-shaped one; the encode-only win of the columnar-fed
// SKL2 encoder over the row-path reference; and the bytes of an X view
// whose AVG columns ship raw or as their (sum, count) carriers. Writes
// BENCH_wire_format.json.
//
//   ./bench_wire_format [--quick]
//
// --quick shrinks the warehouse and iteration counts (CI smoke).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "bench_util.h"
#include "common/random.h"
#include "skl1_oracle.h"
#include "storage/serializer.h"

namespace {

using namespace skalla;
using bench::GetWarehouse;
using bench::JsonReport;
using bench::WarehouseSpec;

bool g_quick = false;

WarehouseSpec DefaultSpec() {
  WarehouseSpec spec;
  spec.sites = 8;
  spec.rows_per_site = g_quick ? 1500 : 10000;
  spec.groups_per_site = g_quick ? 120 : 800;
  return spec;
}

struct WireMode {
  const char* name;
  bool delta;
};

const WireMode kModes[] = {
    {"skl2", false},
    {"skl2+delta", true},
};

struct Workload {
  const char* name;
  GmdjExpr query;
};

std::vector<Workload> Workloads() {
  return {{"fig2-group-reduction", queries::GroupReductionQuery("CustKey")},
          {"fig5-combined", queries::CombinedQuery("CustKey")},
          {"fig5-coalescing", queries::CoalescingQuery("ClerkKey")}};
}

NetworkConfig ModeConfig(const WireMode& mode) {
  NetworkConfig net;
  net.delta_shipping = mode.delta;
  return net;
}

void BM_WireFormatQuery(benchmark::State& state) {
  const Workload workload = Workloads()[static_cast<size_t>(state.range(0))];
  const WireMode& mode = kModes[state.range(1)];
  Warehouse& warehouse = GetWarehouse(DefaultSpec());
  warehouse.set_network_config(ModeConfig(mode));
  for (auto _ : state) {
    QueryResult result =
        bench::MustExecute(warehouse, workload.query, OptimizerOptions::None());
    state.SetIterationTime(result.metrics.ResponseSeconds());
    state.counters["bytes"] =
        static_cast<double>(result.metrics.TotalBytes());
    state.counters["saved"] =
        static_cast<double>(result.metrics.BytesSavedByDelta());
    state.counters["vs_skl1"] = result.metrics.CompressionRatio();
  }
  state.SetLabel(std::string(workload.name) + "/" + mode.name);
}
BENCHMARK(BM_WireFormatQuery)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// A base-result-structure shaped table: sorted key, low-cardinality
/// string, and two aggregate columns — what the coordinator actually
/// ships every round.
Table XShapedTable(int64_t rows) {
  Table t(MakeSchema({{"CustKey", ValueType::kInt64},
                      {"Status", ValueType::kString},
                      {"o1", ValueType::kInt64},
                      {"o2", ValueType::kDouble}}));
  const char* status[] = {"pending", "shipped", "billed"};
  for (int64_t i = 0; i < rows; ++i) {
    t.AddRow({Value(i), Value(status[i % 3]), Value(i * 17 % 4096),
              Value(static_cast<double>(i) * 0.25)});
  }
  return t;
}

/// A site reply (H) in the shape the packed integer codec targets: keys in
/// ascending order with small gaps, COUNTs of 1-30, and integral SUMs of
/// which about one in twelve is NULL (a group whose inputs were all NULL).
Table ReplyShapedTable(int64_t rows) {
  Table t(MakeSchema({{"CustKey", ValueType::kInt64},
                      {"cnt", ValueType::kInt64},
                      {"sum_qty", ValueType::kDouble},
                      {"cnt_qty", ValueType::kInt64}}));
  Rng rng(20);
  int64_t key = 1;
  for (int64_t i = 0; i < rows; ++i) {
    key += rng.Uniform(1, 3);
    const int64_t cnt = rng.Uniform(1, 30);
    const bool null_sum = rng.Chance(1.0 / 12);
    t.AddRow({Value(key), Value(cnt),
              null_sum ? Value::Null()
                       : Value(static_cast<double>(cnt * rng.Uniform(1, 50))),
              Value(null_sum ? 0 : cnt)});
  }
  return t;
}

/// An X view in the shape the Fig. 2 query's second round ships: one
/// sorted key per group, an AVG over int64 inputs (a quantity) and one over
/// integral-double inputs (a whole-dollar price), each finalized from its
/// (sum, count) as SubResultFold::FinalizeInto does, with the carriers
/// AvgQuotient finds.
struct XView {
  Table table;
  std::vector<QuotientCarriers> carriers;
};

XView XViewTable(int64_t rows) {
  XView view{Table(MakeSchema({{"ClerkKey", ValueType::kInt64},
                               {"avg_qty", ValueType::kDouble},
                               {"avg_price", ValueType::kDouble}})),
             {QuotientCarriers{1, {}, {}}, QuotientCarriers{2, {}, {}}}};
  Rng rng(21);
  for (int64_t key = 0; key < rows; ++key) {
    const int64_t count = rng.Uniform(30, 80);
    const Value qty[2] = {Value(rng.Uniform(count, 50 * count)),
                          Value(count)};
    const Value price[2] = {
        Value(static_cast<double>(rng.Uniform(900 * count, 100000 * count))),
        Value(count)};
    view.table.AddRow({Value(key), FinalizeSubValues(AggFunc::kAvg, qty),
                       FinalizeSubValues(AggFunc::kAvg, price)});
    auto keep = [](const Value* acc, QuotientCarriers* carriers) {
      int64_t num = 0;
      int64_t den = 0;
      AvgQuotient(acc, &num, &den);
      carriers->num.push_back(num);
      carriers->den.push_back(den);
    };
    keep(qty, &view.carriers[0]);
    keep(price, &view.carriers[1]);
  }
  return view;
}

/// Encodes `t` in SKL1 (the tests' encoder) or SKL2.
std::string Encode(const Table& t, bool skl1) {
  return skl1 ? EncodeSkl1(t) : Serializer::SerializeTable(t);
}

void BM_EncodeDecode(benchmark::State& state) {
  const bool skl1 = state.range(0) == 0;
  const Table t = XShapedTable(6400);
  std::string bytes;
  for (auto _ : state) {
    bytes = Encode(t, skl1);
    auto decoded = Serializer::DeserializeTable(bytes);
    if (!decoded.ok()) std::abort();
    benchmark::DoNotOptimize(decoded);
  }
  state.counters["wire_bytes"] = static_cast<double>(bytes.size());
  state.SetBytesProcessed(static_cast<int64_t>(bytes.size()) *
                          static_cast<int64_t>(state.iterations()));
  state.SetLabel(skl1 ? "SKL1" : "SKL2");
}
BENCHMARK(BM_EncodeDecode)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void PrintTableAndReport() {
  Warehouse& warehouse = GetWarehouse(DefaultSpec());
  JsonReport report("wire_format");

  std::printf("\n=== Bytes shipped by wire format (8 sites) ===\n");
  std::printf("%-24s %-12s %14s %12s %9s\n", "workload", "format",
              "bytes_shipped", "saved", "vs SKL1");
  for (const Workload& workload : Workloads()) {
    std::vector<QueryResult> results;
    for (const WireMode& mode : kModes) {
      warehouse.set_network_config(ModeConfig(mode));
      results.push_back(bench::MustExecute(warehouse, workload.query,
                                           OptimizerOptions::None()));
    }
    // SKL1 is no run of its own: full SKL1 shipping costs the SKL2+delta
    // run's BytesBaselineSkl1(), and no modelled time stands behind it.
    const size_t skl1 = results.back().metrics.BytesBaselineSkl1();
    std::printf("%-24s %-12s %14zu %12s %8.2fx\n", workload.name, "skl1",
                skl1, "-", 1.0);
    report.Add(std::string(workload.name) + "/skl1",
               {{"sites", 8}, {"delta", 0}, {"baseline_of_skl2_delta", 1}},
               std::nullopt, static_cast<int64_t>(skl1));
    for (size_t m = 0; m < results.size(); ++m) {
      const WireMode& mode = kModes[m];
      const ExecutionMetrics& metrics = results[m].metrics;
      std::printf("%-24s %-12s %14zu %12zu %8.2fx\n", workload.name,
                  mode.name, metrics.TotalBytes(), metrics.BytesSavedByDelta(),
                  metrics.CompressionRatio());
      report.Add(std::string(workload.name) + "/" + mode.name,
                 {{"sites", 8},
                  {"delta", mode.delta ? 1.0 : 0.0},
                  {"saved_bytes",
                   static_cast<double>(metrics.BytesSavedByDelta())},
                  {"vs_skl1", metrics.CompressionRatio()}},
                 metrics.ResponseSeconds() * 1000.0,
                 static_cast<int64_t>(metrics.TotalBytes()));
    }
  }

  // Raw codec throughput on an X-shaped relation.
  const int64_t x_rows = g_quick ? 1600 : 6400;
  const int iters = g_quick ? 5 : 50;
  const Table t = XShapedTable(x_rows);
  for (const bool skl1 : {true, false}) {
    const auto start = std::chrono::steady_clock::now();
    size_t wire = 0;
    for (int i = 0; i < iters; ++i) {
      const std::string bytes = Encode(t, skl1);
      auto decoded = Serializer::DeserializeTable(bytes);
      if (!decoded.ok()) std::abort();
      wire = bytes.size();
    }
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count() /
        iters;
    report.Add(std::string("encode+decode/") + (skl1 ? "SKL1" : "SKL2"),
               {{"rows", static_cast<double>(x_rows)}}, ms,
               static_cast<int64_t>(wire));
  }

  // Encode-only: columnar-fed SKL2 (the production SerializeTable, fed
  // from the table's cached snapshot) vs the row-path reference encoder.
  // Same bytes by contract — checked here — different work per cell.
  {
    t.columnar();  // steady state: snapshot built and cached
    const int enc_iters = g_quick ? 20 : 200;
    double ms[2] = {0, 0};
    std::string bytes[2];
    for (int columnar = 0; columnar <= 1; ++columnar) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < enc_iters; ++i) {
        bytes[columnar] =
            columnar ? Serializer::SerializeTable(t)
                     : Serializer::SerializeTableRowPath(t);
      }
      ms[columnar] = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count() /
                     enc_iters;
      report.Add(std::string("encode/skl2-") +
                     (columnar ? "columnar" : "row-path"),
                 {{"rows", static_cast<double>(x_rows)}}, ms[columnar],
                 static_cast<int64_t>(bytes[columnar].size()));
    }
    if (bytes[0] != bytes[1]) {
      std::fprintf(stderr,
                   "FAIL: columnar-fed SKL2 differs from the row path\n");
      std::abort();
    }
    std::printf(
        "\nencode-only SKL2, %lld rows: row-path %.3f ms, columnar %.3f ms "
        "(%.2fx)\n",
        static_cast<long long>(x_rows), ms[0], ms[1],
        ms[1] > 0 ? ms[0] / ms[1] : 0.0);
  }

  // Reply-shaped relation: encode + decode of the production path, and
  // the row path's bytes checked against it.
  {
    const Table h = ReplyShapedTable(x_rows);
    const auto start = std::chrono::steady_clock::now();
    std::string bytes;
    for (int i = 0; i < iters; ++i) {
      bytes = Serializer::SerializeTable(h);
      auto decoded = Serializer::DeserializeTable(bytes);
      if (!decoded.ok()) std::abort();
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count() /
                      iters;
    if (bytes != Serializer::SerializeTableRowPath(h)) {
      std::fprintf(stderr,
                   "FAIL: reply-shaped SKL2 differs between encoder paths\n");
      std::abort();
    }
    report.Add("encode+decode/skl2-reply",
               {{"rows", static_cast<double>(x_rows)},
                {"bytes_per_row", static_cast<double>(bytes.size()) /
                                      static_cast<double>(x_rows)}},
               ms, static_cast<int64_t>(bytes.size()));
    std::printf(
        "reply-shaped SKL2, %lld rows: %zu bytes (%.2f B/row), "
        "encode+decode %.3f ms\n",
        static_cast<long long>(x_rows), bytes.size(),
        static_cast<double>(bytes.size()) / static_cast<double>(x_rows), ms);
  }

  // X view: the same 3,000-group view encoded raw and with its AVG
  // carriers; each must decode to the view bit for bit. SKL1 writes every
  // double's 8 bytes, so equal SKL1 encodings hold equal bits.
  {
    const int64_t view_rows = 3000;
    const XView view = XViewTable(view_rows);
    const std::string expected = EncodeSkl1(view.table);
    for (int with_carriers = 0; with_carriers <= 1; ++with_carriers) {
      const std::span<const QuotientCarriers> carriers =
          with_carriers ? std::span<const QuotientCarriers>(view.carriers)
                        : std::span<const QuotientCarriers>();
      std::string bytes;
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < iters; ++i) {
        bytes = Serializer::SerializeTable(view.table, carriers);
        auto decoded = Serializer::DeserializeTable(bytes);
        if (!decoded.ok()) std::abort();
      }
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count() /
                        iters;
      if (bytes != Serializer::SerializeTableRowPath(view.table, carriers)) {
        std::fprintf(stderr,
                     "FAIL: X-view SKL2 differs between encoder paths\n");
        std::abort();
      }
      auto decoded = Serializer::DeserializeTable(bytes);
      if (!decoded.ok() || EncodeSkl1(*decoded) != expected) {
        std::fprintf(stderr, "FAIL: the X view decoded %s differs from it\n",
                     with_carriers ? "from its carriers" : "raw");
        std::abort();
      }
      const double per_row =
          static_cast<double>(bytes.size()) / static_cast<double>(view_rows);
      report.Add(std::string("encode+decode/skl2-xview-") +
                     (with_carriers ? "carriers" : "raw"),
                 {{"rows", static_cast<double>(view_rows)},
                  {"bytes_per_row", per_row}},
                 ms, static_cast<int64_t>(bytes.size()));
      std::printf(
          "X view SKL2 %s, %lld rows: %zu bytes (%.2f B/row), "
          "encode+decode %.3f ms\n",
          with_carriers ? "with AVG carriers" : "raw",
          static_cast<long long>(view_rows), bytes.size(), per_row, ms);
    }
  }
  report.Write();
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --quick before google-benchmark sees (and rejects) it.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      g_quick = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (!g_quick) benchmark::RunSpecifiedBenchmarks();
  PrintTableAndReport();
  return 0;
}
