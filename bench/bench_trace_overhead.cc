// Overhead of the observability layer (src/obs/): the query-lifecycle
// tracer and the always-on metrics registry.
//
// Tracer measurements on a Fig. 5-style combined-reductions query (with
// the metrics registry switched off so the two layers are costed
// separately), over a relation sized so that every site's scan spans
// several morsels and so runs, and traces, morsel lanes:
//  1. wall time with tracing disabled (the default production mode),
//  2. wall time with full tracing on (every span, every morsel lane), the
//     two timed as interleaved best-of-batches like the registry half;
//     the binary exits nonzero if a traced query records no lane span,
//  3. the per-hit cost of a *disarmed* ScopedSpan (one relaxed atomic
//     load), microbenchmarked in isolation.
//
// Registry measurements on the same query (tracing off):
//  4. wall time with the registry enabled (its default) vs disabled —
//     the enabled-mode budget in docs/observability.md is < 5%;
//  5. per-update instrument costs in isolation: an enabled Counter::Add
//     (one relaxed RMW on a sharded slot) and a disabled one (one relaxed
//     gate load).
//
// The disabled-tracing budget is < 5% query overhead. A direct
// disabled-vs-uninstrumented comparison is impossible inside one binary,
// so that check is an estimate: instrumentation hits per query times the
// measured per-hit cost, as a fraction of the disabled wall time. The
// binary exits nonzero when either budget is breached, so both checks run
// in CI. Wall-time comparisons use the best (minimum) of several batches,
// which is far more drift-resistant than a single mean on a shared box.
//
//   ./bench_trace_overhead [--quick]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "gmdj/local_eval.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace skalla;
using bench::GetWarehouse;
using bench::MustExecute;
using bench::WarehouseSpec;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Mean wall seconds per execution (one warm-up run excluded).
double TimeQuery(Warehouse& warehouse, const GmdjExpr& query,
                 const OptimizerOptions& options, int reps) {
  MustExecute(warehouse, query, options);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < reps; ++i) MustExecute(warehouse, query, options);
  return SecondsSince(start) / reps;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const GmdjExpr query = queries::CombinedQuery("CustKey");
  const OptimizerOptions options = OptimizerOptions::All();
  const int reps = quick ? 3 : 5;
  const int batches = quick ? 3 : 5;
  const int probes = quick ? (1 << 20) : (1 << 22);

  // ---- Tracer (registry off so the layers are costed separately) ----------
  bench::JsonReport trace_report("trace_overhead");
  obs::EnableMetrics(false);

  // Two sites of 2.5 morsels each, in --quick too: a site's scan splits
  // into morsels only past kDefaultMorselRows rows, and only split scans
  // run (and trace) lanes. Four lanes per site, whatever the host.
  WarehouseSpec lanes_spec;
  lanes_spec.sites = 2;
  lanes_spec.rows_per_site = 2 * kDefaultMorselRows + kDefaultMorselRows / 2;
  lanes_spec.groups_per_site = 1000;
  Warehouse& lanes_warehouse = GetWarehouse(lanes_spec);
  lanes_warehouse.set_local_threads(4);

  // 1-2. Disabled tracing — the mode whose overhead must stay negligible —
  // against full tracing (every morsel lane recorded, no sampling), as
  // interleaved best-of-batches.
  obs::TraceConfig full;
  full.enabled = true;
  full.morsel_sample = 1;
  double off_sec = 0;
  double on_sec = 0;
  for (int b = 0; b < batches; ++b) {
    obs::ConfigureTracing(obs::TraceConfig{});
    obs::ResetTracing();
    const double off = TimeQuery(lanes_warehouse, query, options, reps);
    obs::ConfigureTracing(full);
    obs::ResetTracing();
    const double on = TimeQuery(lanes_warehouse, query, options, reps);
    off_sec = b == 0 ? off : std::min(off_sec, off);
    on_sec = b == 0 ? on : std::min(on_sec, on);
  }

  // Instrumentation hits, and morsel-lane spans among them, of a single
  // query at sample=1.
  obs::ResetTracing();
  MustExecute(lanes_warehouse, query, options);
  const std::vector<obs::TraceSpan> spans = obs::SpanSnapshot();
  const size_t hits = spans.size() + obs::DroppedSpanCount();
  const size_t lane_spans = static_cast<size_t>(
      std::count_if(spans.begin(), spans.end(), [](const obs::TraceSpan& s) {
        return std::strcmp(s.name, "morsel") == 0;
      }));
  obs::ConfigureTracing(obs::TraceConfig{});
  obs::ResetTracing();

  // 3. Per-hit disabled cost: construct/destruct a disarmed span.
  const Clock::time_point probe_start = Clock::now();
  for (int i = 0; i < probes; ++i) {
    obs::ScopedSpan span("probe");
  }
  const double per_hit_ns = SecondsSince(probe_start) * 1e9 / probes;

  const double est_overhead = off_sec > 0
                                  ? hits * per_hit_ns * 1e-9 / off_sec
                                  : 0.0;
  const double enabled_overhead = off_sec > 0 ? on_sec / off_sec - 1.0 : 0.0;

  std::printf("trace overhead, combined query (%d sites, %lld rows/site, "
              "best of %d interleaved batches)\n",
              lanes_spec.sites,
              static_cast<long long>(lanes_spec.rows_per_site), batches);
  std::printf("  disabled            %8.2f ms/query\n", off_sec * 1e3);
  std::printf("  full tracing        %8.2f ms/query  (%+.1f%%)\n",
              on_sec * 1e3, enabled_overhead * 100);
  std::printf("  instrumentation     %8zu hits/query, %zu morsel-lane spans\n",
              hits, lane_spans);
  std::printf("  disarmed span       %8.2f ns/hit\n", per_hit_ns);
  std::printf("  est. disabled cost  %8.3f%% of query (budget 5%%)\n",
              est_overhead * 100);

  trace_report.Add("disabled",
                   {{"reps", static_cast<double>(reps)},
                    {"batches", static_cast<double>(batches)}},
                   off_sec * 1e3);
  trace_report.Add("full_tracing",
                   {{"reps", static_cast<double>(reps)},
                    {"batches", static_cast<double>(batches)},
                    {"hits", static_cast<double>(hits)},
                    {"lane_spans", static_cast<double>(lane_spans)},
                    {"overhead_pct", enabled_overhead * 100}},
                   on_sec * 1e3);
  trace_report.Add("disabled_estimate",
                   {{"per_hit_ns", per_hit_ns},
                    {"hits", static_cast<double>(hits)},
                    {"overhead_pct", est_overhead * 100}},
                   hits * per_hit_ns * 1e-6);
  trace_report.Write();

  // ---- Metrics registry (tracing stays off) --------------------------------
  bench::JsonReport metrics_report("metrics_overhead");
  WarehouseSpec spec;
  spec.sites = 4;
  spec.rows_per_site = quick ? 4000 : 15000;
  spec.groups_per_site = quick ? 400 : 1000;
  Warehouse& warehouse = GetWarehouse(spec);

  // 4. Enabled (the registry's default state) vs disabled wall time.
  // Interleaved best-of-batches: alternating off/on batches and taking
  // each side's minimum cancels scheduler drift that a sequential A-then-B
  // comparison would book as overhead.
  double met_off_sec = 0;
  double met_on_sec = 0;
  for (int b = 0; b < batches; ++b) {
    obs::EnableMetrics(false);
    const double off = TimeQuery(warehouse, query, options, reps);
    obs::EnableMetrics(true);
    const double on = TimeQuery(warehouse, query, options, reps);
    met_off_sec = b == 0 ? off : std::min(met_off_sec, off);
    met_on_sec = b == 0 ? on : std::min(met_on_sec, on);
  }
  const double metrics_overhead =
      met_off_sec > 0 ? met_on_sec / met_off_sec - 1.0 : 0.0;

  // 5. Per-update instrument costs in isolation.
  obs::Counter& probe_counter = obs::GetCounter("skalla_bench_probe_total");
  obs::EnableMetrics(true);
  Clock::time_point t = Clock::now();
  for (int i = 0; i < probes; ++i) probe_counter.Increment();
  const double enabled_add_ns = SecondsSince(t) * 1e9 / probes;
  obs::EnableMetrics(false);
  t = Clock::now();
  for (int i = 0; i < probes; ++i) probe_counter.Increment();
  const double disabled_add_ns = SecondsSince(t) * 1e9 / probes;
  obs::EnableMetrics(true);  // leave the process in the default state

  std::printf("\nmetrics registry overhead (same query, tracing off)\n");
  std::printf("  registry disabled   %8.2f ms/query\n", met_off_sec * 1e3);
  std::printf("  registry enabled    %8.2f ms/query  (%+.2f%%, budget 5%%)\n",
              met_on_sec * 1e3, metrics_overhead * 100);
  std::printf("  enabled Counter::Add  %6.2f ns/update\n", enabled_add_ns);
  std::printf("  disabled Counter::Add %6.2f ns/update\n", disabled_add_ns);

  metrics_report.Add("registry_disabled",
                     {{"reps", static_cast<double>(reps)},
                      {"batches", static_cast<double>(batches)}},
                     met_off_sec * 1e3);
  metrics_report.Add("registry_enabled",
                     {{"reps", static_cast<double>(reps)},
                      {"batches", static_cast<double>(batches)},
                      {"overhead_pct", metrics_overhead * 100}},
                     met_on_sec * 1e3);
  metrics_report.Add("counter_add",
                     {{"enabled_ns", enabled_add_ns},
                      {"disabled_ns", disabled_add_ns}},
                     enabled_add_ns * 1e-6);
  metrics_report.Write();

  int failures = 0;
  if (lane_spans == 0) {
    std::fprintf(stderr,
                 "FAIL: a fully traced query recorded no morsel-lane span\n");
    ++failures;
  }
  if (est_overhead >= 0.05) {
    std::fprintf(stderr,
                 "FAIL: estimated disabled-tracing overhead %.3f%% exceeds "
                 "the 5%% budget\n",
                 est_overhead * 100);
    ++failures;
  }
  if (metrics_overhead >= 0.05) {
    std::fprintf(stderr,
                 "FAIL: enabled metrics-registry overhead %.2f%% exceeds "
                 "the 5%% budget\n",
                 metrics_overhead * 100);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
