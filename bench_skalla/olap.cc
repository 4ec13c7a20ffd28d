// The OLAP workloads: the paper's Fig. 2-5 queries and a multi-feature query
// through Warehouse::Execute, one client in a closed loop.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "layers.h"
#include "loadgen.h"
#include "server/protocol.h"
#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "sql/olap_parser.h"
#include "sql/olap_printer.h"
#include "stats.h"
#include "storage/serializer.h"
#include "tpc/dbgen.h"
#include "trace.h"
#include "workloads.h"

namespace bench_skalla {

using namespace skalla;

namespace {

struct Template {
  const char* label;
  GmdjExpr (*make)(const std::string& group_attr);
};

const Template kTemplates[] = {
    {"fig2_group_reduction", queries::GroupReductionQuery},
    {"fig3_coalescing", queries::CoalescingQuery},
    {"fig4_sync_reduction", queries::SyncReductionQuery},
    {"fig5_combined", queries::CombinedQuery},
    {"multi_feature", queries::MultiFeatureQuery},
};
constexpr size_t kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

/// The OLAP tail percentile: the faster half of a run's passes holds about
/// 100-130 queries, so p90 is the highest percentile with ten samples
/// beyond it.
constexpr double kOlapTail = 90.0;

/// A traced run traces one pass in this many.
constexpr int kTraceEvery = 5;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "bench_skalla: %s\n", what.c_str());
  std::exit(2);
}

/// What the warm-up learns about each template: the first result, whose
/// content hash every repeat must reproduce, and its exact bytes shipped.
struct TemplateBaseline {
  Table first;
  uint64_t hash = 0;
  size_t bytes = 0;
};

/// Loads the warehouse and runs every template once: columnar views and
/// relation statistics are built here, untimed.
std::unique_ptr<Warehouse> SetUp(const OlapSpec& spec, const Table& tpcr,
                                 int64_t num_nations,
                                 const std::vector<std::string>& texts,
                                 std::vector<TemplateBaseline>* baselines) {
  auto warehouse = std::make_unique<Warehouse>(spec.data.sites);
  Status loaded = warehouse->LoadByRange("TPCR", tpcr, "NationKey", 0,
                                         num_nations - 1,
                                         {"CustKey", "ClerkKey"});
  if (!loaded.ok()) Die("load failed: " + loaded.ToString());
  baselines->assign(texts.size(), TemplateBaseline{});
  for (size_t t = 0; t < texts.size(); ++t) {
    Result<GmdjExpr> expr = ParseOlapQuery(texts[t]);
    if (!expr.ok()) Die("template does not parse: " + texts[t]);
    Result<QueryResult> result =
        warehouse->Execute(*expr, OptimizerOptions::All());
    if (!result.ok()) Die("warm-up failed: " + result.status().ToString());
    TemplateBaseline& b = (*baselines)[t];
    b.hash = Serializer::ContentHash(result->table);
    b.bytes = result->metrics.TotalBytes();
    b.first = std::move(result->table);
  }
  return warehouse;
}

/// Sorted and serialized, so two relations compare as multisets of rows.
std::string Canonical(Table table) {
  table.SortAllColumns();
  return Serializer::SerializeTable(table);
}

}  // namespace

void RunOlap(const OlapSpec& spec, const RunOptions& options, Report* report) {
  bench::WarehouseSpec data = spec.data;
  if (options.quick) {
    data.rows_per_site = std::max<int64_t>(data.rows_per_site / 50, 500);
  }

  // ---- inputs, all from the seed ----
  TpcConfig config;
  config.num_rows = data.rows_per_site * data.sites;
  config.num_customers = data.groups_per_site * data.sites;
  config.num_clerks = data.clerks;
  // 24 nations split evenly over 8 or 4 sites; customers are block-mapped
  // onto nations, so a NationKey range partitioning also partitions CustKey.
  config.num_nations = 24;
  config.seed = options.seed;
  const Clock::time_point gen_start = Clock::now();
  const Table tpcr = GenerateTpcr(config);
  const double datagen_s = SecondsBetween(gen_start, Clock::now());

  std::vector<std::string> texts;
  for (const Template& t : kTemplates) {
    Result<std::string> text = OlapQueryToString(t.make(spec.group_attr));
    if (!text.ok()) Die(std::string("template not printable: ") + t.label);
    texts.push_back(*text);
  }

  // ---- set-up, kSetups times, spread over the run: each new warehouse
  // serves the next stretch of the timed loop, so the median set-up time
  // samples kSetups moments of the host rather than one ----
  std::vector<double> setup_s;
  std::unique_ptr<Warehouse> warehouse;
  std::vector<TemplateBaseline> baselines;
  auto set_up = [&]() {
    warehouse.reset();
    std::vector<TemplateBaseline> fresh;
    const Clock::time_point start = Clock::now();
    warehouse = SetUp(spec, tpcr, config.num_nations, texts, &fresh);
    setup_s.push_back(SecondsBetween(start, Clock::now()));
    if (baselines.empty()) {
      baselines = std::move(fresh);
      return;
    }
    for (size_t t = 0; t < kNumTemplates; ++t) {
      if (fresh[t].hash != baselines[t].hash ||
          fresh[t].bytes != baselines[t].bytes) {
        report->Wrong(std::string(kTemplates[t].label) +
                      ": a new warehouse over the same data gave a different "
                      "relation or byte count");
      }
    }
  };
  set_up();

  // ---- correctness: every template equals the centralized evaluation ----
  for (size_t t = 0; t < kNumTemplates; ++t) {
    Result<GmdjExpr> expr = ParseOlapQuery(texts[t]);
    Result<Table> central = warehouse->ExecuteCentralized(*expr);
    if (!central.ok() ||
        Canonical(*central) != Canonical(baselines[t].first)) {
      report->Wrong(std::string(kTemplates[t].label) +
                    ": distributed result differs from ExecuteCentralized");
    }
  }

  // ---- the timed closed loop: whole passes over the templates in seeded
  // order, so every run has the same query mix ----
  Rng order_rng(options.seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<size_t> pass(kNumTemplates);
  std::iota(pass.begin(), pass.end(), 0);
  const Clock::time_point epoch = Clock::now();
  SpanBuffer spans(epoch);
  LayerStats layers(spec.data.sites);
  std::vector<std::vector<Table>> captured(kNumTemplates);
  std::vector<bool> have_capture(kNumTemplates, false);
  // One window per untraced pass, and the modelled response time of each of
  // its queries by template.
  std::vector<Window> passes;
  std::vector<std::vector<double>> pass_response_ms;
  // Latency per template, traced and untraced, for the overhead.
  std::vector<std::vector<double>> plain_ms(kNumTemplates),
      traced_ms(kNumTemplates);
  int64_t request = 0;
  int pass_no = 0;
  double loop_s = 0, loop_cpu_s = 0;  // the passes only, not the set-ups
  while (loop_s < options.seconds || pass_no < 2 * kTraceEvery) {
    if (static_cast<int>(setup_s.size()) < kSetups &&
        loop_s >= options.seconds * static_cast<double>(setup_s.size()) /
                      kSetups) {
      set_up();
    }
    for (size_t i = kNumTemplates - 1; i > 0; --i) {
      std::swap(pass[i], pass[static_cast<size_t>(
                             order_rng.Uniform(0, static_cast<int64_t>(i)))]);
    }
    // A traced run traces one pass in kTraceEvery: the untraced passes give
    // the timings, and against the traced ones the tracing overhead.
    const bool traced =
        options.trace && pass_no % kTraceEvery == kTraceEvery - 1;
    const Clock::time_point pass_start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    Window window;
    std::vector<double> response_ms(kNumTemplates, 0.0);
    for (size_t t : pass) {
      report->CountAttempt();
      const Clock::time_point start = Clock::now();
      Result<QueryResult> result = Status::Internal("not run");
      double execute_ms = 0;
      if (traced) {
        ScopedSpan root(&spans, "bench.query", request);
        result = RunTracedQuery(*warehouse, texts[t], &spans, request,
                                have_capture[t] ? nullptr : &captured[t],
                                &execute_ms);
        have_capture[t] = true;
      } else {
        Result<GmdjExpr> expr = ParseOlapQuery(texts[t]);
        result = expr.ok() ? warehouse->Execute(*expr, OptimizerOptions::All())
                           : Result<QueryResult>(expr.status());
      }
      const double ms = SecondsBetween(start, Clock::now()) * 1e3;
      ++request;
      if (!result.ok()) {
        report->CountFailure();
        continue;
      }
      if (Serializer::ContentHash(result->table) != baselines[t].hash) {
        report->Wrong(std::string(kTemplates[t].label) +
                      ": a repeat returned a different relation");
      }
      if (result->metrics.TotalBytes() != baselines[t].bytes) {
        report->Wrong(std::string(kTemplates[t].label) +
                      ": a repeat shipped a different number of bytes");
      }
      if (options.trace) (traced ? traced_ms : plain_ms)[t].push_back(ms);
      if (traced) {
        layers.AddExecution(*result, execute_ms);
      } else {
        window.latency_ms.push_back(ms);
        response_ms[t] = result->metrics.ResponseSeconds() * 1e3;
      }
    }
    const double pass_s = SecondsBetween(pass_start, Clock::now());
    const double pass_cpu_s = ProcessCpuSeconds() - cpu_start;
    loop_s += pass_s;
    loop_cpu_s += pass_cpu_s;
    if (!traced && window.latency_ms.size() == kNumTemplates) {
      window.seconds = pass_s;
      window.cpu_s = pass_cpu_s;
      passes.push_back(std::move(window));
      pass_response_ms.push_back(std::move(response_ms));
    }
    ++pass_no;
  }
  while (static_cast<int>(setup_s.size()) < kSetups) set_up();
  std::printf("setup: %s s, reported %.3f s; datagen %.3f s (%lld rows)\n",
              JoinSeconds(setup_s).c_str(), SetupSeconds(setup_s), datagen_s,
              static_cast<long long>(tpcr.num_rows()));
  const double cpu_util = loop_cpu_s / loop_s;
  const double error_rate =
      static_cast<double>(report->failed()) /
      static_cast<double>(std::max<int64_t>(1, report->attempted()));

  // Each pass runs every template once, so every window has the same query
  // mix and the faster half differs from the rest only in how much
  // interference it met.
  const WindowSummary fast = FasterHalf(passes);
  const int64_t n = static_cast<int64_t>(fast.latency_ms.size());
  std::printf("closed loop: %.3f queries/s, p50 %.3f ms, p%.0f %.3f ms, CPU "
              "%.3f ms per query over the faster %zu of %zu passes (%lld "
              "queries, tail supported: %s)\n",
              static_cast<double>(n) / fast.seconds,
              Percentile(fast.latency_ms, 50), kOlapTail,
              Percentile(fast.latency_ms, kOlapTail), fast.CpuMsPerRequest(),
              fast.kept.size(), fast.windows, static_cast<long long>(n),
              TailPercentile(n) >= kOlapTail ? "yes" : "no");
  // The modelled response time of each template: its median over the faster
  // half of the passes, whose measured CPU terms met the least interference.
  double response_ms = 0;
  for (size_t t = 0; t < kNumTemplates; ++t) {
    std::vector<double> of_template;
    for (size_t k : fast.kept) of_template.push_back(pass_response_ms[k][t]);
    response_ms += Median(of_template) / kNumTemplates;
  }

  if (!options.trace) {
    double bytes = 0;
    for (const TemplateBaseline& b : baselines) {
      bytes += static_cast<double>(b.bytes);
    }
    report->Set("setup_s", SetupSeconds(setup_s), "s", kSetups);
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    report->Set("bytes_per_query", bytes / kNumTemplates, "bytes",
                kNumTemplates);
    report->Set("modelled_response_ms", response_ms, "ms", n);
    return;
  }

  report->Set("throughput_qps", static_cast<double>(n) / fast.seconds, "1/s",
              n);
  report->Set("latency_p50_ms", Percentile(fast.latency_ms, 50), "ms", n);
  report->Set("latency_tail_ms", Percentile(fast.latency_ms, kOlapTail), "ms",
              n);
  report->Set("cpu_ms_per_request", fast.CpuMsPerRequest(), "ms", n);

  // ---- traced run: replays on the captured inputs, then the layer table ---
  std::vector<DistributedPlan> plans;
  std::vector<std::string> commands;
  for (size_t t = 0; t < kNumTemplates; ++t) {
    Result<GmdjExpr> expr = ParseOlapQuery(texts[t]);
    Result<DistributedPlan> plan =
        warehouse->Plan(*expr, OptimizerOptions::All());
    if (plan.ok()) plans.push_back(*std::move(plan));
    commands.push_back("QUERY " + texts[t]);
  }
  constexpr int kReplayReps = 20;
  LayerStats::ReplayEstimate(*warehouse, plans, kReplayReps, &spans, request);
  request += static_cast<int64_t>(plans.size());
  for (int rep = 0; rep < kReplayReps; ++rep) {
    LayerStats::ReplayFrontEnd(commands, &spans, request);
    request += static_cast<int64_t>(commands.size());
  }
  for (size_t t = 0; t < kNumTemplates; ++t) {
    LayerStats::ReplayStorage(captured[t], kReplayReps, &spans, request++);
  }

  const std::vector<const SpanBuffer*> buffers = {&spans};
  const std::map<std::string, SpanTotals> totals = TotalsByName(buffers);
  layers.Fill(totals, static_cast<int64_t>(kNumTemplates) * kReplayReps,
              report);
  // Serving-layer counters do not exist without a server.
  for (const char* name :
       {"server.cache_hit_ratio", "server.prefix_hit_ratio"}) {
    report->Set(name, 0.0, "ratio", 0);
  }
  for (const char* name :
       {"server.evictions_per_kreq", "server.invalidations_per_kreq"}) {
    report->Set(name, 0.0, "count", 0);
  }
  for (const char* name :
       {"server.queue_wait_ms_p99", "server.mutate_ms_p90",
        "server.latency_p50_ms_hi", "server.latency_tail_ms_hi",
        "bench.gen_late_ms_p99"}) {
    report->Set(name, 0.0, "ms", 0);
  }
  report->Set("server.max_rate_qps", 0.0, "1/s", 0);

  double plain_sum = 0, traced_sum = 0;
  int64_t pairs = 0;
  for (size_t t = 0; t < kNumTemplates; ++t) {
    if (plain_ms[t].empty() || traced_ms[t].empty()) continue;
    plain_sum += Median(plain_ms[t]);
    traced_sum += Median(traced_ms[t]);
    ++pairs;
  }
  report->Set("bench.trace_overhead_pct",
              plain_sum > 0 ? (traced_sum / plain_sum - 1.0) * 100.0 : 0.0,
              "%", pairs);
  report->Set("bench.datagen_s", datagen_s, "s");
  report->Set("server.cpu_util", cpu_util, "cores");
  report->Set("bench.error_rate", error_rate, "ratio", report->attempted());

  PrintLayerTable(totals);
  const std::string path = options.out_dir + "/trace_" + spec.name + ".json";
  if (WriteTraceJson(path, spec.name, buffers)) {
    std::printf("wrote %s (%zu spans)\n", path.c_str(), spans.spans().size());
  } else {
    Die("cannot write " + path);
  }
}

}  // namespace bench_skalla
