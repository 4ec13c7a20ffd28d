// Metrics-registry correctness: exact totals under concurrent hammering
// (run under TSan via the "metrics" ctest label), disabled-mode no-op
// semantics, exposition/JSONL formats, the STATS additive contract, the
// PROFILE verb's round-trip equality with the query's own
// ExecutionMetrics, and the registry's distributed instruments moving by
// exactly the sum of the queries' records (DESIGN.md invariant 13) on
// success, failure and cancellation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/fault_injector.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "skalla/queries.h"
#include "sql/olap_parser.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace server {
namespace {

constexpr const char* kChain =
    "SELECT CustKey, COUNT(*) AS cnt FROM TPCR GROUP BY CustKey "
    "EXTEND SUM(Quantity) AS sq WHERE Quantity >= cnt";

/// Re-enables the registry when a test that disabled it exits.
class EnabledGuard {
 public:
  EnabledGuard() { obs::EnableMetrics(true); }
  ~EnabledGuard() { obs::EnableMetrics(true); }
};

/// Parses `\n<key> <integer>` out of a PROFILE payload's totals section.
uint64_t ProfileTotal(const std::string& profile, const std::string& key) {
  const std::string needle = "\n" + key + " ";
  const size_t pos = profile.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in:\n" << profile;
  if (pos == std::string::npos) return 0;
  return std::strtoull(profile.c_str() + pos + needle.size(), nullptr, 10);
}

// The SKALLA_METRICS knob, read once at start-up: 0, off or false starts
// the registry disabled, so counter updates leave totals unchanged. The
// ctest entry env.SKALLA_METRICS (tests/CMakeLists.txt) runs this test with
// SKALLA_METRICS=0; without the variable the registry starts enabled. It
// comes first so that no other test has flipped the gate when the whole
// binary runs in one process.
TEST(MetricsRegistryTest, SkallaMetricsSetsTheStartState) {
  const char* env = std::getenv("SKALLA_METRICS");
  const std::string value = env == nullptr ? "" : env;
  const bool off = value == "0" || value == "off" || value == "false";
  EXPECT_EQ(obs::MetricsEnabled(), !off);
  obs::Counter& counter = obs::GetCounter("skalla_test_env_knob_total");
  const uint64_t before = counter.Value();
  counter.Increment();
  EXPECT_EQ(counter.Value(), before + (off ? 0 : 1));
}

TEST(MetricsRegistryTest, ConcurrentCounterIsExact) {
  EnabledGuard enabled;
  obs::Counter& counter = obs::GetCounter("skalla_test_concurrent_total");
  counter.Reset();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(MetricsRegistryTest, ConcurrentHistogramBucketSumEqualsCount) {
  EnabledGuard enabled;
  obs::Histogram& hist = obs::GetHistogram(
      "skalla_test_concurrent_seconds", obs::HistogramLayout::LatencySeconds());
  hist.Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Observe(1e-6 * static_cast<double>((i + t) % 1000 + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const uint64_t expected = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(hist.Count(), expected);
  const std::vector<uint64_t> buckets = hist.BucketCounts();
  uint64_t bucket_sum = 0;
  for (uint64_t b : buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, expected);  // no observation lost or double-binned
  EXPECT_GT(hist.Sum(), 0.0);
  // All observations lie in [1 µs, 1 ms]: the quantiles must too.
  EXPECT_GE(hist.Quantile(0.50), 1e-6);
  EXPECT_LE(hist.Quantile(0.99), 2e-3);
}

TEST(MetricsRegistryTest, ConcurrentGaugePairsToZero) {
  EnabledGuard enabled;
  obs::Gauge& gauge = obs::GetGauge("skalla_test_concurrent_depth");
  gauge.Reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < 50000; ++i) {
        gauge.Add(2);
        gauge.Sub(2);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(MetricsRegistryTest, DisabledRegistryIsANoOp) {
  EnabledGuard enabled;
  obs::Counter& counter = obs::GetCounter("skalla_test_disabled_total");
  obs::Gauge& gauge = obs::GetGauge("skalla_test_disabled_depth");
  obs::Histogram& hist = obs::GetHistogram("skalla_test_disabled_seconds",
                                           obs::HistogramLayout::Ratio());
  counter.Reset();
  gauge.Reset();
  hist.Reset();

  obs::EnableMetrics(false);
  EXPECT_FALSE(obs::MetricsEnabled());
  counter.Add(7);
  gauge.Add(7);
  hist.Observe(0.5);
  { obs::GaugeGuard guard(&gauge); }  // not armed while disabled
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(hist.Count(), 0u);

  obs::EnableMetrics(true);
  counter.Add(7);
  EXPECT_EQ(counter.Value(), 7u);
}

TEST(MetricsRegistryTest, GaugeGuardPairsAcrossAGateFlip) {
  EnabledGuard enabled;
  obs::Gauge& gauge = obs::GetGauge("skalla_test_guard_depth");
  gauge.Reset();
  {
    obs::GaugeGuard guard(&gauge);
    EXPECT_EQ(gauge.Value(), 1);
    // The gate flips off mid-flight; the armed guard must still undo its
    // own increment or the gauge would stay skewed forever.
    obs::EnableMetrics(false);
  }
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(MetricsRegistryTest, ExpositionFormatGolden) {
  std::vector<obs::MetricValue> values;
  obs::MetricValue c;
  c.name = "skalla_unit_ops_total";
  c.kind = obs::MetricKind::kCounter;
  c.counter_value = 3;
  values.push_back(c);
  obs::MetricValue g;
  g.name = "skalla_unit_queue_depth";
  g.kind = obs::MetricKind::kGauge;
  g.gauge_value = -2;
  values.push_back(g);
  obs::MetricValue h;
  h.name = "skalla_unit_wait_seconds{lane=\"low\"}";
  h.kind = obs::MetricKind::kHistogram;
  h.bounds = {0.5, 1.0};
  h.buckets = {1, 2, 3};
  h.hist_count = 6;
  h.hist_sum = 4.5;
  values.push_back(h);

  EXPECT_EQ(obs::ExposeMetrics(values),
            "# TYPE skalla_unit_ops_total counter\n"
            "skalla_unit_ops_total 3\n"
            "# TYPE skalla_unit_queue_depth gauge\n"
            "skalla_unit_queue_depth -2\n"
            "# TYPE skalla_unit_wait_seconds histogram\n"
            "skalla_unit_wait_seconds_bucket{lane=\"low\",le=\"0.5\"} 1\n"
            "skalla_unit_wait_seconds_bucket{lane=\"low\",le=\"1\"} 3\n"
            "skalla_unit_wait_seconds_bucket{lane=\"low\",le=\"+Inf\"} 6\n"
            "skalla_unit_wait_seconds_sum{lane=\"low\"} 4.5\n"
            "skalla_unit_wait_seconds_count{lane=\"low\"} 6\n");

  const std::string jsonl = obs::MetricsJsonl(values);
  EXPECT_NE(jsonl.find("{\"name\":\"skalla_unit_ops_total\",\"kind\":"
                       "\"counter\",\"value\":3}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"count\":6,\"sum\":4.5"), std::string::npos);
}

TEST(MetricsRegistryTest, SplitMetricName) {
  std::string base;
  std::string labels;
  obs::SplitMetricName("skalla_x_total", &base, &labels);
  EXPECT_EQ(base, "skalla_x_total");
  EXPECT_EQ(labels, "");
  obs::SplitMetricName("skalla_x_total{site=\"3\",dir=\"in\"}", &base,
                       &labels);
  EXPECT_EQ(base, "skalla_x_total");
  EXPECT_EQ(labels, "site=\"3\",dir=\"in\"");
}

// ---- Server integration: METRICS, STATS additivity, PROFILE ---------------

std::unique_ptr<Server> MakeLoadedServer(int64_t rows = 3000) {
  auto srv = std::make_unique<Server>(4);
  Client admin(srv.get());
  auto loaded = admin.Call("LOAD tpcr " + std::to_string(rows));
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return srv;
}

TEST(MetricsServingTest, MetricsVerbExposesTheRegistry) {
  EnabledGuard enabled;
  auto srv = MakeLoadedServer();
  Client client(srv.get());
  ASSERT_OK_AND_ASSIGN(std::string ignored,
                       client.Call(std::string("QUERY ") + kChain));

  ASSERT_OK_AND_ASSIGN(std::string text, client.Call("METRICS"));
  EXPECT_NE(text.find("# TYPE skalla_server_queries_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("skalla_dist_rounds_total"), std::string::npos);
  EXPECT_NE(text.find("skalla_server_query_seconds_bucket"),
            std::string::npos);

  ASSERT_OK_AND_ASSIGN(std::string jsonl, client.Call("METRICS JSON"));
  EXPECT_EQ(jsonl.compare(0, 9, "{\"name\":\""), 0);
  EXPECT_NE(jsonl.find("\"kind\":\"histogram\""), std::string::npos);
}

TEST(MetricsServingTest, StatsStaysAdditiveAndConsistent) {
  EnabledGuard enabled;
  auto srv = MakeLoadedServer();
  Client client(srv.get());
  ASSERT_OK_AND_ASSIGN(std::string ignored,
                       client.Call(std::string("QUERY ") + kChain));

  // Existing keys survive verbatim; registry lines ride behind them with
  // the reserved `metric.` prefix (docs/server.md's additive contract).
  ASSERT_OK_AND_ASSIGN(std::string stats, client.Call("STATS"));
  EXPECT_NE(stats.find("queries_submitted "), std::string::npos);
  EXPECT_NE(stats.find("cache_misses "), std::string::npos);
  EXPECT_NE(stats.find("metric.skalla_server_queries_submitted_total "),
            std::string::npos);
  EXPECT_NE(stats.find("metric.skalla_server_query_seconds"),
            std::string::npos);

  // Snapshot identity: every submitted query is accounted at most once.
  const ServerStats snapshot = srv->stats();
  EXPECT_LE(snapshot.queries_completed + snapshot.queries_failed +
                snapshot.queries_cancelled + snapshot.queries_shed +
                static_cast<uint64_t>(snapshot.running) + snapshot.queued,
            snapshot.queries_submitted);
}

TEST(MetricsServingTest, ProfileMatchesExecutionMetricsExactly) {
  EnabledGuard enabled;
  auto srv = MakeLoadedServer();
  Client client(srv.get());
  ASSERT_OK_AND_ASSIGN(std::string profile,
                       client.Call(std::string("PROFILE ") + kChain));

  // Reference: an identical warehouse (the LOAD command's own generator
  // config) executed directly. Determinism of rows/bytes is DESIGN.md
  // invariant 10; both ship caches start empty.
  Warehouse ref(4);
  TpcConfig config;
  config.num_rows = 3000;
  config.num_customers = std::max<int64_t>(1, config.num_rows / 12);
  ASSERT_TRUE(ref.LoadByRange("TPCR", GenerateTpcr(config), "NationKey", 0,
                              config.num_nations - 1, {"CustKey", "ClerkKey"})
                  .ok());
  ASSERT_OK_AND_ASSIGN(GmdjExpr expr, ParseOlapQuery(kChain));
  ASSERT_OK_AND_ASSIGN(QueryResult expected,
                       ref.Execute(expr, OptimizerOptions::All()));
  const ExecutionMetrics& m = expected.metrics;

  EXPECT_EQ(ProfileTotal(profile, "rounds"),
            static_cast<uint64_t>(m.NumRounds()));
  EXPECT_EQ(ProfileTotal(profile, "result_rows"),
            static_cast<uint64_t>(expected.table.num_rows()));
  EXPECT_EQ(ProfileTotal(profile, "bytes_to_sites"), m.BytesToSites());
  EXPECT_EQ(ProfileTotal(profile, "bytes_to_coord"), m.BytesToCoord());
  EXPECT_EQ(ProfileTotal(profile, "bytes_total"), m.TotalBytes());
  EXPECT_EQ(ProfileTotal(profile, "groups_to_sites"),
            static_cast<uint64_t>(m.GroupsToSites()));
  EXPECT_EQ(ProfileTotal(profile, "groups_to_coord"),
            static_cast<uint64_t>(m.GroupsToCoord()));
  // Internal consistency of the rendered totals.
  EXPECT_EQ(ProfileTotal(profile, "bytes_total"),
            ProfileTotal(profile, "bytes_to_sites") +
                ProfileTotal(profile, "bytes_to_coord"));
  EXPECT_NE(profile.find("=== rounds ==="), std::string::npos);
  EXPECT_NE(profile.find("=== per-site load ==="), std::string::npos);
}

TEST(MetricsServingTest, ProfileReportsCacheHitProvenance) {
  EnabledGuard enabled;
  auto srv = MakeLoadedServer();
  Client client(srv.get());
  ASSERT_OK_AND_ASSIGN(std::string ignored,
                       client.Call(std::string("QUERY ") + kChain));
  ASSERT_OK_AND_ASSIGN(std::string profile,
                       client.Call(std::string("PROFILE ") + kChain));
  EXPECT_NE(profile.find("result cache hit"), std::string::npos);
  EXPECT_EQ(profile.find("=== rounds ==="), std::string::npos);
}

// ---- Registry = Σ per-query records (DESIGN.md invariant 13) -------------

/// The registry's distributed and scan instruments: a counter's value or a
/// histogram's observation count by name, and each histogram's sum.
struct DistReading {
  std::map<std::string, uint64_t> counts;
  std::map<std::string, double> sums;
};

DistReading ReadDistInstruments() {
  DistReading reading;
  for (const obs::MetricValue& v : obs::SnapshotMetrics()) {
    if (v.name.rfind("skalla_dist_", 0) != 0 &&
        v.name.rfind("skalla_gmdj_rows_", 0) != 0) {
      continue;
    }
    if (v.kind == obs::MetricKind::kHistogram) {
      reading.counts[v.name] = v.hist_count;
      reading.sums[v.name] = v.hist_sum;
    } else {
      reading.counts[v.name] = v.counter_value;
    }
  }
  return reading;
}

/// How far instrument `name` moved from `before` to `after` (a name never
/// published reads 0).
uint64_t Moved(const DistReading& before, const DistReading& after,
               const std::string& name) {
  const auto count = [&name](const DistReading& reading) -> uint64_t {
    const auto it = reading.counts.find(name);
    return it == reading.counts.end() ? 0 : it->second;
  };
  return count(after) - count(before);
}

/// What the registry must gain from `queries`, summed over their records:
/// the instrument counts, and the round-seconds sums in *sums.
std::map<std::string, uint64_t> SumOfRecords(
    const std::vector<ExecutionMetrics>& queries,
    std::map<std::string, double>* sums) {
  std::map<std::string, uint64_t> want;
  for (const ExecutionMetrics& m : queries) {
    want["skalla_dist_rounds_total"] += static_cast<uint64_t>(m.NumRounds());
    want["skalla_dist_retries_total"] += static_cast<uint64_t>(m.Retries());
    want["skalla_dist_timeouts_total"] += static_cast<uint64_t>(m.Timeouts());
    want["skalla_dist_drops_total"] += static_cast<uint64_t>(m.Drops());
    want["skalla_dist_failovers_total"] +=
        static_cast<uint64_t>(m.Failovers());
    want["skalla_dist_bytes_shipped_total"] += m.TotalBytes();
    want["skalla_dist_bytes_saved_by_delta_total"] += m.BytesSavedByDelta();
    want["skalla_gmdj_rows_scanned_total"] +=
        static_cast<uint64_t>(m.DetailRowsScanned());
    want["skalla_gmdj_rows_matched_total"] +=
        static_cast<uint64_t>(m.DetailRowsMatched());
    for (const RoundMetrics& r : m.rounds) {
      for (const SiteLoad& load : r.exchanges) {
        if (load.site < 0) continue;  // an aggregator hop
        const std::string site = std::to_string(load.site);
        const std::string seconds =
            "skalla_dist_site_round_seconds{site=\"" + site + "\"}";
        want[seconds] += 1;
        (*sums)[seconds] += load.cpu_sec;
        want["skalla_dist_site_bytes_total{dir=\"in\",site=\"" + site +
             "\"}"] += load.bytes_in;
        want["skalla_dist_site_bytes_total{dir=\"out\",site=\"" + site +
             "\"}"] += load.bytes_out;
      }
    }
  }
  return want;
}

/// Asserts that every distributed and scan instrument moved from `before`
/// by exactly the sum of `queries`' records — none more, none less — and,
/// when `check_sums`, that each round-seconds histogram's sum did too.
void ExpectRegistryMovedBy(const DistReading& before,
                           const std::vector<ExecutionMetrics>& queries,
                           bool check_sums = true) {
  const DistReading after = ReadDistInstruments();
  std::map<std::string, double> want_sums;
  const std::map<std::string, uint64_t> want =
      SumOfRecords(queries, &want_sums);
  for (const auto& published : after.counts) {
    const std::string& name = published.first;
    const auto expected = want.find(name);
    EXPECT_EQ(Moved(before, after, name),
              expected == want.end() ? 0 : expected->second)
        << name;
  }
  for (const auto& expected : want) {
    EXPECT_EQ(after.counts.count(expected.first), 1u)
        << expected.first << " is not published";
  }
  if (!check_sums) return;
  for (const auto& [name, sum] : want_sums) {
    const auto was = before.sums.find(name);
    const auto now = after.sums.find(name);
    ASSERT_NE(now, after.sums.end()) << name;
    EXPECT_NEAR(now->second - (was == before.sums.end() ? 0 : was->second),
                sum, 1e-9)
        << name;
  }
}

void LoadSmallTpcr(Warehouse* wh) {
  TpcConfig config;
  config.num_rows = 1500;
  config.num_customers = 120;
  config.seed = 31;
  ASSERT_OK(wh->LoadByRange("TPCR", GenerateTpcr(config), "NationKey", 0, 24,
                            {"CustKey"}));
}

/// The paper's four queries, flat and on a fan-in-2 tree, under None() and
/// All(), with delta shipping on and a recoverable schedule: site 1 dies
/// and fails over to its replica, and two later messages are lost once.
void ExpectPaperQueriesPublishTheirRecords(bool parallel_sites) {
  NetworkConfig net;
  net.delta_shipping = true;
  Warehouse wh(4, net);
  LoadSmallTpcr(&wh);
  wh.set_local_threads(parallel_sites ? 0 : 1);
  ASSERT_OK(wh.AddReplica(/*site_id=*/1).status());
  FaultInjector injector(/*seed=*/11);
  injector.KillSite(/*site=*/1);
  injector.DropOnce(/*site=*/2, /*round=*/1, TransferDirection::kToCoordinator);
  injector.DropOnce(/*site=*/3, /*round=*/1, TransferDirection::kToSite);
  wh.set_fault_injector(&injector);

  const std::vector<GmdjExpr> paper = {
      queries::GroupReductionQuery("CustKey"),
      queries::CoalescingQuery("CustKey"),
      queries::SyncReductionQuery("CustKey"),
      queries::CombinedQuery("CustKey")};
  for (const bool tree : {false, true}) {
    SCOPED_TRACE(tree ? "fan-in-2 tree" : "flat");
    const DistReading before = ReadDistInstruments();
    std::vector<ExecutionMetrics> records;
    for (const OptimizerOptions& options :
         {OptimizerOptions::None(), OptimizerOptions::All()}) {
      for (const GmdjExpr& query : paper) {
        ASSERT_OK_AND_ASSIGN(DistributedPlan plan, wh.Plan(query, options));
        ASSERT_OK_AND_ASSIGN(QueryResult result,
                             tree ? wh.ExecutePlanTree(plan, 2)
                                  : wh.ExecutePlan(plan));
        records.push_back(std::move(result.metrics));
      }
    }
    // The schedule is exercised, not vacuous.
    int drops = 0;
    int failovers = 0;
    size_t saved = 0;
    for (const ExecutionMetrics& m : records) {
      drops += m.Drops();
      failovers += m.Failovers();
      saved += m.BytesSavedByDelta();
    }
    EXPECT_GT(drops, 0);
    EXPECT_EQ(failovers, static_cast<int>(records.size()));
    EXPECT_GT(saved, 0u);
    ExpectRegistryMovedBy(before, records);
  }
}

TEST(RegistryPublishTest, PaperQueriesPublishExactlyTheirRecords) {
  EnabledGuard enabled;
  ExpectPaperQueriesPublishTheirRecords(/*parallel_sites=*/false);
}

// The same with site tasks on the shared pool: the publisher runs on the
// coordinator thread beside them (TSan, "metrics" label).
TEST(RegistryPublishTest, ParallelSitesPublishExactlyTheirRecords) {
  EnabledGuard enabled;
  ExpectPaperQueriesPublishTheirRecords(/*parallel_sites=*/true);
}

// A killed site with no replica fails the query with kUnavailable; the
// failing round's partial record is published, so the registry's drops and
// retries move by exactly the injector's lost messages.
TEST(RegistryPublishTest, KilledSiteWithoutReplicaPublishesItsFaults) {
  EnabledGuard enabled;
  Warehouse wh(4);
  LoadSmallTpcr(&wh);
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(queries::GroupReductionQuery("CustKey"),
                               OptimizerOptions::None()));
  FaultInjector injector(/*seed=*/5);
  injector.KillSite(/*site=*/2);
  wh.set_fault_injector(&injector);

  const DistReading before = ReadDistInstruments();
  auto result = wh.ExecutePlan(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);

  uint64_t lost = 0;
  uint64_t retried = 0;
  for (const FaultEvent& event : injector.events()) {
    if (event.kind != FaultKind::kDrop && event.kind != FaultKind::kSiteDown) {
      continue;
    }
    ++lost;
    if (event.attempt > 0) ++retried;
  }
  EXPECT_EQ(lost, 3u);  // the slot's three-attempt budget
  EXPECT_EQ(retried, 2u);
  const DistReading after = ReadDistInstruments();
  EXPECT_EQ(Moved(before, after, "skalla_dist_drops_total"), lost);
  EXPECT_EQ(Moved(before, after, "skalla_dist_retries_total"), retried);
  EXPECT_EQ(Moved(before, after, "skalla_dist_failovers_total"), 0u);
  EXPECT_EQ(Moved(before, after, "skalla_dist_rounds_total"), 1u);
}

// A query cancelled at the boundary after its first round publishes that
// round, as an uncancelled run records it, and nothing more.
TEST(RegistryPublishTest, CancelledQueryPublishesOnlyItsFirstRound) {
  EnabledGuard enabled;
  Warehouse wh(4);
  LoadSmallTpcr(&wh);
  // ClerkKey is no partition attribute, so the second operator keeps its
  // own round; the base query is fused into the first, so the round
  // observer runs right after the query's first round.
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(queries::GroupReductionQuery("ClerkKey"),
                               OptimizerOptions::All()));
  ASSERT_TRUE(plan.fuse_base);
  ASSERT_OK_AND_ASSIGN(QueryResult full, wh.ExecutePlan(plan));
  ASSERT_GE(full.metrics.NumRounds(), 2);
  ExecutionMetrics first_round;
  first_round.rounds.push_back(full.metrics.rounds.front());

  std::atomic<bool> cancel{false};
  ExecHooks hooks;
  hooks.cancel = &cancel;
  hooks.round_observer = [&cancel](size_t, const Table&) {
    cancel.store(true);
  };
  const DistReading before = ReadDistInstruments();
  auto cancelled = wh.ExecutePlan(plan, hooks);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  // Site seconds differ between runs; their observation counts do not.
  ExpectRegistryMovedBy(before, {first_round}, /*check_sums=*/false);
}

}  // namespace
}  // namespace server
}  // namespace skalla
