// Metrics-registry correctness (ISSUE 9): exact totals under concurrent
// hammering (run under TSan via the "metrics" ctest label), disabled-mode
// no-op semantics, exposition/JSONL formats, the STATS additive contract,
// and the PROFILE verb's round-trip equality with the query's own
// ExecutionMetrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "server/server.h"
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

}  // namespace
}  // namespace server
}  // namespace skalla
