// The paper notes the coordinator "may consist of multiple instances,
// e.g., each client may have its own coordinator instance" (Sect. 3.1).
// Warehouse::Execute builds a fresh Coordinator per call and sites are
// read-only during evaluation, so concurrent clients are supported; these
// tests pin that property — first directly on the Warehouse, then through
// the serving layer (src/server/), where N randomized clients race mixed
// query templates against one Server and every response must be
// byte-identical to the serial single-client execution, with caching on
// or off (DESIGN.md invariant 10). A query's own metrics — scan counts and
// per-site load — must be exactly those of a solo run, however many
// queries run beside it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "server/server.h"
#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

TEST(ConcurrentQueriesTest, ParallelClientsGetCorrectResults) {
  Warehouse wh(4);
  TpcConfig config;
  config.num_rows = 6000;
  config.num_customers = 400;
  Table tpcr = GenerateTpcr(config);
  ASSERT_OK(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 24, {"CustKey"}));

  const std::vector<GmdjExpr> queries = {
      queries::GroupReductionQuery("CustKey"),
      queries::CoalescingQuery("ClerkKey"),
      queries::SyncReductionQuery("CustKey"),
      queries::CombinedQuery("CustKey"),
      queries::MultiFeatureQuery("NationKey"),
  };

  // Sequential oracle first.
  std::vector<Table> expected;
  for (const GmdjExpr& query : queries) {
    auto result = wh.ExecuteCentralized(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(std::move(result).ValueUnsafe());
  }

  // Then 3 rounds of all five queries racing on the shared sites, with
  // alternating optimizer settings.
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<Result<QueryResult>>> futures;
    for (size_t q = 0; q < queries.size(); ++q) {
      const OptimizerOptions options = (round + q) % 2 == 0
                                           ? OptimizerOptions::All()
                                           : OptimizerOptions::None();
      futures.push_back(std::async(
          std::launch::async,
          [&wh, &queries, q, options]() {
            return wh.Execute(queries[q], options);
          }));
    }
    for (size_t q = 0; q < futures.size(); ++q) {
      auto result = futures[q].get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectSameRows(result->table, expected[q]);
    }
  }
}

/// Every count a query reports about itself: its scan counts and its
/// per-site load rows (CPU seconds excluded — they are timings).
void ExpectSameAccounting(const ExecutionMetrics& actual,
                          const ExecutionMetrics& solo) {
  EXPECT_EQ(actual.DetailRowsScanned(), solo.DetailRowsScanned());
  EXPECT_EQ(actual.DetailRowsMatched(), solo.DetailRowsMatched());
  EXPECT_EQ(actual.MorselsVectorized(), solo.MorselsVectorized());
  EXPECT_EQ(actual.MorselsScalar(), solo.MorselsScalar());
  const StragglerReport got = BuildStragglerReport(actual);
  const StragglerReport want = BuildStragglerReport(solo);
  ASSERT_EQ(got.sites.size(), want.sites.size());
  for (size_t i = 0; i < got.sites.size(); ++i) {
    const SiteLoad& g = got.sites[i];
    const SiteLoad& w = want.sites[i];
    SCOPED_TRACE("site " + std::to_string(w.site));
    EXPECT_EQ(g.site, w.site);
    EXPECT_EQ(g.bytes_in, w.bytes_in);
    EXPECT_EQ(g.bytes_out, w.bytes_out);
    EXPECT_EQ(g.groups_in, w.groups_in);
    EXPECT_EQ(g.groups_out, w.groups_out);
    EXPECT_EQ(g.attempts, w.attempts);
    EXPECT_EQ(g.retries, w.retries);
    EXPECT_EQ(g.timeouts, w.timeouts);
    EXPECT_EQ(g.drops, w.drops);
    EXPECT_EQ(g.failovers, w.failovers);
  }
}

TEST(ConcurrentQueriesTest, ConcurrentMetricsEqualSoloRuns) {
  // No replicas, so the skew detector never splits a round and every run
  // of a query drives the same exchanges.
  Warehouse wh(4);
  TpcConfig config;
  config.num_rows = 6000;
  config.num_customers = 400;
  ASSERT_OK(wh.LoadByRange("TPCR", GenerateTpcr(config), "NationKey", 0, 24,
                           {"CustKey"}));
  const std::vector<GmdjExpr> queries = {
      queries::GroupReductionQuery("CustKey"),
      queries::CoalescingQuery("ClerkKey"),
      queries::SyncReductionQuery("CustKey"),
      queries::CombinedQuery("CustKey"),
      queries::MultiFeatureQuery("NationKey"),
  };
  auto options_of = [](size_t q) {
    return q % 2 == 0 ? OptimizerOptions::All() : OptimizerOptions::None();
  };

  std::vector<ExecutionMetrics> solo;
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_OK_AND_ASSIGN(QueryResult result,
                         wh.Execute(queries[q], options_of(q)));
    EXPECT_GT(result.metrics.DetailRowsScanned(), 0);
    solo.push_back(std::move(result.metrics));
  }

  constexpr int kReps = 3;
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t q = 0; q < queries.size(); ++q) {
      futures.push_back(std::async(std::launch::async, [&, q]() {
        return wh.Execute(queries[q], options_of(q));
      }));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const size_t q = i % queries.size();
    SCOPED_TRACE("query " + std::to_string(q));
    auto result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameAccounting(result->metrics, solo[q]);
  }
}

TEST(ConcurrentQueriesTest, MixedFlatAndTreeClients) {
  Warehouse wh(8);
  TpcConfig config;
  config.num_rows = 4000;
  config.num_customers = 300;
  Table tpcr = GenerateTpcr(config);
  ASSERT_OK(wh.LoadByRange("TPCR", tpcr, "NationKey", 0, 24, {"CustKey"}));

  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(Table expected, wh.ExecuteCentralized(query));
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::None()));

  auto flat = std::async(std::launch::async,
                         [&wh, &plan]() { return wh.ExecutePlan(plan); });
  auto tree2 = std::async(std::launch::async,
                          [&wh, &plan]() { return wh.ExecutePlanTree(plan, 2); });
  auto tree4 = std::async(std::launch::async,
                          [&wh, &plan]() { return wh.ExecutePlanTree(plan, 4); });
  for (auto* f : {&flat, &tree2, &tree4}) {
    auto result = f->get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(result->table, expected);
  }
}

// ---- Server stress: randomized multi-client byte-identity ------------------

// Mixed workload in the OLAP dialect, from a plain grouping to a
// three-operator correlated chain.
const char* const kTemplates[] = {
    "SELECT CustKey, COUNT(*) AS cnt FROM TPCR GROUP BY CustKey",
    "SELECT ClerkKey, SUM(Quantity) AS sq FROM TPCR GROUP BY ClerkKey "
    "EXTEND COUNT(*) AS big WHERE Quantity >= 30",
    "SELECT NationKey, COUNT(*) AS cnt, SUM(Quantity) AS sq FROM TPCR "
    "GROUP BY NationKey EXTEND COUNT(*) AS small WHERE Quantity <= sq / cnt",
    "SELECT MktSegment, COUNT(*) AS cnt FROM TPCR GROUP BY MktSegment "
    "EXTEND SUM(Quantity) AS hi WHERE Quantity >= 25 "
    "EXTEND COUNT(*) AS lo WHERE Quantity <= 5",
    "SELECT RegionKey, AVG(Quantity) AS aq FROM TPCR GROUP BY RegionKey",
};
constexpr size_t kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

// A server with a deterministically generated TPCR load (the LOAD command
// recipe, so every server in the test holds identical bytes).
std::unique_ptr<server::Server> MakeLoadedServer(server::ServerOptions opts) {
  auto srv = std::make_unique<server::Server>(4, opts);
  server::Client admin(srv.get());
  auto loaded = admin.Call("LOAD tpcr 4000");
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return srv;
}

// Serial single-client oracle payloads, computed with caching disabled.
std::vector<std::string> OraclePayloads() {
  server::ServerOptions opts;
  opts.enable_result_cache = false;
  opts.enable_prefix_reuse = false;
  auto oracle = MakeLoadedServer(opts);
  server::Client client(oracle.get());
  std::vector<std::string> expected;
  for (const char* text : kTemplates) {
    auto payload = client.Call(std::string("QUERY ") + text);
    EXPECT_TRUE(payload.ok()) << payload.status().ToString();
    expected.push_back(payload.ok() ? *payload : "");
  }
  return expected;
}

void StressServer(bool caches_on) {
  server::ServerOptions opts;
  opts.admission.max_concurrent = 3;
  opts.enable_result_cache = caches_on;
  opts.enable_prefix_reuse = caches_on;
  auto srv = MakeLoadedServer(opts);
  const std::vector<std::string> expected = OraclePayloads();

  constexpr int kClients = 6;
  constexpr int kQueriesPerClient = 8;
  const char* const kPriorities[] = {"low", "normal", "high"};
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      server::Client client(srv.get());
      Rng rng(0xC0FFEE + static_cast<uint64_t>(c) * 7919);
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const size_t t = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(kNumTemplates) - 1));
        std::string cmd = "QUERY PRIORITY ";
        cmd += kPriorities[rng.Uniform(0, 2)];
        // Randomized per-query morsel-lane quota: the quota multiplexes
        // the shared pool and must never change a byte of the answer.
        cmd += " THREADS " + std::to_string(rng.Uniform(0, 2));
        if (rng.Chance(0.25)) cmd += " NOCACHE";
        cmd += " ";
        cmd += kTemplates[t];
        auto payload = client.Call(cmd);
        if (!payload.ok()) {
          failures[c] = payload.status().ToString();
          return;
        }
        if (*payload != expected[t]) {
          failures[c] = "template " + std::to_string(t) +
                        ": concurrent payload differs from serial oracle";
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }

  const server::ServerStats stats = srv->stats();
  EXPECT_EQ(stats.queries_submitted, kClients * kQueriesPerClient);
  EXPECT_EQ(stats.queries_completed, kClients * kQueriesPerClient);
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.queued, 0u);
  if (caches_on) {
    // 48 queries over 5 templates: repeats must hit.
    EXPECT_GT(stats.cache.hits, 0u);
  } else {
    EXPECT_EQ(stats.cache.hits, 0u);
    EXPECT_EQ(stats.cache.stores, 0u);
  }
}

TEST(ServerStressTest, RandomizedClientsMatchSerialOracleCacheOff) {
  StressServer(/*caches_on=*/false);
}

TEST(ServerStressTest, RandomizedClientsMatchSerialOracleCacheOn) {
  StressServer(/*caches_on=*/true);
}

/// The integer after `\n<key> ` in a PROFILE payload's totals section.
uint64_t ProfileTotal(const std::string& profile, const std::string& key) {
  const std::string needle = "\n" + key + " ";
  const size_t pos = profile.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in:\n" << profile;
  if (pos == std::string::npos) return 0;
  return std::strtoull(profile.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(ServerStressTest, ProfileSiteLoadIsTheQuerysOwn) {
  const std::string chain =
      "SELECT CustKey, COUNT(*) AS cnt FROM TPCR GROUP BY CustKey "
      "EXTEND SUM(Quantity) AS sq WHERE Quantity >= cnt";
  auto srv = MakeLoadedServer(server::ServerOptions());

  // A second client loops the same uncached query for the whole test.
  std::atomic<bool> stop{false};
  std::atomic<bool> background_failed{false};
  std::atomic<int> background_runs{0};
  std::string background_error;  // read after join
  std::thread background([&]() {
    server::Client client(srv.get());
    while (!stop.load()) {
      auto payload = client.Call("QUERY NOCACHE " + chain);
      if (!payload.ok()) {
        background_error = payload.status().ToString();
        background_failed.store(true);
        return;
      }
      background_runs.fetch_add(1);
    }
  });
  while (background_runs.load() == 0 && !background_failed.load()) {
    std::this_thread::yield();
  }

  server::Client client(srv.get());
  for (int i = 0; i < 8; ++i) {
    auto profile = client.Call("PROFILE NOCACHE " + chain);
    ASSERT_TRUE(profile.ok()) << profile.status().ToString();
    const uint64_t rounds = ProfileTotal(*profile, "rounds");
    const size_t section = profile->find("=== per-site load");
    ASSERT_NE(section, std::string::npos) << *profile;
    std::istringstream lines(profile->substr(section));
    std::string line;
    std::getline(lines, line);  // section title
    std::getline(lines, line);  // column header
    uint64_t bytes_in = 0, bytes_out = 0;
    int rows = 0;
    while (std::getline(lines, line) &&
           line.find("skew") == std::string::npos) {
      int site = 0, attempts = 0, retries = 0, timeouts = 0, drops = 0,
          failovers = 0;
      double cpu = 0;
      unsigned long long in = 0, out = 0;
      long long groups_in = 0, groups_out = 0;
      ASSERT_EQ(std::sscanf(line.c_str(),
                            "%d %lf %llu/%llu %lld/%lld %d %d %d %d %d",
                            &site, &cpu, &in, &out, &groups_in, &groups_out,
                            &attempts, &retries, &timeouts, &drops,
                            &failovers),
                11)
          << line;
      bytes_in += in;
      bytes_out += out;
      ++rows;
      EXPECT_EQ(static_cast<uint64_t>(attempts), rounds) << line;
    }
    EXPECT_EQ(rows, 4);
    EXPECT_EQ(bytes_in, ProfileTotal(*profile, "bytes_to_sites"));
    EXPECT_EQ(bytes_out, ProfileTotal(*profile, "bytes_to_coord"));
  }
  stop.store(true);
  background.join();
  EXPECT_TRUE(background_error.empty()) << background_error;
}

// THREADS caps a query's site fan-out as well as its morsel lanes:
// `THREADS 1` evaluates the sites one after another in slot order, the
// default quota on the shared pool. Neither the answer nor the bytes the
// query ships may differ.
TEST(ServerStressTest, LaneQuotaOfOneMatchesTheDefaultByteForByte) {
  server::ServerOptions opts;
  opts.enable_result_cache = false;
  opts.enable_prefix_reuse = false;
  auto srv = MakeLoadedServer(opts);
  server::Client client(srv.get());
  for (const char* text : kTemplates) {
    SCOPED_TRACE(text);
    auto serial = client.Call(std::string("QUERY THREADS 1 ") + text);
    auto parallel = client.Call(std::string("QUERY ") + text);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(*serial, *parallel);

    auto serial_profile = client.Call(std::string("PROFILE THREADS 1 ") + text);
    auto parallel_profile = client.Call(std::string("PROFILE ") + text);
    ASSERT_TRUE(serial_profile.ok()) << serial_profile.status().ToString();
    ASSERT_TRUE(parallel_profile.ok()) << parallel_profile.status().ToString();
    const uint64_t bytes = ProfileTotal(*serial_profile, "bytes_total");
    EXPECT_GT(bytes, 0u);
    EXPECT_EQ(bytes, ProfileTotal(*parallel_profile, "bytes_total"));
  }
}

}  // namespace
}  // namespace skalla
