// Sustained throughput of the concurrent serving layer (src/server/).
//
// A closed-loop mixed workload: N in-process clients drive one Server over
// the wire protocol, each sending its next request only once the previous
// reply arrived (Client::Call blocks) and issuing its deterministic slice of
// a shared template mix (plain groupings through three-operator correlated
// chains, plus a MUTATE stream in the mixed configuration). Reported per
// configuration: sustained QPS, p50/p99 per-query latency, and the
// result-cache hit rate. The percentiles come from the serving layer's own
// per-lane latency histograms (skalla_server_query_seconds{lane="normal"}
// in the metrics registry, ISSUE 9) — the same numbers an operator reads
// off METRICS — rather than bench-side percentile math; the registry is
// reset between configurations so each reads its own window.
//
// Configurations:
//   cache_off      — every query executes (the serving floor)
//   cache_on       — repeats hit the result cache (the serving ceiling)
//   cache_mutating — caching on, but a mutation stream keeps invalidating
//
//   ./bench_server_qps [--quick]
//
// --quick shrinks the load and query counts for the CI smoke step; the
// JSON shape (BENCH_server_qps.json) is identical.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "storage/csv.h"

namespace {

using namespace skalla;
using Clock = std::chrono::steady_clock;

const char* const kTemplates[] = {
    "SELECT CustKey, COUNT(*) AS cnt FROM TPCR GROUP BY CustKey",
    "SELECT ClerkKey, SUM(Quantity) AS sq FROM TPCR GROUP BY ClerkKey",
    "SELECT NationKey, COUNT(*) AS cnt, SUM(Quantity) AS sq FROM TPCR "
    "GROUP BY NationKey EXTEND COUNT(*) AS small WHERE Quantity <= sq / cnt",
    "SELECT MktSegment, COUNT(*) AS cnt FROM TPCR GROUP BY MktSegment "
    "EXTEND SUM(Quantity) AS hi WHERE Quantity >= 25 "
    "EXTEND COUNT(*) AS lo WHERE Quantity <= 5",
    "SELECT CustKey, COUNT(*) AS cnt FROM TPCR GROUP BY CustKey "
    "EXTEND SUM(Quantity) AS sq WHERE Quantity >= cnt",
};
constexpr size_t kNumTemplates = sizeof(kTemplates) / sizeof(kTemplates[0]);

struct WorkloadResult {
  double wall_sec = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double hit_rate = 0;
  uint64_t queries = 0;
};

std::unique_ptr<server::Server> MakeServer(bool caches_on, int64_t rows) {
  server::ServerOptions opts;
  opts.admission.max_concurrent = 4;
  opts.enable_result_cache = caches_on;
  opts.enable_prefix_reuse = caches_on;
  auto srv = std::make_unique<server::Server>(4, opts);
  server::Client admin(srv.get());
  auto loaded = admin.Call("LOAD tpcr " + std::to_string(rows));
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    std::abort();
  }
  return srv;
}

// A MUTATE row every site admits: the loaded relation's first row.
std::string MutateCommand(server::Server* srv) {
  auto table = srv->warehouse().central_catalog().GetTable("TPCR");
  Table one((*table)->schema_ptr());
  one.AddRow((*table)->row(0));
  std::string csv = CsvToString(one);
  std::string row = csv.substr(csv.find('\n') + 1);
  if (!row.empty() && row.back() == '\n') row.pop_back();
  return "MUTATE TPCR APPEND " + row;
}

WorkloadResult RunWorkload(bool caches_on, bool mutating, int clients,
                           int queries_per_client, int64_t rows) {
  auto srv = MakeServer(caches_on, rows);
  const std::string mutate_cmd = mutating ? MutateCommand(srv.get()) : "";

  // Each configuration reads its own latency window off the registry.
  obs::EnableMetrics(true);
  obs::ResetMetrics();

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      server::Client client(srv.get());
      for (int i = 0; i < queries_per_client; ++i) {
        // Deterministic mixed schedule: client c's i-th request walks the
        // template ring with a per-client stride; in the mutating
        // configuration every 8th request of client 0 is a MUTATE.
        if (mutating && c == 0 && i % 8 == 7) {
          auto reply = client.Call(mutate_cmd);
          if (!reply.ok()) {
            std::fprintf(stderr, "mutate failed: %s\n",
                         reply.status().ToString().c_str());
            std::abort();
          }
          continue;
        }
        const size_t t = (static_cast<size_t>(c) * 3 +
                          static_cast<size_t>(i)) %
                         kNumTemplates;
        auto reply = client.Call(std::string("QUERY ") + kTemplates[t]);
        if (!reply.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       reply.status().ToString().c_str());
          std::abort();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  WorkloadResult out;
  out.wall_sec = std::chrono::duration<double>(Clock::now() - start).count();
  // All bench queries run at the default priority, i.e. the normal lane;
  // the server observed every end-to-end latency into this histogram.
  obs::Histogram& lane = obs::GetHistogram(
      "skalla_server_query_seconds{lane=\"normal\"}",
      obs::HistogramLayout::LatencySeconds());
  out.queries = lane.Count();
  out.qps = static_cast<double>(out.queries) / out.wall_sec;
  out.p50_ms = lane.Quantile(0.50) * 1e3;
  out.p99_ms = lane.Quantile(0.99) * 1e3;
  const server::ServerStats stats = srv->stats();
  const uint64_t probes = stats.cache.hits + stats.cache.misses;
  out.hit_rate = probes == 0
                     ? 0.0
                     : static_cast<double>(stats.cache.hits) /
                           static_cast<double>(probes);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int clients = quick ? 4 : 8;
  const int queries_per_client = quick ? 12 : 60;
  const int64_t rows = quick ? 4000 : 20000;

  bench::JsonReport report("server_qps");
  bench::PrintSeriesHeader(
      "Serving-layer sustained throughput",
      "config            qps      p50 ms   p99 ms   hit rate");

  struct Config {
    const char* name;
    bool caches_on;
    bool mutating;
  };
  const Config configs[] = {
      {"cache_off", false, false},
      {"cache_on", true, false},
      {"cache_mutating", true, true},
  };
  for (const Config& config : configs) {
    const WorkloadResult r = RunWorkload(config.caches_on, config.mutating,
                                         clients, queries_per_client, rows);
    std::printf("%-16s %8.1f %8.2f %8.2f %9.2f\n", config.name, r.qps,
                r.p50_ms, r.p99_ms, r.hit_rate);
    report.Add(config.name,
               {{"clients", static_cast<double>(clients)},
                {"queries", static_cast<double>(r.queries)},
                {"rows", static_cast<double>(rows)},
                {"qps", r.qps},
                {"p50_ms", r.p50_ms},
                {"p99_ms", r.p99_ms},
                {"hit_rate", r.hit_rate}},
               r.wall_sec * 1000.0);
  }
  return 0;
}
