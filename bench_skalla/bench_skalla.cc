// bench_skalla: the seeded benchmark of Skalla's analytic rounds and served
// queries (see README.md beside this file).
//
//   bench_skalla --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//                [--quick] [--out-dir <dir>]
//   bench_skalla --selftest
//   bench_skalla --list
//
// One run measures one workload. It prints progress and every metric with
// its unit and sample count, a `provenance` line, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or with --trace 1 the per-layer metrics of a traced run. It exits
// 1 when any output was wrong and 2 when it could not run.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.h"
#include "report.h"
#include "stats.h"
#include "workloads.h"

#ifndef BENCH_GIT_COMMIT
#define BENCH_GIT_COMMIT "unknown"
#endif
#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif

namespace bench_skalla {

// The workloads. Their reasons, load models, rates and limits are listed in
// BENCHMARK.json and README.md; the rates were calibrated on a 4-core host
// as about 40% and 75% of the closed-loop capacity.

const std::vector<OlapSpec>& OlapSpecs() {
  // Both keep bench_util.h's 1,500 customers per site and 3,000 clerks;
  // olap_highcard is its default warehouse.
  static const std::vector<OlapSpec> specs = {
      {"olap_highcard", {}, "CustKey"},
      {"olap_scan", {.sites = 4, .rows_per_site = 40000}, "ClerkKey"},
  };
  return specs;
}

const std::vector<ServeSpec>& ServeSpecs() {
  static const std::vector<ServeSpec> specs = {
      // name, sites, rows/site, literals/template, zipf, mutate every,
      // lo, hi (req/s), p95 limit (ms), search max (req/s), tail percentile
      {"serve_hot", 4, 10000, 12, 1.1, 0, 36000, 68000, 2.0, 200000, 99.0},
      {"serve_mixed", 4, 2500, 64, 1.0, 32, 250, 475, 250.0, 1200, 90.0},
  };
  return specs;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: bench_skalla --workload <name> --seed <n> "
               "[--seconds <s>] [--trace 0|1] [--quick] [--out-dir <dir>]\n"
               "       bench_skalla --selftest\n"
               "       bench_skalla --list\n");
  return 2;
}

/// The workload's parameters as a JSON object, for the provenance line.
std::string Params(const OlapSpec& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"sites\": %d, \"rows_per_site\": %lld, "
                "\"customers_per_site\": %lld, \"clerks\": %lld, "
                "\"group_by\": \"%s\"}",
                s.data.sites, static_cast<long long>(s.data.rows_per_site),
                static_cast<long long>(s.data.groups_per_site),
                static_cast<long long>(s.data.clerks), s.group_attr);
  return buf;
}

std::string Params(const ServeSpec& s) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"sites\": %d, \"rows_per_site\": %lld, \"texts\": %d, "
                "\"zipf\": %s, \"mutate_every\": %d, \"rate_lo\": %s, "
                "\"rate_hi\": %s, \"limit_ms\": %s, \"connections\": %d}",
                s.sites, static_cast<long long>(s.rows_per_site),
                4 * s.literals_per_template, JsonNumber(s.zipf_s).c_str(),
                s.mutate_every, JsonNumber(s.rate_lo).c_str(),
                JsonNumber(s.rate_hi).c_str(), JsonNumber(s.limit_ms).c_str(),
                kServeWorkers);
  return buf;
}

void PrintResult(const RunOptions& options, const std::string& params,
                 const Report& report) {
  for (const Metric& m : report.metrics()) {
    std::printf("metric %-30s %18.6f %-8s (n=%lld)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  for (const std::string& e : report.errors()) {
    std::printf("WRONG: %s\n", e.c_str());
  }
  std::printf(
      "provenance {\"commit\": \"%s\", \"build_type\": \"%s\", \"nproc\": %u, "
      "\"seed\": %llu, \"workload\": \"%s\", \"seconds\": %s, \"trace\": %s, "
      "\"quick\": %s, \"params\": %s}\n",
      BENCH_GIT_COMMIT, BENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(options.seed), options.workload.c_str(),
      JsonNumber(options.seconds).c_str(), options.trace ? "true" : "false",
      options.quick ? "true" : "false", params.c_str());
  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    if (!first) json += ", ";
    first = false;
    json += '"';
    json += JsonEscape(m.name);
    json += "\": {\"value\": ";
    json += JsonNumber(m.value);
    json += ", \"unit\": \"";
    json += JsonEscape(m.unit);
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Checks the measuring code itself: the tail picker, and that the open-loop
/// generator charges a stall to the requests queued behind it.
int SelfTest() {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  check(TailPercentile(9) == 0.0, "tail picker: 9 samples support nothing");
  check(TailPercentile(99) == 50.0, "tail picker: 99 samples -> p50");
  check(TailPercentile(100) == 90.0, "tail picker: 100 samples -> p90");
  check(TailPercentile(999) == 90.0, "tail picker: 999 samples -> p90");
  check(TailPercentile(1000) == 99.0, "tail picker: 1000 samples -> p99");
  check(TailPercentile(10000) == 99.9, "tail picker: 10000 samples -> p99.9");

  // A stub target behind one lock, like a server's write lock: request
  // kStall holds it for 50 ms while arrivals keep coming at 1000/s.
  constexpr size_t kStall = 100;
  constexpr double kStallS = 0.050;
  skalla::Rng rng(7);
  const std::vector<double> due = PoissonSchedule(rng, 1000.0, 0.4, 300);
  std::mutex mu;
  auto stub = [&](int, size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    if (i == kStall) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kStallS));
    }
    return true;
  };
  const PhaseResult phase = RunOpenLoop(due, kServeWorkers, stub);
  const Outcome& stalled = phase.outcomes[kStall];
  const double stall_end = stalled.sent + kStallS;
  int64_t behind = 0, charged = 0, hidden_by_send_time = 0;
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    if (i == kStall || o.due <= stalled.sent || o.due >= stall_end - 0.005) {
      continue;
    }
    ++behind;
    // Measured from its due time, a request queued behind the stall waits
    // at least until the stall ends.
    if (o.done - o.due >= stall_end - o.due - 0.001) ++charged;
    // Timing from the send instead would have hidden most of that wait.
    if ((o.done - o.due) - (o.done - o.sent) > 0.020) ++hidden_by_send_time;
  }
  check(behind >= 20, "stall: at least 20 requests came due during it (" +
                          std::to_string(behind) + ")");
  check(charged == behind, "stall: every request behind it is charged the "
                           "wait (" + std::to_string(charged) + "/" +
                               std::to_string(behind) + ")");
  check(hidden_by_send_time >= 10,
        "stall: send-time latency would hide >20 ms for >=10 requests (" +
            std::to_string(hidden_by_send_time) + ")");
  const std::vector<double> latency = LatenciesMs(phase);
  check(*std::max_element(latency.begin(), latency.end()) >= 45.0,
        "stall: the maximum latency shows the 50 ms stall");
  const std::vector<double> late = GeneratorLateMs(phase);
  const double late_p99 = Percentile(late, 99);
  std::printf("bench.gen_late_ms_p99 %.4f ms (n=%zu)\n", late_p99,
              late.size());
  check(!late.empty() && std::isfinite(late_p99) && late_p99 >= 0.0,
        "generator lateness is reported");
  std::printf("selftest: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench_skalla

int main(int argc, char** argv) {
  using namespace bench_skalla;
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--selftest") return SelfTest();
    if (arg == "--list") {
      for (const OlapSpec& s : OlapSpecs()) std::printf("%s\n", s.name);
      for (const ServeSpec& s : ServeSpecs()) std::printf("%s\n", s.name);
      return 0;
    }
    if (arg == "--quick") {
      options.quick = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return Usage();
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return Usage();
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(options.seconds > 0)) return Usage();
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return Usage();
      }
      options.trace = v[0] == '1';
    } else if (arg == "--out-dir") {
      options.out_dir = v;
    } else {
      return Usage();
    }
  }
  if (!have_seed || options.workload.empty()) return Usage();

  Report report;
  std::string params;
  for (const OlapSpec& s : OlapSpecs()) {
    if (options.workload == s.name) {
      params = Params(s);
      RunOlap(s, options, &report);
    }
  }
  for (const ServeSpec& s : ServeSpecs()) {
    if (options.workload == s.name) {
      params = Params(s);
      RunServe(s, options, &report);
    }
  }
  if (params.empty()) {
    std::fprintf(stderr, "bench_skalla: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  PrintResult(options, params, report);
  return report.correct() ? 0 : 1;
}
