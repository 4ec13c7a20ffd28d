// The serve workloads: parameterised QUERY texts (and MUTATEs) sent through
// server::Client connections, closed loop and then open loop with Poisson
// arrivals.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "layers.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "stats.h"
#include "storage/csv.h"
#include "tpc/dbgen.h"
#include "trace.h"
#include "workloads.h"

namespace bench_skalla {

using namespace skalla;

namespace {

/// Four query shapes, each with one literal: groupings whose results stay
/// small (so a cache hit costs framing and lookup, not copying), a
/// correlated chain whose first two operators every literal shares (so the
/// prefix cache has something to resume), and a base-side filter.
struct ServeTemplate {
  const char* format;  ///< one %lld for the literal
  int64_t literal_min;
  int64_t literal_max;
};

const ServeTemplate kServeTemplates[] = {
    {"SELECT NationKey, COUNT(*) AS cnt, SUM(Quantity) AS sq FROM TPCR "
     "GROUP BY NationKey EXTEND COUNT(*) AS late WHERE OrderDate >= %lld",
     1, 2400},
    {"SELECT MktSegment, COUNT(*) AS cnt FROM TPCR GROUP BY MktSegment "
     "EXTEND SUM(ExtendedPrice) AS rich WHERE ExtendedPrice >= %lld",
     1000, 100000},
    {"SELECT ShipMode, COUNT(*) AS cnt, SUM(Quantity) AS sq FROM TPCR "
     "GROUP BY ShipMode EXTEND COUNT(*) AS small WHERE Quantity <= sq / cnt "
     "EXTEND COUNT(*) AS recent WHERE OrderDate >= %lld",
     1, 2400},
    {"SELECT OrderPriority, COUNT(*) AS cnt, AVG(Discount) AS ad FROM TPCR "
     "WHERE OrderDate >= %lld GROUP BY OrderPriority",
     1, 2400},
};

/// How a run's measured seconds are shared out: the closed loop (in
/// kSetups windows), the `lo` and `hi` fixed rates, and the capacity search.
constexpr double kClosedShare = 0.30;
constexpr double kLoShare = 0.30;
constexpr double kHiShare = 0.20;
constexpr double kSearchShare = 0.20;

/// The open-loop phases are cut into at most kMaxWindows windows of at least
/// kWindowRequests requests. The faster half of a phase's windows is
/// reported.
constexpr int kMaxWindows = 16;
constexpr size_t kWindowRequests = 250;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "bench_skalla: %s\n", what.c_str());
  std::exit(2);
}

/// Distinct texts: template-major, one literal drawn from each of
/// `literals_per_template` equal strata of the template's range, so that
/// every seed spreads the filters' selectivities alike.
std::vector<std::string> MakeTexts(Rng& rng, int literals_per_template) {
  std::vector<std::string> texts;
  for (const ServeTemplate& t : kServeTemplates) {
    const double width =
        static_cast<double>(t.literal_max - t.literal_min + 1) /
        literals_per_template;
    for (int i = 0; i < literals_per_template; ++i) {
      const int64_t literal = rng.Uniform(
          t.literal_min + static_cast<int64_t>(i * width),
          t.literal_min + static_cast<int64_t>((i + 1) * width) - 1);
      char buf[512];
      std::snprintf(buf, sizeof(buf), t.format,
                    static_cast<long long>(literal));
      texts.push_back(buf);
    }
  }
  return texts;
}

std::unique_ptr<server::Server> MakeServer(const ServeSpec& spec,
                                           const Table& tpcr,
                                           int64_t num_nations, bool caches) {
  auto warehouse = std::make_unique<Warehouse>(spec.sites);
  Status loaded = warehouse->LoadByRange("TPCR", tpcr, "NationKey", 0,
                                         num_nations - 1,
                                         {"CustKey", "ClerkKey"});
  if (!loaded.ok()) Die("load failed: " + loaded.ToString());
  server::ServerOptions options;
  options.enable_result_cache = caches;
  options.enable_prefix_reuse = caches;
  return std::make_unique<server::Server>(std::move(warehouse), options);
}

/// The value of a `key value` line of a PROFILE payload.
double ProfileValue(const std::string& payload, const std::string& key) {
  const size_t at = payload.find("\n" + key + " ");
  if (at == std::string::npos) return -1.0;
  return std::strtod(payload.c_str() + at + key.size() + 2, nullptr);
}

/// What the warm-up measured: per executed text, bytes shipped and the
/// modelled response time, from the PROFILE verb's totals.
struct WarmUp {
  std::vector<double> bytes;
  std::vector<double> response_ms;
};

/// Warm-up: PROFILE every text once in template order. PROFILE takes the
/// QUERY path, so this fills the caches and builds the columnar views.
WarmUp WarmUpServer(server::Server* srv, const std::vector<std::string>& texts) {
  WarmUp out;
  server::Client client(srv);
  for (const std::string& text : texts) {
    Result<std::string> profile = client.Call("PROFILE " + text);
    if (!profile.ok()) Die("warm-up failed: " + profile.status().ToString());
    out.bytes.push_back(ProfileValue(*profile, "bytes_total"));
    out.response_ms.push_back(ProfileValue(*profile, "response_seconds") *
                              1e3);
  }
  return out;
}

/// A MUTATE that appends a copy of a seeded row of the loaded relation, so
/// some site's partition predicate admits it.
std::string MutateCommand(server::Server* srv, Rng& rng) {
  Result<std::shared_ptr<const Table>> table =
      srv->warehouse().central_catalog().GetTable("TPCR");
  if (!table.ok()) Die("no TPCR table");
  Table one((*table)->schema_ptr());
  one.AddRow((*table)->row(rng.Uniform(0, (*table)->num_rows() - 1)));
  std::string csv = CsvToString(one);
  std::string row = csv.substr(csv.find('\n') + 1);
  if (!row.empty() && row.back() == '\n') row.pop_back();
  return "MUTATE TPCR APPEND " + row;
}

/// The skalla_server_queue_wait_seconds{lane="normal"} histogram out of a
/// `METRICS JSON` payload (bounds and bucket counts only).
obs::MetricValue QueueWaitHistogram(const std::string& jsonl) {
  obs::MetricValue v;
  v.kind = obs::MetricKind::kHistogram;
  const std::string name =
      R"("name":"skalla_server_queue_wait_seconds{lane=\"normal\"}")";
  const size_t at = jsonl.find(name);
  if (at == std::string::npos) return v;
  const size_t line_end = jsonl.find('\n', at);
  auto list = [&](const char* key) {
    std::vector<double> out;
    size_t pos = jsonl.find(key, at);
    if (pos == std::string::npos || pos > line_end) return out;
    pos += std::string(key).size();
    const char* p = jsonl.c_str() + pos;
    while (*p != ']') {
      char* end = nullptr;
      out.push_back(std::strtod(p, &end));
      p = *end == ',' ? end + 1 : end;
    }
    return out;
  };
  v.bounds = list("\"bounds\":[");
  for (double b : list("\"buckets\":[")) {
    v.buckets.push_back(static_cast<uint64_t>(b));
    v.hist_count += static_cast<uint64_t>(b);
  }
  return v;
}

obs::MetricValue HistogramDelta(const obs::MetricValue& before,
                                const obs::MetricValue& after) {
  obs::MetricValue d = after;
  d.hist_count = 0;
  for (size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] -= i < before.buckets.size() ? before.buckets[i] : 0;
    d.hist_count += d.buckets[i];
  }
  return d;
}

std::string MetricsJson(server::Server* srv) {
  server::Client client(srv);
  Result<std::string> payload = client.Call("METRICS JSON");
  if (!payload.ok()) Die("METRICS JSON failed");
  return *payload;
}

/// Drives the phases of one run: the request streams, the client
/// connections, correctness of every reply, and the optional tracing.
class Traffic {
 public:
  Traffic(server::Server* srv, const ServeSpec& spec,
         const std::vector<std::string>& texts, std::string mutate,
         const std::vector<std::string>* oracle, uint64_t seed,
         Report* report)
      : spec_(spec),
        oracle_(oracle),
        report_(report),
        rng_(seed * 0xbf58476d1ce4e5b9ULL + 3) {
    for (const std::string& t : texts) commands_.push_back("QUERY " + t);
    commands_.push_back(std::move(mutate));
    // Which text is hot depends on the seed.
    for (size_t i = 0; i < texts.size(); ++i) rank_to_text_.push_back(i);
    for (size_t i = rank_to_text_.size() - 1; i > 0; --i) {
      std::swap(rank_to_text_[i],
                rank_to_text_[static_cast<size_t>(
                    rng_.Uniform(0, static_cast<int64_t>(i)))]);
    }
    Connect(srv);
  }

  /// Opens the connections to `srv`.
  void Connect(server::Server* srv) {
    for (int w = 0; w < kServeWorkers; ++w) {
      clients_.push_back(std::make_unique<server::Client>(srv));
    }
  }

  /// Closes the connections, before their server goes away.
  void Disconnect() { clients_.clear(); }

  /// Spans per worker, or none when tracing is off.
  void EnableTracing(Clock::time_point epoch) {
    for (int w = 0; w < kServeWorkers; ++w) {
      buffers_.push_back(std::make_unique<SpanBuffer>(epoch));
    }
  }

  /// One open-loop phase at `rate` for `seconds` (at least `min_count`
  /// requests). With `traced_chunks` and tracing on, the requests of
  /// alternate quarter-seconds are traced; otherwise none are.
  PhaseResult Open(double rate, double seconds, int64_t min_count,
                   bool traced_chunks = false,
                   double abandon_after_s =
                       std::numeric_limits<double>::infinity()) {
    const std::vector<double> due =
        PoissonSchedule(rng_, rate, seconds, min_count);
    const std::vector<size_t> stream = Stream(due.size());
    traced_chunks = traced_chunks && !buffers_.empty();
    std::vector<char> traced(due.size(), 0);
    for (size_t i = 0; i < due.size(); ++i) {
      traced[i] = traced_chunks && static_cast<int64_t>(due[i] / 0.25) % 2 == 1;
    }
    const int64_t first_request = next_request_;
    PhaseResult phase = RunOpenLoop(
        due, kServeWorkers,
        [&](int w, size_t i) {
          return Send(w, stream[i], first_request + static_cast<int64_t>(i),
                      traced[i] != 0);
        },
        abandon_after_s);
    Account(phase, stream);
    if (traced_chunks) {
      for (size_t i = 0; i < phase.outcomes.size(); ++i) {
        const Outcome& o = phase.outcomes[i];
        if (!o.ok) continue;
        (traced[i] ? traced_ms_ : plain_ms_).push_back((o.done - o.due) * 1e3);
      }
    }
    return phase;
  }

  /// One closed-loop phase, never traced: every connection sends its next
  /// request as soon as the previous reply arrives, for `seconds`.
  PhaseResult Closed(double seconds) {
    // Longer than any phase can use: the hot workload completes well under
    // 100k requests a second.
    const std::vector<size_t> stream = Stream(static_cast<size_t>(
        std::max(10000.0, spec_.rate_hi * 3.0 * seconds)));
    const int64_t first_request = next_request_;
    PhaseResult phase = RunClosedLoop(kServeWorkers, seconds,
                                      [&](int w, size_t i) {
                                        return Send(w, stream[i % stream.size()],
                                                    first_request +
                                                        static_cast<int64_t>(i),
                                                    /*traced=*/false);
                                      });
    std::vector<size_t> sent(phase.outcomes.size());
    for (size_t i = 0; i < sent.size(); ++i) sent[i] = stream[i % stream.size()];
    Account(phase, sent);
    return phase;
  }

  std::vector<const SpanBuffer*> buffers() const {
    std::vector<const SpanBuffer*> out;
    for (const auto& b : buffers_) out.push_back(b.get());
    return out;
  }
  const std::vector<double>& mutate_ms() const { return mutate_ms_; }
  const std::vector<std::string>& sent_commands() const {
    return sent_commands_;
  }
  /// Latencies of the traced and the untraced requests of traced phases.
  const std::vector<double>& traced_ms() const { return traced_ms_; }
  const std::vector<double>& plain_ms() const { return plain_ms_; }
  int64_t next_request() const { return next_request_; }

 private:
  static constexpr size_t kReplayCommands = 4000;

  /// `count` command indices: texts by Zipf rank, and every
  /// `mutate_every`-th request the MUTATE.
  std::vector<size_t> Stream(size_t count) {
    std::vector<size_t> stream(count);
    const size_t mutate = commands_.size() - 1;
    for (size_t i = 0; i < count; ++i) {
      const bool is_mutate =
          spec_.mutate_every > 0 &&
          (i + 1) % static_cast<size_t>(spec_.mutate_every) == 0;
      stream[i] = is_mutate ? mutate
                            : rank_to_text_[static_cast<size_t>(rng_.Zipf(
                                  static_cast<int64_t>(mutate), spec_.zipf_s))];
    }
    return stream;
  }

  /// Sends one command on connection `w` and checks its reply.
  bool Send(int w, size_t command, int64_t request, bool traced) {
    SpanBuffer* buffer =
        traced ? buffers_[static_cast<size_t>(w)].get() : nullptr;
    const Clock::time_point start = Clock::now();
    Result<std::string> reply = Status::Internal("not sent");
    {
      ScopedSpan span(buffer, "server.call", request);
      reply = clients_[static_cast<size_t>(w)]->Call(commands_[command]);
    }
    if (!reply.ok()) return false;
    if (command == commands_.size() - 1) {
      std::lock_guard<std::mutex> lock(mu_);
      mutate_ms_.push_back(SecondsBetween(start, Clock::now()) * 1e3);
    } else if (oracle_ != nullptr && *reply != (*oracle_)[command]) {
      wrong_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  /// Counts a finished phase's requests, keeps the first commands sent for
  /// the front-end replay, and records any wrong payload.
  void Account(const PhaseResult& phase, const std::vector<size_t>& sent) {
    next_request_ += static_cast<int64_t>(phase.outcomes.size());
    for (size_t i = 0; i < phase.outcomes.size(); ++i) {
      const Outcome& o = phase.outcomes[i];
      if (o.skipped) continue;
      report_->CountAttempt();
      if (!o.ok) report_->CountFailure();
      if (sent_commands_.size() < kReplayCommands) {
        sent_commands_.push_back(commands_[sent[i]]);
      }
    }
    if (wrong_.exchange(0) > 0) {
      report_->Wrong(std::string(spec_.name) +
                     ": a served payload differs from the cache-off oracle");
    }
  }

  const ServeSpec& spec_;
  const std::vector<std::string>* oracle_;
  Report* report_;
  Rng rng_;
  std::vector<std::string> commands_;  ///< texts as QUERYs, then the MUTATE
  std::vector<size_t> rank_to_text_;
  std::vector<std::unique_ptr<server::Client>> clients_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
  std::atomic<int64_t> wrong_{0};
  std::mutex mu_;
  std::vector<double> mutate_ms_;  ///< guarded by mu_
  std::vector<std::string> sent_commands_;
  std::vector<double> traced_ms_, plain_ms_;
  int64_t next_request_ = 0;
};

double HitRatio(uint64_t hits, uint64_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

}  // namespace

void RunServe(const ServeSpec& spec, const RunOptions& options,
              Report* report) {
  const int64_t rows_per_site =
      options.quick ? std::max<int64_t>(spec.rows_per_site / 10, 500)
                    : spec.rows_per_site;
  const int literals =
      options.quick ? std::max(2, spec.literals_per_template / 4)
                    : spec.literals_per_template;

  // ---- inputs, all from the seed ----
  TpcConfig config;
  config.num_rows = rows_per_site * spec.sites;
  config.num_customers = std::max<int64_t>(1, config.num_rows / 12);
  config.num_nations = 24;
  config.seed = options.seed;
  const Clock::time_point gen_start = Clock::now();
  const Table tpcr = GenerateTpcr(config);
  const double datagen_s = SecondsBetween(gen_start, Clock::now());
  Rng rng(options.seed * 0x94d049bb133111ebULL + 5);
  const std::vector<std::string> texts = MakeTexts(rng, literals);

  // ---- set-up, kSetups times, spread over the run (see the rounds below),
  // so that the set-up time samples kSetups moments of the host ----
  std::vector<double> setup_s;
  std::unique_ptr<server::Server> srv;
  std::vector<WarmUp> warms;
  auto set_up = [&]() {
    srv.reset();
    const Clock::time_point start = Clock::now();
    srv = MakeServer(spec, tpcr, config.num_nations, /*caches=*/true);
    warms.push_back(WarmUpServer(srv.get(), texts));
    setup_s.push_back(SecondsBetween(start, Clock::now()));
  };
  set_up();

  // A read-only workload is checked reply by reply against a server with
  // both caches off over the same data.
  std::vector<std::string> oracle;
  if (spec.mutate_every == 0) {
    std::unique_ptr<server::Server> plain =
        MakeServer(spec, tpcr, config.num_nations, /*caches=*/false);
    server::Client client(plain.get());
    for (const std::string& text : texts) {
      Result<std::string> reply = client.Call("QUERY " + text);
      if (!reply.ok()) Die("oracle failed: " + reply.status().ToString());
      oracle.push_back(*reply);
    }
  }

  Traffic traffic(srv.get(), spec, texts, MutateCommand(srv.get(), rng),
                  oracle.empty() ? nullptr : &oracle, options.seed, report);
  const Clock::time_point epoch = Clock::now();
  if (options.trace) traffic.EnableTracing(epoch);

  // The cache counters of the closed, lo and hi phases, summed over their
  // servers; the queue-wait histogram is process-wide.
  server::CacheCounters cache;
  auto count_cache = [&](const server::CacheCounters& before) {
    const server::CacheCounters after = srv->stats().cache;
    cache.hits += after.hits - before.hits;
    cache.misses += after.misses - before.misses;
    cache.prefix_hits += after.prefix_hits - before.prefix_hits;
    cache.evictions += after.evictions - before.evictions;
    cache.invalidations += after.invalidations - before.invalidations;
  };
  server::CacheCounters before = srv->stats().cache;
  const obs::MetricValue wait_before =
      QueueWaitHistogram(MetricsJson(srv.get()));
  const double s = options.seconds;
  // The run is kSetups rounds, each a set-up (the first one is above) and a
  // window of the closed loop on the new server, whose completions per
  // second are the capacity that the fixed rates are fractions of. The
  // fixed-rate phases follow rounds kLoRound and kHiRound on the same
  // server, and the capacity search follows the last round, so set-ups and
  // closed-loop windows sample the whole run. Each fixed-rate phase runs for
  // at least 1,000 requests.
  constexpr int kLoRound = kSetups / 4;
  constexpr int kHiRound = kSetups / 2;
  const int64_t min_requests = options.quick ? 50 : 1000;
  // Only the closed loop's latencies are kept, so that memory does not grow
  // with the host's speed.
  std::vector<Window> closed_windows;
  int64_t closed_requests = 0;
  double closed_wall_s = 0, closed_cpu_s = 0;
  PhaseResult lo, hi;
  obs::MetricValue queue_wait;
  for (int round = 0; round < kSetups; ++round) {
    if (round > 0) {
      count_cache(before);
      traffic.Disconnect();
      set_up();
      traffic.Connect(srv.get());
      before = srv->stats().cache;
    }
    const PhaseResult part = traffic.Closed(kClosedShare * s / kSetups);
    closed_windows.push_back(
        Window{LatenciesMs(part), part.wall_s, part.cpu_s});
    closed_requests += static_cast<int64_t>(part.outcomes.size());
    closed_wall_s += part.wall_s;
    closed_cpu_s += part.cpu_s;
    if (round == kLoRound) {
      lo = traffic.Open(spec.rate_lo, kLoShare * s, min_requests);
    }
    if (round == kHiRound) {
      hi = traffic.Open(spec.rate_hi, kHiShare * s, min_requests,
                       /*traced_chunks=*/true);
      queue_wait = HistogramDelta(wait_before,
                                  QueueWaitHistogram(MetricsJson(srv.get())));
    }
  }
  count_cache(before);  // the capacity search is left out of the counters

  // Capacity search: geometric bisection between the `hi` rate and
  // search_max with a fixed number of probes, each of at least 400
  // requests; the answer is the highest rate that met the limit.
  constexpr int kProbes = 6;
  const double probe_s = kSearchShare * s / kProbes;
  double pass = spec.rate_hi, fail = spec.search_max;
  for (int p = 0; p < kProbes; ++p) {
    const double rate = std::sqrt(pass * fail);
    const PhaseResult probe =
        traffic.Open(rate, probe_s, options.quick ? 20 : 400,
                    /*traced_chunks=*/false,
                    2.0 * std::max(probe_s, 400.0 / rate));
    const bool ok = MeetsLimit(probe, spec.limit_ms);
    std::printf("probe %d: %.0f req/s %s (p95 %.4f ms, n=%zu)\n", p, rate,
                ok ? "meets" : "misses", Percentile(LatenciesMs(probe), 95),
                probe.outcomes.size());
    (ok ? pass : fail) = rate;
  }

  // Windows of at least kWindowRequests requests, so that a window's mean
  // reflects interference rather than its draw of hits, misses and writes.
  auto faster_half = [](const PhaseResult& phase) {
    const int count = std::clamp(
        static_cast<int>(phase.outcomes.size() / kWindowRequests), 2,
        kMaxWindows);
    return FasterHalf(PhaseWindows(phase, count));
  };
  const WindowSummary closed_fast = FasterHalf(closed_windows);
  const WindowSummary lo_fast = faster_half(lo);
  const WindowSummary hi_fast = faster_half(hi);
  const double capacity =
      static_cast<double>(closed_fast.latency_ms.size()) / closed_fast.seconds;
  std::vector<double> late_ms = GeneratorLateMs(lo);
  for (double v : GeneratorLateMs(hi)) late_ms.push_back(v);
  std::printf("closed %8.0f req/s over the faster %zu of %zu windows: p50 "
              "%.4f ms p%.0f %.4f ms (n=%zu); CPU %.4f ms per request (all "
              "windows: %lld requests)\n",
              capacity, closed_fast.kept.size(), closed_fast.windows,
              Percentile(closed_fast.latency_ms, 50), spec.tail,
              Percentile(closed_fast.latency_ms, spec.tail),
              closed_fast.latency_ms.size(), closed_fast.CpuMsPerRequest(),
              static_cast<long long>(closed_requests));
  auto phase_line = [&](const char* name, double rate, const PhaseResult& all,
                        const WindowSummary& fast) {
    std::printf("%-6s %8.0f req/s: all p50 %.4f ms p%.0f %.4f ms (n=%zu); "
                "faster half (%zu of %zu windows) p50 %.4f ms p%.0f %.4f ms "
                "(n=%zu)\n",
                name, rate, Percentile(LatenciesMs(all), 50), spec.tail,
                Percentile(LatenciesMs(all), spec.tail), all.outcomes.size(),
                fast.kept.size(), fast.windows,
                Percentile(fast.latency_ms, 50), spec.tail,
                Percentile(fast.latency_ms, spec.tail),
                fast.latency_ms.size());
  };
  phase_line("lo", spec.rate_lo, lo, lo_fast);
  phase_line("hi", spec.rate_hi, hi, hi_fast);
  std::printf("capacity (closed loop, faster half) %.1f req/s: lo is %.0f%%, "
              "hi is %.0f%%; highest rate within %.1f ms: %.0f req/s; "
              "generator late p99 %.4f ms (n=%zu)\n",
              capacity, 100 * spec.rate_lo / capacity,
              100 * spec.rate_hi / capacity, spec.limit_ms, pass,
              Percentile(late_ms, 99), late_ms.size());

  const int64_t n_lo = static_cast<int64_t>(lo_fast.latency_ms.size());
  std::printf("tail p%.0f over %lld requests (supported: %s)\n", spec.tail,
              static_cast<long long>(n_lo),
              TailPercentile(n_lo) >= spec.tail ? "yes" : "no");

  // After writes, every text's cached reply must equal a NOCACHE execution
  // at the same mutation prefix.
  if (spec.mutate_every > 0) {
    server::Client client(srv.get());
    for (const std::string& text : texts) {
      Result<std::string> cached = client.Call("QUERY " + text);
      Result<std::string> fresh = client.Call("QUERY NOCACHE " + text);
      if (!cached.ok() || !fresh.ok() || *cached != *fresh) {
        report->Wrong(std::string(spec.name) +
                      ": a cached reply differs from its NOCACHE execution");
        break;
      }
    }
  }

  traffic.Disconnect();
  std::printf("setup: %s s, reported %.3f s; datagen %.3f s (%lld rows, %zu "
              "texts)\n",
              JoinSeconds(setup_s).c_str(), SetupSeconds(setup_s), datagen_s,
              static_cast<long long>(tpcr.num_rows()), texts.size());
  // Each set-up's warm-up executes every text once on a fresh server: the
  // bytes must repeat exactly, and each text's modelled response time is
  // taken from the set-up whose measured CPU terms met the least
  // interference.
  std::vector<double> response_ms = warms[0].response_ms;
  for (const WarmUp& w : warms) {
    if (w.bytes != warms[0].bytes) {
      report->Wrong(std::string(spec.name) +
                    ": a new server over the same data shipped different "
                    "bytes");
    }
    for (size_t i = 0; i < response_ms.size(); ++i) {
      response_ms[i] = std::min(response_ms[i], w.response_ms[i]);
    }
  }

  if (!options.trace) {
    report->Set("setup_s", SetupSeconds(setup_s), "s", kSetups);
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    report->Set("bytes_per_query", Mean(warms[0].bytes), "bytes",
                static_cast<int64_t>(warms[0].bytes.size()));
    report->Set("modelled_response_ms", Median(response_ms), "ms",
                static_cast<int64_t>(response_ms.size()));
    return;
  }

  // ---- traced run: per-layer metrics ----
  report->Set("throughput_qps", capacity, "1/s",
              static_cast<int64_t>(closed_fast.latency_ms.size()));
  report->Set("cpu_ms_per_request", closed_fast.CpuMsPerRequest(), "ms",
              static_cast<int64_t>(closed_fast.latency_ms.size()));
  report->Set("latency_p50_ms", Percentile(lo_fast.latency_ms, 50), "ms",
              n_lo);
  report->Set("latency_tail_ms", Percentile(lo_fast.latency_ms, spec.tail),
              "ms", n_lo);
  const uint64_t requests = static_cast<uint64_t>(closed_requests) +
                            lo.outcomes.size() + hi.outcomes.size();
  report->Set("server.cache_hit_ratio", HitRatio(cache.hits, cache.misses),
              "ratio", static_cast<int64_t>(requests));
  report->Set("server.prefix_hit_ratio",
              cache.misses == 0 ? 0.0
                                : static_cast<double>(cache.prefix_hits) /
                                      static_cast<double>(cache.misses),
              "ratio", static_cast<int64_t>(cache.misses));
  report->Set("server.evictions_per_kreq",
              1e3 * static_cast<double>(cache.evictions) /
                  static_cast<double>(requests),
              "count", static_cast<int64_t>(requests));
  report->Set("server.invalidations_per_kreq",
              1e3 * static_cast<double>(cache.invalidations) /
                  static_cast<double>(requests),
              "count", static_cast<int64_t>(requests));
  report->Set("server.queue_wait_ms_p99", queue_wait.Quantile(0.99) * 1e3,
              "ms", static_cast<int64_t>(queue_wait.hist_count));
  report->Set("server.mutate_ms_p90", Percentile(traffic.mutate_ms(), 90),
              "ms", static_cast<int64_t>(traffic.mutate_ms().size()));
  const int64_t n_hi = static_cast<int64_t>(hi_fast.latency_ms.size());
  report->Set("server.latency_p50_ms_hi", Percentile(hi_fast.latency_ms, 50),
              "ms", n_hi);
  report->Set("server.latency_tail_ms_hi",
              Percentile(hi_fast.latency_ms, spec.tail), "ms", n_hi);
  report->Set("server.max_rate_qps", pass, "1/s", kProbes);
  report->Set("bench.gen_late_ms_p99", Percentile(late_ms, 99), "ms",
              static_cast<int64_t>(late_ms.size()));
  report->Set("server.cpu_util", closed_cpu_s / closed_wall_s, "cores");

  // Replays after the timed phases, on the measuring thread: the front end
  // on the requests as sent, then every text (up to 64) executed once
  // through Plan -> ExecutePlan with its X tables captured.
  SpanBuffer replay(epoch);
  int64_t request = traffic.next_request();
  LayerStats::ReplayFrontEnd(traffic.sent_commands(), &replay, request);
  request += static_cast<int64_t>(traffic.sent_commands().size());
  LayerStats layers(spec.sites);
  std::vector<DistributedPlan> plans;
  int64_t storage_queries = 0;
  constexpr int kStorageReps = 5;
  const size_t executed = std::min<size_t>(texts.size(), 64);
  for (size_t t = 0; t < executed; ++t) {
    std::vector<Table> xs;
    double execute_ms = 0;
    Result<QueryResult> result = RunTracedQuery(
        srv->warehouse(), texts[t], &replay, request, &xs, &execute_ms);
    if (!result.ok()) Die("replay failed: " + result.status().ToString());
    layers.AddExecution(*result, execute_ms);
    LayerStats::ReplayStorage(xs, kStorageReps, &replay, request);
    storage_queries += kStorageReps;
    plans.push_back(result->plan);
    ++request;
  }
  LayerStats::ReplayEstimate(srv->warehouse(), plans, 1, &replay, request);

  std::vector<const SpanBuffer*> buffers = traffic.buffers();
  buffers.push_back(&replay);
  const std::map<std::string, SpanTotals> totals = TotalsByName(buffers);
  layers.Fill(totals, storage_queries, report);

  const double plain_p50 = Percentile(traffic.plain_ms(), 50);
  report->Set("bench.trace_overhead_pct",
              plain_p50 > 0
                  ? (Percentile(traffic.traced_ms(), 50) / plain_p50 - 1.0) * 100
                  : 0.0,
              "%", static_cast<int64_t>(traffic.traced_ms().size()));
  report->Set("bench.datagen_s", datagen_s, "s");
  report->Set("bench.error_rate",
              static_cast<double>(report->failed()) /
                  static_cast<double>(std::max<int64_t>(1, report->attempted())),
              "ratio", report->attempted());

  PrintLayerTable(totals);
  const std::string path = options.out_dir + "/trace_" + spec.name + ".json";
  if (!WriteTraceJson(path, spec.name, buffers)) Die("cannot write " + path);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace bench_skalla
