#ifndef BENCH_SKALLA_LOADGEN_H_
#define BENCH_SKALLA_LOADGEN_H_

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "common/random.h"
#include "stats.h"
#include "trace.h"

namespace bench_skalla {

/// Process CPU time (user + system) in seconds.
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Poisson arrivals: offsets in seconds from the phase start at `rate` per
/// second, covering `duration` seconds and at least `min_count` arrivals.
inline std::vector<double> PoissonSchedule(skalla::Rng& rng, double rate,
                                           double duration,
                                           int64_t min_count) {
  std::vector<double> due;
  double t = 0.0;
  while (t < duration || static_cast<int64_t>(due.size()) < min_count) {
    // Inverse-CDF draw; 1 - u lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.UniformDouble()) / rate;
    due.push_back(t);
  }
  return due;
}

/// One request of an open-loop phase, in seconds from the phase start.
struct Outcome {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = false;
  /// The worker that took this request was idle before it was due, so
  /// `sent - due` is the generator's own lateness, not backlog.
  bool waited = false;
  /// Never sent: the phase was abandoned before its turn.
  bool skipped = false;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  ///< by arrival index
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time spent during the phase
};

/// Runs an open loop: `threads` workers share one queue of arrivals (`due`,
/// seconds from the start) and each takes the next arrival, waits until it
/// is due, and calls `call(worker, index)`, which returns whether the request
/// succeeded. Latency is measured from the due time, so a stall that delays
/// later requests shows in their latency. Below 1 ms between a worker's
/// arrivals the worker sleeps and then spins for the last 100 µs, because a
/// sleep alone wakes tens of microseconds late. Arrivals still unsent
/// `abandon_after_s` seconds into the phase are skipped, which bounds the
/// time an overloaded phase takes to drain.
inline PhaseResult RunOpenLoop(
    const std::vector<double>& due, int threads,
    const std::function<bool(int worker, size_t index)>& call,
    double abandon_after_s = std::numeric_limits<double>::infinity()) {
  PhaseResult result;
  result.outcomes.resize(due.size());
  if (due.empty()) return result;
  const double span_s = due.back();
  const double gap_per_worker =
      span_s * threads / static_cast<double>(due.size());
  const auto spin = gap_per_worker < 1e-3 ? std::chrono::microseconds(100)
                                          : std::chrono::microseconds(0);
  std::atomic<size_t> next{0};
  const double cpu_before = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  auto worker = [&](int w) {
    // The default 50 µs timer slack would make every short sleep overshoot.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= due.size()) return;
      const Clock::time_point when =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due[i]));
      Outcome& o = result.outcomes[i];
      o.due = due[i];
      if (SecondsBetween(start, Clock::now()) > abandon_after_s) {
        o.skipped = true;
        continue;
      }
      if (Clock::now() < when) {
        o.waited = true;
        if (when - Clock::now() > spin) std::this_thread::sleep_until(when - spin);
        while (Clock::now() < when) {
        }
      }
      o.sent = SecondsBetween(start, Clock::now());
      o.ok = call(w, i);
      o.done = SecondsBetween(start, Clock::now());
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) pool.emplace_back(worker, w);
  for (std::thread& t : pool) t.join();
  result.wall_s = SecondsBetween(start, Clock::now());
  result.cpu_s = ProcessCpuSeconds() - cpu_before;
  return result;
}

/// Runs a closed loop for `seconds`: each of `threads` workers calls
/// `call(worker, index)` back to back, with indices handed out in order.
/// Each outcome's due time is its send time.
inline PhaseResult RunClosedLoop(
    int threads, double seconds,
    const std::function<bool(int worker, size_t index)>& call) {
  std::vector<std::vector<Outcome>> per_worker(static_cast<size_t>(threads));
  std::atomic<size_t> next{0};
  PhaseResult result;
  const double cpu_before = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  auto worker = [&](int w) {
    std::vector<Outcome>& mine = per_worker[static_cast<size_t>(w)];
    while (SecondsBetween(start, Clock::now()) < seconds) {
      Outcome o;
      o.sent = o.due = SecondsBetween(start, Clock::now());
      o.ok = call(w, next.fetch_add(1, std::memory_order_relaxed));
      o.done = SecondsBetween(start, Clock::now());
      mine.push_back(o);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) pool.emplace_back(worker, w);
  for (std::thread& t : pool) t.join();
  result.wall_s = SecondsBetween(start, Clock::now());
  result.cpu_s = ProcessCpuSeconds() - cpu_before;
  for (const std::vector<Outcome>& mine : per_worker) {
    result.outcomes.insert(result.outcomes.end(), mine.begin(), mine.end());
  }
  return result;
}

/// Cuts an open-loop phase into `count` equal stretches of time and puts the
/// latency (due to done, ms) of each successful request into the stretch
/// its due time falls in.
inline std::vector<Window> PhaseWindows(const PhaseResult& phase, int count) {
  std::vector<Window> windows(static_cast<size_t>(count));
  double span = 0.0;
  for (const Outcome& o : phase.outcomes) {
    if (!o.skipped) span = std::max(span, o.due);
  }
  if (span <= 0.0) return windows;
  const double width = span / count;
  for (Window& w : windows) w.seconds = width;
  for (const Outcome& o : phase.outcomes) {
    if (!o.ok) continue;
    const size_t i = std::min(static_cast<size_t>(o.due / width),
                              static_cast<size_t>(count - 1));
    windows[i].latency_ms.push_back((o.done - o.due) * 1e3);
  }
  return windows;
}

/// Latency from due time to completion, in ms, of a phase's successful
/// requests.
inline std::vector<double> LatenciesMs(const PhaseResult& phase) {
  std::vector<double> out;
  for (const Outcome& o : phase.outcomes) {
    if (o.ok) out.push_back((o.done - o.due) * 1e3);
  }
  return out;
}

/// Generator lateness in ms (send time minus due time) of the requests whose
/// worker was idle when they came due.
inline std::vector<double> GeneratorLateMs(const PhaseResult& phase) {
  std::vector<double> out;
  for (const Outcome& o : phase.outcomes) {
    if (o.waited) out.push_back((o.sent - o.due) * 1e3);
  }
  return out;
}

/// Whether a phase met a latency limit: its p95 latency, with every failed
/// or skipped request counted as missing the limit, stays within `limit_ms`,
/// and its backlog did not grow — the median send lag of the last fifth of
/// the requests exceeds that of the first fifth by less than half the limit.
inline bool MeetsLimit(const PhaseResult& phase, double limit_ms) {
  const size_t n = phase.outcomes.size();
  if (n == 0) return false;
  std::vector<double> latency;
  latency.reserve(n);
  for (const Outcome& o : phase.outcomes) {
    if (o.skipped) return false;
    // A failure misses the limit; a finite stand-in keeps the
    // interpolation in Percentile free of inf - inf.
    latency.push_back(o.ok ? (o.done - o.due) * 1e3 : limit_ms * 1e6);
  }
  if (Percentile(latency, 95.0) > limit_ms) return false;
  auto lag = [&](size_t from, size_t to) {
    std::vector<double> v;
    for (size_t i = from; i < to; ++i) {
      v.push_back((phase.outcomes[i].sent - phase.outcomes[i].due) * 1e3);
    }
    return Median(v);
  };
  const size_t fifth = std::max<size_t>(1, n / 5);
  return lag(n - fifth, n) - lag(0, fifth) < limit_ms / 2;
}

}  // namespace bench_skalla

#endif  // BENCH_SKALLA_LOADGEN_H_
