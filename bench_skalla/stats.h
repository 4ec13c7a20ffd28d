#ifndef BENCH_SKALLA_STATS_H_
#define BENCH_SKALLA_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bench_skalla {

/// Percentile p (0..100) of `values` by linear interpolation between closest
/// ranks; 0 for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// The reported set-up time of a run: the mean of the fastest quarter of its
/// set-ups. They are spread over the run, and interference from other
/// tenants only adds time, in stretches of seconds to minutes, so the
/// fastest set-ups are the ones it hit least; a quarter rather than the
/// single fastest, so that one lucky set-up does not set the value.
inline double SetupSeconds(std::vector<double> setups) {
  if (setups.empty()) return 0.0;
  std::sort(setups.begin(), setups.end());
  setups.resize((setups.size() + 3) / 4);
  return Mean(setups);
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that leaves at least ten
/// samples beyond it in a sample of `n` (0 when even the median does not).
/// A tail percentile reported from fewer samples reads the maximum, not a
/// percentile.
inline double TailPercentile(int64_t n) {
  static constexpr double kCandidates[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (double p : kCandidates) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  }
  return 0.0;
}

/// A stretch of a timed phase: the latencies of the requests that belong to
/// it, how long it lasted, and the process CPU time spent in it (0 when not
/// measured).
struct Window {
  std::vector<double> latency_ms;
  double seconds = 0.0;
  double cpu_s = 0.0;
};

/// What the faster half of a phase's windows measured.
struct WindowSummary {
  std::vector<size_t> kept;        ///< indices of the kept windows
  std::vector<double> latency_ms;  ///< every latency of the kept windows
  double seconds = 0.0;            ///< their summed duration
  double cpu_s = 0.0;              ///< their summed CPU time
  size_t windows = 0;              ///< non-empty windows in the phase

  /// Process CPU time per completed request over the kept windows, in ms.
  double CpuMsPerRequest() const {
    return latency_ms.empty()
               ? 0.0
               : cpu_s * 1e3 / static_cast<double>(latency_ms.size());
  }
};

/// Keeps the faster half (rounded up) of the non-empty windows, ranked by
/// mean latency. On a shared host, interference from other tenants comes in
/// stretches of seconds and only ever adds time; a statistic over the whole
/// phase moves with how much of the phase such a stretch covered, while the
/// same statistic over its faster half does not.
inline WindowSummary FasterHalf(const std::vector<Window>& windows) {
  WindowSummary out;
  for (size_t i = 0; i < windows.size(); ++i) {
    if (!windows[i].latency_ms.empty()) out.kept.push_back(i);
  }
  std::stable_sort(out.kept.begin(), out.kept.end(), [&](size_t a, size_t b) {
    return Mean(windows[a].latency_ms) < Mean(windows[b].latency_ms);
  });
  out.windows = out.kept.size();
  out.kept.resize((out.windows + 1) / 2);
  for (size_t i : out.kept) {
    out.latency_ms.insert(out.latency_ms.end(), windows[i].latency_ms.begin(),
                          windows[i].latency_ms.end());
    out.seconds += windows[i].seconds;
    out.cpu_s += windows[i].cpu_s;
  }
  return out;
}

}  // namespace bench_skalla

#endif  // BENCH_SKALLA_STATS_H_
