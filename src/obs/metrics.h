#ifndef SKALLA_OBS_METRICS_H_
#define SKALLA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace skalla {
namespace obs {

/// \brief Process-wide metrics registry: monotonic counters, gauges, and
/// fixed-bucket histograms (docs/observability.md, "Metrics registry").
///
/// Unlike the tracer (obs/trace.h), the registry is **always on by
/// default** — it is the continuous signal a serving deployment watches
/// (queue depth, per-lane latency, per-site round times), not a one-shot
/// capture. The cost discipline matches the tracer's:
///
///  - an *enabled* instrument update is one relaxed atomic RMW on a
///    thread-sharded slot (plus, for histograms, one RMW on the sum);
///  - a *disabled* one is a single relaxed atomic load of the master gate.
///
/// `bench_trace_overhead` enforces both budgets. The `SKALLA_METRICS`
/// environment knob ("0" / "off" / "false" disables; anything else,
/// including unset, enables) is read once at process start; EnableMetrics
/// flips the gate at runtime. Gauges pair their +/- updates through the
/// gate, so flipping it while work is in flight can transiently skew gauge
/// values (counters and histograms are monotone and unaffected).
///
/// Naming convention: `skalla_<layer>_<name>` with the unit spelled out in
/// the name (`_seconds`, `_bytes`, `_total` for unitless counts), plus an
/// optional Prometheus-style label suffix `{key="value",...}` baked into
/// the registered name — e.g. `skalla_dist_site_round_seconds{site="3"}`.

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

/// Master gate: one relaxed load, the entire disabled-mode cost.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Flips the master gate (also settable via SKALLA_METRICS at start).
void EnableMetrics(bool enabled);

/// Shards per instrument; updates land on shard (thread index mod this),
/// so concurrent writers on different threads rarely contend on a line.
inline constexpr int kMetricShards = 8;

/// Small dense index of the calling thread used for shard selection
/// (assigned on first use; one TLS read afterwards).
uint32_t MetricThreadShard();

namespace internal {
/// One cacheline-padded atomic slot of a sharded instrument.
struct alignas(64) Shard {
  std::atomic<uint64_t> value{0};
};
struct alignas(64) SignedShard {
  std::atomic<int64_t> value{0};
};
struct alignas(64) DoubleShard {
  std::atomic<double> value{0.0};
};
}  // namespace internal

/// \brief Monotonic counter. Add() is one relaxed RMW when the registry is
/// enabled, one relaxed load when disabled.
class Counter {
 public:
  void Add(uint64_t delta) {
    if (!MetricsEnabled()) return;
    shards_[MetricThreadShard()].value.fetch_add(delta,
                                                 std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum over shards (relaxed; exact once writers quiesce).
  uint64_t Value() const;
  void Reset();

 private:
  internal::Shard shards_[kMetricShards];
};

/// \brief Signed gauge maintained as a sharded delta accumulator: Add()
/// and Sub() are one relaxed RMW each; Value() sums the shards.
class Gauge {
 public:
  void Add(int64_t delta) {
    if (!MetricsEnabled()) return;
    shards_[MetricThreadShard()].value.fetch_add(delta,
                                                 std::memory_order_relaxed);
  }
  void Sub(int64_t delta) { Add(-delta); }

  /// Unconditional update that bypasses the gate — used by GaugeGuard to
  /// guarantee its decrement pairs with an increment it already made.
  void ForceAdd(int64_t delta) {
    shards_[MetricThreadShard()].value.fetch_add(delta,
                                                 std::memory_order_relaxed);
  }

  int64_t Value() const;
  void Reset();

 private:
  internal::SignedShard shards_[kMetricShards];
};

/// \brief RAII pairing of a gauge increment with its decrement: the
/// destructor subtracts exactly what the constructor added (nothing when
/// the registry was disabled at construction), so a mid-flight gate flip
/// never leaves the gauge permanently skewed.
class GaugeGuard {
 public:
  explicit GaugeGuard(Gauge* gauge) : gauge_(gauge) {
    if (gauge_ != nullptr && MetricsEnabled()) {
      armed_ = true;
      gauge_->Add(1);
    }
  }
  ~GaugeGuard() {
    if (armed_) {
      // Force the matching decrement through even if the gate flipped off
      // meanwhile; Gauge::Add is gated, so go to the shard directly.
      gauge_->ForceAdd(-1);
    }
  }
  GaugeGuard(const GaugeGuard&) = delete;
  GaugeGuard& operator=(const GaugeGuard&) = delete;

 private:
  friend class Gauge;
  Gauge* gauge_;
  bool armed_ = false;
};

/// Exponential bucket layout of a Histogram: bucket i covers
/// (bound[i-1], bound[i]] with bound[i] = start * growth^i, plus one
/// implicit overflow bucket past the last bound.
struct HistogramLayout {
  double start = 1e-6;
  double growth = 2.0;
  int buckets = 36;

  /// Latencies in seconds: 1 µs .. ~68 s in 27 powers of two.
  static HistogramLayout LatencySeconds() { return {1e-6, 2.0, 27}; }
  /// Payload sizes in bytes: 64 B .. 32 GiB.
  static HistogramLayout Bytes() { return {64.0, 2.0, 30}; }
  /// Row counts: 1 .. ~10^9.
  static HistogramLayout Rows() { return {1.0, 4.0, 16}; }
  /// Ratios in [0, 1] (e.g. selectivity): 1e-4 .. 1, growth ~2.
  static HistogramLayout Ratio() { return {1e-4, 2.0, 14}; }
};

/// \brief Fixed-bucket histogram. Observe() is two relaxed RMWs when
/// enabled (bucket count + sharded sum), one relaxed load when disabled.
/// p50/p95/p99 are read back from the buckets with linear interpolation.
class Histogram {
 public:
  explicit Histogram(const HistogramLayout& layout);

  void Observe(double value);

  /// Total observations (sum over buckets).
  uint64_t Count() const;
  /// Exact sum of observed values.
  double Sum() const;
  /// Quantile estimate from the bucket counts: the value below which a
  /// fraction q of observations fall, linearly interpolated inside the
  /// covering bucket (the overflow bucket reports the last bound).
  double Quantile(double q) const;

  /// Upper bounds, one per finite bucket (the overflow bucket is +Inf).
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, bounds().size() + 1 entries (last = overflow).
  std::vector<uint64_t> BucketCounts() const;

  void Reset();

 private:
  std::vector<double> bounds_;
  /// counts_[shard * stride + bucket]; stride = bounds_.size() + 1.
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  size_t stride_;
  internal::DoubleShard sums_[kMetricShards];  ///< Σ observed values
};

/// \brief RAII wall-clock timer into a histogram of seconds: records
/// [construction, destruction) when the registry was enabled at
/// construction; a single relaxed load otherwise.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram* histogram);
  ~ScopedHistogramTimer();
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram* histogram_ = nullptr;
  int64_t start_ns_ = 0;
};

// ---- Registry ------------------------------------------------------------

/// Looks up (registering on first use) the counter named `name`. The
/// returned reference is stable for the process lifetime; instrumentation
/// sites cache it in a function-local static so steady-state cost is the
/// instrument update alone. Thread-safe.
Counter& GetCounter(std::string_view name);

/// Same for gauges.
Gauge& GetGauge(std::string_view name);

/// Same for histograms; `layout` applies on first registration only (a
/// later lookup with a different layout returns the existing instrument).
Histogram& GetHistogram(std::string_view name, const HistogramLayout& layout);

/// Zeroes every registered instrument's values (instruments stay
/// registered). Not synchronized against concurrent updates — intended for
/// benches and tests between measured phases.
void ResetMetrics();

/// What kind of instrument a MetricValue snapshot row describes.
enum class MetricKind { kCounter, kGauge, kHistogram };

/// One instrument's value at snapshot time (see SnapshotMetrics).
struct MetricValue {
  std::string name;  ///< full registered name, labels included
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter_value = 0;
  int64_t gauge_value = 0;
  uint64_t hist_count = 0;
  double hist_sum = 0;
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;  ///< bounds.size() + 1 (last = overflow)

  /// Quantile from the snapshot's buckets (same math as Histogram).
  double Quantile(double q) const;
};

/// Values of every registered instrument, sorted by name.
std::vector<MetricValue> SnapshotMetrics();

/// Splits a registered name into its base and label part:
/// `foo{a="b"}` -> ("foo", `a="b"`); no labels -> (name, "").
void SplitMetricName(const std::string& name, std::string* base,
                     std::string* labels);

/// Prometheus-style text exposition of `values` (see docs/observability.md
/// for the grammar): `# TYPE` per instrument base name, counters/gauges as
/// `name value`, histograms as cumulative `_bucket{le="..."}` series plus
/// `_sum` and `_count`.
std::string ExposeMetrics(const std::vector<MetricValue>& values);

/// Exposition of the live registry.
std::string ExposeMetrics();

/// JSONL snapshot (one instrument per line) for offline diffing.
std::string MetricsJsonl(const std::vector<MetricValue>& values);
std::string MetricsJsonl();

}  // namespace obs
}  // namespace skalla

#endif  // SKALLA_OBS_METRICS_H_
