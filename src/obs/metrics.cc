#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#include "obs/trace.h"

namespace skalla {
namespace obs {

namespace internal {
std::atomic<bool> g_metrics_enabled{true};
}  // namespace internal

namespace {

// One registry per process. Leaked on purpose (same rationale as the
// tracer's State()): instrumented code may still update counters during
// static destruction.
struct RegistryState {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

RegistryState& State() {
  static RegistryState* state = new RegistryState();
  return *state;
}

// Reads SKALLA_METRICS once at process start; the registry defaults on.
const bool g_env_initialized = [] {
  const char* env = std::getenv("SKALLA_METRICS");
  if (env != nullptr && (std::strcmp(env, "0") == 0 ||
                         std::strcmp(env, "off") == 0 ||
                         std::strcmp(env, "false") == 0)) {
    internal::g_metrics_enabled.store(false, std::memory_order_relaxed);
  }
  return true;
}();

void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

// Shortest %g-style formatting, stable across platforms for the values the
// registry produces (bucket bounds are products of small powers, counts are
// integers). Used by the exposition and JSONL writers.
std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return std::string(buf);
}

// Quantile from bucket counts shared by Histogram and MetricValue.
double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& buckets,
                           uint64_t count, double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) < target) continue;
    if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    const double fraction =
        std::clamp((target - before) / static_cast<double>(in_bucket), 0.0, 1.0);
    return lower + (upper - lower) * fraction;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

std::string JsonEscapeLocal(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void EnableMetrics(bool enabled) {
  internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

uint32_t MetricThreadShard() {
  return CurrentThreadIndex() & (kMetricShards - 1);
}

// ---- Counter ---------------------------------------------------------------

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (auto& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// ---- Gauge -----------------------------------------------------------------

int64_t Gauge::Value() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Gauge::Reset() {
  for (auto& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// ---- Histogram -------------------------------------------------------------

Histogram::Histogram(const HistogramLayout& layout) {
  const int buckets = std::max(1, layout.buckets);
  bounds_.reserve(buckets);
  double bound = layout.start;
  for (int i = 0; i < buckets; ++i) {
    bounds_.push_back(bound);
    bound *= layout.growth;
  }
  stride_ = bounds_.size() + 1;
  counts_.reset(new std::atomic<uint64_t>[stride_ * kMetricShards]);
  for (size_t i = 0; i < stride_ * kMetricShards; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  if (!MetricsEnabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  const size_t shard = MetricThreadShard();
  counts_[shard * stride_ + bucket].fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sums_[shard].value, value);
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (size_t i = 0; i < stride_ * kMetricShards; ++i) {
    total += counts_[i].load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0;
  for (const auto& shard : sums_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> totals(stride_, 0);
  for (int shard = 0; shard < kMetricShards; ++shard) {
    for (size_t b = 0; b < stride_; ++b) {
      totals[b] += counts_[shard * stride_ + b].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

double Histogram::Quantile(double q) const {
  const std::vector<uint64_t> buckets = BucketCounts();
  uint64_t count = 0;
  for (uint64_t b : buckets) count += b;
  return QuantileFromBuckets(bounds_, buckets, count, q);
}

void Histogram::Reset() {
  for (size_t i = 0; i < stride_ * kMetricShards; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  for (auto& shard : sums_) {
    shard.value.store(0.0, std::memory_order_relaxed);
  }
}

ScopedHistogramTimer::ScopedHistogramTimer(Histogram* histogram) {
  if (histogram == nullptr || !MetricsEnabled()) return;
  histogram_ = histogram;
  start_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
}

ScopedHistogramTimer::~ScopedHistogramTimer() {
  if (histogram_ == nullptr) return;
  const int64_t end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count();
  histogram_->Observe(static_cast<double>(end_ns - start_ns_) * 1e-9);
}

// ---- Registry --------------------------------------------------------------

Counter& GetCounter(std::string_view name) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.counters.find(name);
  if (it == state.counters.end()) {
    it = state.counters
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& GetGauge(std::string_view name) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.gauges.find(name);
  if (it == state.gauges.end()) {
    it = state.gauges.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

Histogram& GetHistogram(std::string_view name, const HistogramLayout& layout) {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.histograms.find(name);
  if (it == state.histograms.end()) {
    it = state.histograms
             .emplace(std::string(name), std::make_unique<Histogram>(layout))
             .first;
  }
  return *it->second;
}

void ResetMetrics() {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  for (auto& [name, counter] : state.counters) counter->Reset();
  for (auto& [name, gauge] : state.gauges) gauge->Reset();
  for (auto& [name, histogram] : state.histograms) histogram->Reset();
}

double MetricValue::Quantile(double q) const {
  return QuantileFromBuckets(bounds, buckets, hist_count, q);
}

std::vector<MetricValue> SnapshotMetrics() {
  RegistryState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  std::vector<MetricValue> values;
  values.reserve(state.counters.size() + state.gauges.size() +
                 state.histograms.size());
  for (const auto& [name, counter] : state.counters) {
    MetricValue v;
    v.name = name;
    v.kind = MetricKind::kCounter;
    v.counter_value = counter->Value();
    values.push_back(std::move(v));
  }
  for (const auto& [name, gauge] : state.gauges) {
    MetricValue v;
    v.name = name;
    v.kind = MetricKind::kGauge;
    v.gauge_value = gauge->Value();
    values.push_back(std::move(v));
  }
  for (const auto& [name, histogram] : state.histograms) {
    MetricValue v;
    v.name = name;
    v.kind = MetricKind::kHistogram;
    v.bounds = histogram->bounds();
    v.buckets = histogram->BucketCounts();
    v.hist_sum = histogram->Sum();
    for (uint64_t b : v.buckets) v.hist_count += b;
    values.push_back(std::move(v));
  }
  std::sort(values.begin(), values.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return values;
}

void SplitMetricName(const std::string& name, std::string* base,
                     std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  *labels = name.substr(brace + 1, name.size() - brace - 2);
}

std::string ExposeMetrics(const std::vector<MetricValue>& values) {
  std::string out;
  std::string last_typed;
  for (const MetricValue& v : values) {
    std::string base;
    std::string labels;
    SplitMetricName(v.name, &base, &labels);
    if (base != last_typed) {
      out += "# TYPE " + base + " ";
      switch (v.kind) {
        case MetricKind::kCounter:
          out += "counter";
          break;
        case MetricKind::kGauge:
          out += "gauge";
          break;
        case MetricKind::kHistogram:
          out += "histogram";
          break;
      }
      out += "\n";
      last_typed = base;
    }
    switch (v.kind) {
      case MetricKind::kCounter:
        out += v.name + " " + std::to_string(v.counter_value) + "\n";
        break;
      case MetricKind::kGauge:
        out += v.name + " " + std::to_string(v.gauge_value) + "\n";
        break;
      case MetricKind::kHistogram: {
        const std::string prefix = labels.empty() ? "" : labels + ",";
        uint64_t cumulative = 0;
        for (size_t i = 0; i < v.buckets.size(); ++i) {
          cumulative += v.buckets[i];
          const std::string le =
              i < v.bounds.size() ? FormatDouble(v.bounds[i]) : "+Inf";
          out += base + "_bucket{" + prefix + "le=\"" + le + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        const std::string suffix =
            labels.empty() ? "" : "{" + labels + "}";
        out += base + "_sum" + suffix + " " + FormatDouble(v.hist_sum) + "\n";
        out += base + "_count" + suffix + " " + std::to_string(cumulative) +
               "\n";
        break;
      }
    }
  }
  return out;
}

std::string ExposeMetrics() { return ExposeMetrics(SnapshotMetrics()); }

std::string MetricsJsonl(const std::vector<MetricValue>& values) {
  std::string out;
  for (const MetricValue& v : values) {
    out += "{\"name\":\"" + JsonEscapeLocal(v.name) + "\"";
    switch (v.kind) {
      case MetricKind::kCounter:
        out += ",\"kind\":\"counter\",\"value\":" +
               std::to_string(v.counter_value);
        break;
      case MetricKind::kGauge:
        out +=
            ",\"kind\":\"gauge\",\"value\":" + std::to_string(v.gauge_value);
        break;
      case MetricKind::kHistogram: {
        out += ",\"kind\":\"histogram\",\"count\":" +
               std::to_string(v.hist_count) +
               ",\"sum\":" + FormatDouble(v.hist_sum);
        out += ",\"p50\":" + FormatDouble(v.Quantile(0.50)) +
               ",\"p95\":" + FormatDouble(v.Quantile(0.95)) +
               ",\"p99\":" + FormatDouble(v.Quantile(0.99));
        out += ",\"bounds\":[";
        for (size_t i = 0; i < v.bounds.size(); ++i) {
          if (i > 0) out += ",";
          out += FormatDouble(v.bounds[i]);
        }
        out += "],\"buckets\":[";
        for (size_t i = 0; i < v.buckets.size(); ++i) {
          if (i > 0) out += ",";
          out += std::to_string(v.buckets[i]);
        }
        out += "]";
        break;
      }
    }
    out += "}\n";
  }
  return out;
}

std::string MetricsJsonl() { return MetricsJsonl(SnapshotMetrics()); }

}  // namespace obs
}  // namespace skalla
