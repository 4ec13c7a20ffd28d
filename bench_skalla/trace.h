#ifndef BENCH_SKALLA_TRACE_H_
#define BENCH_SKALLA_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace bench_skalla {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One bench-side span around a call into a layer. `name` is
/// "<layer>.<what>" and must be a string literal (spans store the pointer).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index in the same thread's buffer, -1 for a root
  int64_t request = -1;  ///< shared by every span of one request
};

/// Spans of one thread, kept in memory until the run ends. Not thread-safe:
/// each recording thread owns its own buffer.
class SpanBuffer {
 public:
  explicit SpanBuffer(Clock::time_point epoch) : epoch_(epoch) {}

  int32_t Begin(const char* name, int64_t request) {
    Span s;
    s.name = name;
    s.start_ns = Now();
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    spans_.push_back(s);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = Now();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  /// Adds a closed span from timestamps taken elsewhere (e.g. a round
  /// observer), as a child of the innermost open span.
  void AddClosed(const char* name, Clock::time_point start,
                 Clock::time_point end, int64_t request) {
    Span s;
    s.name = name;
    s.start_ns = Offset(start);
    s.end_ns = Offset(end);
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    spans_.push_back(s);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const { return Offset(Clock::now()); }
  int64_t Offset(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null buffer (tracing off) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, int64_t request)
      : buffer_(buffer),
        index_(buffer == nullptr ? -1 : buffer->Begin(name, request)) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

/// Per-span-name totals: count, summed duration, and summed self time (the
/// duration minus what the span's direct children cover).
struct SpanTotals {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Totals by span name over every buffer.
inline std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<const SpanBuffer*>& buffers) {
  std::map<std::string, SpanTotals> out;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const int64_t dur = s.end_ns - s.start_ns;
      SpanTotals& t = out[s.name];
      ++t.count;
      t.total_ms += static_cast<double>(dur) / 1e6;
      t.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
    }
  }
  return out;
}

/// The layer of a span name: the part before the first '.'.
inline std::string LayerOf(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Prints each layer's self time, span count, and share of all self time.
inline void PrintLayerTable(const std::map<std::string, SpanTotals>& totals) {
  std::map<std::string, SpanTotals> layers;
  double all_self = 0.0;
  for (const auto& [name, t] : totals) {
    SpanTotals& l = layers[LayerOf(name)];
    l.count += t.count;
    l.total_ms += t.total_ms;
    l.self_ms += t.self_ms;
    all_self += t.self_ms;
  }
  std::printf("%-10s %10s %14s %8s\n", "layer", "spans", "self ms",
              "share");
  for (const auto& [layer, t] : layers) {
    std::printf("%-10s %10lld %14.3f %7.1f%%\n", layer.c_str(),
                static_cast<long long>(t.count), t.self_ms,
                all_self > 0 ? 100.0 * t.self_ms / all_self : 0.0);
  }
  std::printf("%-28s %10s %14s %14s\n", "span", "count", "total ms",
              "self ms");
  for (const auto& [name, t] : totals) {
    std::printf("%-28s %10lld %14.3f %14.3f\n", name.c_str(),
                static_cast<long long>(t.count), t.total_ms, t.self_ms);
  }
}

/// Writes every span as JSON: {"workload": ..., "spans": [{"name", "thread",
/// "start_us", "end_us", "parent", "request"}, ...]}. Parents index the same
/// array. Returns false when the file cannot be written.
inline bool WriteTraceJson(const std::string& path, const std::string& workload,
                           const std::vector<const SpanBuffer*>& buffers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [", workload.c_str());
  int64_t base = 0;
  bool first = true;
  for (size_t t = 0; t < buffers.size(); ++t) {
    const std::vector<Span>& spans = buffers[t]->spans();
    for (const Span& s : spans) {
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"thread\": %zu, \"start_us\": "
                   "%.3f, \"end_us\": %.3f, \"parent\": %lld, \"request\": "
                   "%lld}",
                   first ? "" : ",", s.name, t,
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns) / 1e3,
                   static_cast<long long>(s.parent < 0 ? -1
                                                       : base + s.parent),
                   static_cast<long long>(s.request));
      first = false;
    }
    base += static_cast<int64_t>(spans.size());
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace bench_skalla

#endif  // BENCH_SKALLA_TRACE_H_
