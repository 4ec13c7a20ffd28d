#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/export.h"

namespace skalla {
namespace obs {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
std::atomic<int> g_morsel_sample{16};
}  // namespace internal

namespace {

// Track-id layout: 0 coordinator, [1, kLaneTrackBase) sites,
// [kLaneTrackBase, kAggTrackBase) pool lanes, kAggTrackBase+ aggregators.
constexpr int kLaneTrackBase = 10000;
constexpr int kAggTrackBase = 20000;

struct TracerState {
  std::mutex mu;
  TraceConfig config;
  std::vector<TraceSpan> spans;
  std::atomic<size_t> dropped{0};
  std::atomic<uint64_t> next_span_id{1};
  std::atomic<uint32_t> next_thread_index{1};
};

TracerState& State() {
  // Leaked on purpose: instrumented code (thread-pool workers, atexit
  // exporters) may record spans during static destruction.
  static TracerState* state = new TracerState();
  return *state;
}

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

thread_local std::vector<uint64_t> tls_span_stack;
thread_local int tls_track = kTrackCoordinator;
thread_local uint32_t tls_thread_index = 0;

void RecordSpan(TraceSpan span) {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.spans.size() >= state.config.max_spans) {
    state.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  state.spans.push_back(std::move(span));
}

// Reads SKALLA_TRACE once at process start and, when it names export
// destinations, registers an atexit writer so examples and benches get a
// trace file with no code changes. A malformed value is reported once and
// leaves tracing off.
const bool g_env_initialized = [] {
  const char* env = std::getenv("SKALLA_TRACE");
  if (env == nullptr || *env == '\0') return true;
  const Result<TraceConfig> config = TraceConfigFromEnv(env);
  if (!config.ok()) {
    std::fprintf(stderr, "[skalla] %s; tracing stays off\n",
                 config.status().message().c_str());
    return true;
  }
  if (!config->enabled) return true;
  ConfigureTracing(*config);
  if (!config->chrome_path.empty() || !config->text_path.empty()) {
    std::atexit([] { WriteConfiguredTraceOutputs(); });
  }
  return true;
}();

}  // namespace

void ConfigureTracing(const TraceConfig& config) {
  TracerState& state = State();
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.config = config;
  }
  internal::g_morsel_sample.store(config.morsel_sample,
                                  std::memory_order_relaxed);
  internal::g_trace_enabled.store(config.enabled, std::memory_order_relaxed);
}

TraceConfig CurrentTraceConfig() {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.config;
}

void ResetTracing() {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.spans.clear();
  state.dropped.store(0, std::memory_order_relaxed);
}

Result<TraceConfig> TraceConfigFromEnv(const char* value) {
  TraceConfig config;
  if (value == nullptr || *value == '\0') return config;
  const std::string v(value);
  config.enabled = true;
  size_t pos = 0;
  while (pos <= v.size()) {
    const size_t comma = v.find(',', pos);
    const std::string token =
        v.substr(pos, comma == std::string::npos ? std::string::npos
                                                 : comma - pos);
    const size_t colon = token.find(':');
    const std::string key = token.substr(0, colon);
    const std::string arg =
        colon == std::string::npos ? "" : token.substr(colon + 1);
    if (token.empty() || token == "on" || token == "1") {
      // A non-empty value turns tracing on already.
    } else if (token == "off" || token == "0") {
      config.enabled = false;
    } else if (key == "chrome") {
      config.chrome_path = arg.empty() ? "skalla_trace.json" : arg;
    } else if (key == "text") {
      config.text_path = arg.empty() ? "-" : arg;
    } else if (key == "sample" && !arg.empty() && arg.size() <= 9 &&
               arg.find_first_not_of("0123456789") == std::string::npos) {
      config.morsel_sample = std::atoi(arg.c_str());  // <= 9 digits: fits
    } else {
      return Status::InvalidArgument(
          "SKALLA_TRACE: invalid token '" + token +
          "' (expected on, off, chrome[:path], text[:path] or sample:<n>)");
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return config;
}

int TrackForSite(int endpoint) {
  if (endpoint >= 0) return 1 + endpoint;
  if (endpoint == -1) return kTrackCoordinator;
  return kAggTrackBase + (-2 - endpoint);  // EncodeAggregatorId inverse
}

int TrackForLane(int lane) { return kLaneTrackBase + lane; }

std::string TrackName(int track) {
  if (track == kTrackCoordinator) return "coordinator";
  if (track >= kAggTrackBase) {
    return "aggregator " + std::to_string(track - kAggTrackBase);
  }
  if (track >= kLaneTrackBase) {
    return "pool lane " + std::to_string(track - kLaneTrackBase);
  }
  return "site " + std::to_string(track - 1);
}

uint32_t CurrentThreadIndex() {
  if (tls_thread_index == 0) {
    tls_thread_index =
        State().next_thread_index.fetch_add(1, std::memory_order_relaxed);
  }
  return tls_thread_index;
}

int64_t TraceNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - TraceEpoch())
      .count();
}

uint64_t CurrentSpanId() {
  return tls_span_stack.empty() ? 0 : tls_span_stack.back();
}

int CurrentTrack() { return tls_track; }

std::vector<TraceSpan> SpanSnapshot() {
  TracerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.spans;
}

size_t DroppedSpanCount() {
  return State().dropped.load(std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char* name, int track) {
  if (name == nullptr || !TraceEnabled()) return;
  armed_ = true;
  name_ = name;
  track_ = track == kTrackInherit ? tls_track : track;
  parent_ = CurrentSpanId();
  id_ = State().next_span_id.fetch_add(1, std::memory_order_relaxed);
  tls_span_stack.push_back(id_);
  start_ns_ = TraceNowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!armed_) return;
  tls_span_stack.pop_back();
  TraceSpan span;
  span.id = id_;
  span.parent = parent_;
  span.name = name_;
  span.detail = std::move(detail_);
  span.track = track_;
  span.thread = CurrentThreadIndex();
  span.start_ns = start_ns_;
  span.end_ns = TraceNowNs();
  RecordSpan(std::move(span));
}

TrackScope::TrackScope(int track) {
  if (track == kTrackInherit || !TraceEnabled()) return;
  armed_ = true;
  saved_ = tls_track;
  tls_track = track;
}

TrackScope::~TrackScope() {
  if (armed_) tls_track = saved_;
}

ParentScope::ParentScope(uint64_t parent) {
  if (parent == 0 || !TraceEnabled()) return;
  armed_ = true;
  tls_span_stack.push_back(parent);
}

ParentScope::~ParentScope() {
  if (armed_) tls_span_stack.pop_back();
}

}  // namespace obs
}  // namespace skalla
