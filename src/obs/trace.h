#ifndef SKALLA_OBS_TRACE_H_
#define SKALLA_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace skalla {
namespace obs {

/// \brief Runtime configuration of the query-lifecycle tracer.
///
/// Tracing is off by default and costs one relaxed atomic load per
/// instrumentation site when disabled (see ScopedSpan). It is turned on
/// either programmatically (ConfigureTracing) or via the SKALLA_TRACE
/// environment variable, parsed once at process start
/// (TraceConfigFromEnv). See docs/observability.md.
struct TraceConfig {
  bool enabled = false;
  /// Record every Nth morsel-lane span of a parallel local GMDJ
  /// evaluation (gmdj/local_eval.cc); 0 disables lane spans. Sampling
  /// keeps big scans from flooding the span buffer while still showing
  /// lane activity on the timeline.
  int morsel_sample = 16;
  /// Retained-span cap; spans beyond it are counted (DroppedSpanCount)
  /// but not stored, bounding tracer memory on long sessions.
  size_t max_spans = size_t{1} << 20;
  /// Export destinations honored by WriteConfiguredTraceOutputs()
  /// (obs/export.h); empty = skip. text_path "-" means stderr.
  std::string chrome_path;
  std::string text_path;
};

namespace internal {
// Split out of TraceConfig so the hot-path gate is a single relaxed
// atomic load (near-zero when tracing is disabled).
extern std::atomic<bool> g_trace_enabled;
extern std::atomic<int> g_morsel_sample;
}  // namespace internal

/// The tracer's one gate: true when tracing is configured on.
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Morsel-span sampling stride (TraceConfig::morsel_sample).
inline int MorselSampleEvery() {
  return internal::g_morsel_sample.load(std::memory_order_relaxed);
}

/// Installs `config` process-wide. Existing spans are kept; call
/// ResetTracing() for a clean slate. Thread-safe, but intended to be
/// called while no query is executing.
void ConfigureTracing(const TraceConfig& config);

/// The currently installed configuration.
TraceConfig CurrentTraceConfig();

/// Clears recorded spans (configuration is kept).
void ResetTracing();

/// Parses a SKALLA_TRACE value into a TraceConfig. Grammar: a comma list of
/// "on"/"1", "off"/"0", "chrome[:path]", "text[:path]", "sample:<n>". A
/// null or empty value, or any "off"/"0" token, leaves tracing disabled.
/// Any other token is kInvalidArgument.
Result<TraceConfig> TraceConfigFromEnv(const char* value);

// ---- Track model -----------------------------------------------------------
// Every span lives on one logical track of the exported timeline: the
// coordinator, one track per site, one per thread-pool lane, and one per
// aggregation-tree internal node.

inline constexpr int kTrackCoordinator = 0;
/// Sentinel for ScopedSpan/TrackScope: use the thread's current track.
inline constexpr int kTrackInherit = -1;

/// Maps a network endpoint id (net/sim_network.h: site >= 0, coordinator
/// -1, aggregator <= -2) to its track.
int TrackForSite(int endpoint);
/// The track of thread-pool lane `lane` (common/thread_pool.h worker index).
int TrackForLane(int lane);
/// Human name of a track ("coordinator", "site 3", "pool lane 1", ...).
std::string TrackName(int track);

/// One completed span. `name` points at static storage (string literals at
/// the instrumentation sites); dynamic context goes into `detail`.
struct TraceSpan {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  const char* name = "";
  std::string detail;
  int track = kTrackCoordinator;
  uint32_t thread = 0;   ///< small per-process thread index
  int64_t start_ns = 0;  ///< monotonic, relative to the trace epoch
  int64_t end_ns = 0;
};

/// Small dense index of the calling thread (assigned on first use).
uint32_t CurrentThreadIndex();
/// Monotonic nanoseconds since the trace epoch (process start).
int64_t TraceNowNs();
/// The innermost open span id on this thread (0 = none).
uint64_t CurrentSpanId();
/// The calling thread's current track (kTrackCoordinator by default).
int CurrentTrack();

/// Copies all recorded spans (completed spans only, in completion order).
std::vector<TraceSpan> SpanSnapshot();
/// Spans discarded because the max_spans cap was reached.
size_t DroppedSpanCount();

/// \brief RAII span: records [construction, destruction) when tracing is
/// enabled; a single relaxed load and no allocation when disabled.
///
/// `name` must have static storage duration (pass a string literal); pass
/// nullptr to disarm unconditionally (used for sampled spans). Dynamic
/// context is attached with set_detail(), which callers must guard behind
/// armed() so the argument string is never built when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int track = kTrackInherit);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool armed() const { return armed_; }
  uint64_t id() const { return id_; }
  void set_detail(std::string detail) {
    if (armed_) detail_ = std::move(detail);
  }

 private:
  bool armed_ = false;
  const char* name_ = nullptr;
  std::string detail_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int track_ = kTrackCoordinator;
  int64_t start_ns_ = 0;
};

/// \brief RAII: spans opened in this scope land on `track`.
///
/// Used to attribute work running on pool threads to the logical actor it
/// belongs to (a site's local evaluation runs on worker threads but shows
/// on that site's track). kTrackInherit makes it a no-op.
class TrackScope {
 public:
  explicit TrackScope(int track);
  ~TrackScope();

  TrackScope(const TrackScope&) = delete;
  TrackScope& operator=(const TrackScope&) = delete;

 private:
  bool armed_ = false;
  int saved_ = kTrackCoordinator;
};

/// \brief RAII: spans opened in this scope get `parent` as their parent.
///
/// Carries parent links across thread hops: ThreadPool::ParallelFor
/// captures the caller's CurrentSpanId() and helper lanes re-establish it,
/// so morsel spans nest under the scan span that spawned them. Parent 0
/// (or tracing disabled) makes it a no-op.
class ParentScope {
 public:
  explicit ParentScope(uint64_t parent);
  ~ParentScope();

  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  bool armed_ = false;
};

}  // namespace obs
}  // namespace skalla

#endif  // SKALLA_OBS_TRACE_H_
