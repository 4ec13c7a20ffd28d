#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace skalla {

namespace {

// Pool health signals (docs/observability.md "Metrics registry"): queue
// depth says whether morsel work is backing up behind the workers, busy
// lanes say how much of the pool concurrent queries actually use.
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& gauge = obs::GetGauge("skalla_pool_queue_depth");
  return gauge;
}

obs::Gauge& BusyLanesGauge() {
  static obs::Gauge& gauge = obs::GetGauge("skalla_pool_busy_lanes");
  return gauge;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(0, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    QueueDepthGauge().Add(1);
    static obs::Counter& tasks_total =
        obs::GetCounter("skalla_pool_tasks_total");
    tasks_total.Increment();
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop(int worker_index) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      QueueDepthGauge().Sub(1);
    }
    // Lane occupancy on the pool-lane track; tasks re-home their own spans
    // onto logical tracks (site, coordinator) via TrackScope.
    obs::ScopedSpan span("pool.task", obs::TrackForLane(worker_index));
    obs::GaugeGuard busy(&BusyLanesGauge());
    task();
  }
}

namespace {

/// Shared state of one ParallelFor call. Helper tasks may be dequeued after
/// the call already finished (the caller drained every item itself), so the
/// state is reference-counted and helpers re-check `next` before touching
/// anything.
struct ForState {
  std::function<void(int64_t)> fn;
  int64_t total = 0;
  std::atomic<int64_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  int64_t done = 0;  // guarded by mu
  // Caller's open span and track, re-established on helper lanes so spans
  // opened inside fn() nest under the ParallelFor caller regardless of
  // which thread claims the item.
  uint64_t trace_parent = 0;
  int trace_track = obs::kTrackInherit;

  /// Claims and runs items until none are left; returns how many it ran.
  void DrainLoop() {
    obs::ParentScope parent_scope(trace_parent);
    obs::TrackScope track_scope(trace_track);
    int64_t ran = 0;
    for (;;) {
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) break;
      fn(i);
      ++ran;
    }
    if (ran > 0) {
      std::lock_guard<std::mutex> lock(mu);
      done += ran;
      if (done == total) cv.notify_all();
    }
  }
};

}  // namespace

void ThreadPool::ParallelFor(int64_t num_items,
                             const std::function<void(int64_t)>& fn,
                             int max_workers) {
  if (num_items <= 0) return;
  int lanes = max_workers > 0 ? max_workers : num_threads() + 1;
  lanes = static_cast<int>(
      std::min<int64_t>(lanes, num_items));
  if (lanes <= 1 || num_threads() == 0) {
    for (int64_t i = 0; i < num_items; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->fn = fn;
  state->total = num_items;
  if (obs::TraceEnabled()) {
    state->trace_parent = obs::CurrentSpanId();
    state->trace_track = obs::CurrentTrack();
  }
  for (int h = 1; h < lanes; ++h) {
    Submit([state] { state->DrainLoop(); });
  }
  state->DrainLoop();
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&state] { return state->done == state->total; });
}

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: joining workers during static destruction races
  // with other static teardown; the OS reaps the threads at exit.
  static ThreadPool* pool = new ThreadPool(DefaultThreadCount() - 1);
  return *pool;
}

int ThreadPool::DefaultThreadCount() {
  static const int count = [] {
    if (const char* env = std::getenv("SKALLA_THREADS")) {
      const int parsed = std::atoi(env);
      if (parsed >= 1) return parsed;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return count;
}

}  // namespace skalla
