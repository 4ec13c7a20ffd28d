#ifndef SKALLA_SERVER_ADMISSION_H_
#define SKALLA_SERVER_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>

#include "common/result.h"

namespace skalla {
namespace server {

/// Admission limits of a Server.
struct AdmissionOptions {
  /// Queries executing simultaneously; further admitted queries wait in
  /// the priority queue. Must be >= 1.
  int max_concurrent = 4;
  /// Queries allowed to wait; beyond it new queries are refused with a
  /// typed kUnavailable (load shedding, not an error of the query).
  size_t max_queue = 64;
  /// Cost-aware shedding (0 = off): once the queue is at least half full,
  /// queries whose estimated cost exceeds this threshold are refused
  /// immediately — under pressure the gate sheds the expensive work first
  /// and keeps admitting cheap queries, bounding the latency tail.
  double shed_cost_threshold = 0;
};

/// \brief Blocking priority admission gate for concurrent queries.
///
/// Each query calls Acquire() on its own (client) thread before executing
/// and Release() after; at most `max_concurrent` queries hold a slot at
/// once. Waiters are granted slots by (priority desc, estimated cost asc,
/// arrival order asc): a HIGH query admitted later overtakes queued
/// NORMAL/LOW queries but never preempts a running one, and within a
/// priority cheap queries (by the opt/cost_model estimate the server
/// passes in) run first — shortest-job-first, which minimizes mean wait.
/// The skew literature's p99 lesson (PAPERS.md) is encoded here as load
/// shedding: a bounded queue refuses work instead of growing an unbounded
/// tail, preferring to shed expensive work (shed_cost_threshold).
///
/// Why slots gate *queries* while the pool gates *lanes*: an admitted query
/// evaluates a round's sites, and each site's morsels, on the shared
/// ThreadPool under its own lane quota (ExecHooks::local_threads, which
/// caps both layers), so admission bounds memory and coordination state
/// while the pool stays fully multiplexed.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Blocks until a slot is granted. Returns:
  ///  - OK: the caller owns a slot and must Release() it;
  ///  - kUnavailable: the wait queue is full (the call never waited);
  ///  - kDeadlineExceeded: `deadline_sec` > 0 elapsed while queued;
  ///  - kCancelled: CancelQueued(ticket) was called while queued.
  /// `ticket` identifies this wait for CancelQueued; `priority` is higher
  /// = sooner. `deadline_sec` <= 0 waits forever. `estimated_cost` (any
  /// consistent unit; the server passes modelled seconds) breaks ties
  /// within a priority — cheaper first — and feeds cost-aware shedding;
  /// 0 preserves pure arrival order.
  Status Acquire(uint64_t ticket, int priority, double deadline_sec,
                 double estimated_cost = 0.0);

  /// Releases a slot obtained by a successful Acquire.
  void Release();

  /// Wakes the queued waiter with this ticket so its Acquire returns
  /// kCancelled. False when no such waiter is queued (it may already be
  /// running — cancelling running queries is the coordinator flag's job).
  bool CancelQueued(uint64_t ticket);

  /// Running + queued read under one lock acquisition. Server::stats()
  /// uses this instead of separate running()/queued() calls so the two
  /// numbers describe the same instant and accounting identities
  /// (submitted >= outcomes + running + queued) hold in tests.
  struct Snapshot {
    int running = 0;
    size_t queued = 0;
  };
  Snapshot snapshot() const;

  int running() const;
  size_t queued() const;

 private:
  struct Waiter {
    uint64_t ticket = 0;
    bool cancelled = false;
  };
  /// Queue key: (-priority, estimated cost, seq) so the map's begin() is
  /// the next grant.
  using QueueKey = std::tuple<int, double, uint64_t>;

  AdmissionOptions options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<QueueKey, Waiter*> queue_;
  uint64_t next_seq_ = 0;
  int running_ = 0;
};

}  // namespace server
}  // namespace skalla

#endif  // SKALLA_SERVER_ADMISSION_H_
