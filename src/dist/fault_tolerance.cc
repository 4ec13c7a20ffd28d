#include "dist/fault_tolerance.h"

#include <algorithm>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/partition_info.h"
#include "storage/serializer.h"

namespace skalla {

Site* SiteRoster::Failover(int sid, std::string* why) {
  if (failed_over_[static_cast<size_t>(sid)]) {
    *why = "its replica is already serving the slot";
    return nullptr;
  }
  auto it = replicas_.find(sid);
  if (it == replicas_.end()) {
    *why = "no replica is registered";
    return nullptr;
  }
  Site* primary = active_[static_cast<size_t>(sid)];
  if (!CoversPartition(it->second->partition_info(),
                       primary->partition_info())) {
    *why = "the replica's partition predicate does not cover the primary's";
    return nullptr;
  }
  active_[static_cast<size_t>(sid)] = it->second;
  failed_over_[static_cast<size_t>(sid)] = true;
  return it->second;
}

int SiteRoster::AddHelperSlot(Site* site, Site* failover_to) {
  const int sid = static_cast<int>(active_.size());
  active_.push_back(site);
  failed_over_.push_back(false);
  if (failover_to != nullptr) replicas_[sid] = failover_to;
  return sid;
}

namespace {

enum class FailureKind { kNone, kUnreachable, kTimeout };

// Per-site registry instruments of the wave driver — the continuous skew
// signal a METRICS scrape watches (the per-query equivalent lives in
// RoundMetrics; the skew detector learns from the latter). The per-site
// lookup builds a labeled name, so it is gated behind MetricsEnabled() at
// the call sites; this is per attempt per round, far off the row-at-a-time
// hot path.
obs::Histogram& SiteRoundHistogram(int sid) {
  return obs::GetHistogram(
      "skalla_dist_site_round_seconds{site=\"" + std::to_string(sid) + "\"}",
      obs::HistogramLayout::LatencySeconds());
}

obs::Counter& SiteBytesCounter(int sid, bool to_site) {
  return obs::GetCounter("skalla_dist_site_bytes_total{dir=\"" +
                         std::string(to_site ? "in" : "out") + "\",site=\"" +
                         std::to_string(sid) + "\"}");
}

}  // namespace

Result<std::vector<std::string>> DriveRoundWithRetries(
    SimNetwork* net, const RetryPolicy& retry, RoundMetrics* rm,
    SiteRoster* roster, const std::vector<int>& participants,
    const std::vector<DownMessage>& down, const std::string& reply_label,
    const SiteEvalFn& eval, bool parallel) {
  obs::ScopedSpan drive_span("round.drive", obs::kTrackCoordinator);
  if (drive_span.armed()) drive_span.set_detail(rm->label);
  {
    static obs::Counter& rounds_total =
        obs::GetCounter("skalla_dist_rounds_total");
    rounds_total.Increment();
  }
  const size_t n = participants.size();
  // Per-slot wall timings for the skew detector.
  if (rm->site_seconds.size() < n) rm->site_seconds.resize(n, 0.0);
  rm->site_loads.resize(n);
  for (size_t p = 0; p < n; ++p) rm->site_loads[p].site = participants[p];
  const int attempts_per_budget = std::max(1, retry.max_attempts);
  std::vector<std::string> replies(n);
  std::vector<int> budget(n, attempts_per_budget);
  std::vector<FailureKind> last_failure(n, FailureKind::kNone);
  std::vector<bool> done(n, false);
  std::vector<size_t> pending(n);
  for (size_t p = 0; p < n; ++p) pending[p] = p;
  int attempt = 0;

  while (!pending.empty()) {
    // Per-slot link-time charge of this wave; folded into comm_sec per
    // sender link at the end of the wave.
    std::vector<double> charge(n, 0.0);

    // ---- Downstream wave (deterministic slot order). ----
    std::vector<size_t> eligible;
    std::vector<double> down_sec(n, 0.0);
    for (size_t p : pending) {
      const int sid = participants[p];
      Site* site = roster->active(sid);
      SiteLoad& load = rm->site_loads[p];
      load.attempts++;
      if (attempt > 0) {
        rm->retries++;
        load.retries++;
        static obs::Counter& retries_total =
            obs::GetCounter("skalla_dist_retries_total");
        retries_total.Increment();
        charge[p] += retry.BackoffSeconds(attempt);
      }
      const DownMessage& msg = down[p];
      // A delta payload is only safe on the first attempt: after a failed
      // exchange (or a failover) the receiver's cached state is
      // unknowable, so retries ship the full standalone payload.
      const bool fall_back = attempt > 0 && msg.fallback_bytes > 0;
      const size_t send_bytes = fall_back ? msg.fallback_bytes : msg.bytes;
      const TransferOutcome out =
          net->Transfer(msg.from, site->id(), send_bytes, msg.rows, msg.label,
                        attempt, TransferDirection::kToSite);
      rm->bytes_to_sites += send_bytes;
      rm->groups_to_sites += msg.rows;
      load.bytes_in += send_bytes;
      load.groups_in += msg.rows;
      if (msg.rebalance && attempt == 0) {
        // The split surcharge: attempt-0 traffic of helper slots (retries
        // of the same slot are already in the retry surcharge).
        rm->bytes_rebalance += send_bytes;
        rm->groups_rebalance_to_sites += msg.rows;
      }
      if (obs::MetricsEnabled()) {
        static obs::Counter& shipped_total =
            obs::GetCounter("skalla_dist_bytes_shipped_total");
        shipped_total.Add(send_bytes);
        SiteBytesCounter(sid, /*to_site=*/true).Add(send_bytes);
      }
      rm->bytes_baseline_skl1 +=
          msg.baseline_bytes > 0 ? msg.baseline_bytes : send_bytes;
      if (attempt == 0 && msg.fallback_bytes > msg.bytes) {
        rm->bytes_saved_by_delta += msg.fallback_bytes - msg.bytes;
        static obs::Counter& delta_saved_total =
            obs::GetCounter("skalla_dist_bytes_saved_by_delta_total");
        delta_saved_total.Add(msg.fallback_bytes - msg.bytes);
      }
      if (attempt > 0) {
        rm->bytes_retransmitted += send_bytes;
        rm->groups_retry_to_sites += msg.rows;
      }
      if (!out.delivered) {
        // Loss is detected at the attempt deadline (or, without deadlines,
        // by an immediate negative acknowledgement).
        rm->drops++;
        load.drops++;
        static obs::Counter& drops_total =
            obs::GetCounter("skalla_dist_drops_total");
        drops_total.Increment();
        last_failure[p] = FailureKind::kUnreachable;
        charge[p] += retry.deadline_enabled() ? retry.DeadlineSeconds(attempt)
                                              : out.seconds;
        continue;
      }
      down_sec[p] = out.seconds;
      eligible.push_back(p);
    }

    // ---- Local evaluation (parallel across sites when enabled). ----
    std::vector<Result<Table>> outcomes(
        n, Result<Table>(Status::Internal("not evaluated")));
    std::vector<SiteEvalReport> reports(n);
    auto eval_one = [&](size_t p) {
      const int sid = participants[p];
      Site* site = roster->active(sid);
      // Local evaluation runs on pool threads; home its spans (and the
      // nested morsel spans) onto the track of the site that evaluates —
      // after a failover, the replica's.
      obs::TrackScope track(obs::TrackForSite(site->id()));
      obs::ScopedSpan span("site.eval");
      if (span.armed()) {
        std::string detail = "site " + std::to_string(site->id()) +
                             " attempt " + std::to_string(attempt);
        if (site->id() != sid) {
          detail += " (replica of site " + std::to_string(sid) + ")";
        }
        span.set_detail(std::move(detail));
      }
      outcomes[p] = eval(static_cast<int>(p), site, &reports[p]);
    };
    if (parallel && eligible.size() > 1) {
      // Site tasks of a wave run on the shared pool (one task per slot,
      // not one OS thread per site); each task's morsel-driven local
      // evaluation subdivides further on the same pool.
      ThreadPool::Shared().ParallelFor(
          static_cast<int64_t>(eligible.size()),
          [&](int64_t i) { eval_one(eligible[static_cast<size_t>(i)]); });
    } else {
      for (size_t p : eligible) eval_one(p);
    }

    // ---- Upstream wave + deadline check (deterministic slot order). ----
    for (size_t p : eligible) {
      const int sid = participants[p];
      Site* site = roster->active(sid);
      SiteLoad& load = rm->site_loads[p];
      const double cpu = reports[p].cpu_sec;
      const ScanCounters& scan = reports[p].scan;
      rm->detail_rows_scanned += scan.rows_scanned;
      rm->detail_rows_matched += scan.rows_matched;
      rm->morsels_vectorized += scan.morsels_vectorized;
      rm->morsels_scalar += scan.morsels_scalar;
      // Non-fault evaluation errors are logic bugs, not outages: propagate.
      SKALLA_ASSIGN_OR_RETURN(Table reply_table, std::move(outcomes[p]));
      std::string payload = Serializer::SerializeTable(reply_table);
      const TransferOutcome out = net->Transfer(
          site->id(), down[p].from, payload.size(), reply_table.num_rows(),
          reply_label, attempt, TransferDirection::kToCoordinator);
      rm->bytes_to_coord += payload.size();
      rm->groups_to_coord += reply_table.num_rows();
      load.bytes_out += payload.size();
      load.groups_out += reply_table.num_rows();
      if (down[p].rebalance && attempt == 0) {
        rm->bytes_rebalance += payload.size();
        rm->groups_rebalance_to_coord += reply_table.num_rows();
      }
      if (obs::MetricsEnabled()) {
        static obs::Counter& shipped_total =
            obs::GetCounter("skalla_dist_bytes_shipped_total");
        shipped_total.Add(payload.size());
        SiteBytesCounter(sid, /*to_site=*/false).Add(payload.size());
      }
      rm->bytes_baseline_skl1 += Serializer::Skl1Size(reply_table);
      if (attempt > 0) {
        rm->bytes_retransmitted += payload.size();
        rm->groups_retry_to_coord += reply_table.num_rows();
      }
      const double deadline = retry.DeadlineSeconds(attempt);
      if (!out.delivered) {
        rm->drops++;
        load.drops++;
        static obs::Counter& drops_total =
            obs::GetCounter("skalla_dist_drops_total");
        drops_total.Increment();
        rm->site_cpu_sum_sec += cpu;  // the site did do the work
        load.cpu_sec += cpu;
        if (obs::MetricsEnabled()) SiteRoundHistogram(sid).Observe(cpu);
        last_failure[p] = FailureKind::kUnreachable;
        // The coordinator waited through the whole exchange before giving
        // up on the reply.
        charge[p] += retry.deadline_enabled() ? deadline
                                              : down_sec[p] + out.seconds;
        continue;
      }
      const double attempt_sec = down_sec[p] + cpu + out.seconds;
      if (retry.deadline_enabled() && attempt_sec > deadline) {
        rm->timeouts++;
        load.timeouts++;
        static obs::Counter& timeouts_total =
            obs::GetCounter("skalla_dist_timeouts_total");
        timeouts_total.Increment();
        rm->site_cpu_sum_sec += cpu;
        load.cpu_sec += cpu;
        if (obs::MetricsEnabled()) SiteRoundHistogram(sid).Observe(cpu);
        last_failure[p] = FailureKind::kTimeout;
        charge[p] += deadline;
        continue;
      }
      charge[p] += down_sec[p] + out.seconds;
      // Track the fastest and slowest successful site alongside the max —
      // PROFILE's min/avg/max column and straggler flag come from these.
      rm->site_cpu_min_sec = rm->slowest_site < 0
                                 ? cpu
                                 : std::min(rm->site_cpu_min_sec, cpu);
      if (rm->slowest_site < 0 || cpu > rm->site_cpu_max_sec) {
        rm->slowest_site = sid;
      }
      rm->site_cpu_max_sec = std::max(rm->site_cpu_max_sec, cpu);
      rm->site_cpu_sum_sec += cpu;
      load.cpu_sec += cpu;
      rm->site_seconds[p] = cpu;
      if (obs::MetricsEnabled()) SiteRoundHistogram(sid).Observe(cpu);
      replies[p] = std::move(payload);
      done[p] = true;
    }

    // ---- Fold this wave's link time into the round: slots sharing a
    //      sender serialize on its link, distinct senders run in parallel.
    //      Sums run in slot order, so a flat wave charges exactly the sum
    //      over slots. ----
    std::map<int, double> per_sender;
    double wave_comm = 0.0;
    for (size_t p : pending) {
      wave_comm = std::max(wave_comm, per_sender[down[p].from] += charge[p]);
    }
    rm->comm_sec += wave_comm;

    // ---- Cull finished slots; exhausted slots fail over or abort. ----
    std::vector<size_t> next_pending;
    Status failed;
    for (size_t p : pending) {
      if (done[p]) continue;
      const int sid = participants[p];
      if (attempt + 1 >= budget[p]) {
        std::string why;
        Site* replica = roster->Failover(sid, &why);
        if (replica == nullptr) {
          const bool timed_out = last_failure[p] == FailureKind::kTimeout;
          failed = Status(
              timed_out ? StatusCode::kDeadlineExceeded
                        : StatusCode::kUnavailable,
              StrFormat("site %d %s in round '%s' after %d attempt(s); %s",
                        sid, timed_out ? "missed the deadline" : "unreachable",
                        rm->label.c_str(), attempt + 1, why.c_str()));
          break;
        }
        rm->failovers++;
        rm->site_loads[p].failovers++;
        static obs::Counter& failovers_total =
            obs::GetCounter("skalla_dist_failovers_total");
        failovers_total.Increment();
        budget[p] += attempts_per_budget;
      }
      next_pending.push_back(p);
    }
    // The round's fault counts so far, on its timeline span: a round that
    // gives up carries them too.
    if (drive_span.armed() &&
        rm->retries + rm->timeouts + rm->drops + rm->failovers > 0) {
      drive_span.set_detail(StrFormat(
          "%s: retries=%d timeouts=%d drops=%d failovers=%d",
          rm->label.c_str(), rm->retries, rm->timeouts, rm->drops,
          rm->failovers));
    }
    if (!failed.ok()) return failed;
    pending = std::move(next_pending);
    ++attempt;
  }
  return replies;
}

}  // namespace skalla
