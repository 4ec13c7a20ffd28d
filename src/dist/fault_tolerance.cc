#include "dist/fault_tolerance.h"

#include <algorithm>

#include "common/string_util.h"
#include "common/thread_pool.h"
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

size_t DownMessage::Book(int attempt, SiteLoad* row) const {
  // A delta payload is only safe on the first attempt: after a failed
  // exchange (or a failover) the receiver's cached state is unknowable, so
  // retries ship the full standalone payload.
  const bool retry = attempt > 0;
  const size_t sent = retry && fallback_bytes > 0 ? fallback_bytes : bytes;
  row->bytes_in += sent;
  row->groups_in += rows;
  row->bytes_baseline_skl1 += baseline_bytes > 0 ? baseline_bytes : sent;
  if (retry) {
    row->bytes_retransmitted += sent;
    row->groups_retry_in += rows;
  } else if (fallback_bytes > bytes) {
    row->bytes_saved_by_delta += fallback_bytes - bytes;
  }
  return sent;
}

void BookReply(const Table& reply, size_t bytes, int attempt, SiteLoad* row) {
  row->bytes_out += bytes;
  row->groups_out += reply.num_rows();
  row->bytes_baseline_skl1 += Serializer::Skl1Size(reply);
  if (attempt > 0) {
    row->bytes_retransmitted += bytes;
    row->groups_retry_out += reply.num_rows();
  }
}

namespace {

enum class FailureKind { kNone, kUnreachable, kTimeout };

}  // namespace

Result<std::vector<std::string>> DriveRoundWithRetries(
    SimNetwork* net, const RetryPolicy& retry, RoundMetrics* rm,
    SiteRoster* roster, const std::vector<int>& participants,
    const std::vector<DownMessage>& down, const std::string& reply_label,
    const SiteEvalFn& eval, int lanes) {
  obs::ScopedSpan drive_span("round.drive", obs::kTrackCoordinator);
  if (drive_span.armed()) drive_span.set_detail(rm->label);
  const size_t n = participants.size();
  // Every slot's row exists before the first wave, so no row is appended
  // (and no reference into the rows moved) while a wave runs.
  for (size_t p = 0; p < n; ++p) {
    rm->Exchange(participants[p]).rebalance = down[p].rebalance;
  }
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
    Status failed;

    // ---- Downstream wave (deterministic slot order). ----
    std::vector<size_t> eligible;
    std::vector<double> down_sec(n, 0.0);
    for (size_t p : pending) {
      Site* site = roster->active(participants[p]);
      SiteLoad& load = rm->Exchange(participants[p]);
      load.attempts++;
      if (attempt > 0) {
        load.retries++;
        charge[p] += retry.BackoffSeconds(attempt);
      }
      const DownMessage& msg = down[p];
      const TransferOutcome out = net->Transfer(
          msg.from, site->id(), msg.Book(attempt, &load), msg.rows, msg.label,
          attempt, TransferDirection::kToSite);
      if (!out.delivered) {
        // Loss is detected at the attempt deadline (or, without deadlines,
        // by an immediate negative acknowledgement).
        load.drops++;
        last_failure[p] = FailureKind::kUnreachable;
        charge[p] += retry.deadline_enabled() ? retry.DeadlineSeconds(attempt)
                                              : out.seconds;
        continue;
      }
      down_sec[p] = out.seconds;
      eligible.push_back(p);
    }

    // ---- Local evaluation, the wave's slots in parallel. ----
    std::vector<Result<Table>> outcomes(
        n, Result<Table>(Status::Internal("not evaluated")));
    std::vector<SiteEvalReport> reports(n);
    // Site tasks of a wave run on the shared pool (one task per slot, not
    // one OS thread per site), at most `lanes` at once; one lane runs them
    // inline in slot order. Each task's morsel-driven local evaluation
    // subdivides further on the same pool.
    ThreadPool::Shared().ParallelFor(
        static_cast<int64_t>(eligible.size()),
        [&](int64_t i) {
          const size_t p = eligible[static_cast<size_t>(i)];
          const int sid = participants[p];
          Site* site = roster->active(sid);
          // Home this task's spans (and the nested morsel spans) onto the
          // track of the site that evaluates — after a failover, the
          // replica's.
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
        },
        lanes);

    // ---- Upstream wave + deadline check (deterministic slot order). ----
    for (size_t p : eligible) {
      const int sid = participants[p];
      Site* site = roster->active(sid);
      SiteLoad& load = rm->Exchange(sid);
      load.scan += reports[p].scan;
      // Non-fault evaluation errors are logic bugs, not outages: propagate.
      if (!outcomes[p].ok()) {
        failed = outcomes[p].status();
        break;
      }
      const Table& reply_table = *outcomes[p];
      // The site did the work, whatever becomes of its reply.
      const double cpu = reports[p].cpu_sec;
      load.cpu_sec += cpu;
      std::string payload = Serializer::SerializeTable(reply_table);
      const TransferOutcome out = net->Transfer(
          site->id(), down[p].from, payload.size(), reply_table.num_rows(),
          reply_label, attempt, TransferDirection::kToCoordinator);
      BookReply(reply_table, payload.size(), attempt, &load);
      const double deadline = retry.DeadlineSeconds(attempt);
      if (!out.delivered) {
        load.drops++;
        last_failure[p] = FailureKind::kUnreachable;
        // The coordinator waited through the whole exchange before giving
        // up on the reply.
        charge[p] += retry.deadline_enabled() ? deadline
                                              : down_sec[p] + out.seconds;
        continue;
      }
      const double attempt_sec = down_sec[p] + cpu + out.seconds;
      if (retry.deadline_enabled() && attempt_sec > deadline) {
        load.timeouts++;
        last_failure[p] = FailureKind::kTimeout;
        charge[p] += deadline;
        continue;
      }
      charge[p] += down_sec[p] + out.seconds;
      load.success_sec = cpu;
      replies[p] = std::move(payload);
      done[p] = true;
    }
    rm->site_cpu_max_sec = rm->ReplySeconds().max;
    rm->site_cpu_sum_sec = rm->Total().cpu_sec;
    if (!failed.ok()) return failed;

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
        rm->Exchange(sid).failovers++;
        budget[p] += attempts_per_budget;
      }
      next_pending.push_back(p);
    }
    // The round's fault counts so far, on its timeline span: a round that
    // gives up carries them too.
    if (drive_span.armed()) {
      const SiteLoad total = rm->Total();
      if (total.retries + total.timeouts + total.drops + total.failovers > 0) {
        drive_span.set_detail(StrFormat(
            "%s: retries=%d timeouts=%d drops=%d failovers=%d",
            rm->label.c_str(), total.retries, total.timeouts, total.drops,
            total.failovers));
      }
    }
    if (!failed.ok()) return failed;
    pending = std::move(next_pending);
    ++attempt;
  }
  return replies;
}

}  // namespace skalla
