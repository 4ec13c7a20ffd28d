#include "server/server.h"

#include <chrono>
#include <sstream>
#include <utility>
#include <vector>

#include "flow/flowgen.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "skalla/report.h"
#include "sql/olap_parser.h"
#include "storage/csv.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace server {

namespace {

/// Releases an admission slot on every exit path of HandleQuery.
class SlotGuard {
 public:
  explicit SlotGuard(AdmissionController* admission) : admission_(admission) {}
  ~SlotGuard() {
    if (admission_ != nullptr) admission_->Release();
  }
  SlotGuard(const SlotGuard&) = delete;
  SlotGuard& operator=(const SlotGuard&) = delete;

 private:
  AdmissionController* admission_;
};

/// Per-lane latency instruments (lane = admission priority: low/normal/
/// high), registered once on first use. Label values never change once
/// shipped — docs/observability.md.
obs::Histogram& QueueWaitHistogram(int priority) {
  static obs::Histogram* lanes[3] = {
      &obs::GetHistogram("skalla_server_queue_wait_seconds{lane=\"low\"}",
                         obs::HistogramLayout::LatencySeconds()),
      &obs::GetHistogram("skalla_server_queue_wait_seconds{lane=\"normal\"}",
                         obs::HistogramLayout::LatencySeconds()),
      &obs::GetHistogram("skalla_server_queue_wait_seconds{lane=\"high\"}",
                         obs::HistogramLayout::LatencySeconds())};
  return *lanes[priority >= 0 && priority <= 2 ? priority : 1];
}

obs::Histogram& QueryLatencyHistogram(int priority) {
  static obs::Histogram* lanes[3] = {
      &obs::GetHistogram("skalla_server_query_seconds{lane=\"low\"}",
                         obs::HistogramLayout::LatencySeconds()),
      &obs::GetHistogram("skalla_server_query_seconds{lane=\"normal\"}",
                         obs::HistogramLayout::LatencySeconds()),
      &obs::GetHistogram("skalla_server_query_seconds{lane=\"high\"}",
                         obs::HistogramLayout::LatencySeconds())};
  return *lanes[priority >= 0 && priority <= 2 ? priority : 1];
}

double ElapsedSeconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

}  // namespace

Server::Server(std::unique_ptr<Warehouse> warehouse, ServerOptions options)
    : warehouse_(std::move(warehouse)),
      options_(options),
      admission_(options.admission),
      cache_(options.cache_max_entries) {}

Server::Server(int num_sites, ServerOptions options)
    : Server(std::make_unique<Warehouse>(num_sites), options) {}

std::string Server::HandleCommand(const std::string& text) {
  Result<Command> cmd = ParseCommand(text);
  if (!cmd.ok()) return ErrResponse(cmd.status());
  Result<std::string> payload = Dispatch(*cmd);
  if (!payload.ok()) return ErrResponse(payload.status());
  return OkResponse(*payload);
}

Result<std::string> Server::Dispatch(const Command& cmd) {
  switch (cmd.type) {
    case CommandType::kQuery:
      return HandleQuery(cmd);
    case CommandType::kProfile:
      return HandleProfile(cmd);
    case CommandType::kLoad:
      return HandleLoad(cmd);
    case CommandType::kMutate:
      return HandleMutate(cmd);
    case CommandType::kStats:
      return HandleStats();
    case CommandType::kMetrics:
      return HandleMetrics(cmd);
    case CommandType::kCancel:
      return HandleCancel(cmd);
  }
  return Status::Internal("unhandled command type");
}

VersionMap Server::SnapshotVersions(const GmdjExpr& expr) {
  std::lock_guard<std::mutex> lock(versions_mu_);
  VersionMap snapshot;
  auto stamp = [&](const std::string& table) {
    auto it = versions_.find(table);
    snapshot[table] = it == versions_.end() ? 0 : it->second;
  };
  stamp(expr.base.source_table);
  for (const GmdjOp& op : expr.ops) stamp(op.detail_table);
  return snapshot;
}

void Server::BumpVersion(const std::string& table) {
  {
    std::lock_guard<std::mutex> lock(versions_mu_);
    ++versions_[table];
  }
  cache_.InvalidateTable(table);
  // Mutated site data can change what a round ships, so the shared
  // delta-base mirror must be rebuilt from scratch. Callers hold the
  // exclusive warehouse lock, so no query is borrowing the cache here.
  {
    std::lock_guard<std::mutex> lock(ship_cache_mu_);
    ship_cache_.clear();
  }
}

Result<std::string> Server::HandleQuery(const Command& cmd) {
  return ExecuteQueryCommand(cmd, nullptr);
}

Result<std::string> Server::HandleProfile(const Command& cmd) {
  // Every number rendered — rounds, totals, per-site load — comes from the
  // query's own ExecutionMetrics, so concurrent queries never bleed in.
  ProfileCapture capture;
  Result<std::string> payload = ExecuteQueryCommand(cmd, &capture);
  if (!payload.ok()) return payload.status();

  QueryProfileInfo info;
  info.result_cache_hit = capture.result_cache_hit;
  info.resumed_rounds = capture.resumed_rounds;
  const QueryResult* result =
      capture.result.has_value() ? &*capture.result : nullptr;
  return FormatQueryProfile(result, info);
}

Result<std::string> Server::HandleMetrics(const Command& cmd) {
  return cmd.metrics_json ? obs::MetricsJsonl() : obs::ExposeMetrics();
}

Result<std::string> Server::ExecuteQueryCommand(const Command& cmd,
                                                ProfileCapture* capture) {
  const auto started = std::chrono::steady_clock::now();
  queries_submitted_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& submitted_total =
      obs::GetCounter("skalla_server_queries_submitted_total");
  submitted_total.Increment();

  // Parse before admission: a malformed query never occupies a slot.
  Result<GmdjExpr> expr = ParseOlapQuery(cmd.query_text);
  if (!expr.ok()) {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& failed_total =
        obs::GetCounter("skalla_server_queries_failed_total");
    failed_total.Increment();
    return expr.status();
  }

  auto active = std::make_shared<ActiveQuery>();
  active->id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  active->priority = static_cast<int>(cmd.priority);
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    active_[active->id] = active;
  }
  // Unregister on every exit path.
  auto unregister = [this, &active, started](const Status& status) {
    {
      std::lock_guard<std::mutex> lock(active_mu_);
      active_.erase(active->id);
    }
    if (status.ok()) {
      queries_completed_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& completed_total =
          obs::GetCounter("skalla_server_queries_completed_total");
      completed_total.Increment();
    } else if (status.code() == StatusCode::kCancelled) {
      queries_cancelled_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& cancelled_total =
          obs::GetCounter("skalla_server_queries_cancelled_total");
      cancelled_total.Increment();
    } else if (status.code() == StatusCode::kUnavailable ||
               status.code() == StatusCode::kDeadlineExceeded) {
      queries_shed_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& shed_total =
          obs::GetCounter("skalla_server_queries_shed_total");
      shed_total.Increment();
    } else {
      queries_failed_.fetch_add(1, std::memory_order_relaxed);
      static obs::Counter& failed_total =
          obs::GetCounter("skalla_server_queries_failed_total");
      failed_total.Increment();
    }
    QueryLatencyHistogram(active->priority).Observe(ElapsedSeconds(started));
  };

  obs::ScopedSpan span("server.query", obs::kTrackCoordinator);
  if (span.armed()) {
    span.set_detail("id=" + std::to_string(active->id) +
                    " prio=" + std::to_string(active->priority));
  }

  // Cost-weighted admission: price the query with the calibrated model
  // before queuing, so within a priority cheap queries overtake expensive
  // ones and cost-aware shedding has a number to judge. An estimate
  // failure (e.g. a relation without statistics) degrades to 0 — pure
  // arrival order, the pre-cost behavior.
  double estimated_cost = 0.0;
  {
    std::shared_lock<std::shared_mutex> read_lock(warehouse_mu_);
    const OptimizerOptions estimate_opt = options_.optimize
                                              ? OptimizerOptions::All()
                                              : OptimizerOptions::None();
    Result<DistributedPlan> priced = warehouse_->Plan(*expr, estimate_opt);
    if (priced.ok()) {
      std::lock_guard<std::mutex> stats_lock(estimate_mu_);
      Result<CostBreakdown> cost = warehouse_->EstimateCost(*priced);
      if (cost.ok()) estimated_cost = cost->TotalSeconds();
    }
  }

  // CANCEL may land before Acquire even queues us; honor it here so the
  // client's cancel is never lost to that race.
  Status admitted;
  if (active->cancel.load(std::memory_order_relaxed)) {
    admitted = Status::Cancelled("query cancelled before admission");
  } else {
    obs::ScopedSpan wait_span("server.admit", obs::kTrackCoordinator);
    const auto wait_started = std::chrono::steady_clock::now();
    admitted = admission_.Acquire(active->id, active->priority,
                                  cmd.deadline_sec, estimated_cost);
    QueueWaitHistogram(active->priority)
        .Observe(ElapsedSeconds(wait_started));
  }
  if (!admitted.ok()) {
    unregister(admitted);
    return admitted;
  }

  Result<std::string> payload = [&]() -> Result<std::string> {
    // The slot is released when this scope exits — strictly before the
    // outcome counter bumps in unregister(), so a stats() snapshot never
    // counts one query as both running and completed (ServerStats doc).
    SlotGuard slot(&admission_);
    active->running.store(true, std::memory_order_relaxed);

    // Shared lock: mutations (exclusive) cannot interleave with this
    // query, so the version snapshot, cache probes, and execution all see
    // one consistent warehouse state.
    std::shared_lock<std::shared_mutex> read_lock(warehouse_mu_);

    const bool use_cache = options_.enable_result_cache && !cmd.no_cache;
    const bool use_prefix = options_.enable_prefix_reuse && !cmd.no_cache;
    const VersionMap versions = SnapshotVersions(*expr);
    const std::string key = CanonicalQueryKey(*expr);

    if (use_cache) {
      std::optional<std::string> hit = cache_.Lookup(key, versions);
      if (hit.has_value()) {
        if (capture != nullptr) capture->result_cache_hit = true;
        return *std::move(hit);
      }
    }

    const OptimizerOptions opt =
        options_.optimize ? OptimizerOptions::All() : OptimizerOptions::None();
    Result<DistributedPlan> plan = warehouse_->Plan(*expr, opt);
    if (!plan.ok()) return plan.status();

    std::vector<std::string> prefix_keys;
    std::optional<PrefixMatch> resume;
    if (use_prefix) {
      prefix_keys = PlanPrefixKeys(*plan);
      resume = cache_.LookupPrefix(prefix_keys, versions);
    }

    ExecHooks hooks;
    hooks.local_threads = cmd.threads;
    hooks.deadline_sec = cmd.deadline_sec;
    hooks.cancel = &active->cancel;
    if (resume.has_value()) {
      hooks.resume_x = &resume->x;
      hooks.resume_rounds = resume->rounds;
      if (capture != nullptr) capture->resumed_rounds = resume->rounds;
    }
    // Capture X after each executed round for the prefix cache. The i-th
    // callback finishes round start+i, whose key is prefix_keys[start+i].
    std::vector<std::pair<size_t, Table>> captured;
    if (use_prefix) {
      hooks.round_observer = [&captured](size_t ops_done, const Table& x) {
        captured.emplace_back(ops_done, x);
      };
    }

    // Borrow the shared delta-base cache when no other query holds it;
    // on contention this query simply runs with a private per-query
    // cache (identical responses either way — invariant 10).
    std::unique_lock<std::mutex> ship_lock(ship_cache_mu_, std::try_to_lock);
    if (ship_lock.owns_lock()) hooks.ship_cache = &ship_cache_;

    Result<QueryResult> result = warehouse_->ExecutePlan(*plan, hooks);
    if (!result.ok()) return result.status();

    std::string csv = CsvToString(result->table);
    if (use_prefix) {
      const size_t start = resume.has_value() ? resume->rounds : 0;
      for (size_t i = 0; i < captured.size(); ++i) {
        const size_t round_index = start + i;
        if (round_index >= prefix_keys.size()) break;
        cache_.StorePrefix(prefix_keys[round_index], round_index + 1,
                           captured[i].first, captured[i].second, versions);
      }
    }
    if (use_cache) cache_.Store(key, csv, versions);
    if (capture != nullptr) capture->result = *std::move(result);
    return csv;
  }();

  unregister(payload.status());
  return payload;
}

Result<std::string> Server::HandleLoad(const Command& cmd) {
  obs::ScopedSpan span("server.load", obs::kTrackCoordinator);
  if (span.armed()) {
    span.set_detail(cmd.load_kind + " rows=" +
                    std::to_string(cmd.load_rows));
  }
  std::unique_lock<std::shared_mutex> write_lock(warehouse_mu_);
  std::string table;
  Status status;
  if (cmd.load_kind == "tpcr") {
    table = "TPCR";
    TpcConfig config;
    config.num_rows = cmd.load_rows;
    config.num_customers = std::max<int64_t>(1, cmd.load_rows / 12);
    status = warehouse_->LoadByRange(table, GenerateTpcr(config), "NationKey",
                                     0, config.num_nations - 1,
                                     {"CustKey", "ClerkKey"});
  } else {
    table = "Flow";
    FlowConfig config;
    config.num_rows = cmd.load_rows;
    config.num_routers = warehouse_->num_sites();
    status = warehouse_->LoadByRange(table, GenerateFlows(config), "SourceAS",
                                     0, config.num_as - 1,
                                     {"SourceAS", "RouterId"});
  }
  if (!status.ok()) return status;
  BumpVersion(table);
  loads_.fetch_add(1, std::memory_order_relaxed);
  return "loaded " + table + " " + std::to_string(cmd.load_rows);
}

Result<std::string> Server::HandleMutate(const Command& cmd) {
  obs::ScopedSpan span("server.mutate", obs::kTrackCoordinator);
  if (span.armed()) span.set_detail(cmd.mutate_table);
  std::unique_lock<std::shared_mutex> write_lock(warehouse_mu_);

  if (warehouse_->num_sites() == 0) return Status::NotFound("no sites");
  Result<std::shared_ptr<const Table>> table =
      warehouse_->site(0).catalog().GetTable(cmd.mutate_table);
  if (!table.ok()) return table.status();

  // Reuse the CSV reader for value parsing/quoting: one header line (the
  // table's own column order) plus the client's row.
  std::ostringstream header;
  const std::vector<std::string> names = (*table)->schema().FieldNames();
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) header << ",";
    header << names[i];
  }
  Result<Table> parsed = CsvFromString(
      header.str() + "\n" + cmd.mutate_row_csv + "\n", (*table)->schema_ptr());
  if (!parsed.ok()) return parsed.status();
  if (parsed->num_rows() != 1) {
    return Status::InvalidArgument(
        "MUTATE APPEND expects exactly one CSV row, got " +
        std::to_string(parsed->num_rows()));
  }

  Status appended = warehouse_->AppendRow(cmd.mutate_table, parsed->row(0));
  if (!appended.ok()) return appended;
  BumpVersion(cmd.mutate_table);
  mutations_.fetch_add(1, std::memory_order_relaxed);
  return "appended 1 row to " + cmd.mutate_table;
}

Result<std::string> Server::HandleStats() {
  const ServerStats stats = this->stats();
  std::ostringstream out;
  out << "queries_submitted " << stats.queries_submitted << "\n"
      << "queries_completed " << stats.queries_completed << "\n"
      << "queries_failed " << stats.queries_failed << "\n"
      << "queries_cancelled " << stats.queries_cancelled << "\n"
      << "queries_shed " << stats.queries_shed << "\n"
      << "mutations " << stats.mutations << "\n"
      << "loads " << stats.loads << "\n"
      << "running " << stats.running << "\n"
      << "queued " << stats.queued << "\n"
      << "cache_hits " << stats.cache.hits << "\n"
      << "cache_misses " << stats.cache.misses << "\n"
      << "cache_prefix_hits " << stats.cache.prefix_hits << "\n"
      << "cache_stores " << stats.cache.stores << "\n"
      << "cache_invalidations " << stats.cache.invalidations << "\n"
      << "cache_evictions " << stats.cache.evictions << "\n"
      << "cache_result_entries " << stats.cache_result_entries << "\n"
      << "cache_prefix_entries " << stats.cache_prefix_entries << "\n";
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    for (const auto& [id, query] : active_) {
      out << "active " << id << " "
          << (query->running.load(std::memory_order_relaxed) ? "running"
                                                             : "queued")
          << " " << query->priority << "\n";
    }
  }
  // Registry metrics, strictly additive behind the existing keys (the
  // `metric.` prefix cannot collide with a bare stats key — docs/server.md
  // pins this contract). Counters and gauges are one line each; histograms
  // expand to count/sum/quantile lines.
  for (const obs::MetricValue& v : obs::SnapshotMetrics()) {
    switch (v.kind) {
      case obs::MetricKind::kCounter:
        out << "metric." << v.name << " " << v.counter_value << "\n";
        break;
      case obs::MetricKind::kGauge:
        out << "metric." << v.name << " " << v.gauge_value << "\n";
        break;
      case obs::MetricKind::kHistogram:
        out << "metric." << v.name << ".count " << v.hist_count << "\n"
            << "metric." << v.name << ".sum " << v.hist_sum << "\n"
            << "metric." << v.name << ".p50 " << v.Quantile(0.50) << "\n"
            << "metric." << v.name << ".p95 " << v.Quantile(0.95) << "\n"
            << "metric." << v.name << ".p99 " << v.Quantile(0.99) << "\n";
        break;
    }
  }
  return out.str();
}

Result<std::string> Server::HandleCancel(const Command& cmd) {
  std::vector<std::shared_ptr<ActiveQuery>> targets;
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    if (cmd.cancel_all) {
      for (const auto& [id, query] : active_) targets.push_back(query);
    } else {
      auto it = active_.find(cmd.cancel_id);
      if (it == active_.end()) {
        return Status::NotFound("no active query with id " +
                                std::to_string(cmd.cancel_id));
      }
      targets.push_back(it->second);
    }
  }
  for (const auto& query : targets) {
    query->cancel.store(true, std::memory_order_relaxed);
    admission_.CancelQueued(query->id);
  }
  return "cancelled " + std::to_string(targets.size());
}

ServerStats Server::stats() const {
  // Read order matters for snapshot consistency (see the ServerStats doc):
  // outcome counters first, then the admission state in one snapshot(),
  // and queries_submitted_ last. A query moves submitted -> (queued ->)
  // running -> outcome, so reading its terminal states before its entry
  // state can only undercount the left-hand side of
  //   completed + failed + cancelled + shed + running + queued <= submitted.
  ServerStats stats;
  stats.queries_completed = queries_completed_.load(std::memory_order_seq_cst);
  stats.queries_failed = queries_failed_.load(std::memory_order_seq_cst);
  stats.queries_cancelled = queries_cancelled_.load(std::memory_order_seq_cst);
  stats.queries_shed = queries_shed_.load(std::memory_order_seq_cst);
  const AdmissionController::Snapshot admission = admission_.snapshot();
  stats.running = admission.running;
  stats.queued = admission.queued;
  stats.queries_submitted = queries_submitted_.load(std::memory_order_seq_cst);
  stats.mutations = mutations_.load(std::memory_order_relaxed);
  stats.loads = loads_.load(std::memory_order_relaxed);
  stats.cache = cache_.stats();
  stats.cache_result_entries = cache_.result_entries();
  stats.cache_prefix_entries = cache_.prefix_entries();
  return stats;
}

Status Connection::Feed(std::string_view bytes, std::string* out) {
  if (broken_) {
    return Status::InvalidArgument(
        "connection is broken by an earlier framing error");
  }
  buffer_.append(bytes.data(), bytes.size());
  while (true) {
    Result<std::optional<std::string>> frame = DecodeFrame(&buffer_);
    if (!frame.ok()) {
      broken_ = true;
      out->append(EncodeFrame(ErrResponse(frame.status())));
      return frame.status();
    }
    if (!frame->has_value()) return Status::OK();
    out->append(EncodeFrame(server_->HandleCommand(**frame)));
  }
}

Result<std::string> Client::Call(const std::string& command) {
  std::string out;
  Status fed = connection_.Feed(EncodeFrame(command), &out);
  pending_.append(out);
  if (!fed.ok()) return fed;
  Result<std::optional<std::string>> frame = DecodeFrame(&pending_);
  if (!frame.ok()) return frame.status();
  if (!frame->has_value()) {
    return Status::Internal("server produced no response frame");
  }
  return ParseResponse(**frame);
}

}  // namespace server
}  // namespace skalla
