#include "layers.h"

#include <optional>
#include <utility>

#include "dist/coordinator.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "sql/olap_parser.h"
#include "storage/serializer.h"

namespace bench_skalla {

using namespace skalla;

Result<QueryResult> RunTracedQuery(Warehouse& warehouse,
                                   const std::string& text, SpanBuffer* buffer,
                                   int64_t request,
                                   std::vector<Table>* capture_x,
                                   double* execute_ms) {
  std::optional<GmdjExpr> expr;
  {
    ScopedSpan span(buffer, "sql.parse", request);
    SKALLA_ASSIGN_OR_RETURN(GmdjExpr parsed, ParseOlapQuery(text));
    expr = std::move(parsed);
  }
  std::optional<DistributedPlan> plan;
  {
    ScopedSpan span(buffer, "opt.plan", request);
    SKALLA_ASSIGN_OR_RETURN(DistributedPlan built,
                            warehouse.Plan(*expr, OptimizerOptions::All()));
    plan = std::move(built);
  }
  ScopedSpan span(buffer, "dist.execute", request);
  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  ExecHooks hooks;
  hooks.round_observer = [&](size_t /*ops_done*/, const Table& x) {
    const Clock::time_point now = Clock::now();
    if (buffer != nullptr) buffer->AddClosed("dist.round", last, now, request);
    last = now;
    if (capture_x != nullptr) capture_x->push_back(x);
  };
  Result<QueryResult> result = warehouse.ExecutePlan(*plan, hooks);
  *execute_ms = SecondsBetween(start, Clock::now()) * 1e3;
  return result;
}

void LayerStats::AddExecution(const QueryResult& result, double execute_ms) {
  const ExecutionMetrics& m = result.metrics;
  ++executions_;
  rounds_ += static_cast<double>(result.plan.rounds.size());
  double site_sum_ms = 0;
  for (const RoundMetrics& r : m.rounds) {
    site_sum_ms += r.site_cpu_sum_sec * 1e3;
    if (r.sites > 0 && r.site_cpu_sum_sec > 0) {
      skew_sum_ += r.site_cpu_max_sec /
                   (r.site_cpu_sum_sec / static_cast<double>(r.sites));
      ++skew_rounds_;
    }
  }
  site_cpu_ms_ += site_sum_ms;
  coord_cpu_ms_ += m.CoordCpuSeconds() * 1e3;
  unattributed_ms_ += execute_ms - site_sum_ms - m.CoordCpuSeconds() * 1e3;
  const double groups =
      static_cast<double>(m.GroupsToSites() + m.GroupsToCoord());
  groups_ += groups;
  const int64_t bound =
      TheoremTwoGroupBound(result.plan, num_sites_, result.table.num_rows());
  if (bound > 0) theorem2_ratio_ += groups / static_cast<double>(bound);
  compression_ += m.CompressionRatio();
  bytes_total_ += static_cast<double>(m.TotalBytes());
  bytes_saved_ += static_cast<double>(m.BytesSavedByDelta());
  bytes_to_sites_ += static_cast<double>(m.BytesToSites());
  bytes_to_coord_ += static_cast<double>(m.BytesToCoord());
  comm_ms_ += m.CommSeconds() * 1e3;
  rows_scanned_ += m.DetailRowsScanned();
  rows_matched_ += m.DetailRowsMatched();
  morsels_vectorized_ += m.MorselsVectorized();
  morsels_scalar_ += m.MorselsScalar();
}

void LayerStats::ReplayStorage(const std::vector<Table>& xs, int reps,
                               SpanBuffer* buffer, int64_t request) {
  for (int rep = 0; rep < reps; ++rep) {
    for (const Table& x : xs) {
      std::string bytes;
      {
        ScopedSpan span(buffer, "storage.encode", request);
        bytes = Serializer::SerializeTable(x);
      }
      ScopedSpan span(buffer, "storage.decode", request);
      Result<Table> decoded = Serializer::DeserializeTable(bytes);
      (void)decoded;
    }
  }
}

void LayerStats::ReplayFrontEnd(const std::vector<std::string>& commands,
                                SpanBuffer* buffer, int64_t first_request) {
  for (size_t i = 0; i < commands.size(); ++i) {
    const int64_t request = first_request + static_cast<int64_t>(i);
    std::optional<server::Command> command;
    {
      ScopedSpan span(buffer, "server.frame", request);
      std::string wire = server::EncodeFrame(commands[i]);
      Result<std::optional<std::string>> payload = server::DecodeFrame(&wire);
      if (!payload.ok() || !payload->has_value()) continue;
      Result<server::Command> parsed = server::ParseCommand(**payload);
      if (!parsed.ok()) continue;
      command = std::move(parsed).ValueUnsafe();
    }
    if (command->type != server::CommandType::kQuery) continue;
    std::optional<GmdjExpr> expr;
    {
      ScopedSpan span(buffer, "sql.parse", request);
      Result<GmdjExpr> parsed = ParseOlapQuery(command->query_text);
      if (!parsed.ok()) continue;
      expr = std::move(parsed).ValueUnsafe();
    }
    ScopedSpan span(buffer, "sql.canonical_key", request);
    std::string key = server::CanonicalQueryKey(*expr);
    (void)key;
  }
}

void LayerStats::ReplayEstimate(Warehouse& warehouse,
                                const std::vector<DistributedPlan>& plans,
                                int reps, SpanBuffer* buffer,
                                int64_t first_request) {
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i < plans.size(); ++i) {
      ScopedSpan span(buffer, "opt.estimate",
                      first_request + static_cast<int64_t>(i));
      Result<CostBreakdown> cost = warehouse.EstimateCost(plans[i]);
      (void)cost;
    }
  }
}

namespace {

/// Mean duration of the spans named `name`, in ms (0 when there are none).
double MeanSpanMs(const std::map<std::string, SpanTotals>& totals,
                  const std::string& name, int64_t* count) {
  auto it = totals.find(name);
  *count = it == totals.end() ? 0 : it->second.count;
  return *count == 0 ? 0.0 : it->second.total_ms / static_cast<double>(*count);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void LayerStats::Fill(const std::map<std::string, SpanTotals>& totals,
                      int64_t storage_queries, Report* report) const {
  auto mean_span = [&](const char* metric, const char* span, double scale,
                       const char* unit) {
    int64_t n = 0;
    const double value = MeanSpanMs(totals, span, &n) * scale;
    report->Set(metric, value, unit, n);
  };
  mean_span("server.frame_us", "server.frame", 1e3, "us");
  mean_span("sql.parse_us", "sql.parse", 1e3, "us");
  mean_span("sql.canonical_key_us", "sql.canonical_key", 1e3, "us");
  mean_span("opt.plan_ms", "opt.plan", 1.0, "ms");
  mean_span("opt.estimate_ms", "opt.estimate", 1.0, "ms");
  mean_span("dist.execute_ms", "dist.execute", 1.0, "ms");
  mean_span("dist.round_ms", "dist.round", 1.0, "ms");

  const double q = static_cast<double>(executions_);
  report->Set("opt.rounds_per_query", Ratio(rounds_, q), "count", executions_);
  report->Set("dist.coord_cpu_ms", Ratio(coord_cpu_ms_, q), "ms", executions_);
  report->Set("dist.unattributed_ms", Ratio(unattributed_ms_, q), "ms",
              executions_);
  report->Set("dist.groups_per_query", Ratio(groups_, q), "count",
              executions_);
  report->Set("dist.theorem2_ratio", Ratio(theorem2_ratio_, q), "ratio",
              executions_);
  report->Set("dist.site_skew",
              Ratio(skew_sum_, static_cast<double>(skew_rounds_)), "ratio",
              skew_rounds_);
  report->Set("gmdj.site_cpu_ms", Ratio(site_cpu_ms_, q), "ms", executions_);
  report->Set("gmdj.scan_mrows_per_s",
              Ratio(static_cast<double>(rows_scanned_) / 1e6,
                    site_cpu_ms_ / 1e3),
              "Mrows/s", executions_);
  report->Set("gmdj.match_ratio",
              Ratio(static_cast<double>(rows_matched_),
                    static_cast<double>(rows_scanned_)),
              "ratio", executions_);
  report->Set("gmdj.vectorized_share",
              Ratio(static_cast<double>(morsels_vectorized_),
                    static_cast<double>(morsels_vectorized_ +
                                        morsels_scalar_)),
              "ratio", executions_);

  auto total_ms = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ms;
  };
  const double sq = static_cast<double>(storage_queries);
  report->Set("storage.encode_ms", Ratio(total_ms("storage.encode"), sq), "ms",
              storage_queries);
  report->Set("storage.decode_ms", Ratio(total_ms("storage.decode"), sq), "ms",
              storage_queries);
  report->Set("storage.compression_ratio", Ratio(compression_, q), "ratio",
              executions_);
  report->Set("storage.delta_saved_share",
              Ratio(bytes_saved_, bytes_total_ + bytes_saved_), "ratio",
              executions_);
  report->Set("net.comm_ms_modelled", Ratio(comm_ms_, q), "ms", executions_);
  report->Set("net.bytes_to_sites", Ratio(bytes_to_sites_, q), "bytes",
              executions_);
  report->Set("net.bytes_to_coord", Ratio(bytes_to_coord_, q), "bytes",
              executions_);
}

}  // namespace bench_skalla
