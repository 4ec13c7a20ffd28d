#include "skalla/report.h"

#include <sstream>

#include "common/string_util.h"

namespace skalla {

std::string FormatExecutionReport(const QueryResult& result) {
  std::ostringstream os;
  os << "=== plan ===\n" << result.plan.Explain();
  os << "=== execution ===\n";
  os << StrFormat("%-30s %6s %12s %12s %10s %10s %10s\n", "round", "sites",
                  "out", "in", "site[s]", "coord[s]", "comm[s]");
  for (const RoundMetrics& rm : result.metrics.rounds) {
    const SiteLoad total = rm.Total();
    os << StrFormat(
        "%-30s %6d %12s %12s %10.4f %10.4f %10.4f\n", rm.label.c_str(),
        rm.sites, HumanBytes(static_cast<double>(total.bytes_in)).c_str(),
        HumanBytes(static_cast<double>(total.bytes_out)).c_str(),
        rm.site_cpu_max_sec, rm.coord_cpu_sec, rm.comm_sec);
  }
  os << "=== summary ===\n";
  os << StrFormat(
      "result rows: %lld\n"
      "rounds:      %d\n"
      "traffic:     %s to sites, %s to coordinator\n"
      "groups:      %lld shipped out, %lld shipped in\n"
      "response:    %.4f s  (site %.4f + coord %.4f + comm %.4f)\n",
      static_cast<long long>(result.table.num_rows()),
      result.metrics.NumRounds(),
      HumanBytes(static_cast<double>(result.metrics.BytesToSites())).c_str(),
      HumanBytes(static_cast<double>(result.metrics.BytesToCoord())).c_str(),
      static_cast<long long>(result.metrics.GroupsToSites()),
      static_cast<long long>(result.metrics.GroupsToCoord()),
      result.metrics.ResponseSeconds(), result.metrics.SiteCpuSeconds(),
      result.metrics.CoordCpuSeconds(), result.metrics.CommSeconds());
  if (result.metrics.BytesSavedByDelta() > 0 ||
      result.metrics.CompressionRatio() > 1.0) {
    os << StrFormat(
        "wire:        %s saved by delta shipping, %.2fx vs SKL1 full-ship\n",
        HumanBytes(static_cast<double>(result.metrics.BytesSavedByDelta()))
            .c_str(),
        result.metrics.CompressionRatio());
  }
  os << "=== straggler diagnostic ===\n"
     << BuildStragglerReport(result.metrics).ToString();
  return os.str();
}

std::string FormatQueryProfile(const QueryResult* result,
                               const QueryProfileInfo& info) {
  std::ostringstream os;
  os << "=== profile ===\n";
  if (info.result_cache_hit) {
    os << "provenance: result cache hit (no rounds executed)\n";
    return os.str();
  }
  if (result == nullptr) {
    os << "provenance: no result captured\n";
    return os.str();
  }
  if (info.resumed_rounds > 0) {
    os << "provenance: resumed past " << info.resumed_rounds
       << " cached round(s); profiled rounds are the remainder\n";
  } else {
    os << "provenance: executed from scratch\n";
  }

  os << "=== plan ===\n" << result->plan.Explain();

  os << "=== rounds ===\n";
  os << StrFormat("%-30s %6s %14s %14s %12s %12s %26s %6s\n", "round",
                  "sites", "out[B/rows]", "in[B/rows]", "coord[s]", "comm[s]",
                  "site[min/avg/max s]", "slow");
  for (const RoundMetrics& rm : result->metrics.rounds) {
    const SiteLoad total = rm.Total();
    const SiteSeconds site = rm.ReplySeconds();
    std::string site_col =
        StrFormat("%8.4f/%8.4f/%8.4f", site.min, site.mean, site.max);
    std::string slow_col =
        site.slowest_site >= 0 ? StrFormat("s%d", site.slowest_site) : "-";
    os << StrFormat(
        "%-30s %6d %14s %14s %12.4f %12.4f %26s %6s\n", rm.label.c_str(),
        rm.sites,
        StrFormat("%zu/%lld", total.bytes_in,
                  static_cast<long long>(total.groups_in))
            .c_str(),
        StrFormat("%zu/%lld", total.bytes_out,
                  static_cast<long long>(total.groups_out))
            .c_str(),
        rm.coord_cpu_sec, rm.comm_sec, site_col.c_str(), slow_col.c_str());
    if (total.retries > 0 || total.timeouts > 0 || total.drops > 0 ||
        total.failovers > 0) {
      os << StrFormat(
          "  ^ faults: %d retries, %d timeouts, %d drops, %d failovers, "
          "%zu B retransmitted\n",
          total.retries, total.timeouts, total.drops, total.failovers,
          total.bytes_retransmitted);
    }
  }

  // Machine-parseable `key value` lines; tests pin these to the exact
  // ExecutionMetrics numbers of the same execution.
  const ExecutionMetrics& m = result->metrics;
  os << "=== totals ===\n";
  os << "rounds " << m.NumRounds() << "\n"
     << "result_rows " << result->table.num_rows() << "\n"
     << "bytes_to_sites " << m.BytesToSites() << "\n"
     << "bytes_to_coord " << m.BytesToCoord() << "\n"
     << "bytes_total " << m.TotalBytes() << "\n"
     << "groups_to_sites " << m.GroupsToSites() << "\n"
     << "groups_to_coord " << m.GroupsToCoord() << "\n"
     << "bytes_saved_by_delta " << m.BytesSavedByDelta() << "\n"
     << "detail_rows_scanned " << m.DetailRowsScanned() << "\n"
     << "detail_rows_matched " << m.DetailRowsMatched() << "\n"
     << StrFormat("response_seconds %.6f\n", m.ResponseSeconds())
     << StrFormat("site_cpu_seconds %.6f\n", m.SiteCpuSeconds())
     << StrFormat("coord_cpu_seconds %.6f\n", m.CoordCpuSeconds())
     << StrFormat("comm_seconds %.6f\n", m.CommSeconds());

  const StragglerReport load = BuildStragglerReport(m);
  if (!load.sites.empty()) {
    os << "=== per-site load ===\n" << load.ToString();
  }
  return os.str();
}

}  // namespace skalla
