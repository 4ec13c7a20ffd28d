#ifndef SKALLA_SKALLA_REPORT_H_
#define SKALLA_SKALLA_REPORT_H_

#include <string>

#include "skalla/warehouse.h"

namespace skalla {

/// \brief Formats a query execution as a human-readable report: the
/// distributed plan, the per-round cost table, the end-to-end summary, and
/// the per-site straggler diagnostic (an EXPLAIN ANALYZE for Skalla). Used
/// by the interactive shell's `\analyze` command and handy in tests and
/// examples.
std::string FormatExecutionReport(const QueryResult& result);

/// Provenance of one profiled execution (the PROFILE wire verb / shell
/// `\profile`; see docs/observability.md).
struct QueryProfileInfo {
  /// The response came straight from the result cache — nothing executed,
  /// so there are no rounds to show.
  bool result_cache_hit = false;
  /// Rounds skipped by resuming from a cached GMDJ-chain prefix; the
  /// profiled rounds are the ones that actually executed after it.
  size_t resumed_rounds = 0;
};

/// \brief Renders an EXPLAIN-ANALYZE-style profile tree of one executed
/// query: per round, rows in/out and bytes on the wire (exactly the
/// ExecutionMetrics numbers — tests/metrics_registry_test.cc pins the
/// equality), site-time min/avg/max with the straggler flagged,
/// cache/prefix-resume provenance, and the query's per-site load. `result`
/// may be null only for a result-cache hit (nothing executed). The
/// `=== totals ===` section uses plain machine-parseable `key value` lines.
std::string FormatQueryProfile(const QueryResult* result,
                               const QueryProfileInfo& info);

}  // namespace skalla

#endif  // SKALLA_SKALLA_REPORT_H_
