#ifndef SKALLA_DIST_METRICS_H_
#define SKALLA_DIST_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "gmdj/local_eval.h"

namespace skalla {

/// One exchange of a round, a row of RoundMetrics::exchanges — or, in
/// StragglerReport::sites, one slot's rows summed over a query's rounds.
/// A row is keyed by the endpoint id SimNetwork uses: a leaf slot's id
/// (>= 0; a rebalance helper has its own) or an aggregator hop's
/// EncodeAggregatorId(node) (< 0). Every round and query total is a sum of
/// rows (operator+=).
///
/// Seconds are wall time from a steady-clock Stopwatch divided by the
/// site's compute scale (dist/site.cc), not thread CPU time, which no row
/// records yet. An aggregator hop has none: its merge is the round's
/// coord_cpu_sec.
struct SiteLoad {
  int site = -1;           ///< endpoint id
  bool rebalance = false;  ///< a skew-rebalancing helper slot (docs/skew.md)
  double cpu_sec = 0;      ///< every evaluated attempt's seconds
  double success_sec = 0;  ///< the successful attempt's seconds
  size_t bytes_in = 0;     ///< bytes shipped to the endpoint
  size_t bytes_out = 0;    ///< bytes shipped back from it
  int64_t groups_in = 0;   ///< groups (rows) received
  int64_t groups_out = 0;  ///< groups (rows) produced
  /// The retry surcharge: what attempts beyond the first shipped, also
  /// counted in the traffic above (docs/fault-model.md).
  size_t bytes_retransmitted = 0;
  int64_t groups_retry_in = 0;
  int64_t groups_retry_out = 0;
  /// Full size minus SKLD delta size of the first attempt's payload
  /// (docs/wire-format.md); retries ship full payloads and save nothing.
  size_t bytes_saved_by_delta = 0;
  /// What the messages would have cost as SKL1 with full shipping; control
  /// messages at face value. Over the bytes shipped, the compression ratio.
  size_t bytes_baseline_skl1 = 0;
  int attempts = 0;  ///< exchanges started, retries included
  int retries = 0;
  int timeouts = 0;
  int drops = 0;  ///< messages lost in flight (either direction)
  int failovers = 0;
  ScanCounters scan;  ///< every evaluated attempt's detail scan

  /// The last exchange ended in a reply delivered within its deadline.
  bool replied() const { return attempts > drops + timeouts; }

  /// Adds `other`'s seconds and counts; keeps this row's id and flag.
  SiteLoad& operator+=(const SiteLoad& other);
};

/// The successful attempts' seconds of a round's leaf slots.
struct SiteSeconds {
  double min = 0;
  double mean = 0;
  double max = 0;
  int slowest_site = -1;  ///< the slot that set `max` (-1: none replied)
};

/// Cost breakdown of one synchronization round: its round-level facts and
/// one row per exchange.
struct RoundMetrics {
  std::string label;
  int sites = 0;
  /// Streaming synchronization (NetworkConfig::streaming_sync): merging
  /// overlaps receiving, so the round pays max(coord, comm), not the sum.
  bool streaming = false;
  double coord_cpu_sec = 0;  ///< synchronization + reduction filtering
  double comm_sec = 0;       ///< serialized time on the coordinator link
  /// ReplySeconds().max and Total().cpu_sec, stored because
  /// bench_skalla/layers.cc reads them by name; the round driver sets them
  /// after each wave, so a failing round's record keeps them.
  double site_cpu_max_sec = 0;  ///< slowest site (sites run in parallel)
  double site_cpu_sum_sec = 0;  ///< aggregate site work
  /// The aggregator hops of a tree (top-down) and the leaf slots (drive
  /// order), one row each.
  std::vector<SiteLoad> exchanges;

  /// The row of endpoint `id`, appended on first use.
  SiteLoad& Exchange(int id);
  /// Σ of every row.
  SiteLoad Total() const;
  /// Over the leaf rows that replied.
  SiteSeconds ReplySeconds() const;

  double ResponseSeconds() const {
    return site_cpu_max_sec + (streaming
                                   ? std::max(coord_cpu_sec, comm_sec)
                                   : coord_cpu_sec + comm_sec);
  }
};

/// \brief End-to-end cost accounting of one distributed query evaluation.
///
/// The modelled response time combines measured per-site CPU (sites run in
/// parallel, so each round charges the max), measured coordinator CPU, and
/// simulated communication time (the coordinator link is shared, so
/// transfers serialize — see net/cost_model.h). This is the quantity the
/// paper's figures plot as "query evaluation time".
struct ExecutionMetrics {
  std::vector<RoundMetrics> rounds;

  /// Σ over rounds of RoundMetrics::Total().
  SiteLoad Total() const;

  int NumRounds() const { return static_cast<int>(rounds.size()); }
  size_t TotalBytes() const { return BytesToSites() + BytesToCoord(); }
  size_t BytesToSites() const { return Total().bytes_in; }
  size_t BytesToCoord() const { return Total().bytes_out; }
  int64_t GroupsToSites() const { return Total().groups_in; }
  int64_t GroupsToCoord() const { return Total().groups_out; }
  int Retries() const { return Total().retries; }
  int Timeouts() const { return Total().timeouts; }
  int Drops() const { return Total().drops; }
  int Failovers() const { return Total().failovers; }
  size_t BytesRetransmitted() const { return Total().bytes_retransmitted; }
  int64_t RetryGroupsToSites() const { return Total().groups_retry_in; }
  int64_t RetryGroupsToCoord() const { return Total().groups_retry_out; }
  size_t BytesSavedByDelta() const { return Total().bytes_saved_by_delta; }
  size_t BytesBaselineSkl1() const { return Total().bytes_baseline_skl1; }
  int64_t DetailRowsScanned() const { return Total().scan.rows_scanned; }
  int64_t DetailRowsMatched() const { return Total().scan.rows_matched; }
  int64_t MorselsVectorized() const {
    return Total().scan.morsels_vectorized;
  }
  int64_t MorselsScalar() const { return Total().scan.morsels_scalar; }
  /// Straggler scans split onto a helper slot: the helper rows.
  int RebalanceSplits() const;
  /// SKL1-full-ship baseline over actual bytes (>= 1.0 when the encoding
  /// wins; 1.0 when nothing was saved or nothing was shipped).
  double CompressionRatio() const;
  double SiteCpuSeconds() const;       ///< Σ per-round max (parallel model)
  double CoordCpuSeconds() const;
  double CommSeconds() const;
  double ResponseSeconds() const;

  std::string ToString() const;
};

/// Adds one query's record to the metrics registry's `skalla_dist_*` and
/// `skalla_gmdj_rows_*` instruments, one round-seconds observation and the
/// bytes of each leaf row included. Coordinator::Execute calls it once
/// on every exit, so registry totals are the sum of the queries' records
/// (DESIGN.md invariant 13). A no-op while the registry is disabled.
void PublishExecutionMetrics(const ExecutionMetrics& metrics);

/// Straggler/skew summary across sites: how unevenly CPU and bytes are
/// distributed, and which site is the bottleneck (cf. Beame/Koutris/Suciu,
/// "Skew in Parallel Query Processing": per-worker imbalance, not totals,
/// bounds parallel cost).
struct StragglerReport {
  std::vector<SiteLoad> sites;  ///< leaf slots, sorted by slot id
  double cpu_skew = 1.0;        ///< max site CPU / mean site CPU
  double bytes_skew = 1.0;      ///< max site bytes / mean site bytes
  int slowest_site = -1;        ///< site with the most CPU (-1: none)

  /// Multi-line human-readable rendering (skalla/report).
  std::string ToString() const;
};

/// Sums each leaf slot's rows over the query's rounds and computes the skew
/// factors — one query's own per-site load, exact under concurrency.
StragglerReport BuildStragglerReport(const ExecutionMetrics& metrics);

}  // namespace skalla

#endif  // SKALLA_DIST_METRICS_H_
