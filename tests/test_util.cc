#include "test_util.h"

namespace skalla {

void ExpectSiteLoadsSumToTotals(const ExecutionMetrics& metrics) {
  SiteLoad sum;
  for (const SiteLoad& site : BuildStragglerReport(metrics).sites) {
    sum += site;
  }
  for (const RoundMetrics& r : metrics.rounds) {
    double cpu_sum = 0;
    for (const SiteLoad& row : r.exchanges) {
      if (row.site < 0) sum += row;  // an aggregator hop
      cpu_sum += row.cpu_sec;
    }
    SCOPED_TRACE(r.label);
    EXPECT_DOUBLE_EQ(r.site_cpu_sum_sec, cpu_sum);
    EXPECT_EQ(r.site_cpu_max_sec, r.ReplySeconds().max);
  }
  EXPECT_EQ(sum.bytes_in, metrics.BytesToSites());
  EXPECT_EQ(sum.bytes_out, metrics.BytesToCoord());
  EXPECT_EQ(sum.groups_in, metrics.GroupsToSites());
  EXPECT_EQ(sum.groups_out, metrics.GroupsToCoord());
  EXPECT_EQ(sum.bytes_retransmitted, metrics.BytesRetransmitted());
  EXPECT_EQ(sum.groups_retry_in, metrics.RetryGroupsToSites());
  EXPECT_EQ(sum.groups_retry_out, metrics.RetryGroupsToCoord());
  EXPECT_EQ(sum.bytes_saved_by_delta, metrics.BytesSavedByDelta());
  EXPECT_EQ(sum.bytes_baseline_skl1, metrics.BytesBaselineSkl1());
  EXPECT_EQ(sum.retries, metrics.Retries());
  EXPECT_EQ(sum.timeouts, metrics.Timeouts());
  EXPECT_EQ(sum.drops, metrics.Drops());
  EXPECT_EQ(sum.failovers, metrics.Failovers());
  EXPECT_EQ(sum.scan.rows_scanned, metrics.DetailRowsScanned());
  EXPECT_EQ(sum.scan.rows_matched, metrics.DetailRowsMatched());
  EXPECT_EQ(sum.scan.morsels_vectorized, metrics.MorselsVectorized());
  EXPECT_EQ(sum.scan.morsels_scalar, metrics.MorselsScalar());
}

Table MakeTinyTable() {
  Table t(MakeSchema({{"g", ValueType::kInt64},
                      {"h", ValueType::kInt64},
                      {"v", ValueType::kInt64},
                      {"w", ValueType::kDouble},
                      {"s", ValueType::kString}}));
  auto add = [&t](int64_t g, int64_t h, int64_t v, double w,
                  const char* s) {
    t.AddRow({Value(g), Value(h), Value(v), Value(w), Value(s)});
  };
  add(1, 10, 5, 0.5, "a");
  add(1, 10, 7, 1.5, "b");
  add(1, 20, 9, 2.5, "a");
  add(2, 10, 4, 0.25, "c");
  add(2, 20, 6, 1.25, "a");
  add(2, 20, 8, 2.25, "b");
  add(2, 30, 2, 3.25, "c");
  add(3, 10, 1, 0.75, "a");
  add(3, 30, 3, 1.75, "b");
  add(3, 30, 5, 2.75, "c");
  add(3, 30, 7, 3.75, "a");
  add(3, 10, 9, 4.75, "b");
  return t;
}

}  // namespace skalla
