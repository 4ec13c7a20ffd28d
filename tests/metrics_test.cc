#include "dist/metrics.h"

#include <gtest/gtest.h>

namespace skalla {
namespace {

TEST(RoundMetricsTest, ResponseSecondsSumsPhasesWhenNotStreaming) {
  RoundMetrics rm;
  rm.site_cpu_max_sec = 1.0;
  rm.coord_cpu_sec = 2.0;
  rm.comm_sec = 3.0;
  rm.streaming = false;
  EXPECT_DOUBLE_EQ(rm.ResponseSeconds(), 6.0);
}

TEST(RoundMetricsTest, ResponseSecondsOverlapsCoordAndCommWhenStreaming) {
  RoundMetrics rm;
  rm.site_cpu_max_sec = 1.0;
  rm.coord_cpu_sec = 2.0;
  rm.comm_sec = 3.0;
  rm.streaming = true;
  // Streaming sync overlaps merging with receiving: max, not sum.
  EXPECT_DOUBLE_EQ(rm.ResponseSeconds(), 4.0);

  rm.coord_cpu_sec = 5.0;
  EXPECT_DOUBLE_EQ(rm.ResponseSeconds(), 6.0);
}

TEST(RoundMetricsTest, ResponseSecondsZeroByDefault) {
  RoundMetrics rm;
  EXPECT_DOUBLE_EQ(rm.ResponseSeconds(), 0.0);
  rm.streaming = true;
  EXPECT_DOUBLE_EQ(rm.ResponseSeconds(), 0.0);
}

TEST(RoundMetricsTest, ReplySecondsCoverRepliedLeafRowsOnly) {
  RoundMetrics rm;
  SiteLoad fast;  // one clean attempt
  fast.site = 0;
  fast.attempts = 1;
  fast.cpu_sec = fast.success_sec = 0.25;
  SiteLoad slow;  // a timed-out attempt, then a reply
  slow.site = 1;
  slow.attempts = 2;
  slow.timeouts = 1;
  slow.cpu_sec = 1.5;
  slow.success_sec = 0.75;
  SiteLoad lost;  // every attempt dropped
  lost.site = 2;
  lost.attempts = 3;
  lost.drops = 3;
  SiteLoad hop;  // an aggregator hop replies but is no site
  hop.site = -2;
  hop.attempts = 1;
  rm.exchanges = {hop, fast, slow, lost};

  const SiteSeconds site = rm.ReplySeconds();
  EXPECT_DOUBLE_EQ(site.min, 0.25);
  EXPECT_DOUBLE_EQ(site.mean, 0.5);
  EXPECT_DOUBLE_EQ(site.max, 0.75);
  EXPECT_EQ(site.slowest_site, 1);
  EXPECT_DOUBLE_EQ(rm.Total().cpu_sec, 1.75);
  EXPECT_EQ(&rm.Exchange(1), &rm.exchanges[2]);  // keyed by endpoint id
  EXPECT_EQ(rm.Exchange(7).site, 7);              // appended on first use
  EXPECT_EQ(rm.exchanges.size(), 5u);
}

TEST(ExecutionMetricsTest, EmptyRounds) {
  ExecutionMetrics metrics;
  EXPECT_EQ(metrics.NumRounds(), 0);
  EXPECT_EQ(metrics.TotalBytes(), 0u);
  EXPECT_EQ(metrics.GroupsToSites(), 0);
  EXPECT_EQ(metrics.GroupsToCoord(), 0);
  EXPECT_DOUBLE_EQ(metrics.ResponseSeconds(), 0.0);
  // No traffic at all: the ratio degenerates to 1.0, not a 0/0 NaN.
  EXPECT_DOUBLE_EQ(metrics.CompressionRatio(), 1.0);
}

TEST(ExecutionMetricsTest, CompressionRatioZeroActualBytes) {
  ExecutionMetrics metrics;
  RoundMetrics rm;
  rm.Exchange(0).bytes_baseline_skl1 = 1024;  // baseline, nothing shipped
  metrics.rounds.push_back(rm);
  EXPECT_DOUBLE_EQ(metrics.CompressionRatio(), 1.0);
}

TEST(ExecutionMetricsTest, CompressionRatioZeroBaseline) {
  ExecutionMetrics metrics;
  RoundMetrics rm;
  rm.Exchange(0).bytes_in = 512;  // bytes shipped but no baseline recorded
  metrics.rounds.push_back(rm);
  EXPECT_DOUBLE_EQ(metrics.CompressionRatio(), 1.0);
}

TEST(ExecutionMetricsTest, CompressionRatioBaselineOverActual) {
  ExecutionMetrics metrics;
  RoundMetrics rm;
  rm.Exchange(0).bytes_in = 300;
  rm.Exchange(0).bytes_out = 200;
  rm.Exchange(0).bytes_baseline_skl1 = 1500;
  metrics.rounds.push_back(rm);
  EXPECT_DOUBLE_EQ(metrics.CompressionRatio(), 3.0);
}

TEST(ExecutionMetricsTest, AccessorsSumAcrossRounds) {
  ExecutionMetrics metrics;
  RoundMetrics a;
  // A slot and an aggregator hop: totals sum every row.
  SiteLoad slot;
  slot.site = 0;
  slot.bytes_in = 60;
  slot.bytes_out = 4;
  slot.groups_in = 7;
  slot.groups_out = 3;
  slot.retries = 1;
  slot.timeouts = 2;
  slot.drops = 3;
  slot.failovers = 1;
  SiteLoad hop;
  hop.site = -2;
  hop.bytes_in = 40;
  hop.bytes_out = 6;
  a.exchanges = {slot, hop};
  a.site_cpu_max_sec = 0.5;
  a.coord_cpu_sec = 0.25;
  a.comm_sec = 0.125;
  RoundMetrics b = a;
  b.streaming = true;  // second round overlaps coord and comm
  metrics.rounds.push_back(a);
  metrics.rounds.push_back(b);

  EXPECT_EQ(metrics.NumRounds(), 2);
  EXPECT_EQ(metrics.TotalBytes(), 220u);
  EXPECT_EQ(metrics.BytesToSites(), 200u);
  EXPECT_EQ(metrics.BytesToCoord(), 20u);
  EXPECT_EQ(metrics.GroupsToSites(), 14);
  EXPECT_EQ(metrics.GroupsToCoord(), 6);
  EXPECT_EQ(metrics.Retries(), 2);
  EXPECT_EQ(metrics.Timeouts(), 4);
  EXPECT_EQ(metrics.Drops(), 6);
  EXPECT_EQ(metrics.Failovers(), 2);
  // Round a: 0.5 + 0.25 + 0.125; round b: 0.5 + max(0.25, 0.125).
  EXPECT_DOUBLE_EQ(metrics.ResponseSeconds(), 0.875 + 0.75);
}

TEST(ExecutionMetricsTest, StreamingFlagChangesOnlyItsOwnRound) {
  ExecutionMetrics metrics;
  RoundMetrics rm;
  rm.coord_cpu_sec = 2.0;
  rm.comm_sec = 1.0;
  metrics.rounds.push_back(rm);
  const double plain = metrics.ResponseSeconds();
  metrics.rounds[0].streaming = true;
  EXPECT_LT(metrics.ResponseSeconds(), plain);
  EXPECT_DOUBLE_EQ(metrics.ResponseSeconds(), 2.0);
}

}  // namespace
}  // namespace skalla
