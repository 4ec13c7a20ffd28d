#include <gtest/gtest.h>

#include "dist/metrics.h"
#include "net/sim_network.h"
#include "test_util.h"

namespace skalla {
namespace {

TEST(CostModelTest, TransferTimeIsLatencyPlusBandwidth) {
  NetworkConfig config;
  config.bandwidth_bytes_per_sec = 1000.0;
  config.latency_sec = 0.5;
  EXPECT_DOUBLE_EQ(config.TransferSeconds(0), 0.5);
  EXPECT_DOUBLE_EQ(config.TransferSeconds(2000), 2.5);
}

TEST(SimNetworkTest, RecordsTransfersByDirection) {
  SimNetwork net;
  net.BeginRound("r0");
  net.Transfer(kCoordinatorId, 0, 100, 2, "to site 0");
  net.Transfer(kCoordinatorId, 1, 150, 3, "to site 1");
  net.Transfer(0, kCoordinatorId, 70, 1, "from site 0");

  EXPECT_EQ(net.TotalBytes(), 320u);
  EXPECT_EQ(net.BytesFromCoordinator(), 250u);
  EXPECT_EQ(net.BytesToCoordinator(), 70u);
  EXPECT_EQ(net.RowsFromCoordinator(), 5);
  EXPECT_EQ(net.RowsToCoordinator(), 1);
  ASSERT_EQ(net.transfers().size(), 3u);
  EXPECT_EQ(net.transfers()[0].round, 0);
}

TEST(SimNetworkTest, TransferReturnsModelledSeconds) {
  NetworkConfig config;
  config.bandwidth_bytes_per_sec = 100.0;
  config.latency_sec = 1.0;
  SimNetwork net(config);
  net.BeginRound("r");
  const TransferOutcome out = net.Transfer(kCoordinatorId, 0, 200, 0, "x");
  EXPECT_TRUE(out.delivered);
  EXPECT_DOUBLE_EQ(out.seconds, 3.0);
}

TEST(SimNetworkTest, ResetClearsEverything) {
  SimNetwork net;
  net.BeginRound("r");
  net.Transfer(0, kCoordinatorId, 10, 1, "x");
  net.Reset();
  EXPECT_EQ(net.TotalBytes(), 0u);
  EXPECT_TRUE(net.transfers().empty());
}

TEST(SimNetworkTest, ReportMentionsRounds) {
  SimNetwork net;
  net.BeginRound("base");
  net.Transfer(0, kCoordinatorId, 1024, 1, "x");
  const std::string report = net.Report();
  EXPECT_NE(report.find("base"), std::string::npos);
  EXPECT_NE(report.find("total"), std::string::npos);
}

TEST(FaultInjectorTest, DropOnceDropsExactlyThatMessage) {
  FaultInjector injector;
  injector.DropOnce(/*site=*/1, /*round=*/0, TransferDirection::kToSite,
                    /*attempt=*/0);
  SimNetwork net;
  net.set_fault_injector(&injector);
  net.BeginRound("r0");
  EXPECT_TRUE(net.Transfer(kCoordinatorId, 0, 10, 0, "x").delivered);
  EXPECT_FALSE(net.Transfer(kCoordinatorId, 1, 10, 0, "x").delivered);
  // Same exchange, next attempt: gets through.
  EXPECT_TRUE(net.Transfer(kCoordinatorId, 1, 10, 0, "x", 1).delivered);
  // The reply direction was never scheduled.
  EXPECT_TRUE(net.Transfer(1, kCoordinatorId, 10, 0, "x").delivered);
  ASSERT_EQ(injector.events().size(), 1u);
  EXPECT_EQ(injector.events()[0].kind, FaultKind::kDrop);
  EXPECT_EQ(injector.events()[0].site, 1);
  EXPECT_EQ(net.DroppedCount(), 1);
}

TEST(FaultInjectorTest, FailSiteFailsConfiguredAttemptsPerRound) {
  FaultInjector injector;
  injector.FailSite(/*site=*/0, /*first_round=*/1, /*last_round=*/2,
                    /*failed_attempts_per_round=*/2);
  SimNetwork net;
  net.set_fault_injector(&injector);
  net.BeginRound("r0");
  EXPECT_TRUE(net.Transfer(kCoordinatorId, 0, 10, 0, "x").delivered);
  for (int round = 1; round <= 2; ++round) {
    net.BeginRound("r" + std::to_string(round));
    EXPECT_FALSE(net.Transfer(kCoordinatorId, 0, 10, 0, "x", 0).delivered);
    EXPECT_FALSE(net.Transfer(kCoordinatorId, 0, 10, 0, "x", 1).delivered);
    EXPECT_TRUE(net.Transfer(kCoordinatorId, 0, 10, 0, "x", 2).delivered);
  }
  net.BeginRound("r3");
  EXPECT_TRUE(net.Transfer(kCoordinatorId, 0, 10, 0, "x").delivered);
  EXPECT_EQ(net.DroppedCount(), 4);
}

TEST(FaultInjectorTest, KillSiteNeverRecovers) {
  FaultInjector injector;
  injector.KillSite(/*site=*/2, /*from_round=*/1);
  SimNetwork net;
  net.set_fault_injector(&injector);
  net.BeginRound("r0");
  EXPECT_TRUE(net.Transfer(kCoordinatorId, 2, 10, 0, "x").delivered);
  EXPECT_FALSE(injector.SiteKilled(2, 0));
  net.BeginRound("r1");
  for (int attempt = 0; attempt < 5; ++attempt) {
    EXPECT_FALSE(
        net.Transfer(kCoordinatorId, 2, 10, 0, "x", attempt).delivered);
  }
  EXPECT_TRUE(injector.SiteKilled(2, 1));
  EXPECT_TRUE(injector.SiteKilled(2, 100));
}

TEST(FaultInjectorTest, SlowSiteStretchesTransferTime) {
  FaultInjector injector;
  injector.SlowSite(/*site=*/0, /*factor=*/10.0);
  NetworkConfig config;
  config.bandwidth_bytes_per_sec = 100.0;
  config.latency_sec = 1.0;
  SimNetwork net(config);
  net.set_fault_injector(&injector);
  net.BeginRound("r");
  const TransferOutcome slow = net.Transfer(kCoordinatorId, 0, 200, 0, "x");
  EXPECT_TRUE(slow.delivered);
  EXPECT_DOUBLE_EQ(slow.seconds, 30.0);  // 3.0s fault-free, x10
  const TransferOutcome normal = net.Transfer(kCoordinatorId, 1, 200, 0, "x");
  EXPECT_DOUBLE_EQ(normal.seconds, 3.0);
  EXPECT_DOUBLE_EQ(injector.SlowFactor(0), 10.0);
  EXPECT_DOUBLE_EQ(injector.SlowFactor(1), 1.0);
}

TEST(FaultInjectorTest, DelayOnceAddsExtraSeconds) {
  FaultInjector injector;
  injector.DelayOnce(/*site=*/0, /*round=*/0, TransferDirection::kToCoordinator,
                     /*attempt=*/0, /*extra_sec=*/2.5);
  NetworkConfig config;
  config.bandwidth_bytes_per_sec = 100.0;
  config.latency_sec = 1.0;
  SimNetwork net(config);
  net.set_fault_injector(&injector);
  net.BeginRound("r");
  const TransferOutcome out = net.Transfer(0, kCoordinatorId, 200, 0, "x");
  EXPECT_TRUE(out.delivered);
  EXPECT_DOUBLE_EQ(out.seconds, 5.5);
  ASSERT_EQ(injector.events().size(), 1u);
  EXPECT_EQ(injector.events()[0].kind, FaultKind::kDelay);
}

TEST(FaultInjectorTest, AggregatorHopsAreNeverFaulted) {
  FaultInjector injector;
  injector.set_random_drop(1.0, /*max_attempt=*/100);
  SimNetwork net;
  net.set_fault_injector(&injector);
  net.BeginRound("r");
  // Both endpoints negative (coordinator/aggregators): injector skipped.
  EXPECT_TRUE(net.Transfer(EncodeAggregatorId(3), EncodeAggregatorId(1), 10,
                           0, "hop", 0, TransferDirection::kToCoordinator)
                  .delivered);
  EXPECT_TRUE(net.Transfer(kCoordinatorId, EncodeAggregatorId(1), 10, 0,
                           "hop", 0, TransferDirection::kToSite)
                  .delivered);
  // A site endpoint is subject to faults.
  EXPECT_FALSE(net.Transfer(kCoordinatorId, 0, 10, 0, "x").delivered);
  EXPECT_TRUE(injector.events().size() == 1);
}

TEST(FaultInjectorTest, SameSeedSameDecisionsAcrossRuns) {
  auto run = [](uint64_t seed) {
    FaultInjector injector(seed);
    injector.set_random_drop(0.4, /*max_attempt=*/2);
    SimNetwork net;
    net.set_fault_injector(&injector);
    for (int round = 0; round < 4; ++round) {
      net.BeginRound("r" + std::to_string(round));
      for (int site = 0; site < 6; ++site) {
        for (int attempt = 0; attempt < 3; ++attempt) {
          net.Transfer(kCoordinatorId, site, 64, 1, "x", attempt);
          net.Transfer(site, kCoordinatorId, 64, 1, "h", attempt);
        }
      }
    }
    return injector.EventLogToString();
  };
  const std::string log_a = run(7);
  const std::string log_b = run(7);
  EXPECT_EQ(log_a, log_b);
  EXPECT_FALSE(log_a.empty());
  // A different seed draws a different pattern.
  EXPECT_NE(run(8), log_a);
}

TEST(FaultInjectorTest, DecisionsIndependentOfCallOrder) {
  // Decisions are pure in (seed, site, round, dir, attempt): offering the
  // same transfers in a different interleaving yields the same per-message
  // fates, which is what makes parallel site evaluation deterministic.
  FaultInjector a(42);
  a.set_random_drop(0.5, /*max_attempt=*/3);
  FaultInjector b(42);
  b.set_random_drop(0.5, /*max_attempt=*/3);
  std::map<std::string, bool> fate_a;
  std::map<std::string, bool> fate_b;
  for (int site = 0; site < 8; ++site) {
    const std::string key = "s" + std::to_string(site);
    fate_a[key] =
        a.Decide(site, 0, TransferDirection::kToSite, 0, 0.1, "x").delivered;
  }
  for (int site = 7; site >= 0; --site) {
    const std::string key = "s" + std::to_string(site);
    fate_b[key] =
        b.Decide(site, 0, TransferDirection::kToSite, 0, 0.1, "x").delivered;
  }
  EXPECT_EQ(fate_a, fate_b);
}

TEST(SimNetworkTest, RecordsCarryAttemptAndDeliveredFlags) {
  FaultInjector injector;
  injector.DropOnce(0, 0, TransferDirection::kToSite, 0);
  SimNetwork net;
  net.set_fault_injector(&injector);
  net.BeginRound("r");
  net.Transfer(kCoordinatorId, 0, 100, 4, "x", 0);
  net.Transfer(kCoordinatorId, 0, 100, 4, "x", 1);
  ASSERT_EQ(net.transfers().size(), 2u);
  EXPECT_FALSE(net.transfers()[0].delivered);
  EXPECT_EQ(net.transfers()[0].attempt, 0);
  EXPECT_TRUE(net.transfers()[1].delivered);
  EXPECT_EQ(net.transfers()[1].attempt, 1);
  // Lost bytes still crossed the wire; the retry is the surcharge.
  EXPECT_EQ(net.TotalBytes(), 200u);
  EXPECT_EQ(net.RetransmittedBytes(), 100u);
  EXPECT_EQ(net.DroppedCount(), 1);
  const std::string report = net.Report();
  EXPECT_NE(report.find("retransmitted"), std::string::npos);
  EXPECT_NE(report.find("dropped"), std::string::npos);
}

TEST(SimNetworkTest, ResetKeepsScheduleClearsEvents) {
  FaultInjector injector;
  injector.DropOnce(0, 0, TransferDirection::kToSite, 0);
  SimNetwork net;
  net.set_fault_injector(&injector);
  net.BeginRound("r");
  net.Transfer(kCoordinatorId, 0, 10, 0, "x");
  ASSERT_EQ(injector.events().size(), 1u);
  net.Reset();
  EXPECT_TRUE(injector.events().empty());
  // The schedule survives the reset: the same query would hit it again.
  net.BeginRound("r");
  EXPECT_FALSE(net.Transfer(kCoordinatorId, 0, 10, 0, "x").delivered);
}

TEST(MetricsTest, AggregatesAcrossRounds) {
  ExecutionMetrics m;
  RoundMetrics r1;
  r1.Exchange(0).bytes_in = 100;
  r1.Exchange(0).bytes_out = 50;
  r1.Exchange(0).groups_in = 10;
  r1.Exchange(0).groups_out = 5;
  r1.site_cpu_max_sec = 0.5;
  r1.coord_cpu_sec = 0.1;
  r1.comm_sec = 0.2;
  RoundMetrics r2 = r1;
  r2.Exchange(0).bytes_in = 200;
  m.rounds = {r1, r2};

  EXPECT_EQ(m.NumRounds(), 2);
  EXPECT_EQ(m.BytesToSites(), 300u);
  EXPECT_EQ(m.BytesToCoord(), 100u);
  EXPECT_EQ(m.TotalBytes(), 400u);
  EXPECT_EQ(m.GroupsToSites(), 20);
  EXPECT_EQ(m.GroupsToCoord(), 10);
  EXPECT_DOUBLE_EQ(m.SiteCpuSeconds(), 1.0);
  EXPECT_DOUBLE_EQ(m.CoordCpuSeconds(), 0.2);
  EXPECT_DOUBLE_EQ(m.CommSeconds(), 0.4);
  EXPECT_DOUBLE_EQ(m.ResponseSeconds(), 1.6);
  EXPECT_DOUBLE_EQ(r1.ResponseSeconds(), 0.8);
}

TEST(MetricsTest, ToStringIsReadable) {
  ExecutionMetrics m;
  RoundMetrics r;
  r.label = "gmdj round 1";
  r.sites = 4;
  m.rounds = {r};
  const std::string s = m.ToString();
  EXPECT_NE(s.find("gmdj round 1"), std::string::npos);
  EXPECT_NE(s.find("1 round"), std::string::npos);
}

}  // namespace
}  // namespace skalla
