// End-to-end fault-injection suite (ctest label "faults").
//
// The acceptance property throughout: a *recoverable* fault schedule — one
// the RetryPolicy can outlast — changes only the cost metrics (retries,
// retransmitted bytes, simulated time), never the answer. Every comparison
// below is byte-exact on the serialized result relation, not just
// row-multiset equality, because Alg. GMDJDistribEval's rounds are
// idempotent from the shipped X and the coordinator merges replies in
// deterministic slot order (docs/fault-model.md). Unrecoverable schedules
// must surface as typed kUnavailable / kDeadlineExceeded statuses — a
// wrong answer is never an acceptable failure mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "dist/coordinator.h"
#include "net/fault_injector.h"
#include "skalla/queries.h"
#include "skalla/report.h"
#include "skalla/warehouse.h"
#include "storage/serializer.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

Table SmallTpcr(uint64_t seed = 31) {
  TpcConfig config;
  config.num_rows = 1500;
  config.num_customers = 120;
  config.seed = seed;
  return GenerateTpcr(config);
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void Load(Warehouse* wh) {
    ASSERT_OK(wh->LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                              {"CustKey"}));
  }
};

// ---------------------------------------------------------------------------
// Recoverable schedules: byte-identical results, exact counters.
// ---------------------------------------------------------------------------

// A dropped round-2 sub-result (H_i reply) is re-driven transparently:
// identical bytes for every optimizer config and both coordinators.
TEST_F(FaultInjectionTest, DroppedSubResultIsRetriedTransparently) {
  Warehouse wh(4);
  Load(&wh);
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");

  OptimizerOptions coalesce_only;
  coalesce_only.coalesce = true;
  struct Config {
    OptimizerOptions options;
    /// Only the unoptimized plan is guaranteed to keep site 1's round-2
    /// exchange on the wire (sync reduction can evaluate it locally), so
    /// exact fault counters are asserted there alone.
    bool exact_counters;
  };
  for (const Config& config :
       {Config{OptimizerOptions::None(), true}, Config{coalesce_only, false},
        Config{OptimizerOptions::All(), false}}) {
    ASSERT_OK_AND_ASSIGN(DistributedPlan plan, wh.Plan(query, config.options));

    wh.set_fault_injector(nullptr);
    ASSERT_OK_AND_ASSIGN(QueryResult clean_flat, wh.ExecutePlan(plan));
    ASSERT_OK_AND_ASSIGN(QueryResult clean_tree, wh.ExecutePlanTree(plan, 2));

    // Lose site 1's first reply of round 2 (the second GMDJ round).
    FaultInjector injector(/*seed=*/5);
    injector.DropOnce(/*site=*/1, /*round=*/2,
                      TransferDirection::kToCoordinator);
    wh.set_fault_injector(&injector);

    ASSERT_OK_AND_ASSIGN(QueryResult faulty_flat, wh.ExecutePlan(plan));
    EXPECT_EQ(TableBytes(faulty_flat.table), TableBytes(clean_flat.table));
    ExpectSiteLoadsSumToTotals(faulty_flat.metrics);

    ASSERT_OK_AND_ASSIGN(QueryResult faulty_tree, wh.ExecutePlanTree(plan, 2));
    EXPECT_EQ(TableBytes(faulty_tree.table), TableBytes(clean_tree.table));

    if (config.exact_counters) {
      // The schedule fires exactly once per execution.
      EXPECT_EQ(faulty_flat.metrics.Retries(), 1);
      EXPECT_EQ(faulty_flat.metrics.Drops(), 1);
      EXPECT_EQ(faulty_flat.metrics.Timeouts(), 0);
      EXPECT_EQ(faulty_flat.metrics.Failovers(), 0);
      EXPECT_GT(faulty_flat.metrics.BytesRetransmitted(), 0u);
    }
    wh.set_fault_injector(nullptr);
  }
}

// A scheduled outage of site 1 across rounds 1-3, failing the first two
// attempts of each round, is outlasted by the default three-attempt policy.
TEST_F(FaultInjectionTest, SiteOutageOverRoundRangeRecovers) {
  Warehouse wh(4);
  Load(&wh);
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::None()));

  ASSERT_OK_AND_ASSIGN(QueryResult clean_flat, wh.ExecutePlan(plan));
  ASSERT_OK_AND_ASSIGN(QueryResult clean_tree, wh.ExecutePlanTree(plan, 2));

  FaultInjector injector(/*seed=*/5);
  injector.FailSite(/*site=*/1, /*first_round=*/1, /*last_round=*/3,
                    /*failed_attempts_per_round=*/2);
  wh.set_fault_injector(&injector);

  // The plan has rounds 0 (base), 1, 2 — so the schedule affects rounds 1
  // and 2, costing two drops + two retries each.
  ASSERT_OK_AND_ASSIGN(QueryResult faulty_flat, wh.ExecutePlan(plan));
  EXPECT_EQ(TableBytes(faulty_flat.table), TableBytes(clean_flat.table));
  EXPECT_EQ(faulty_flat.metrics.Retries(), 4);
  EXPECT_EQ(faulty_flat.metrics.Drops(), 4);
  EXPECT_EQ(faulty_flat.metrics.Timeouts(), 0);
  EXPECT_EQ(faulty_flat.metrics.Failovers(), 0);
  ExpectSiteLoadsSumToTotals(faulty_flat.metrics);
  // Site 1 alone took the outage: two retries in each of its rounds.
  for (const SiteLoad& site :
       BuildStragglerReport(faulty_flat.metrics).sites) {
    EXPECT_EQ(site.retries, site.site == 1 ? 4 : 0) << "site " << site.site;
  }

  ASSERT_OK_AND_ASSIGN(QueryResult faulty_tree, wh.ExecutePlanTree(plan, 2));
  EXPECT_EQ(TableBytes(faulty_tree.table), TableBytes(clean_tree.table));
  EXPECT_EQ(faulty_tree.metrics.Retries(), 4);
  EXPECT_EQ(faulty_tree.metrics.Drops(), 4);
}

// A x10 straggler site misses the base deadline; the escalated deadline
// (x2 per retry) lets the same exchange complete on the second attempt.
TEST_F(FaultInjectionTest, StragglerRecoversUnderEscalatedDeadline) {
  NetworkConfig net;
  net.bandwidth_bytes_per_sec = 1e12;  // latency-dominated timings
  net.latency_sec = 0.01;
  net.retry.timeout_sec = 0.15;
  net.retry.timeout_escalation = 2.0;
  net.retry.max_attempts = 3;
  Warehouse wh(4, net);
  Load(&wh);
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::None()));

  ASSERT_OK_AND_ASSIGN(QueryResult clean, wh.ExecutePlan(plan));

  FaultInjector injector(/*seed=*/5);
  injector.SlowSite(/*site=*/0, /*factor=*/10.0);
  wh.set_fault_injector(&injector);

  // Every attempt of site 0 takes ~0.2s of simulated transfer time against
  // a 0.15s first deadline, so each of the three rounds times out once and
  // succeeds on the retry (deadline 0.3s).
  ASSERT_OK_AND_ASSIGN(QueryResult faulty, wh.ExecutePlan(plan));
  EXPECT_EQ(TableBytes(faulty.table), TableBytes(clean.table));
  EXPECT_EQ(faulty.metrics.Timeouts(), 3);
  EXPECT_EQ(faulty.metrics.Retries(), 3);
  EXPECT_EQ(faulty.metrics.Drops(), 0);
  EXPECT_GT(faulty.metrics.CommSeconds(), clean.metrics.CommSeconds());
  ExpectSiteLoadsSumToTotals(faulty.metrics);

  bool saw_straggler = false;
  for (const FaultEvent& event : injector.events()) {
    if (event.kind == FaultKind::kStraggler) saw_straggler = true;
  }
  EXPECT_TRUE(saw_straggler);

  // The tree coordinator survives the same schedule.
  ASSERT_OK_AND_ASSIGN(QueryResult clean_tree, [&] {
    wh.set_fault_injector(nullptr);
    return wh.ExecutePlanTree(plan, 2);
  }());
  wh.set_fault_injector(&injector);
  ASSERT_OK_AND_ASSIGN(QueryResult faulty_tree, wh.ExecutePlanTree(plan, 2));
  EXPECT_EQ(TableBytes(faulty_tree.table), TableBytes(clean_tree.table));
  EXPECT_GE(faulty_tree.metrics.Timeouts(), 1);
}

// A one-off delay is delivered late: no retries, only a slower round.
TEST_F(FaultInjectionTest, DelayedMessageOnlyStretchesTime) {
  Warehouse wh(4);
  Load(&wh);
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::None()));
  ASSERT_OK_AND_ASSIGN(QueryResult clean, wh.ExecutePlan(plan));

  FaultInjector injector(/*seed=*/5);
  injector.DelayOnce(/*site=*/0, /*round=*/1, TransferDirection::kToSite,
                     /*attempt=*/0, /*extra_sec=*/5.0);
  wh.set_fault_injector(&injector);

  ASSERT_OK_AND_ASSIGN(QueryResult faulty, wh.ExecutePlan(plan));
  EXPECT_EQ(TableBytes(faulty.table), TableBytes(clean.table));
  EXPECT_EQ(faulty.metrics.Retries(), 0);
  EXPECT_EQ(faulty.metrics.Drops(), 0);
  EXPECT_GT(faulty.metrics.CommSeconds(), clean.metrics.CommSeconds() + 4.9);
}

// A dropped down-message in a delta-shipping round: the retry wave must
// fall back to a full (standalone-decodable) payload, because after a
// failed exchange the coordinator cannot know whether the site's cached
// copy of X is current. The answer must be byte-identical to a no-fault,
// no-delta run, and the retransmitted bytes must reflect the full
// fallback, not the cheaper delta.
TEST_F(FaultInjectionTest, DroppedDeltaShipmentFallsBackToFullPayload) {
  Warehouse wh(4);
  Load(&wh);
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::None()));

  // Reference: no faults, delta shipping off.
  NetworkConfig full_net;
  full_net.delta_shipping = false;
  wh.set_network_config(full_net);
  ASSERT_OK_AND_ASSIGN(QueryResult reference_flat, wh.ExecutePlan(plan));
  ASSERT_OK_AND_ASSIGN(QueryResult reference_tree, wh.ExecutePlanTree(plan, 2));

  // Delta shipping on; round 2 is the first round that ships X as a delta
  // against the round-1 cache. Lose its down-message to site 1 mid-round.
  NetworkConfig delta_net;
  delta_net.delta_shipping = true;
  wh.set_network_config(delta_net);
  FaultInjector injector(/*seed=*/5);
  injector.DropOnce(/*site=*/1, /*round=*/2, TransferDirection::kToSite);
  wh.set_fault_injector(&injector);

  ASSERT_OK_AND_ASSIGN(QueryResult faulty, wh.ExecutePlan(plan));
  EXPECT_EQ(TableBytes(faulty.table), TableBytes(reference_flat.table));
  EXPECT_EQ(faulty.metrics.Drops(), 1);
  EXPECT_EQ(faulty.metrics.Retries(), 1);
  // The first attempt still shipped deltas (and recorded the saving) ...
  EXPECT_GT(faulty.metrics.BytesSavedByDelta(), 0u);
  // ... while the retry re-shipped the full payload: more bytes on the
  // wire than the delta that was dropped.
  EXPECT_GT(faulty.metrics.BytesRetransmitted(), 0u);

  ASSERT_OK_AND_ASSIGN(QueryResult faulty_tree, wh.ExecutePlanTree(plan, 2));
  EXPECT_EQ(TableBytes(faulty_tree.table), TableBytes(reference_tree.table));

  // A clean delta run still matches the no-delta reference byte-for-byte.
  wh.set_fault_injector(nullptr);
  ASSERT_OK_AND_ASSIGN(QueryResult clean_delta, wh.ExecutePlan(plan));
  EXPECT_EQ(TableBytes(clean_delta.table), TableBytes(reference_flat.table));
  EXPECT_LT(clean_delta.metrics.TotalBytes(),
            reference_flat.metrics.TotalBytes());
}

// ---------------------------------------------------------------------------
// Unrecoverable schedules: typed errors, never wrong answers.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, KilledSiteWithoutReplicaReturnsUnavailable) {
  Warehouse wh(4);
  Load(&wh);
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::None()));

  FaultInjector injector(/*seed=*/5);
  injector.KillSite(/*site=*/2);
  wh.set_fault_injector(&injector);

  auto flat = wh.ExecutePlan(plan);
  ASSERT_FALSE(flat.ok());
  EXPECT_EQ(flat.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(flat.status().message().find("site 2"), std::string::npos);

  auto tree = wh.ExecutePlanTree(plan, 2);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kUnavailable);
}

TEST_F(FaultInjectionTest, ExhaustedDeadlinesReturnDeadlineExceeded) {
  NetworkConfig net;
  net.bandwidth_bytes_per_sec = 1e12;
  net.latency_sec = 0.001;
  net.retry.timeout_sec = 0.05;
  net.retry.timeout_escalation = 1.0;  // the deadline never grows
  net.retry.max_attempts = 3;
  Warehouse wh(4, net);
  Load(&wh);

  FaultInjector injector(/*seed=*/5);
  injector.SlowSite(/*site=*/0, /*factor=*/100.0);
  wh.set_fault_injector(&injector);

  ASSERT_OK_AND_ASSIGN(
      DistributedPlan plan,
      wh.Plan(queries::GroupReductionQuery("CustKey"),
              OptimizerOptions::None()));
  auto result = wh.ExecutePlan(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Replica failover.
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, FailoverToCoveringReplicaServesTheQuery) {
  Warehouse wh(4);
  Load(&wh);
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::None()));
  ASSERT_OK_AND_ASSIGN(QueryResult clean_flat, wh.ExecutePlan(plan));
  ASSERT_OK_AND_ASSIGN(QueryResult clean_tree, wh.ExecutePlanTree(plan, 2));

  ASSERT_OK_AND_ASSIGN(Site * replica, wh.AddReplica(/*site_id=*/1));
  // The replica gets its own site id beyond the primaries, so schedules
  // against the primary do not follow it.
  EXPECT_EQ(replica->id(), 4);

  FaultInjector injector(/*seed=*/5);
  injector.KillSite(/*site=*/1);
  wh.set_fault_injector(&injector);

  // The primary burns its full three-attempt budget in the base round
  // (3 drops, 2 retries), fails over, and the replica answers on the next
  // wave; later rounds talk to the replica from the start.
  ASSERT_OK_AND_ASSIGN(QueryResult faulty_flat, wh.ExecutePlan(plan));
  EXPECT_EQ(TableBytes(faulty_flat.table), TableBytes(clean_flat.table));
  EXPECT_EQ(faulty_flat.metrics.Failovers(), 1);
  EXPECT_EQ(faulty_flat.metrics.Drops(), 3);
  EXPECT_EQ(faulty_flat.metrics.Retries(), 3);
  ExpectSiteLoadsSumToTotals(faulty_flat.metrics);
  // The failover is charged to the slot it served: slot 1's row.
  const StragglerReport load = BuildStragglerReport(faulty_flat.metrics);
  ASSERT_EQ(load.sites.size(), 4u);
  EXPECT_EQ(load.sites[1].site, 1);
  EXPECT_EQ(load.sites[1].failovers, 1);

  ASSERT_OK_AND_ASSIGN(QueryResult faulty_tree, wh.ExecutePlanTree(plan, 2));
  EXPECT_EQ(TableBytes(faulty_tree.table), TableBytes(clean_tree.table));
  EXPECT_EQ(faulty_tree.metrics.Failovers(), 1);
}

TEST_F(FaultInjectionTest, NonCoveringReplicaIsRefused) {
  Warehouse wh(4);
  Load(&wh);
  ASSERT_OK_AND_ASSIGN(Site * replica, wh.AddReplica(/*site_id=*/1));
  // Narrow the replica's NationKey domain below the primary's: failing
  // over could silently drop groups, so the coordinator must refuse.
  replica->mutable_partition_info().SetDomain(
      "NationKey", AttrDomain::Range(Value(int64_t{0}), Value(int64_t{0})));

  FaultInjector injector(/*seed=*/5);
  injector.KillSite(/*site=*/1);
  wh.set_fault_injector(&injector);

  ASSERT_OK_AND_ASSIGN(
      DistributedPlan plan,
      wh.Plan(queries::GroupReductionQuery("CustKey"),
              OptimizerOptions::None()));
  auto result = wh.ExecutePlan(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(result.status().message().find("does not cover"),
            std::string::npos);
}

// PROFILE's site column under the same straggler: site 0's timed-out
// attempt is in the round's summed seconds, which `sites` does not count,
// so the average is the mean of the slots' successful attempts — between
// the fastest and the slowest of them.
TEST_F(FaultInjectionTest, ProfileSiteAverageIsTheMeanOfTheReplies) {
  NetworkConfig net;
  net.bandwidth_bytes_per_sec = 1e12;
  net.latency_sec = 0.01;
  net.retry.timeout_sec = 0.15;
  net.retry.timeout_escalation = 2.0;
  net.retry.max_attempts = 3;
  Warehouse wh(4, net);
  Load(&wh);
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(queries::GroupReductionQuery("CustKey"),
                               OptimizerOptions::None()));
  FaultInjector injector(/*seed=*/5);
  injector.SlowSite(/*site=*/0, /*factor=*/10.0);
  wh.set_fault_injector(&injector);
  ASSERT_OK_AND_ASSIGN(QueryResult faulty, wh.ExecutePlan(plan));
  ASSERT_EQ(faulty.metrics.Timeouts(), 3);

  const std::string profile =
      FormatQueryProfile(&faulty, QueryProfileInfo());
  for (const RoundMetrics& rm : faulty.metrics.rounds) {
    SCOPED_TRACE(rm.label);
    double replied_sum = 0;
    int replied = 0;
    for (const SiteLoad& row : rm.exchanges) {
      if (row.site < 0 || !row.replied()) continue;
      replied_sum += row.success_sec;
      ++replied;
    }
    ASSERT_EQ(replied, rm.sites);
    EXPECT_GT(rm.site_cpu_sum_sec, replied_sum);  // the timed-out attempt

    const SiteSeconds site = rm.ReplySeconds();
    EXPECT_DOUBLE_EQ(site.mean, replied_sum / replied);
    EXPECT_LE(site.min, site.mean);
    EXPECT_LE(site.mean, site.max);
    EXPECT_EQ(site.max, rm.site_cpu_max_sec);
    EXPECT_NE(profile.find(StrFormat("%8.4f/%8.4f/%8.4f", site.min,
                                     site.mean, site.max)),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Metrics vs. network traffic: the accounting must match the wire exactly,
// retransmissions included.
// ---------------------------------------------------------------------------

void ExpectMetricsMatchNetwork(const ExecutionMetrics& metrics,
                               const SimNetwork& net) {
  size_t bytes_down = 0, bytes_up = 0, bytes_retx = 0;
  int64_t rows_down = 0, rows_up = 0;
  int dropped = 0;
  for (const TransferRecord& r : net.transfers()) {
    if (r.dir == TransferDirection::kToSite) {
      bytes_down += r.bytes;
      rows_down += r.rows;
    } else {
      bytes_up += r.bytes;
      rows_up += r.rows;
    }
    if (r.attempt > 0) bytes_retx += r.bytes;
    if (!r.delivered) ++dropped;
  }
  EXPECT_EQ(metrics.BytesToSites(), bytes_down);
  EXPECT_EQ(metrics.BytesToCoord(), bytes_up);
  EXPECT_EQ(metrics.TotalBytes(), net.TotalBytes());
  EXPECT_EQ(metrics.GroupsToSites(), rows_down);
  EXPECT_EQ(metrics.GroupsToCoord(), rows_up);
  EXPECT_EQ(metrics.BytesRetransmitted(), net.RetransmittedBytes());
  EXPECT_EQ(metrics.BytesRetransmitted(), bytes_retx);
  EXPECT_EQ(metrics.Drops(), net.DroppedCount());
  EXPECT_EQ(metrics.Drops(), dropped);
}

TEST_F(FaultInjectionTest, MetricsEqualNetworkTotalsUnderRetriesFlat) {
  Warehouse wh(4);
  Load(&wh);
  std::vector<Site*> sites;
  for (int i = 0; i < wh.num_sites(); ++i) sites.push_back(&wh.site(i));

  // All() adds aware group reduction, fused rounds and column pruning, so
  // the reduced, pruned X fragments are checked against the log as well.
  for (const bool all : {false, true}) {
    SCOPED_TRACE(all ? "All()" : "None()");
    ASSERT_OK_AND_ASSIGN(
        DistributedPlan plan,
        wh.Plan(queries::CombinedQuery("CustKey"),
                all ? OptimizerOptions::All() : OptimizerOptions::None()));

    FaultInjector injector(/*seed=*/17);
    injector.FailSite(/*site=*/1, /*first_round=*/1, /*last_round=*/2,
                      /*failed_attempts_per_round=*/1);
    injector.DropOnce(/*site=*/2, /*round=*/0,
                      TransferDirection::kToCoordinator);

    Coordinator coordinator(sites, NetworkConfig());
    coordinator.network().set_fault_injector(&injector);

    ExecutionMetrics metrics;
    ASSERT_OK_AND_ASSIGN(Table table, coordinator.Execute(plan, &metrics));
    EXPECT_GT(table.num_rows(), 0);
    EXPECT_GT(metrics.Retries(), 0);
    ExpectMetricsMatchNetwork(metrics, coordinator.network());
    ExpectSiteLoadsSumToTotals(metrics);
  }
}

TEST_F(FaultInjectionTest, MetricsEqualNetworkTotalsUnderRetriesTree) {
  Warehouse wh(4);
  Load(&wh);
  std::vector<Site*> sites;
  for (int i = 0; i < wh.num_sites(); ++i) sites.push_back(&wh.site(i));

  for (const bool all : {false, true}) {
    SCOPED_TRACE(all ? "All()" : "None()");
    ASSERT_OK_AND_ASSIGN(
        DistributedPlan plan,
        wh.Plan(queries::GroupReductionQuery("CustKey"),
                all ? OptimizerOptions::All() : OptimizerOptions::None()));

    FaultInjector injector(/*seed=*/17);
    injector.FailSite(/*site=*/3, /*first_round=*/0, /*last_round=*/1,
                      /*failed_attempts_per_round=*/2);

    Coordinator coordinator(sites, /*fan_in=*/2, NetworkConfig());
    coordinator.network().set_fault_injector(&injector);

    ExecutionMetrics metrics;
    ASSERT_OK_AND_ASSIGN(Table table, coordinator.Execute(plan, &metrics));
    EXPECT_GT(table.num_rows(), 0);
    // Two failed attempts in each round the outage (rounds 0-1) covers:
    // None() runs three rounds, All() one (the base query fused into a
    // chain of both GMDJ operators).
    EXPECT_EQ(metrics.Retries(),
              2 * std::min<int>(2, static_cast<int>(metrics.rounds.size())));
    ExpectMetricsMatchNetwork(metrics, coordinator.network());
  }
}

// Failover moves a slot's traffic to a replica mid-round; the metrics still
// count every message the log holds, to the dead primary and the replica.
TEST_F(FaultInjectionTest, MetricsEqualNetworkTotalsUnderFailover) {
  Warehouse wh(4);
  Load(&wh);
  std::vector<Site*> sites;
  for (int i = 0; i < wh.num_sites(); ++i) sites.push_back(&wh.site(i));
  ASSERT_OK_AND_ASSIGN(Site * replica, wh.AddReplica(/*site_id=*/1));

  for (const bool all : {false, true}) {
    ASSERT_OK_AND_ASSIGN(
        DistributedPlan plan,
        wh.Plan(queries::CombinedQuery("CustKey"),
                all ? OptimizerOptions::All() : OptimizerOptions::None()));
    // A fan-in of the site count is the flat coordinator.
    for (const int fan_in : {4, 2}) {
      SCOPED_TRACE(std::string(all ? "All()" : "None()") +
                   " fan_in=" + std::to_string(fan_in));
      FaultInjector injector(/*seed=*/5);
      injector.KillSite(/*site=*/1);

      Coordinator coordinator(sites, fan_in, NetworkConfig());
      coordinator.AddReplica(1, replica);
      coordinator.network().set_fault_injector(&injector);

      ExecutionMetrics metrics;
      ASSERT_OK_AND_ASSIGN(Table table, coordinator.Execute(plan, &metrics));
      EXPECT_GT(table.num_rows(), 0);
      EXPECT_EQ(metrics.Failovers(), 1);
      EXPECT_EQ(metrics.Drops(), 3);
      ExpectMetricsMatchNetwork(metrics, coordinator.network());
      // Leaf and aggregator-hop rows: a fan-in of 2 has hops.
      ExpectSiteLoadsSumToTotals(metrics);
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: sequential (a lane quota of 1) and thread-parallel (the
// default quota) site evaluation observe the identical fault pattern and
// produce identical bytes. (This test is the prime -DSKALLA_SANITIZE=thread
// target.)
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, ParallelAndSequentialRunsAreByteIdentical) {
  for (const bool tree : {false, true}) {
    Warehouse wh(4);
    Load(&wh);
    const GmdjExpr query = queries::CombinedQuery("CustKey");
    ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                         wh.Plan(query, OptimizerOptions::All()));

    NetworkConfig net;
    net.retry.max_attempts = 4;
    wh.set_network_config(net);

    FaultInjector injector(/*seed=*/99);
    injector.set_random_drop(/*probability=*/0.3, /*max_attempt=*/2);
    injector.SlowSite(/*site=*/2, /*factor=*/3.0);
    wh.set_fault_injector(&injector);

    auto run = [&](bool parallel) -> Result<QueryResult> {
      wh.set_local_threads(parallel ? 0 : 1);
      return tree ? wh.ExecutePlanTree(plan, 2) : wh.ExecutePlan(plan);
    };

    ASSERT_OK_AND_ASSIGN(QueryResult sequential, run(false));
    const std::string sequential_log = injector.EventLogToString();
    ASSERT_OK_AND_ASSIGN(QueryResult parallel, run(true));
    const std::string parallel_log = injector.EventLogToString();

    EXPECT_EQ(TableBytes(sequential.table), TableBytes(parallel.table));
    EXPECT_EQ(sequential_log, parallel_log);
    EXPECT_EQ(sequential.metrics.Retries(), parallel.metrics.Retries());
    EXPECT_EQ(sequential.metrics.Drops(), parallel.metrics.Drops());
    EXPECT_EQ(sequential.metrics.TotalBytes(), parallel.metrics.TotalBytes());

    // And the recoverable random schedule never changed the answer.
    wh.set_fault_injector(nullptr);
    ASSERT_OK_AND_ASSIGN(QueryResult clean, run(true));
    EXPECT_EQ(TableBytes(sequential.table), TableBytes(clean.table));
  }
}

}  // namespace
}  // namespace skalla
