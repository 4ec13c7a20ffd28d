// Skew-aware adaptive round execution suite (ctest label "skew").
//
// Covers the straggler detector (EWMA rates, the PlanRound keep rule),
// the heavy-hitter sketch and frequency-weighted φ partitioning, and — the
// acceptance property of docs/skew.md — that a rebalanced execution is
// *byte-identical* to the unrebalanced one across coordinator topologies,
// local-thread counts, wire formats, pinned fuzz seeds, and fault
// schedules (DESIGN.md invariant 12). The rebalancer may only move work,
// never change the answer.

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dist/rebalance.h"
#include "flow/flowgen.h"
#include "net/fault_injector.h"
#include "opt/cost_model.h"
#include "server/admission.h"
#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "storage/freq_sketch.h"
#include "storage/serializer.h"
#include "test_util.h"
#include "tpc/dbgen.h"
#include "tpc/partitioner.h"

namespace skalla {
namespace {

// ---------------------------------------------------------------------------
// SkewDetector unit tests.
// ---------------------------------------------------------------------------

TEST(SkewDetectorTest, UnobservedSlotsHaveNeutralRate) {
  SkewDetector detector;
  EXPECT_DOUBLE_EQ(detector.CostPerRow(0), 1.0);
  EXPECT_DOUBLE_EQ(detector.CostPerRow(99), 1.0);
  detector.SeedRows(4);
  EXPECT_EQ(detector.num_slots(), 4);
  for (int s = 0; s < 4; ++s) EXPECT_DOUBLE_EQ(detector.CostPerRow(s), 1.0);
}

TEST(SkewDetectorTest, ObserveRoundFoldsEwma) {
  RebalanceConfig config;
  config.ewma_alpha = 0.5;
  SkewDetector detector(config);
  // First sample replaces the neutral prior outright: 1 µs/row.
  detector.ObserveRound(0, /*seconds=*/1e-6, /*rows=*/1);
  EXPECT_DOUBLE_EQ(detector.CostPerRow(0), 1.0);
  // Second sample (3 µs/row) folds: 0.5 * 3 + 0.5 * 1 = 2.
  detector.ObserveRound(0, 3e-6, 1);
  EXPECT_DOUBLE_EQ(detector.CostPerRow(0), 2.0);
}

TEST(SkewDetectorTest, ObserveRoundIgnoresInvalidSamples) {
  SkewDetector detector;
  detector.SeedRows(2);
  detector.ObserveRound(-1, 1.0, 100);   // bad slot
  detector.ObserveRound(0, 1.0, 0);      // no rows scanned
  detector.ObserveRound(1, -1.0, 100);   // negative wall time
  EXPECT_DOUBLE_EQ(detector.CostPerRow(0), 1.0);
  EXPECT_DOUBLE_EQ(detector.CostPerRow(1), 1.0);
}

TEST(SkewDetectorTest, PlanRoundVetoes) {
  RebalanceConfig config;
  config.enabled = true;
  config.min_rows_to_split = 1000;
  SkewDetector detector(config);

  // Fewer than two slots: nothing to split against.
  EXPECT_FALSE(detector.PlanRound({0}, {50000}).split());

  // Balanced loads stay below the max/mean threshold.
  RebalanceDecision balanced =
      detector.PlanRound({0, 1, 2, 3}, {5000, 5000, 5000, 5000});
  EXPECT_FALSE(balanced.split());
  EXPECT_NEAR(balanced.max_over_mean, 1.0, 1e-9);

  // Skewed but tiny: the hot slot is under min_rows_to_split.
  EXPECT_FALSE(detector.PlanRound({0, 1, 2, 3}, {900, 10, 10, 10}).split());

  // Disabled: the same skewed shape that would otherwise split is vetoed.
  SkewDetector off;  // default config has enabled = false
  RebalanceDecision disabled =
      off.PlanRound({0, 1, 2, 3}, {50000, 100, 100, 100});
  EXPECT_FALSE(disabled.split());
  EXPECT_GT(disabled.max_over_mean, 1.5);  // the skew was still measured
}

TEST(SkewDetectorTest, PlanRoundSplitsTheHotSlot) {
  RebalanceConfig config;
  config.enabled = true;
  config.min_rows_to_split = 1000;
  SkewDetector detector(config);
  RebalanceDecision d =
      detector.PlanRound({4, 5, 6, 7}, {10000, 100, 100, 100});
  ASSERT_TRUE(d.split());
  EXPECT_EQ(d.hot_slot, 4);
  EXPECT_EQ(d.rows, 10000);
  EXPECT_GT(d.max_over_mean, config.max_over_mean_threshold);
  EXPECT_GT(d.split_at, 0);
  EXPECT_LT(d.split_at, d.rows);
  // Extreme skew: mean/max is far below 1/2, so the keep rule bottoms out
  // at half — the single same-hardware helper must not become the new
  // straggler.
  EXPECT_EQ(d.split_at, 5000);
}

TEST(SkewDetectorTest, PlanRoundKeepsAMeanShareUnderModerateSkew) {
  RebalanceConfig config;
  config.enabled = true;
  config.min_rows_to_split = 100;
  config.max_over_mean_threshold = 1.2;
  SkewDetector detector(config);
  // mean = 2250, max = 3000: keep = max(0.5, 0.75) = 0.75 of the scan.
  RebalanceDecision d =
      detector.PlanRound({0, 1, 2, 3}, {3000, 2000, 2000, 2000});
  ASSERT_TRUE(d.split());
  EXPECT_EQ(d.hot_slot, 0);
  EXPECT_EQ(d.split_at, 2250);
}

TEST(SkewDetectorTest, PlanRoundWeighsObservedRates) {
  RebalanceConfig config;
  config.enabled = true;
  config.min_rows_to_split = 100;
  SkewDetector detector(config);
  // Equal row counts, but slot 1 is observed 8x slower per row: the load
  // prediction rows * rate must crown slot 1, not slot 0.
  detector.ObserveRound(0, 1e-6, 1);
  detector.ObserveRound(1, 8e-6, 1);
  detector.ObserveRound(2, 1e-6, 1);
  RebalanceDecision d = detector.PlanRound({0, 1, 2}, {4000, 4000, 4000});
  ASSERT_TRUE(d.split());
  EXPECT_EQ(d.hot_slot, 1);
}

TEST(SkewDetectorTest, ConcurrentObserversAndPlannersAreSafe) {
  RebalanceConfig config;
  config.enabled = true;
  config.min_rows_to_split = 10;
  SkewDetector detector(config);
  detector.SeedRows(8);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&detector, t]() {
      for (int i = 0; i < 500; ++i) {
        detector.ObserveRound(t * 2, 1e-6 * (t + 1), 100);
        detector.CostPerRow(i % 8);
        detector.PlanRound({0, 1, 2, 3, 4, 5, 6, 7},
                           {9000, 100, 100, 100, 100, 100, 100, 100});
      }
    });
  }
  for (std::thread& w : workers) w.join();
  // All rates remain finite and positive.
  for (int s = 0; s < 8; ++s) EXPECT_GT(detector.CostPerRow(s), 0.0);
}

// ---------------------------------------------------------------------------
// FreqSketch (space-saving heavy hitters).
// ---------------------------------------------------------------------------

TEST(FreqSketchTest, ExactUnderCapacity) {
  FreqSketch sketch(8);
  for (int i = 0; i < 5; ++i) {
    for (int k = 0; k <= i; ++k) sketch.Add(i);
  }
  EXPECT_EQ(sketch.total(), 1 + 2 + 3 + 4 + 5);
  EXPECT_EQ(sketch.monitored(), 5u);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(sketch.Estimate(i), i + 1);
  const auto top = sketch.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 4);
  EXPECT_EQ(top[1].key, 3);
  EXPECT_EQ(top[0].error, 0);
}

TEST(FreqSketchTest, SpaceSavingBoundsHold) {
  // Stream with known true counts, over capacity: key k appears
  // (100 - k) times, capacity 8 monitors only a subset.
  FreqSketch sketch(8);
  std::vector<int64_t> truth(32, 0);
  for (int64_t k = 0; k < 32; ++k) {
    for (int64_t i = 0; i < 100 - k; ++i) {
      sketch.Add(k);
      truth[static_cast<size_t>(k)]++;
    }
  }
  EXPECT_EQ(sketch.monitored(), 8u);
  // Space-saving guarantee: count is an upper bound and count - error a
  // lower bound on the true frequency of every monitored key.
  for (const auto& e : sketch.TopK(8)) {
    const int64_t true_count = truth[static_cast<size_t>(e.key)];
    EXPECT_GE(e.count, true_count) << "key " << e.key;
    EXPECT_LE(e.count - e.error, true_count) << "key " << e.key;
  }
  // Every estimate stays bounded by the stream total.
  for (const auto& e : sketch.TopK(8)) EXPECT_LE(e.count, sketch.total());
}

TEST(FreqSketchTest, GuaranteedHeavyHitterIsMonitored) {
  FreqSketch sketch(4);
  for (int i = 0; i < 600; ++i) sketch.Add(7);          // 60% of the stream
  for (int i = 0; i < 400; ++i) sketch.Add(100 + i);    // 400 singletons
  // True frequency 600 > total/capacity = 250: must be monitored, and its
  // guaranteed lower bound must clear a 25% share.
  const auto heavy = sketch.HeavyHitters(0.25);
  ASSERT_FALSE(heavy.empty());
  EXPECT_EQ(heavy[0].key, 7);
  EXPECT_GE(heavy[0].count - heavy[0].error,
            static_cast<int64_t>(0.25 * 1000));
}

TEST(FreqSketchTest, DeterministicAcrossIdenticalStreams) {
  FreqSketch a(4), b(4);
  const int64_t keys[] = {1, 2, 3, 4, 5, 1, 2, 6, 7, 1, 8, 9};
  for (int64_t k : keys) a.Add(k);
  for (int64_t k : keys) b.Add(k);
  const auto ta = a.TopK(4), tb = b.TopK(4);
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].key, tb[i].key);
    EXPECT_EQ(ta[i].count, tb[i].count);
    EXPECT_EQ(ta[i].error, tb[i].error);
  }
}

// ---------------------------------------------------------------------------
// Frequency-weighted range partitioning (φ rebalancing).
// ---------------------------------------------------------------------------

TEST(WeightedPartitionTest, EqualizesZipfSkewAndStaysContiguous) {
  TpcConfig config;
  config.num_rows = 20000;
  config.num_customers = 2000;
  config.cust_zipf_s = 1.1;
  const Table tpcr = GenerateTpcr(config);

  ASSERT_OK_AND_ASSIGN(PartitionedData plain,
                       PartitionByRange(tpcr, "CustKey", 4, 0, 1999));
  ASSERT_OK_AND_ASSIGN(PartitionedData weighted,
                       PartitionByRangeWeighted(tpcr, "CustKey", 4, 0, 1999));

  auto max_rows = [](const PartitionedData& data) {
    int64_t max = 0;
    for (const auto& f : data.fragments) max = std::max(max, f->num_rows());
    return max;
  };
  int64_t total = 0;
  for (const auto& f : weighted.fragments) total += f->num_rows();
  EXPECT_EQ(total, tpcr.num_rows());

  // The naive equal-width ranges concentrate the Zipf head on site 0; the
  // weighted boundaries must do strictly better and stay near fair share.
  const double mean = static_cast<double>(total) / 4.0;
  EXPECT_LT(max_rows(weighted), max_rows(plain));
  EXPECT_LT(static_cast<double>(max_rows(weighted)), 2.0 * mean);

  // φ stays a contiguous, ascending, disjoint range per site — CustKey
  // remains a partition attribute (Definition 2).
  double prev_hi = -1;
  for (const PartitionInfo& info : weighted.infos) {
    const AttrDomain& domain = info.Domain("CustKey");
    ASSERT_EQ(domain.kind, AttrDomain::Kind::kRange);
    double lo = 0, hi = 0;
    ASSERT_TRUE(domain.NumericBounds(&lo, &hi));
    EXPECT_GT(lo, prev_hi);
    EXPECT_GE(hi, lo);
    prev_hi = hi;
  }
  EXPECT_TRUE(IsPartitionAttribute("CustKey", weighted.infos));
}

TEST(WeightedPartitionTest, HeavyKeySiteGetsAReplicaAtLoad) {
  // One customer owns ~60% of the rows: no contiguous boundary can split a
  // single key, so LoadByRangeWeighted must pre-register a replica of that
  // key's site for the rebalancer.
  TpcConfig config;
  config.num_rows = 8000;
  config.num_customers = 100;
  config.cust_zipf_s = 2.0;  // key 0 dominates
  const Table tpcr = GenerateTpcr(config);

  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRangeWeighted("TPCR", tpcr, "CustKey", 0, 99));
  // Key 0 lives in site 0's range; a second AddReplica must collide with
  // the one the weighted load already registered.
  Status again = wh.AddReplica(0).status();
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists) << again.ToString();
}

// ---------------------------------------------------------------------------
// Generator skew knobs (satellite: Zipf data generation).
// ---------------------------------------------------------------------------

TEST(ZipfKnobTest, TpcrCustomerSkewIsDeterministicAndSkewed) {
  TpcConfig config;
  config.num_rows = 6000;
  config.num_customers = 500;
  config.cust_zipf_s = 1.2;
  const Table a = GenerateTpcr(config);
  const Table b = GenerateTpcr(config);
  EXPECT_EQ(TableBytes(a), TableBytes(b));

  const int cust = *a.schema().IndexOf("CustKey");
  int64_t head = 0;
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    if (a.Get(r, cust).AsInt64() == 0) head++;
  }
  // Uniform share would be 12 rows; the Zipf head must far exceed it.
  EXPECT_GT(head, 10 * config.num_rows / config.num_customers);

  // The knob's zero default reproduces the uniform generator unchanged.
  TpcConfig uniform = config;
  uniform.cust_zipf_s = 0.0;
  const Table u = GenerateTpcr(uniform);
  int64_t uniform_head = 0;
  for (int64_t r = 0; r < u.num_rows(); ++r) {
    if (u.Get(r, cust).AsInt64() == 0) uniform_head++;
  }
  EXPECT_LT(uniform_head, head);
}

TEST(ZipfKnobTest, FlowAsExponentShiftsLoadAcrossRouters) {
  FlowConfig mild;
  mild.num_rows = 8000;
  mild.as_zipf_s = 0.0;  // uniform AS draw
  FlowConfig hot = mild;
  hot.as_zipf_s = 1.4;

  auto router0_rows = [](const FlowConfig& config) {
    const Table t = GenerateFlows(config);
    const int router = *t.schema().IndexOf("RouterId");
    int64_t n = 0;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      if (t.Get(r, router).AsInt64() == 0) n++;
    }
    return n;
  };
  // Cranking the AS exponent concentrates flows on the first AS block's
  // router — the straggler workload of docs/skew.md.
  EXPECT_GT(router0_rows(hot), 2 * router0_rows(mild));
}

// ---------------------------------------------------------------------------
// End-to-end byte identity: rebalanced == unrebalanced (invariant 12).
// ---------------------------------------------------------------------------

Table SkewedTpcr(uint64_t seed = 42, int64_t rows = 6000) {
  TpcConfig config;
  config.num_rows = rows;
  config.num_customers = 800;
  config.num_nations = 24;
  config.num_clerks = 40;
  config.cust_zipf_s = 1.1;
  config.seed = seed;
  return GenerateTpcr(config);
}

/// A 4-site warehouse over Zipf-skewed TPCR (site 0 hot), optionally with
/// the rebalancer armed (config + a replica of the hot site).
std::unique_ptr<Warehouse> SkewedWarehouse(const Table& tpcr,
                                           bool rebalance) {
  auto wh = std::make_unique<Warehouse>(4);
  // NationKey ranges; the CustKey Zipf head lands in nation block 0.
  EXPECT_OK(wh->LoadByRange("TPCR", tpcr, "NationKey", 0, 23, {"CustKey"}));
  if (rebalance) {
    RebalanceConfig config;
    config.enabled = true;
    config.min_rows_to_split = 256;
    wh->set_rebalance_config(config);
    EXPECT_OK(wh->AddReplica(0).status());
  }
  return wh;
}

TEST(RebalanceIdentityTest, MatrixOfTopologiesAndThreads) {
  const Table tpcr = SkewedTpcr();
  // ClerkKey is NOT a partition attribute, so the plan keeps a non-fused
  // shipped round the rebalancer can split (grouping on the partition
  // attribute fully fuses the query and leaves nothing to rebalance).
  const GmdjExpr query = queries::GroupReductionQuery("ClerkKey");

  // Oracle: unrebalanced flat execution plus the centralized evaluator.
  auto oracle_wh = SkewedWarehouse(tpcr, /*rebalance=*/false);
  ASSERT_OK_AND_ASSIGN(QueryResult oracle,
                       oracle_wh->Execute(query, OptimizerOptions::All()));
  EXPECT_EQ(oracle.metrics.RebalanceSplits(), 0);
  ASSERT_OK_AND_ASSIGN(Table reference, oracle_wh->ExecuteCentralized(query));
  ExpectSameRows(oracle.table, reference);
  const std::string oracle_bytes = TableBytes(oracle.table);

  int total_splits = 0;
  int flat_splits = 0;
  for (const bool tree : {false, true}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(tree ? "tree" : "flat") + "/threads=" +
                   std::to_string(threads));
      auto wh = SkewedWarehouse(tpcr, /*rebalance=*/true);
      wh->set_local_threads(threads);
      ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                           wh->Plan(query, OptimizerOptions::All()));
      for (int iter = 0; iter < 2; ++iter) {  // repeat with warm rates
        auto result = tree ? wh->ExecutePlanTree(plan, /*fan_in=*/2)
                           : wh->ExecutePlan(plan);
        ASSERT_OK(result.status());
        EXPECT_EQ(TableBytes(result->table), oracle_bytes);
        total_splits += result->metrics.RebalanceSplits();
        if (!tree) {
          // The helper slot (id 4, after the four primaries) is a row of
          // its own, and the rows still sum to the flat plan's totals.
          ExpectSiteLoadsSumToTotals(result->metrics);
          const StragglerReport load = BuildStragglerReport(result->metrics);
          const bool split = result->metrics.RebalanceSplits() > 0;
          ASSERT_EQ(load.sites.size(), split ? 5u : 4u);
          if (split) {
            EXPECT_EQ(load.sites.back().site, 4);
            EXPECT_GT(load.sites.back().bytes_in, 0u);
            EXPECT_GT(load.sites.back().groups_out, 0);
            flat_splits += result->metrics.RebalanceSplits();
          }
        }
      }
    }
  }
  // The hot site holds the Zipf head: the detector must actually have
  // split rounds somewhere in the matrix, or this test proved nothing.
  EXPECT_GT(total_splits, 0);
  EXPECT_GT(flat_splits, 0);
}

TEST(RebalanceIdentityTest, FuzzPinnedSeedsFlipRebalanceBit) {
  const GmdjExpr query = queries::CombinedQuery("ClerkKey");
  for (const uint64_t seed : {7u, 19u, 101u, 555u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Table tpcr = SkewedTpcr(seed, /*rows=*/4000);
    auto off = SkewedWarehouse(tpcr, false);
    auto on = SkewedWarehouse(tpcr, true);
    ASSERT_OK_AND_ASSIGN(QueryResult plain,
                         off->Execute(query, OptimizerOptions::All()));
    ASSERT_OK_AND_ASSIGN(QueryResult rebalanced,
                         on->Execute(query, OptimizerOptions::All()));
    EXPECT_EQ(TableBytes(rebalanced.table), TableBytes(plain.table));
    ASSERT_OK_AND_ASSIGN(Table reference, off->ExecuteCentralized(query));
    ExpectSameRows(plain.table, reference);
  }
}

TEST(RebalanceIdentityTest, DetectorStateCarriesAcrossQueries) {
  // The warehouse owns one persistent detector: rates learned by query 1
  // are visible to query 2 (docs/skew.md), and repeated runs stay
  // byte-stable.
  const Table tpcr = SkewedTpcr();
  auto wh = SkewedWarehouse(tpcr, true);
  const GmdjExpr query = queries::GroupReductionQuery("ClerkKey");
  std::string first;
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(QueryResult result,
                         wh->Execute(query, OptimizerOptions::All()));
    if (i == 0) {
      first = TableBytes(result.table);
    } else {
      EXPECT_EQ(TableBytes(result.table), first);
    }
  }
  // After three executions over 4 sites, every primary slot has observed
  // wall time: its rate left the neutral 1.0 prior.
  EXPECT_GE(wh->skew_detector().num_slots(), 4);
  bool any_observed = false;
  for (int s = 0; s < 4; ++s) {
    if (wh->skew_detector().CostPerRow(s) != 1.0) any_observed = true;
  }
  EXPECT_TRUE(any_observed);
}

// ---------------------------------------------------------------------------
// Fault interaction: stragglers that are also flaky.
// ---------------------------------------------------------------------------

TEST(RebalanceFaultTest, FlakyStragglerStaysByteIdentical) {
  // The hot site's exchanges each fail once before succeeding, on top of
  // being the split target: retries and the helper fragment must compose
  // without changing a byte.
  const Table tpcr = SkewedTpcr();
  const GmdjExpr query = queries::GroupReductionQuery("ClerkKey");

  auto clean = SkewedWarehouse(tpcr, true);
  ASSERT_OK_AND_ASSIGN(QueryResult expected,
                       clean->Execute(query, OptimizerOptions::All()));

  auto wh = SkewedWarehouse(tpcr, true);
  FaultInjector injector;
  injector.FailSite(/*site=*/0, /*first_round=*/0, /*last_round=*/9,
                    /*failed_attempts_per_round=*/1);
  wh->set_fault_injector(&injector);
  ASSERT_OK_AND_ASSIGN(QueryResult flaky,
                       wh->Execute(query, OptimizerOptions::All()));
  EXPECT_EQ(TableBytes(flaky.table), TableBytes(expected.table));
  EXPECT_GT(flaky.metrics.Retries(), 0);
  ExpectSiteLoadsSumToTotals(flaky.metrics);
}

TEST(RebalanceFaultTest, DeadHelperFailsOverToTheStragglerPrimary) {
  // The helper slot is served by the hot site's replica (site id 4 on a
  // 4-site warehouse). Killing the replica outright forces the helper
  // fragment through failover — whose target is the straggler primary
  // itself (AddHelperSlot) — instead of failing the round.
  const Table tpcr = SkewedTpcr();
  const GmdjExpr query = queries::GroupReductionQuery("ClerkKey");

  auto clean = SkewedWarehouse(tpcr, true);
  ASSERT_OK_AND_ASSIGN(QueryResult expected,
                       clean->Execute(query, OptimizerOptions::All()));

  auto wh = SkewedWarehouse(tpcr, true);
  FaultInjector injector;
  injector.KillSite(/*site=*/4);
  wh->set_fault_injector(&injector);
  ASSERT_OK_AND_ASSIGN(QueryResult result,
                       wh->Execute(query, OptimizerOptions::All()));
  EXPECT_EQ(TableBytes(result.table), TableBytes(expected.table));
  if (result.metrics.RebalanceSplits() > 0) {
    EXPECT_GT(result.metrics.Failovers(), 0);
  }
  ExpectSiteLoadsSumToTotals(result.metrics);
}

// ---------------------------------------------------------------------------
// Cost model: max-over-sites pricing of skewed rounds.
// ---------------------------------------------------------------------------

class SkewCostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpcConfig config;
    config.num_rows = 10000;
    config.num_customers = 800;
    warehouse_ = std::make_unique<Warehouse>(4);
    Table tpcr = GenerateTpcr(config);
    ASSERT_OK(warehouse_->LoadByRange("TPCR", tpcr, "NationKey", 0, 24,
                                      {"CustKey", "ClerkKey"}));
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> full,
                         warehouse_->central_catalog().GetTable("TPCR"));
    ASSERT_OK_AND_ASSIGN(RelationStats stats,
                         ProfileRelation(*full, {"CustKey", "ClerkKey",
                                                 "NationKey"}));
    estimator_ = std::make_unique<CostEstimator>(
        4, warehouse_->network_config(), warehouse_->SiteInfos());
    estimator_->AddRelation("TPCR", std::move(stats));
    ASSERT_OK_AND_ASSIGN(
        plan_, warehouse_->Plan(queries::GroupReductionQuery("ClerkKey"),
                                OptimizerOptions::All()));
  }

  std::unique_ptr<Warehouse> warehouse_;
  std::unique_ptr<CostEstimator> estimator_;
  DistributedPlan plan_;
};

TEST_F(SkewCostTest, NoDeclaredSkewMeansNoSiteTerm) {
  ASSERT_OK_AND_ASSIGN(CostBreakdown cost, estimator_->EstimateFlat(plan_));
  EXPECT_DOUBLE_EQ(cost.site_seconds, 0.0);
  EXPECT_DOUBLE_EQ(cost.TotalSeconds(), cost.comm_seconds);
  // The report omits the site-compute clause entirely when it is zero.
  EXPECT_EQ(cost.ToString().find("site compute"), std::string::npos);
}

TEST_F(SkewCostTest, SkewedSharesArePricedAtTheMax) {
  estimator_->SetSiteLoads({0.25, 0.25, 0.25, 0.25});
  ASSERT_OK_AND_ASSIGN(CostBreakdown uniform,
                       estimator_->EstimateFlat(plan_));
  estimator_->SetSiteLoads({0.70, 0.10, 0.10, 0.10});
  ASSERT_OK_AND_ASSIGN(CostBreakdown skewed, estimator_->EstimateFlat(plan_));
  EXPECT_GT(uniform.site_seconds, 0.0);
  // Same total rows, but the response is gated by the hottest site:
  // 0.70 / 0.25 = 2.8x the balanced site term.
  EXPECT_NEAR(skewed.site_seconds, 2.8 * uniform.site_seconds, 1e-12);
  EXPECT_GT(skewed.TotalSeconds(), uniform.TotalSeconds());
  EXPECT_NE(skewed.ToString().find("site compute"), std::string::npos);
}

TEST_F(SkewCostTest, RebalanceTrimsTheSkewPremium) {
  estimator_->SetSiteLoads({0.70, 0.10, 0.10, 0.10});
  ASSERT_OK_AND_ASSIGN(CostBreakdown skewed, estimator_->EstimateFlat(plan_));
  RebalanceConfig config;
  config.enabled = true;
  estimator_->SetRebalance(config);
  ASSERT_OK_AND_ASSIGN(CostBreakdown trimmed,
                       estimator_->EstimateFlat(plan_));
  // The modelled split halves the hot site's scan (keep bottoms out at
  // 0.5), so the site term drops but never below the across-site mean.
  EXPECT_LT(trimmed.site_seconds, skewed.site_seconds);
  EXPECT_NEAR(trimmed.site_seconds, 0.5 * skewed.site_seconds, 1e-12);
  estimator_->SetSiteLoads({0.25, 0.25, 0.25, 0.25});
  ASSERT_OK_AND_ASSIGN(CostBreakdown uniform,
                       estimator_->EstimateFlat(plan_));
  EXPECT_GE(trimmed.site_seconds, uniform.site_seconds);
}

// ---------------------------------------------------------------------------
// Admission: estimated cost weighs queue order and shedding.
// ---------------------------------------------------------------------------

void SpinUntilQueued(const server::AdmissionController& admission,
                     size_t n) {
  while (admission.queued() < n) std::this_thread::yield();
}

TEST(CostAwareAdmissionTest, CheaperQueryOvertakesWithinSamePriority) {
  server::AdmissionOptions options;
  options.max_concurrent = 1;
  server::AdmissionController admission(options);
  ASSERT_OK(admission.Acquire(1, /*priority=*/1, /*deadline_sec=*/0));

  std::mutex mu;
  std::vector<uint64_t> order;
  auto wait_then_run = [&](uint64_t ticket, double cost) {
    EXPECT_OK(admission.Acquire(ticket, 1, 0, cost));
    {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(ticket);
    }
    admission.Release();
  };
  std::thread expensive([&]() { wait_then_run(2, 50.0); });
  SpinUntilQueued(admission, 1);
  std::thread cheap([&]() { wait_then_run(3, 1.0); });
  SpinUntilQueued(admission, 2);
  admission.Release();  // frees the slot: shortest job first
  expensive.join();
  cheap.join();
  EXPECT_EQ(order, (std::vector<uint64_t>{3, 2}));
}

TEST(CostAwareAdmissionTest, PriorityStillDominatesCost) {
  server::AdmissionOptions options;
  options.max_concurrent = 1;
  server::AdmissionController admission(options);
  ASSERT_OK(admission.Acquire(1, 1, 0));

  std::mutex mu;
  std::vector<uint64_t> order;
  auto wait_then_run = [&](uint64_t ticket, int priority, double cost) {
    EXPECT_OK(admission.Acquire(ticket, priority, 0, cost));
    {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(ticket);
    }
    admission.Release();
  };
  // A cheap low-priority query must not overtake an expensive
  // high-priority one.
  std::thread cheap_low([&]() { wait_then_run(2, /*priority=*/0, 1.0); });
  SpinUntilQueued(admission, 1);
  std::thread costly_high([&]() { wait_then_run(3, /*priority=*/5, 99.0); });
  SpinUntilQueued(admission, 2);
  admission.Release();
  cheap_low.join();
  costly_high.join();
  EXPECT_EQ(order, (std::vector<uint64_t>{3, 2}));
}

TEST(CostAwareAdmissionTest, ExpensiveQueriesShedUnderPressure) {
  server::AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queue = 2;
  options.shed_cost_threshold = 2.0;
  server::AdmissionController admission(options);
  // The slot is free: even an expensive query runs when there is no
  // pressure (the threshold only bites once the queue is half full).
  ASSERT_OK(admission.Acquire(1, 1, 0, /*estimated_cost=*/50.0));

  Status waiter_status;
  std::thread waiter(
      [&]() { waiter_status = admission.Acquire(2, 1, 0, 1.0); });
  SpinUntilQueued(admission, 1);
  // Queue is at half capacity: an above-threshold estimate is shed...
  Status shed = admission.Acquire(3, 1, 0, /*estimated_cost=*/5.0);
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  // ...while a cheap query would still be queued (not shed): prove the
  // rejection was cost-based by cancelling the cheap waiter normally.
  EXPECT_TRUE(admission.CancelQueued(2));
  waiter.join();
  EXPECT_EQ(waiter_status.code(), StatusCode::kCancelled);
  admission.Release();
}

}  // namespace
}  // namespace skalla
