// Morsel-driven parallel evaluation suite (ctest label "parallel").
//
// The contract under test (docs/parallelism.md): for every join path and
// aggregation mode of the local GMDJ evaluator, the result table is
// *byte-identical* — serialized wire form, including row order — no matter
// how many lanes evaluate the morsels, because the morsel grid and the
// partial-fold order depend only on the relation sizes and morsel_rows,
// never on the lane count. The suite also exercises the shared ThreadPool
// directly (including nested ParallelFor, the site-dispatch-over-morsel-
// scan composition) and a fault-injected distributed run with both
// parallel site dispatch and multi-lane local evaluation enabled.
//
// Built as its own binary so the label can run in isolation under
// -DSKALLA_SANITIZE=thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/operators.h"
#include "expr/parser.h"
#include "gmdj/local_eval.h"
#include "net/fault_injector.h"
#include "skalla/queries.h"
#include "skalla/warehouse.h"
#include "storage/serializer.h"
#include "test_util.h"
#include "tpc/dbgen.h"

namespace skalla {
namespace {

ExprPtr MustParse(const std::string& text) {
  auto result = ParseExpr(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

// ---------------------------------------------------------------------------
// ThreadPool.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForRunsEveryItemExactlyOnce) {
  ThreadPool pool(3);
  constexpr int64_t kItems = 10000;
  std::vector<std::atomic<int>> hits(kItems);
  pool.ParallelFor(kItems, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "item " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWorksWithZeroWorkers) {
  ThreadPool pool(0);  // caller-only degenerate pool
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(100, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  // A pool task running ParallelFor on the *same* pool must not deadlock:
  // this is exactly the site-dispatch-over-morsel-scan composition.
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(8, [&](int64_t) {
    pool.ParallelFor(64, [&](int64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8 * 64);
}

TEST(ThreadPoolTest, SharedPoolIsASingleton) {
  ThreadPool* a = &ThreadPool::Shared();
  ThreadPool* b = &ThreadPool::Shared();
  EXPECT_EQ(a, b);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

// The SKALLA_THREADS knob, read once: a value >= 1 fixes the default lane
// count, and the shared pool runs that many lanes (the caller plus its
// workers). The ctest entry env.SKALLA_THREADS (tests/CMakeLists.txt) runs
// this test with SKALLA_THREADS=2; without the variable it checks the
// hardware default.
TEST(ThreadPoolTest, SkallaThreadsSetsTheDefaultLaneCount) {
  const char* env = std::getenv("SKALLA_THREADS");
  const unsigned hw = std::thread::hardware_concurrency();
  const int expected = env != nullptr && std::atoi(env) >= 1
                           ? std::atoi(env)
                           : std::max(1, static_cast<int>(hw));
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), expected);
  EXPECT_EQ(ThreadPool::Shared().num_threads() + 1, expected);
}

// ---------------------------------------------------------------------------
// Lane-count independence of EvalGmdjOp, per join path and mode.
// ---------------------------------------------------------------------------

class ParallelEvalTest : public ::testing::Test {
 protected:
  static Table MakeDetail() {
    TpcConfig config;
    config.num_rows = 30000;
    config.num_customers = 400;
    config.seed = 7;
    return GenerateTpcr(config);
  }

  /// Evaluates with `threads` lanes and a deliberately tiny morsel so the
  /// 30k-row scan splits into ~60 morsels even in a unit test.
  static std::string EvalBytes(const Table& base, const Table& detail,
                               const GmdjOp& op, LocalGmdjOptions options,
                               int threads) {
    options.num_threads = threads;
    options.morsel_rows = 512;
    auto result = EvalGmdjOp(base, detail, op, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return TableBytes(*result);
  }

  /// Asserts threads ∈ {2, 8} reproduce the sequential bytes exactly.
  static void ExpectLaneIndependent(const Table& base, const Table& detail,
                                    const GmdjOp& op,
                                    const LocalGmdjOptions& options) {
    const std::string sequential = EvalBytes(base, detail, op, options, 1);
    EXPECT_EQ(EvalBytes(base, detail, op, options, 2), sequential);
    EXPECT_EQ(EvalBytes(base, detail, op, options, 8), sequential);
  }
};

TEST_F(ParallelEvalTest, HashPathIsLaneCountIndependent) {
  const Table detail = MakeDetail();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"CustKey"}));
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(GmdjBlock{
      {AggSpec::Count("cnt"), AggSpec::Sum("Quantity", "sq"),
       AggSpec::Avg("Quantity", "aq"), AggSpec::Min("Quantity", "lo"),
       AggSpec::Max("Quantity", "hi")},
      MustParse("B.CustKey = R.CustKey")});
  ExpectLaneIndependent(base, detail, op, LocalGmdjOptions());
}

TEST_F(ParallelEvalTest, HashPathWithResidualIsLaneCountIndependent) {
  const Table detail = MakeDetail();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"CustKey"}));
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(
      GmdjBlock{{AggSpec::Count("cnt"), AggSpec::Var("Quantity", "vq")},
                MustParse("B.CustKey = R.CustKey && R.Quantity >= 25")});
  ExpectLaneIndependent(base, detail, op, LocalGmdjOptions());
}

TEST_F(ParallelEvalTest, CompositeStringKeyPathIsLaneCountIndependent) {
  const Table detail = MakeDetail();
  ASSERT_OK_AND_ASSIGN(Table base,
                       DistinctProject(detail, {"NationKey", "ShipMode"}));
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(GmdjBlock{
      {AggSpec::Count("cnt"), AggSpec::Avg("ExtendedPrice", "ap")},
      MustParse("B.NationKey = R.NationKey && B.ShipMode = R.ShipMode")});
  ExpectLaneIndependent(base, detail, op, LocalGmdjOptions());
}

TEST_F(ParallelEvalTest, NestedLoopPathIsLaneCountIndependent) {
  const Table detail = MakeDetail();
  // Overlapping thresholds: no equi-conjunct, forcing the nested loop.
  Table base(MakeSchema({{"threshold", ValueType::kInt64}}));
  for (int64_t t = 0; t < 16; ++t) base.AddRow({Value(t * 3)});
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(GmdjBlock{{AggSpec::Count("cnt")},
                                MustParse("R.Quantity >= B.threshold")});
  ExpectLaneIndependent(base, detail, op, LocalGmdjOptions());
}

TEST_F(ParallelEvalTest, TouchedOnlyAndSubModeAreLaneCountIndependent) {
  const Table detail = MakeDetail();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"CustKey"}));
  // A row no detail tuple matches, so touched_only actually filters.
  base.AddRow({Value(int64_t{1} << 40)});
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(
      GmdjBlock{{AggSpec::Count("cnt"), AggSpec::Avg("Quantity", "aq"),
                 AggSpec::StdDev("Quantity", "sd")},
                MustParse("B.CustKey = R.CustKey")});
  LocalGmdjOptions options;
  options.mode = AggMode::kSub;
  options.touched_only = true;
  ExpectLaneIndependent(base, detail, op, options);
}

TEST_F(ParallelEvalTest, MultiBlockOpIsLaneCountIndependent) {
  const Table detail = MakeDetail();
  ASSERT_OK_AND_ASSIGN(Table base, DistinctProject(detail, {"CustKey"}));
  GmdjOp op;
  op.detail_table = "TPCR";
  op.blocks.push_back(GmdjBlock{{AggSpec::Count("all")},
                                MustParse("B.CustKey = R.CustKey")});
  op.blocks.push_back(
      GmdjBlock{{AggSpec::Sum("Quantity", "big")},
                MustParse("B.CustKey = R.CustKey && R.Quantity >= 40")});
  ExpectLaneIndependent(base, detail, op, LocalGmdjOptions());
}

// ---------------------------------------------------------------------------
// Distributed composition: pool-dispatched sites, multi-lane local scans,
// injected faults — still byte-identical to the sequential clean run.
// ---------------------------------------------------------------------------

TEST(ParallelDistributedTest, FaultedParallelRunMatchesSequentialCleanRun) {
  TpcConfig config;
  config.num_rows = 6000;
  config.num_customers = 300;
  config.seed = 11;
  const Table tpcr = GenerateTpcr(config);
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");

  Warehouse sequential(4);
  ASSERT_OK(sequential.LoadByRange("TPCR", tpcr, "NationKey", 0, 24,
                                   {"CustKey"}));
  sequential.set_local_threads(1);
  ASSERT_OK_AND_ASSIGN(QueryResult clean,
                       sequential.Execute(query, OptimizerOptions::None()));

  Warehouse parallel(4);
  ASSERT_OK(parallel.LoadByRange("TPCR", tpcr, "NationKey", 0, 24,
                                 {"CustKey"}));
  parallel.set_parallel_site_execution(true);
  parallel.set_local_threads(8);
  FaultInjector injector;
  injector.DropOnce(/*site=*/1, /*round=*/2,
                    TransferDirection::kToCoordinator);
  injector.DropOnce(/*site=*/2, /*round=*/2, TransferDirection::kToSite);
  parallel.set_fault_injector(&injector);
  ASSERT_OK_AND_ASSIGN(QueryResult faulted,
                       parallel.Execute(query, OptimizerOptions::None()));

  EXPECT_EQ(TableBytes(faulted.table), TableBytes(clean.table));
  EXPECT_GE(faulted.metrics.Retries(), 2);

  // And the tree coordinator composes the same way.
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       sequential.Plan(query, OptimizerOptions::None()));
  ASSERT_OK_AND_ASSIGN(QueryResult clean_tree,
                       sequential.ExecutePlanTree(plan, 2));
  ASSERT_OK_AND_ASSIGN(QueryResult faulted_tree,
                       parallel.ExecutePlanTree(plan, 2));
  EXPECT_EQ(TableBytes(faulted_tree.table), TableBytes(clean_tree.table));
}

}  // namespace
}  // namespace skalla
