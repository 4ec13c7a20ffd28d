// Observability suite (ctest label "obs"): span tracer, exporters, and the
// straggler diagnostic. Key properties: disabled-mode instrumentation
// allocates nothing, spans keep parent links across ParallelFor thread
// hops, a retried or failed round shows its fault counts on the timeline,
// and the Chrome exporter emits valid trace-event JSON with one named track
// per site plus the coordinator.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "skalla/queries.h"
#include "skalla/report.h"
#include "skalla/warehouse.h"
#include "net/fault_injector.h"
#include "test_util.h"
#include "tpc/dbgen.h"

// ---------------------------------------------------------------------------
// Counting global allocator: proves the disabled-mode hot path is
// allocation-free. Counts every operator new in the process, so tests
// sample the counter tightly around the region under scrutiny.
// ---------------------------------------------------------------------------

namespace {
std::atomic<size_t> g_alloc_count{0};
}  // namespace

// GCC pairs the library's operator new with our malloc-backed delete and
// warns; the pairing is in fact consistent (all overloads below, including
// the nothrow ones — std::stable_sort's temporary buffer allocates through
// operator new(nothrow), and leaving that to the default allocator while
// delete goes through free() is an alloc/dealloc mismatch under ASan).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace skalla {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON syntax validator (no values retained).
// ---------------------------------------------------------------------------

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!ParseValue()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWs() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                        Peek() == '\r')) {
      ++pos_;
    }
  }

  bool ParseLiteral(const char* lit) {
    const size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseString() {
    if (AtEnd() || Peek() != '"') return false;
    ++pos_;
    while (!AtEnd()) {
      const char c = Peek();
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (AtEnd()) return false;
        const char esc = Peek();
        if (esc == 'u') {
          if (pos_ + 4 >= text_.size()) return false;
          for (int i = 1; i <= 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::strchr("\"\\/bfnrt", esc) == nullptr) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool ParseNumber() {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    return pos_ > start;
  }

  bool ParseObject() {
    ++pos_;  // '{'
    SkipWs();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!ParseString()) return false;
      SkipWs();
      if (AtEnd() || Peek() != ':') return false;
      ++pos_;
      if (!ParseValue()) return false;
      SkipWs();
      if (AtEnd()) return false;
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray() {
    ++pos_;  // '['
    SkipWs();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!ParseValue()) return false;
      SkipWs();
      if (AtEnd()) return false;
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseValue() {
    SkipWs();
    if (AtEnd()) return false;
    switch (Peek()) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
        return ParseLiteral("true");
      case 'f':
        return ParseLiteral("false");
      case 'n':
        return ParseLiteral("null");
      default:
        return ParseNumber();
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Table SmallTpcr(uint64_t seed = 31) {
  TpcConfig config;
  config.num_rows = 1500;
  config.num_customers = 120;
  config.seed = seed;
  return GenerateTpcr(config);
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ConfigureTracing(obs::TraceConfig{});  // off
    obs::ResetTracing();
  }

  void TearDown() override {
    obs::ConfigureTracing(obs::TraceConfig{});
    obs::ResetTracing();
  }

  void EnableTracing(int morsel_sample = 1) {
    obs::TraceConfig config;
    config.enabled = true;
    config.morsel_sample = morsel_sample;
    obs::ConfigureTracing(config);
  }
};

// ---------------------------------------------------------------------------
// Disabled mode: zero allocations, zero recorded state.
// ---------------------------------------------------------------------------

TEST_F(TraceTest, DisabledInstrumentationAllocatesNothing) {
  ASSERT_FALSE(obs::TraceEnabled());
  // No gtest assertions inside the measured region: they may allocate.
  bool any_armed = false;
  const size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::ScopedSpan span("disabled.span", obs::TrackForSite(2));
    obs::TrackScope track(obs::TrackForSite(1));
    obs::ParentScope parent(42);
    any_armed |= span.armed();
  }
  const size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_FALSE(any_armed);
  EXPECT_EQ(after, before);
  EXPECT_TRUE(obs::SpanSnapshot().empty());
}

// ---------------------------------------------------------------------------
// Span recording, nesting, and cross-thread parent links.
// ---------------------------------------------------------------------------

TEST_F(TraceTest, SpansRecordNestingOnOneThread) {
  EnableTracing();
  uint64_t outer_id = 0;
  {
    obs::ScopedSpan outer("outer");
    ASSERT_TRUE(outer.armed());
    outer_id = outer.id();
    EXPECT_EQ(obs::CurrentSpanId(), outer_id);
    obs::ScopedSpan inner("inner");
    EXPECT_EQ(obs::CurrentSpanId(), inner.id());
  }
  EXPECT_EQ(obs::CurrentSpanId(), 0u);
  const std::vector<obs::TraceSpan> spans = obs::SpanSnapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Spans are recorded on completion: inner first.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, outer_id);
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
}

TEST_F(TraceTest, ParallelForSpansNestUnderCallerAcrossThreads) {
  EnableTracing();
  // The shared pool may have zero workers on a small container; a private
  // pool guarantees real cross-thread execution.
  ThreadPool pool(3);
  constexpr int64_t kItems = 16;
  uint64_t outer_id = 0;
  {
    obs::ScopedSpan outer("outer");
    outer_id = outer.id();
    pool.ParallelFor(
        kItems, [](int64_t) { obs::ScopedSpan inner("inner"); }, 4);
  }
  int inner_count = 0;
  for (const obs::TraceSpan& span : obs::SpanSnapshot()) {
    if (std::string_view(span.name) != "inner") continue;
    ++inner_count;
    // The parent link survives the thread hop: every lane re-establishes
    // the caller's span before claiming items.
    EXPECT_EQ(span.parent, outer_id);
  }
  EXPECT_EQ(inner_count, kItems);
}

TEST_F(TraceTest, TrackScopeReHomesSpans) {
  EnableTracing();
  EXPECT_EQ(obs::CurrentTrack(), obs::kTrackCoordinator);
  {
    obs::TrackScope track(obs::TrackForSite(3));
    EXPECT_EQ(obs::CurrentTrack(), obs::TrackForSite(3));
    obs::ScopedSpan span("on.site");
  }
  EXPECT_EQ(obs::CurrentTrack(), obs::kTrackCoordinator);
  const std::vector<obs::TraceSpan> spans = obs::SpanSnapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].track, obs::TrackForSite(3));
}

TEST_F(TraceTest, MaxSpansCapDropsInsteadOfGrowing) {
  obs::TraceConfig config;
  config.enabled = true;
  config.max_spans = 4;
  obs::ConfigureTracing(config);
  for (int i = 0; i < 10; ++i) {
    obs::ScopedSpan span("capped");
  }
  EXPECT_EQ(obs::SpanSnapshot().size(), 4u);
  EXPECT_EQ(obs::DroppedSpanCount(), 6u);
}

// ---------------------------------------------------------------------------
// Track model.
// ---------------------------------------------------------------------------

TEST_F(TraceTest, TrackModelMapsEndpoints) {
  EXPECT_EQ(obs::TrackForSite(-1), obs::kTrackCoordinator);
  EXPECT_EQ(obs::TrackForSite(0), 1);
  EXPECT_EQ(obs::TrackForSite(3), 4);
  EXPECT_EQ(obs::TrackName(obs::kTrackCoordinator), "coordinator");
  EXPECT_EQ(obs::TrackName(obs::TrackForSite(2)), "site 2");
  EXPECT_EQ(obs::TrackName(obs::TrackForLane(1)), "pool lane 1");
  // Aggregator endpoints are encoded as -2 - node (net/sim_network.h).
  EXPECT_EQ(obs::TrackName(obs::TrackForSite(-2)), "aggregator 0");
  EXPECT_EQ(obs::TrackName(obs::TrackForSite(-4)), "aggregator 2");
}

// ---------------------------------------------------------------------------
// SKALLA_TRACE grammar.
// ---------------------------------------------------------------------------

obs::TraceConfig ParseTraceEnv(const char* value) {
  Result<obs::TraceConfig> config = obs::TraceConfigFromEnv(value);
  if (!config.ok()) {
    ADD_FAILURE() << "'" << value << "': " << config.status();
    return obs::TraceConfig{};
  }
  return *config;
}

TEST_F(TraceTest, TraceConfigFromEnvGrammar) {
  EXPECT_FALSE(ParseTraceEnv(nullptr).enabled);
  EXPECT_FALSE(ParseTraceEnv("").enabled);
  EXPECT_FALSE(ParseTraceEnv("0").enabled);
  EXPECT_FALSE(ParseTraceEnv("off").enabled);
  EXPECT_FALSE(ParseTraceEnv("chrome,off").enabled);

  EXPECT_TRUE(ParseTraceEnv("on").enabled);
  EXPECT_TRUE(ParseTraceEnv("1").enabled);

  const obs::TraceConfig chrome = ParseTraceEnv("chrome");
  EXPECT_TRUE(chrome.enabled);
  EXPECT_EQ(chrome.chrome_path, "skalla_trace.json");

  const obs::TraceConfig full =
      ParseTraceEnv("chrome:/tmp/t.json,text:t.txt,sample:4");
  EXPECT_TRUE(full.enabled);
  EXPECT_EQ(full.chrome_path, "/tmp/t.json");
  EXPECT_EQ(full.text_path, "t.txt");
  EXPECT_EQ(full.morsel_sample, 4);

  const obs::TraceConfig text = ParseTraceEnv("text");
  EXPECT_TRUE(text.enabled);
  EXPECT_EQ(text.text_path, "-");

  // A token no exporter honors is an error, not a silent no-op.
  for (const char* bad : {"journal", "journal:j.jsonl", "chrome,bogus",
                          "sample", "sample:x", "sample:-1"}) {
    const Result<obs::TraceConfig> config = obs::TraceConfigFromEnv(bad);
    ASSERT_FALSE(config.ok()) << bad;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Fault counts on the timeline.
// ---------------------------------------------------------------------------

// The round.drive spans whose detail carries fault counts.
std::vector<std::string> FaultedRoundDetails() {
  std::vector<std::string> details;
  for (const obs::TraceSpan& span : obs::SpanSnapshot()) {
    if (std::string_view(span.name) == "round.drive" &&
        span.detail.find("retries=") != std::string::npos) {
      details.push_back(span.detail);
    }
  }
  return details;
}

TEST_F(TraceTest, RetriedRoundShowsOnTheTimeline) {
  EnableTracing();
  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                           {"CustKey"}));
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::None()));
  FaultInjector injector(/*seed=*/5);
  injector.DropOnce(/*site=*/1, /*round=*/2,
                    TransferDirection::kToCoordinator);
  wh.set_fault_injector(&injector);
  obs::ResetTracing();
  ASSERT_OK_AND_ASSIGN(QueryResult result, wh.ExecutePlan(plan));
  wh.set_fault_injector(nullptr);
  ASSERT_EQ(result.metrics.Retries(), 1);
  ASSERT_EQ(result.metrics.Drops(), 1);

  // One round retried; its span names the round and its counts.
  std::string retried_label;
  for (const RoundMetrics& rm : result.metrics.rounds) {
    if (rm.Total().retries > 0) retried_label = rm.label;
  }
  EXPECT_EQ(FaultedRoundDetails(),
            std::vector<std::string>{retried_label +
                                     ": retries=1 timeouts=0 drops=1 "
                                     "failovers=0"});

  // The second attempt is its own site.eval span on the site's track.
  int retried_evals = 0;
  for (const obs::TraceSpan& span : obs::SpanSnapshot()) {
    if (std::string_view(span.name) == "site.eval" &&
        span.track == obs::TrackForSite(1) &&
        span.detail == "site 1 attempt 1") {
      ++retried_evals;
    }
  }
  EXPECT_EQ(retried_evals, 1);

  std::ostringstream out;
  obs::ExportChromeTrace(obs::SpanSnapshot(), out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("retries=1 timeouts=0 drops=1"), std::string::npos);

  // A round that gives up carries its counts too: a dead site without a
  // replica exhausts its three attempts, each losing the downstream X.
  FaultInjector killer(/*seed=*/5);
  killer.KillSite(/*site=*/1, /*from_round=*/1);
  wh.set_fault_injector(&killer);
  obs::ResetTracing();
  const Result<QueryResult> failed = wh.ExecutePlan(plan);
  wh.set_fault_injector(nullptr);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  const std::vector<std::string> details = FaultedRoundDetails();
  ASSERT_EQ(details.size(), 1u);
  const std::string counts = ": retries=2 timeouts=0 drops=3 failovers=0";
  ASSERT_GT(details[0].size(), counts.size());
  EXPECT_EQ(details[0].substr(details[0].size() - counts.size()), counts);
  const std::string label =
      details[0].substr(0, details[0].size() - counts.size());
  EXPECT_NE(failed.status().message().find("round '" + label + "'"),
            std::string::npos)
      << failed.status().message() << " vs " << details[0];
}

// The site.eval details recorded on one site's track, in recording order.
std::vector<std::string> SiteEvalDetails(int site) {
  std::vector<std::string> details;
  for (const obs::TraceSpan& span : obs::SpanSnapshot()) {
    if (std::string_view(span.name) == "site.eval" &&
        span.track == obs::TrackForSite(site)) {
      details.push_back(span.detail);
    }
  }
  return details;
}

TEST_F(TraceTest, CleanRoundsCarryOnlyTheirLabels) {
  EnableTracing();
  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                           {"CustKey"}));
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(queries::GroupReductionQuery("CustKey"),
                               OptimizerOptions::None()));
  obs::ResetTracing();
  ASSERT_OK_AND_ASSIGN(QueryResult result, wh.ExecutePlan(plan));

  // One round.drive span per round, in round order, naming the round and
  // no counts: a fault-free round has none to give.
  std::vector<std::string> labels;
  size_t slots = 0;
  for (const RoundMetrics& rm : result.metrics.rounds) {
    labels.push_back(rm.label);
    slots += rm.exchanges.size();
  }
  std::vector<std::string> drives;
  for (const obs::TraceSpan& span : obs::SpanSnapshot()) {
    if (std::string_view(span.name) == "round.drive") {
      EXPECT_EQ(span.track, obs::kTrackCoordinator);
      drives.push_back(span.detail);
    }
  }
  EXPECT_EQ(drives, labels);
  EXPECT_TRUE(FaultedRoundDetails().empty());

  // Every slot is evaluated once, at attempt 0, on its own site's track.
  size_t evals = 0;
  for (int s = 0; s < wh.num_sites(); ++s) {
    for (const std::string& detail : SiteEvalDetails(s)) {
      EXPECT_EQ(detail, "site " + std::to_string(s) + " attempt 0");
      ++evals;
    }
  }
  EXPECT_EQ(evals, slots);
}

/// decode.shipment spans: one per X view the coordinator prepares.
size_t PreparedViews() {
  size_t n = 0;
  for (const obs::TraceSpan& span : obs::SpanSnapshot()) {
    n += std::string_view(span.name) == "decode.shipment";
  }
  return n;
}

// Every site's ship predicate keeps all of X when every site sees every
// clerk: each X round then prepares one view, which every leaf ships.
TEST_F(TraceTest, LeavesKeepingAllOfXShareOneView) {
  EnableTracing();
  TpcConfig config;
  config.num_rows = 1500;
  config.num_customers = 120;
  config.num_clerks = 40;
  config.seed = 31;
  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRange("TPCR", GenerateTpcr(config), "NationKey", 0, 24,
                           {"ClerkKey"}));
  OptimizerOptions options;
  options.aware_group_reduction = true;
  const GmdjExpr query = queries::GroupReductionQuery("ClerkKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan, wh.Plan(query, options));
  obs::ResetTracing();
  ASSERT_OK_AND_ASSIGN(QueryResult result, wh.ExecutePlan(plan));
  ASSERT_OK_AND_ASSIGN(Table expected, wh.ExecuteCentralized(query));
  ExpectSameRows(result.table, expected);

  size_t x_rounds = 0;
  for (const RoundMetrics& rm : result.metrics.rounds) {
    if (rm.Total().groups_in == 0) continue;  // a plan, not X
    ++x_rounds;
    // The precondition: every leaf's view is all of X.
    EXPECT_EQ(rm.Total().groups_in, 4 * result.table.num_rows());
  }
  ASSERT_GE(x_rounds, 1u);
  EXPECT_EQ(PreparedViews(), x_rounds);
}

// Disjoint CustKey ranges: every site's ship predicate drops rows of X, so
// each leaf still gets a view of its own, reduced.
TEST_F(TraceTest, FilteringLeavesStillGetReducedViews) {
  EnableTracing();
  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                           {"CustKey"}));
  OptimizerOptions options;
  options.aware_group_reduction = true;
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan, wh.Plan(query, options));
  obs::ResetTracing();
  ASSERT_OK_AND_ASSIGN(QueryResult result, wh.ExecutePlan(plan));
  ASSERT_OK_AND_ASSIGN(Table expected, wh.ExecuteCentralized(query));
  ExpectSameRows(result.table, expected);

  size_t x_rounds = 0;
  for (const RoundMetrics& rm : result.metrics.rounds) {
    if (rm.Total().groups_in == 0) continue;
    ++x_rounds;
    EXPECT_LT(rm.Total().groups_in, 4 * result.table.num_rows());
  }
  ASSERT_GE(x_rounds, 1u);
  EXPECT_EQ(PreparedViews(), 4 * x_rounds);
}

// The admission estimate profiles only a plan's key attributes, each on
// its first use: one opt.profile span per cold estimate, naming them.
TEST_F(TraceTest, EstimateProfilesOnlyThePlansKeyAttributes) {
  EnableTracing();
  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                           {"CustKey"}));
  ASSERT_OK_AND_ASSIGN(DistributedPlan by_customer,
                       wh.Plan(queries::GroupReductionQuery("CustKey"),
                               OptimizerOptions::All()));
  ASSERT_OK_AND_ASSIGN(DistributedPlan by_clerk,
                       wh.Plan(queries::CoalescingQuery("ClerkKey"),
                               OptimizerOptions::All()));
  auto profiled = []() {
    std::vector<std::string> details;
    for (const obs::TraceSpan& span : obs::SpanSnapshot()) {
      if (std::string_view(span.name) == "opt.profile") {
        details.push_back(span.detail);
      }
    }
    return details;
  };
  using Details = std::vector<std::string>;
  obs::ResetTracing();
  ASSERT_OK(wh.EstimateCost(by_customer).status());
  EXPECT_EQ(profiled(), Details{"TPCR: CustKey"});
  ASSERT_OK(wh.EstimateCost(by_customer).status());  // warm: no profile
  ASSERT_OK(wh.EstimateCost(by_clerk).status());
  EXPECT_EQ(profiled(), (Details{"TPCR: CustKey", "TPCR: ClerkKey"}));

  // An append drops the relation's statistics; the next estimate profiles
  // its own plan's attribute again, and only that one.
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const Table> fragment,
                       wh.site(0).catalog().GetTable("TPCR"));
  ASSERT_OK(wh.AppendRow("TPCR", fragment->row(0)));
  obs::ResetTracing();
  ASSERT_OK(wh.EstimateCost(by_clerk).status());
  EXPECT_EQ(profiled(), Details{"TPCR: ClerkKey"});
}

TEST_F(TraceTest, DeadlineExceededRoundCarriesItsCounts) {
  // Site 0's link is 100x slow: every exchange takes ~0.2 s of simulated
  // time against a fixed 0.05 s deadline, so the base round spends all
  // three attempts timing out.
  NetworkConfig net;
  net.bandwidth_bytes_per_sec = 1e12;
  net.latency_sec = 0.001;
  net.retry.timeout_sec = 0.05;
  net.retry.timeout_escalation = 1.0;
  net.retry.max_attempts = 3;
  Warehouse wh(4, net);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                           {"CustKey"}));
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(queries::GroupReductionQuery("CustKey"),
                               OptimizerOptions::None()));
  FaultInjector injector(/*seed=*/5);
  injector.SlowSite(/*site=*/0, /*factor=*/100.0);
  wh.set_fault_injector(&injector);
  EnableTracing();
  obs::ResetTracing();
  const Result<QueryResult> failed = wh.ExecutePlan(plan);
  wh.set_fault_injector(nullptr);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDeadlineExceeded);

  EXPECT_EQ(FaultedRoundDetails(),
            std::vector<std::string>{
                "base query: retries=2 timeouts=3 drops=0 failovers=0"});
  EXPECT_NE(failed.status().message().find("round 'base query'"),
            std::string::npos)
      << failed.status().message();
  // A timed-out exchange was still evaluated: one span per attempt.
  EXPECT_EQ(SiteEvalDetails(0),
            (std::vector<std::string>{"site 0 attempt 0", "site 0 attempt 1",
                                      "site 0 attempt 2"}));
}

TEST_F(TraceTest, FailoverShowsOnTheTimeline) {
  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                           {"CustKey"}));
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(queries::GroupReductionQuery("CustKey"),
                               OptimizerOptions::None()));
  ASSERT_OK_AND_ASSIGN(Site * replica, wh.AddReplica(/*site_id=*/1));
  const int replica_id = replica->id();
  FaultInjector injector(/*seed=*/5);
  injector.KillSite(/*site=*/1);
  wh.set_fault_injector(&injector);
  EnableTracing();
  obs::ResetTracing();
  ASSERT_OK_AND_ASSIGN(QueryResult result, wh.ExecutePlan(plan));
  wh.set_fault_injector(nullptr);
  ASSERT_EQ(result.metrics.Failovers(), 1);

  // The base round loses site 1's X three times, fails over, and the
  // replica answers on the fourth wave.
  EXPECT_EQ(FaultedRoundDetails(),
            std::vector<std::string>{
                "base query: retries=3 timeouts=0 drops=3 failovers=1"});
  // Evaluation lands on the track of the site that evaluates: the three
  // attempts that lost X never evaluate, and the replica answers on its
  // own track, naming itself and the site it stands in for, at attempt 3
  // of the base round and at attempt 0 of every later round. The killed
  // site's track records no evaluation.
  const std::string evaluator = "site " + std::to_string(replica_id);
  std::vector<std::string> expected = {evaluator +
                                       " attempt 3 (replica of site 1)"};
  for (size_t i = 1; i < result.metrics.rounds.size(); ++i) {
    expected.push_back(evaluator + " attempt 0 (replica of site 1)");
  }
  EXPECT_EQ(SiteEvalDetails(replica_id), expected);
  EXPECT_TRUE(SiteEvalDetails(1).empty());
}

TEST_F(TraceTest, TreeRoundRetryShowsOnTheTimeline) {
  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                           {"CustKey"}));
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(queries::GroupReductionQuery("CustKey"),
                               OptimizerOptions::None()));
  FaultInjector injector(/*seed=*/5);
  injector.DropOnce(/*site=*/1, /*round=*/2,
                    TransferDirection::kToCoordinator);
  wh.set_fault_injector(&injector);
  EnableTracing();
  obs::ResetTracing();
  ASSERT_OK_AND_ASSIGN(QueryResult result, wh.ExecutePlanTree(plan, 2));
  wh.set_fault_injector(nullptr);
  ASSERT_EQ(result.metrics.Retries(), 1);
  ASSERT_EQ(result.metrics.Drops(), 1);

  // The reply lost on its way to an aggregator is retried by the same
  // round driver as in the flat plan, and its round says so.
  std::string retried_label;
  for (const RoundMetrics& rm : result.metrics.rounds) {
    if (rm.Total().retries > 0) retried_label = rm.label;
  }
  EXPECT_EQ(FaultedRoundDetails(),
            std::vector<std::string>{retried_label +
                                     ": retries=1 timeouts=0 drops=1 "
                                     "failovers=0"});
  const std::vector<std::string> evals = SiteEvalDetails(1);
  EXPECT_EQ(std::count(evals.begin(), evals.end(), "site 1 attempt 1"), 1);
}

TEST_F(TraceTest, DisabledTracingRecordsNothingOnAFaultedRun) {
  ASSERT_FALSE(obs::TraceEnabled());
  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                           {"CustKey"}));
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(queries::GroupReductionQuery("CustKey"),
                               OptimizerOptions::All()));
  FaultInjector injector(/*seed=*/5);
  injector.DropOnce(/*site=*/1, /*round=*/0, TransferDirection::kToSite);
  wh.set_fault_injector(&injector);
  ASSERT_OK_AND_ASSIGN(QueryResult result, wh.ExecutePlan(plan));
  wh.set_fault_injector(nullptr);

  // The query's metrics still count the fault; the tracer holds nothing.
  EXPECT_EQ(result.metrics.Retries(), 1);
  EXPECT_EQ(result.metrics.Drops(), 1);
  EXPECT_TRUE(obs::SpanSnapshot().empty());
  EXPECT_EQ(obs::DroppedSpanCount(), 0u);
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

TEST_F(TraceTest, ChromeTraceExportIsValidJsonWithNamedTracks) {
  EnableTracing();
  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                           {"CustKey"}));
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::All()));
  obs::ResetTracing();
  ASSERT_OK_AND_ASSIGN(QueryResult result, wh.ExecutePlan(plan));
  (void)result;

  std::ostringstream out;
  obs::ExportChromeTrace(obs::SpanSnapshot(), out);
  const std::string json = out.str();

  EXPECT_TRUE(JsonValidator(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One named track per site plus the coordinator.
  EXPECT_NE(json.find("\"name\":\"coordinator\""), std::string::npos);
  for (int s = 0; s < 4; ++s) {
    EXPECT_NE(json.find("\"name\":\"site " + std::to_string(s) + "\""),
              std::string::npos)
        << "missing site track " << s;
  }
  // Complete events carry the schema Perfetto expects.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST_F(TraceTest, TextTimelineListsTracks) {
  EnableTracing();
  {
    obs::ScopedSpan outer("round.gmdj");
    obs::ScopedSpan inner("round.sync");
  }
  std::ostringstream out;
  obs::ExportTextTimeline(obs::SpanSnapshot(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("== coordinator =="), std::string::npos);
  EXPECT_NE(text.find("round.gmdj"), std::string::npos);
  EXPECT_NE(text.find("round.sync"), std::string::npos);
}

TEST_F(TraceTest, WriteConfiguredTraceOutputsWritesFiles) {
  const std::string dir = ::testing::TempDir();
  obs::TraceConfig config;
  config.enabled = true;
  config.chrome_path = dir + "/skalla_trace_test.json";
  obs::ConfigureTracing(config);
  obs::ResetTracing();
  {
    obs::ScopedSpan span("configured.span");
    span.set_detail("X \"fragment\"\tnext\n");  // exercises escaping
  }

  ASSERT_TRUE(obs::WriteConfiguredTraceOutputs());
  std::ifstream chrome(config.chrome_path);
  ASSERT_TRUE(chrome.good());
  std::stringstream contents;
  contents << chrome.rdbuf();
  EXPECT_TRUE(JsonValidator(contents.str()).Valid());
  EXPECT_NE(contents.str().find("configured.span"), std::string::npos);
  EXPECT_NE(contents.str().find("X \\\"fragment\\\"\\tnext\\n"),
            std::string::npos);
  std::remove(config.chrome_path.c_str());
}

TEST_F(TraceTest, UnwritableDestinationIsReportedOnStderr) {
  // A directory that does not exist: neither file can be created.
  const std::string missing = ::testing::TempDir() + "/skalla_no_such_dir";
  obs::TraceConfig config;
  config.enabled = true;
  config.chrome_path = missing + "/q.json";
  config.text_path = missing + "/q.txt";
  obs::ConfigureTracing(config);
  ::testing::internal::CaptureStderr();
  const bool ok = obs::WriteConfiguredTraceOutputs();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(ok);
  EXPECT_EQ(err, "[skalla] could not write chrome trace to " +
                     config.chrome_path +
                     "\n[skalla] could not write text timeline to " +
                     config.text_path + "\n");
}

TEST_F(TraceTest, OneUnwritableDestinationDoesNotStopTheOther) {
  obs::TraceConfig config;
  config.enabled = true;
  config.chrome_path = ::testing::TempDir() + "/skalla_trace_partial.json";
  config.text_path = ::testing::TempDir() + "/skalla_no_such_dir/q.txt";
  obs::ConfigureTracing(config);
  obs::ResetTracing();
  {
    obs::ScopedSpan span("partial.span");
  }
  ::testing::internal::CaptureStderr();
  const bool ok = obs::WriteConfiguredTraceOutputs();
  const std::string err = ::testing::internal::GetCapturedStderr();

  // The write reports failure, yet the writable destination is complete.
  EXPECT_FALSE(ok);
  EXPECT_EQ(err, "[skalla] chrome trace written to " + config.chrome_path +
                     "\n[skalla] could not write text timeline to " +
                     config.text_path + "\n");
  std::ifstream chrome(config.chrome_path);
  ASSERT_TRUE(chrome.good());
  std::stringstream contents;
  contents << chrome.rdbuf();
  EXPECT_TRUE(JsonValidator(contents.str()).Valid());
  EXPECT_NE(contents.str().find("partial.span"), std::string::npos);
  std::remove(config.chrome_path.c_str());
}

TEST_F(TraceTest, TextTimelineDashGoesToStderr) {
  obs::TraceConfig config;
  config.enabled = true;
  config.text_path = "-";
  obs::ConfigureTracing(config);
  obs::ResetTracing();
  {
    obs::TrackScope track(obs::TrackForSite(2));
    obs::ScopedSpan span("dash.span");
    span.set_detail("on site 2");
  }
  ::testing::internal::CaptureStderr();
  const bool ok = obs::WriteConfiguredTraceOutputs();
  const std::string err = ::testing::internal::GetCapturedStderr();

  // Stderr is always writable: the timeline itself, no status line.
  EXPECT_TRUE(ok);
  EXPECT_EQ(err.rfind("== site 2 ==\n", 0), 0u) << err;
  EXPECT_NE(err.find("dash.span [on site 2]"), std::string::npos) << err;
  EXPECT_EQ(err.find("[skalla]"), std::string::npos) << err;
}

// ---------------------------------------------------------------------------
// Straggler diagnostic.
// ---------------------------------------------------------------------------

TEST_F(TraceTest, StragglerReportMath) {
  // Two rounds; each slot's rows are summed across them.
  ExecutionMetrics metrics;
  metrics.rounds.resize(2);
  auto load = [&](size_t round, int site, double sec, size_t bytes_in,
                  int64_t groups_in) -> SiteLoad& {
    SiteLoad row;
    row.site = site;
    row.cpu_sec = sec;
    row.bytes_in = bytes_in;
    row.groups_in = groups_in;
    row.attempts = 1;
    return metrics.rounds[round].exchanges.emplace_back(row);
  };
  load(0, 1, 2.0, 200, 20);
  load(0, 0, 0.5, 50, 5);
  load(1, 0, 0.5, 50, 5);
  load(1, 1, 1.0, 100, 10).retries = 1;

  const StragglerReport report = BuildStragglerReport(metrics);
  ASSERT_EQ(report.sites.size(), 2u);
  EXPECT_EQ(report.slowest_site, 1);
  // max 3.0 over mean 2.0.
  EXPECT_DOUBLE_EQ(report.cpu_skew, 1.5);
  // max 300 over mean 200.
  EXPECT_DOUBLE_EQ(report.bytes_skew, 1.5);
  EXPECT_EQ(report.sites[0].site, 0);
  EXPECT_EQ(report.sites[0].bytes_in, 100u);
  EXPECT_EQ(report.sites[0].groups_in, 10);
  EXPECT_EQ(report.sites[1].retries, 1);
  const std::string text = report.ToString();
  EXPECT_NE(text.find("cpu skew"), std::string::npos);
  EXPECT_NE(text.find("slowest site 1"), std::string::npos);
}

TEST_F(TraceTest, StragglerReportEmptyMetrics) {
  const StragglerReport report = BuildStragglerReport(ExecutionMetrics());
  EXPECT_TRUE(report.sites.empty());
  EXPECT_DOUBLE_EQ(report.cpu_skew, 1.0);
  EXPECT_DOUBLE_EQ(report.bytes_skew, 1.0);
  EXPECT_EQ(report.slowest_site, -1);
}

TEST_F(TraceTest, ExecutionReportSurfacesStragglerDiagnostic) {
  EnableTracing();
  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                           {"CustKey"}));
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::All()));
  obs::ResetTracing();
  ASSERT_OK_AND_ASSIGN(QueryResult result, wh.ExecutePlan(plan));
  const std::string report = FormatExecutionReport(result);
  EXPECT_NE(report.find("straggler diagnostic"), std::string::npos);
  EXPECT_NE(report.find("cpu skew"), std::string::npos);

  // The section comes from the query's own metrics: tracing off keeps it.
  obs::ConfigureTracing(obs::TraceConfig{});
  const std::string quiet = FormatExecutionReport(result);
  EXPECT_NE(quiet.find("straggler diagnostic"), std::string::npos);
  EXPECT_NE(quiet.find("cpu skew"), std::string::npos);
}

}  // namespace
}  // namespace skalla
