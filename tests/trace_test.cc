// Observability suite (ctest label "obs"): span tracer, event journal,
// exporters, and the straggler diagnostic. Key properties: disabled-mode
// instrumentation allocates nothing, spans keep parent links across
// ParallelFor thread hops, journal kMessage bytes reproduce
// ExecutionMetrics::TotalBytes() exactly, and the Chrome exporter emits
// valid trace-event JSON with one named track per site plus the
// coordinator.

#include <gtest/gtest.h>

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
#include "obs/journal.h"
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

TEST_F(TraceTest, DisabledJournalRecordsNothing) {
  obs::JournalRecord record;
  record.event = obs::JournalEvent::kMessage;
  record.bytes = 128;
  obs::JournalAppend(record);
  EXPECT_EQ(obs::JournalSize(), 0u);
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

TEST_F(TraceTest, TraceConfigFromEnvGrammar) {
  EXPECT_FALSE(obs::TraceConfigFromEnv(nullptr).enabled);
  EXPECT_FALSE(obs::TraceConfigFromEnv("").enabled);
  EXPECT_FALSE(obs::TraceConfigFromEnv("0").enabled);
  EXPECT_FALSE(obs::TraceConfigFromEnv("off").enabled);

  EXPECT_TRUE(obs::TraceConfigFromEnv("on").enabled);
  EXPECT_TRUE(obs::TraceConfigFromEnv("1").enabled);

  obs::TraceConfig chrome = obs::TraceConfigFromEnv("chrome");
  EXPECT_TRUE(chrome.enabled);
  EXPECT_EQ(chrome.chrome_path, "skalla_trace.json");

  obs::TraceConfig full =
      obs::TraceConfigFromEnv("chrome:/tmp/t.json,journal:j.jsonl,sample:4");
  EXPECT_TRUE(full.enabled);
  EXPECT_EQ(full.chrome_path, "/tmp/t.json");
  EXPECT_EQ(full.journal_path, "j.jsonl");
  EXPECT_EQ(full.morsel_sample, 4);

  obs::TraceConfig text = obs::TraceConfigFromEnv("text");
  EXPECT_TRUE(text.enabled);
  EXPECT_EQ(text.text_path, "-");
}

// ---------------------------------------------------------------------------
// Journal <-> ExecutionMetrics consistency on a real distributed run.
// ---------------------------------------------------------------------------

size_t JournalMessageBytes() {
  size_t total = 0;
  for (const obs::JournalRecord& r : obs::JournalSnapshot()) {
    if (r.event == obs::JournalEvent::kMessage) total += r.bytes;
  }
  return total;
}

TEST_F(TraceTest, JournalBytesMatchMetricsFlatCoordinator) {
  EnableTracing();
  Warehouse wh(4);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                           {"CustKey"}));
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::All()));
  obs::ResetTracing();
  ASSERT_OK_AND_ASSIGN(QueryResult result, wh.ExecutePlan(plan));
  // Every byte ExecutionMetrics accounts for flows through
  // SimNetwork::Transfer exactly once, where the kMessage record is cut.
  EXPECT_EQ(JournalMessageBytes(), result.metrics.TotalBytes());
  EXPECT_GT(obs::JournalSize(), 0u);
}

TEST_F(TraceTest, JournalBytesMatchMetricsTreeCoordinator) {
  EnableTracing();
  Warehouse wh(6);
  ASSERT_OK(wh.LoadByRange("TPCR", SmallTpcr(), "NationKey", 0, 24,
                           {"CustKey"}));
  const GmdjExpr query = queries::GroupReductionQuery("CustKey");
  ASSERT_OK_AND_ASSIGN(DistributedPlan plan,
                       wh.Plan(query, OptimizerOptions::All()));
  obs::ResetTracing();
  ASSERT_OK_AND_ASSIGN(QueryResult result, wh.ExecutePlanTree(plan, 2));
  EXPECT_EQ(JournalMessageBytes(), result.metrics.TotalBytes());
}

TEST_F(TraceTest, JournalRetriesMatchMetricsUnderFaults) {
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

  int retries = 0, undelivered = 0;
  for (const obs::JournalRecord& r : obs::JournalSnapshot()) {
    if (r.event == obs::JournalEvent::kRetry) ++retries;
    if (r.event == obs::JournalEvent::kMessage && !r.delivered) ++undelivered;
  }
  EXPECT_EQ(retries, result.metrics.Retries());
  EXPECT_EQ(undelivered, result.metrics.Drops());
  EXPECT_EQ(JournalMessageBytes(), result.metrics.TotalBytes());
  EXPECT_EQ(result.metrics.Retries(), 1);
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
  obs::ExportChromeTrace(obs::SpanSnapshot(), obs::JournalSnapshot(), out);
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

TEST_F(TraceTest, ChromeTraceMarksRetriesAsInstants) {
  EnableTracing();
  std::vector<obs::JournalRecord> journal;
  obs::JournalRecord retry;
  retry.event = obs::JournalEvent::kRetry;
  retry.site = 2;
  retry.attempt = 1;
  retry.ts_ns = 1500;
  journal.push_back(retry);
  std::ostringstream out;
  obs::ExportChromeTrace({}, journal, out);
  const std::string json = out.str();
  ASSERT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"retry\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"site 2\""), std::string::npos);
}

TEST_F(TraceTest, JournalJsonlOneValidObjectPerLine) {
  EnableTracing();
  obs::JournalRecord msg;
  msg.event = obs::JournalEvent::kMessage;
  msg.round = 1;
  msg.from = -1;
  msg.to = 2;
  msg.bytes = 256;
  msg.rows = 10;
  msg.label = "X \"fragment\"";  // exercises escaping
  obs::JournalAppend(msg);
  obs::JournalRecord reduction;
  reduction.event = obs::JournalEvent::kReduction;
  reduction.round = 1;
  reduction.site = 2;
  reduction.rows_before = 100;
  reduction.rows = 40;
  obs::JournalAppend(reduction);

  std::ostringstream out;
  obs::ExportJournalJsonl(obs::JournalSnapshot(), out);
  std::istringstream lines(out.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_TRUE(JsonValidator(line).Valid()) << line;
  }
  EXPECT_EQ(count, 2);
  EXPECT_NE(out.str().find("\"event\":\"message\""), std::string::npos);
  EXPECT_NE(out.str().find("\"event\":\"reduction\""), std::string::npos);
  EXPECT_NE(out.str().find("\"rows_before\":100"), std::string::npos);
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
  config.journal_path = dir + "/skalla_journal_test.jsonl";
  obs::ConfigureTracing(config);
  obs::ResetTracing();
  {
    obs::ScopedSpan span("configured.span");
  }
  obs::JournalRecord msg;
  msg.event = obs::JournalEvent::kMessage;
  msg.bytes = 1;
  obs::JournalAppend(msg);

  ASSERT_TRUE(obs::WriteConfiguredTraceOutputs());
  std::ifstream chrome(config.chrome_path);
  ASSERT_TRUE(chrome.good());
  std::stringstream contents;
  contents << chrome.rdbuf();
  EXPECT_TRUE(JsonValidator(contents.str()).Valid());
  EXPECT_NE(contents.str().find("configured.span"), std::string::npos);
  std::ifstream journal(config.journal_path);
  ASSERT_TRUE(journal.good());
  std::remove(config.chrome_path.c_str());
  std::remove(config.journal_path.c_str());
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
    return metrics.rounds[round].site_loads.emplace_back(row);
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

TEST_F(TraceTest, StragglerReportEmptyJournal) {
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
