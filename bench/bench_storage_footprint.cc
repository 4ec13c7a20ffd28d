// Storage footprint ledger: what a relation costs in memory.
//
//  - Bytes per TPCR row of a boxed Table, by column kind, for the Value cell
//    and for the 40-byte std::variant<monostate, int64, double, string>
//    cell it replaced. Computed from sizeof, row capacities and
//    malloc_usable_size of every heap block, so deterministic.
//  - Bytes per row of the relation's columnar snapshot: its typed arrays
//    from their capacities, and the heap in use that the build adds
//    (mallinfo2), dictionaries and allocator headers included.
//  - RSS growth (VmRSS) while olap_highcard's 8 x 25k warehouse is
//    generated, loaded, and answers each paper query once.
//  - Heap in use (mallinfo2) that generating the source relation and
//    loading the warehouse add. The warehouse keeps one copy of each
//    relation, its site fragments, so the binary exits nonzero when the
//    load adds more than kMaxLoadOverSource times the source's heap.
//  - The peak live heap (a counting global operator new) that one
//    ExecuteCentralized per paper query and one cold EstimateCost add on
//    the loaded warehouse. Both read the relation in place as its
//    fragments, so the binary exits nonzero when that peak exceeds
//    kMaxReferenceOverSource times the source's live heap; a whole copy of
//    the relation reads about 1x. (VmHWM is not reset between phases, so
//    it would under-report this peak.)
//
// Writes BENCH_storage_footprint.json.
//
//   ./bench_storage_footprint [--quick]
//
// --quick shrinks the warehouse to 8 x 1k rows with as many rows per group
// as the full run (CI smoke).

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench_util.h"
#include "storage/columnar.h"

// ---- counting global allocator: the live heap and its high-water mark,
// in malloc_usable_size bytes of every operator new block ----

namespace {

std::atomic<size_t> g_live_bytes{0};
std::atomic<size_t> g_peak_bytes{0};

void* Counted(void* p) {
  if (p == nullptr) return p;
  const size_t n = malloc_usable_size(p);
  const size_t now = g_live_bytes.fetch_add(n, std::memory_order_relaxed) + n;
  size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (now > peak && !g_peak_bytes.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return p;
}

void FreeCounted(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// GCC pairs the library's operator new with this malloc-backed delete and
// warns; the pairing is consistent (every overload below, the nothrow ones
// included, allocates with malloc and frees with free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (void* p = Counted(std::malloc(size))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = Counted(std::malloc(size))) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Counted(std::malloc(size));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Counted(std::malloc(size));
}
void operator delete(void* p) noexcept { FreeCounted(p); }
void operator delete[](void* p) noexcept { FreeCounted(p); }
void operator delete(void* p, std::size_t) noexcept { FreeCounted(p); }
void operator delete[](void* p, std::size_t) noexcept { FreeCounted(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  FreeCounted(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  FreeCounted(p);
}

namespace {

using namespace skalla;
using bench::JsonReport;

/// The cell Value replaced, for the reference column of the ledger.
using VariantCell = std::variant<std::monostate, int64_t, double, std::string>;

/// Loading may add at most this multiple of the source relation's heap:
/// one copy (the fragments) plus slack for per-fragment row vectors.
constexpr double kMaxLoadOverSource = 1.25;

/// The reference check and a cold estimate may add at most this multiple
/// of the source relation's live heap at their peak: their own base
/// relations, accumulators and results, but no copy of the relation.
constexpr double kMaxReferenceOverSource = 0.25;

/// Heap figures are in MiB, as VmRSS's are.
constexpr double kMiB = 1024.0 * 1024.0;

/// malloc_usable_size of a fresh block of `n` bytes; glibc's depends on
/// the request size only, so one probe per size stands for every block.
size_t UsableSize(size_t n) {
  static std::map<size_t, size_t>& cache = *new std::map<size_t, size_t>();
  auto it = cache.find(n);
  if (it != cache.end()) return it->second;
  void* p = std::malloc(n);
  const size_t usable = malloc_usable_size(p);
  std::free(p);
  return cache.emplace(n, usable).first->second;
}

/// Bytes of a boxed relation, summed over its rows.
struct Footprint {
  double int64_cells = 0;
  double double_cells = 0;
  double string_cells = 0;
  double string_heap = 0;  ///< the heap blocks of long strings
  double row_vectors = 0;  ///< Row headers plus each cell array's slack
  double total() const {
    return int64_cells + double_cells + string_cells + string_heap +
           row_vectors;
  }
};

/// The Table as it is: every heap block measured where it lives.
Footprint MeasureValueCells(const Table& t) {
  Footprint f;
  f.row_vectors += static_cast<double>(t.rows().capacity() * sizeof(Row));
  for (const Row& row : t.rows()) {
    f.row_vectors += static_cast<double>(
        malloc_usable_size(const_cast<Value*>(row.data())) -
        row.size() * sizeof(Value));
    for (const Value& v : row) {
      const double cell = sizeof(Value);
      switch (v.type()) {
        case ValueType::kInt64:
          f.int64_cells += cell;
          break;
        case ValueType::kDouble:
          f.double_cells += cell;
          break;
        case ValueType::kString:
          f.string_cells += cell;
          if (v.AsString().size() > Value::kMaxInlineString) {
            f.string_heap += static_cast<double>(malloc_usable_size(
                const_cast<char*>(v.AsString().data())));
          }
          break;
        case ValueType::kNull:
          break;
      }
    }
  }
  return f;
}

/// The same rows in VariantCell: a std::string longer than its 15-byte
/// buffer holds one block of length + 1 bytes.
Footprint ModelVariantCells(const Table& t) {
  Footprint f;
  f.row_vectors += static_cast<double>(t.rows().capacity() * sizeof(Row));
  for (const Row& row : t.rows()) {
    const size_t cells = row.size() * sizeof(VariantCell);
    f.row_vectors += static_cast<double>(UsableSize(cells) - cells);
    for (const Value& v : row) {
      const double cell = sizeof(VariantCell);
      switch (v.type()) {
        case ValueType::kInt64:
          f.int64_cells += cell;
          break;
        case ValueType::kDouble:
          f.double_cells += cell;
          break;
        case ValueType::kString:
          f.string_cells += cell;
          if (v.AsString().size() > 15) {  // libstdc++'s short-string buffer
            f.string_heap +=
                static_cast<double>(UsableSize(v.AsString().size() + 1));
          }
          break;
        case ValueType::kNull:
          break;
      }
    }
  }
  return f;
}

/// Bytes of the snapshot's typed arrays, from their capacities.
size_t ColumnarArrayBytes(const ColumnarTable& view) {
  size_t bytes = 0;
  for (int c = 0; c < view.num_columns(); ++c) {
    const ColumnarTable::Column& col = view.column(c);
    bytes += col.valid.capacity() * sizeof(uint64_t) +
             col.ints.capacity() * sizeof(int64_t) +
             col.doubles.capacity() * sizeof(double) +
             col.codes.capacity() * sizeof(int32_t) +
             col.order_rank.capacity() * sizeof(int32_t) +
             col.sorted_codes.capacity() * sizeof(int32_t);
  }
  return bytes;
}

/// Heap in use: arena chunks plus the mmap'd blocks of large arrays.
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

/// VmRSS of this process, in MB.
double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

std::vector<std::pair<std::string, double>> PerRow(const Footprint& f,
                                                   double rows) {
  return {{"rows", rows},
          {"int64_cells", f.int64_cells / rows},
          {"double_cells", f.double_cells / rows},
          {"string_cells", f.string_cells / rows},
          {"string_heap", f.string_heap / rows},
          {"row_vectors", f.row_vectors / rows},
          {"total", f.total() / rows}};
}

void PrintFootprint(const char* label, const Footprint& f, double rows) {
  std::printf("%-14s %8.1f %8.1f %8.1f %8.1f %8.1f %9.1f\n", label,
              f.int64_cells / rows, f.double_cells / rows,
              f.string_cells / rows, f.string_heap / rows,
              f.row_vectors / rows, f.total() / rows);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: bench_storage_footprint [--quick]\n");
      return 2;
    }
  }
  // olap_highcard's warehouse: bench_util.h's default spec.
  bench::WarehouseSpec spec;
  if (quick) {
    // The full run's rows per group, so that per-group state (base
    // relations, accumulators, answers) weighs against the relation as it
    // does at full size.
    spec.groups_per_site = spec.groups_per_site * 1000 / spec.rows_per_site;
    spec.clerks = spec.clerks * 1000 / spec.rows_per_site;
    spec.rows_per_site = 1000;
  }
  TpcConfig config;
  config.num_rows = spec.rows_per_site * spec.sites;
  config.num_customers = spec.groups_per_site * spec.sites;
  config.num_clerks = spec.clerks;
  config.num_nations = 24;
  config.seed = spec.seed;
  JsonReport report("storage_footprint");

  const double rss_start = RssMb();
  const size_t heap_start = HeapInUse();
  const size_t live_start = g_live_bytes.load();
  const Table tpcr = GenerateTpcr(config);
  const double rss_source = RssMb();
  const double heap_source = static_cast<double>(HeapInUse() - heap_start);
  const double live_source =
      static_cast<double>(g_live_bytes.load() - live_start);
  const double rows = static_cast<double>(tpcr.num_rows());

  // ---- bytes per row of the boxed relation, by column kind ----
  const Footprint cells = MeasureValueCells(tpcr);
  const Footprint variant = ModelVariantCells(tpcr);
  std::printf("TPCR, %.0f rows x %d columns: bytes per row\n", rows,
              tpcr.schema().num_fields());
  std::printf("%-14s %8s %8s %8s %8s %8s %9s\n", "cell", "int64", "double",
              "string", "str heap", "row", "total");
  PrintFootprint("Value (16 B)", cells, rows);
  PrintFootprint("variant (40 B)", variant, rows);
  report.Add("boxed_row/value", PerRow(cells, rows), 0);
  report.Add("boxed_row/variant_reference", PerRow(variant, rows), 0);

  // ---- bytes per row of the columnar snapshot ----
  const size_t heap_before = HeapInUse();
  std::shared_ptr<const ColumnarTable> view = ColumnarTable::Build(tpcr);
  const size_t heap_added = HeapInUse() - heap_before;
  const size_t arrays = ColumnarArrayBytes(*view);
  std::printf("columnar snapshot: %.1f B/row of typed arrays, %.1f B/row of "
              "heap in use\n",
              static_cast<double>(arrays) / rows,
              static_cast<double>(heap_added) / rows);
  report.Add("columnar_row",
             {{"rows", rows},
              {"arrays", static_cast<double>(arrays) / rows},
              {"heap_in_use", static_cast<double>(heap_added) / rows}},
             0);
  view.reset();

  // ---- RSS and heap growth: load olap_highcard's warehouse, then its
  // first queries (columnar snapshots and relation statistics build
  // here) ----
  const double rss_before_load = RssMb();
  const size_t heap_before_load = HeapInUse();
  Warehouse warehouse(spec.sites);
  const Status loaded =
      warehouse.LoadByRange("TPCR", tpcr, "NationKey", 0,
                            config.num_nations - 1, {"CustKey", "ClerkKey"});
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }
  const double rss_loaded = RssMb();
  const double heap_load =
      static_cast<double>(HeapInUse() - heap_before_load);
  for (GmdjExpr (*make)(const std::string&) :
       {queries::GroupReductionQuery, queries::CoalescingQuery,
        queries::SyncReductionQuery, queries::CombinedQuery,
        queries::MultiFeatureQuery}) {
    bench::MustExecute(warehouse, make("CustKey"), OptimizerOptions::All());
  }
  const double rss_queried = RssMb();
  std::printf("RSS: %.1f MB at start, +%.1f MB generating the source, "
              "+%.1f MB loading %d sites, +%.1f MB for the first queries\n",
              rss_start, rss_source - rss_start, rss_loaded - rss_before_load,
              spec.sites, rss_queried - rss_loaded);
  report.Add("rss_growth_mb",
             {{"rows", rows},
              {"sites", spec.sites},
              {"start", rss_start},
              {"source", rss_source - rss_start},
              {"load", rss_loaded - rss_before_load},
              {"first_queries", rss_queried - rss_loaded}},
             0);

  const double load_over_source = heap_load / heap_source;
  std::printf("heap in use: +%.1f MB generating the source, +%.1f MB "
              "loading (%.2fx the source; limit %.2fx)\n",
              heap_source / kMiB, heap_load / kMiB, load_over_source,
              kMaxLoadOverSource);
  report.Add("heap_growth_mb",
             {{"rows", rows},
              {"source", heap_source / kMiB},
              {"load", heap_load / kMiB},
              {"load_over_source", load_over_source},
              {"limit", kMaxLoadOverSource}},
             0);

  // ---- peak live heap of the reference check (one ExecuteCentralized per
  // paper query) and of a cold EstimateCost, on the loaded warehouse ----
  const size_t live_before_reference = g_live_bytes.load();
  g_peak_bytes.store(live_before_reference);
  for (GmdjExpr (*make)(const std::string&) :
       {queries::GroupReductionQuery, queries::CoalescingQuery,
        queries::SyncReductionQuery, queries::CombinedQuery,
        queries::MultiFeatureQuery}) {
    const Result<Table> central = warehouse.ExecuteCentralized(make("CustKey"));
    if (!central.ok()) {
      std::fprintf(stderr, "reference failed: %s\n",
                   central.status().ToString().c_str());
      return 1;
    }
  }
  const Result<DistributedPlan> plan = warehouse.Plan(
      queries::GroupReductionQuery("CustKey"), OptimizerOptions::All());
  const Result<CostBreakdown> cost =
      plan.ok() ? warehouse.EstimateCost(*plan) : plan.status();
  if (!cost.ok()) {
    std::fprintf(stderr, "estimate failed: %s\n",
                 cost.status().ToString().c_str());
    return 1;
  }
  const double reference_peak =
      static_cast<double>(g_peak_bytes.load() - live_before_reference);
  const double reference_over_source = reference_peak / live_source;
  std::printf("live heap: %.1f MB for the source; the reference check and "
              "a cold estimate peak at +%.1f MB (%.2fx the source; limit "
              "%.2fx)\n",
              live_source / kMiB, reference_peak / kMiB,
              reference_over_source, kMaxReferenceOverSource);
  report.Add("reference_peak_heap_mb",
             {{"rows", rows},
              {"source", live_source / kMiB},
              {"peak", reference_peak / kMiB},
              {"peak_over_source", reference_over_source},
              {"limit", kMaxReferenceOverSource}},
             0);

  if (load_over_source > kMaxLoadOverSource) {
    std::fprintf(stderr,
                 "FAIL: loading added %.2fx the source relation's heap "
                 "(limit %.2fx): it holds a relation more than once\n",
                 load_over_source, kMaxLoadOverSource);
    return 1;
  }
  if (reference_over_source > kMaxReferenceOverSource) {
    std::fprintf(stderr,
                 "FAIL: the reference check and a cold estimate added "
                 "%.2fx the source relation's heap at their peak (limit "
                 "%.2fx): a reader copies the relation\n",
                 reference_over_source, kMaxReferenceOverSource);
    return 1;
  }
  return 0;
}
