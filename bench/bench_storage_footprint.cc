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
//
// Writes BENCH_storage_footprint.json.
//
//   ./bench_storage_footprint [--quick]
//
// --quick shrinks the warehouse to 8 x 1k rows (CI smoke).

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench_util.h"
#include "storage/columnar.h"

namespace {

using namespace skalla;
using bench::JsonReport;

/// The cell Value replaced, for the reference column of the ledger.
using VariantCell = std::variant<std::monostate, int64_t, double, std::string>;

/// Loading may add at most this multiple of the source relation's heap:
/// one copy (the fragments) plus slack for per-fragment row vectors.
constexpr double kMaxLoadOverSource = 1.25;

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
  if (quick) spec.rows_per_site = 1000;
  TpcConfig config;
  config.num_rows = spec.rows_per_site * spec.sites;
  config.num_customers = spec.groups_per_site * spec.sites;
  config.num_clerks = spec.clerks;
  config.num_nations = 24;
  config.seed = spec.seed;
  JsonReport report("storage_footprint");

  const double rss_start = RssMb();
  const size_t heap_start = HeapInUse();
  const Table tpcr = GenerateTpcr(config);
  const double rss_source = RssMb();
  const double heap_source = static_cast<double>(HeapInUse() - heap_start);
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
  if (load_over_source > kMaxLoadOverSource) {
    std::fprintf(stderr,
                 "FAIL: loading added %.2fx the source relation's heap "
                 "(limit %.2fx): it holds a relation more than once\n",
                 load_over_source, kMaxLoadOverSource);
    return 1;
  }
  return 0;
}
