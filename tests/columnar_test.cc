// The columnar snapshot's one-pass build against the column-at-a-time
// oracle (columnar_oracle.h) on fuzzed tables, its dictionary lookups
// against a brute-force scan, and the once-per-table build under
// concurrent first callers.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "columnar_oracle.h"
#include "common/random.h"
#include "storage/columnar.h"
#include "storage/table.h"

namespace skalla {
namespace {

/// How one fuzzed column fills its cells.
enum class Fill {
  kClean,         ///< the declared type, NULLs at a random rate
  kAllNull,       ///< every cell NULL
  kDeviantFirst,  ///< a cell of another type in the first row
  kDeviantMid,    ///< ... in a middle row
  kDeviantLast,   ///< ... in the last row
};

Value RandomString(Rng* rng, const std::vector<std::string>& pool) {
  // Repeated short strings from a small pool, fresh strings on either side
  // of the 15-byte inline limit, and the empty string.
  const int64_t pick = rng->Uniform(0, 9);
  if (pick < 6) return Value(rng->Pick(pool));
  if (pick == 9) return Value("");
  const int64_t length = pick < 8 ? rng->Uniform(0, 15) : rng->Uniform(16, 60);
  return Value(rng->AlphaString(static_cast<int>(length)));
}

Value RandomCell(Rng* rng, ValueType type,
                 const std::vector<std::string>& pool) {
  switch (type) {
    case ValueType::kInt64:
      return rng->Chance(0.1) ? Value(int64_t{INT64_MIN} + rng->Uniform(0, 2))
                              : Value(rng->Uniform(-50, 50));
    case ValueType::kDouble:
      return rng->Chance(0.1) ? Value(-0.0)
                              : Value(rng->UniformDouble(-1e6, 1e6));
    case ValueType::kString:
      return RandomString(rng, pool);
    case ValueType::kNull:
      return Value();
  }
  return Value();
}

/// A non-NULL cell whose type differs from `type`.
Value DeviantCell(Rng* rng, ValueType type,
                  const std::vector<std::string>& pool) {
  const ValueType others[] = {ValueType::kInt64, ValueType::kDouble,
                              ValueType::kString};
  ValueType other = type;
  while (other == type) other = others[rng->Uniform(0, 2)];
  return RandomCell(rng, other, pool);
}

Table RandomTable(uint64_t seed) {
  Rng rng(seed);
  const ValueType types[] = {ValueType::kInt64, ValueType::kDouble,
                             ValueType::kString, ValueType::kNull};
  const int num_cols = static_cast<int>(rng.Uniform(1, 6));
  std::vector<Field> fields;
  std::vector<Fill> fills;
  std::vector<double> null_rate;
  for (int c = 0; c < num_cols; ++c) {
    fields.push_back({"c" + std::to_string(c), types[rng.Uniform(0, 3)]});
    const int64_t f = rng.Uniform(0, 9);
    fills.push_back(f < 5   ? Fill::kClean
                    : f < 6 ? Fill::kAllNull
                    : f < 7 ? Fill::kDeviantFirst
                    : f < 8 ? Fill::kDeviantMid
                            : Fill::kDeviantLast);
    null_rate.push_back(rng.Pick(std::vector<double>{0.0, 0.05, 0.5}));
  }
  std::vector<std::string> pool;
  for (int i = 0; i < 6; ++i) {
    pool.push_back(rng.AlphaString(static_cast<int>(rng.Uniform(1, 24))));
  }
  // Empty tables, tables inside one bitmap word, and several words.
  const int64_t rows = rng.Pick(std::vector<int64_t>{
      0, 1, rng.Uniform(2, 63), 64, rng.Uniform(65, 700)});
  Table table(MakeSchema(fields));
  for (int64_t i = 0; i < rows; ++i) {
    Row row;
    for (int c = 0; c < num_cols; ++c) {
      const ValueType type = fields[static_cast<size_t>(c)].type;
      const Fill fill = fills[static_cast<size_t>(c)];
      const bool deviant = (fill == Fill::kDeviantFirst && i == 0) ||
                           (fill == Fill::kDeviantMid && i == rows / 2) ||
                           (fill == Fill::kDeviantLast && i == rows - 1);
      if (deviant) {
        row.push_back(DeviantCell(&rng, type, pool));
      } else if (fill == Fill::kAllNull ||
                 rng.Chance(null_rate[static_cast<size_t>(c)])) {
        row.push_back(Value());
      } else {
        row.push_back(RandomCell(&rng, type, pool));
      }
    }
    table.AddRow(std::move(row));
  }
  return table;
}

std::vector<uint64_t> DoubleBits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  for (double d : values) bits.push_back(std::bit_cast<uint64_t>(d));
  return bits;
}

void ExpectSameColumn(const ColumnarTable::Column& got,
                      const ColumnarTable::Column& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.usable, want.usable);
  EXPECT_EQ(got.has_nulls, want.has_nulls);
  EXPECT_EQ(got.valid, want.valid);
  EXPECT_EQ(got.ints, want.ints);
  EXPECT_EQ(DoubleBits(got.doubles), DoubleBits(want.doubles));
  EXPECT_EQ(got.codes, want.codes);
  EXPECT_EQ(got.dict, want.dict);
  EXPECT_EQ(got.order_rank, want.order_rank);
  EXPECT_EQ(got.sorted_codes, want.sorted_codes);
}

/// CodeOf and LowerBoundRank of `probe` against a scan of `col.dict`.
void ExpectLookupsMatchScan(const ColumnarTable::Column& col,
                            std::string_view probe) {
  int32_t code = -1;
  int32_t rank = 0;
  for (size_t i = 0; i < col.dict.size(); ++i) {
    if (col.dict[i] == probe) code = static_cast<int32_t>(i);
    if (col.dict[i] < probe) ++rank;
  }
  EXPECT_EQ(col.CodeOf(probe), code) << "probe '" << probe << "'";
  EXPECT_EQ(col.LowerBoundRank(probe), rank) << "probe '" << probe << "'";
}

TEST(ColumnarBuildTest, MatchesColumnAtATimeOracleOnFuzzedTables) {
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Table table = RandomTable(seed);
    const std::shared_ptr<const ColumnarTable> view =
        ColumnarTable::Build(table);
    const std::vector<ColumnarTable::Column> want = BuildColumnsOracle(table);
    ASSERT_EQ(view->num_rows(), table.num_rows());
    ASSERT_EQ(view->num_columns(), static_cast<int>(want.size()));
    Rng rng(seed * 7919);
    for (int c = 0; c < view->num_columns(); ++c) {
      SCOPED_TRACE("column " + std::to_string(c));
      const ColumnarTable::Column& col = view->column(c);
      ExpectSameColumn(col, want[static_cast<size_t>(c)]);
      if (col.type != ValueType::kString) continue;
      // Every dictionary string, its neighbours in order, and strings the
      // column never holds.
      for (const std::string& s : col.dict) {
        ExpectLookupsMatchScan(col, s);
        ExpectLookupsMatchScan(col, s + "a");
        if (!s.empty()) ExpectLookupsMatchScan(col, s.substr(0, s.size() - 1));
      }
      ExpectLookupsMatchScan(col, "");
      ExpectLookupsMatchScan(col, "~");
      ExpectLookupsMatchScan(col, rng.AlphaString(4));
      ExpectLookupsMatchScan(col, rng.AlphaString(20));
    }
  }
}

TEST(ColumnarBuildTest, TypeDeviantCellStopsItsColumnOnly) {
  Table t(MakeSchema({{"i", ValueType::kInt64}, {"s", ValueType::kString}}));
  t.AddRow({Value(int64_t{7}), Value("x")});
  t.AddRow({Value("oops"), Value()});
  t.AddRow({Value(), Value("y")});
  const std::shared_ptr<const ColumnarTable> view = ColumnarTable::Build(t);
  // The int column is not read past its deviant cell: the NULL after it
  // does not count.
  EXPECT_FALSE(view->column(0).usable);
  EXPECT_FALSE(view->column(0).has_nulls);
  EXPECT_TRUE(view->column(0).valid.empty());
  EXPECT_TRUE(view->column(0).ints.empty());
  // The string column reads every row.
  EXPECT_TRUE(view->column(1).usable);
  EXPECT_EQ(view->column(1).codes, (std::vector<int32_t>{0, -1, 1}));
  EXPECT_EQ(view->column(1).dict, (std::vector<std::string>{"x", "y"}));
}

// ---------------------------------------------------------------------------
// Table::columnar(): built once per table, with no process-wide lock.
// ---------------------------------------------------------------------------

Table WideTable(int64_t rows, int64_t salt) {
  Table t(MakeSchema({{"k", ValueType::kInt64},
                      {"v", ValueType::kDouble},
                      {"s", ValueType::kString}}));
  t.Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    t.AddRow({Value(i + salt), Value(static_cast<double>(i) * 0.5),
              Value("name#" + std::to_string((i * 7 + salt) % 997))});
  }
  return t;
}

constexpr int kThreads = 8;

TEST(ColumnarOnceTest, ConcurrentFirstCallersOfOneTableShareOneBuild) {
  const Table table = WideTable(20000, 0);
  std::vector<std::shared_ptr<const ColumnarTable>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[static_cast<size_t>(t)] = table.columnar();
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_NE(got[0], nullptr);
  for (const auto& view : got) EXPECT_EQ(view.get(), got[0].get());
  EXPECT_EQ(table.columnar().get(), got[0].get());
  EXPECT_EQ(got[0]->num_rows(), 20000);
}

TEST(ColumnarOnceTest, ConcurrentFirstCallersOfEightTablesGetEight) {
  std::vector<Table> tables;
  for (int t = 0; t < kThreads; ++t) tables.push_back(WideTable(5000, t));
  std::vector<std::shared_ptr<const ColumnarTable>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[static_cast<size_t>(t)] = tables[static_cast<size_t>(t)].columnar();
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("table " + std::to_string(t));
    ASSERT_NE(got[static_cast<size_t>(t)], nullptr);
    for (int u = 0; u < t; ++u) {
      EXPECT_NE(got[static_cast<size_t>(t)].get(),
                got[static_cast<size_t>(u)].get());
    }
    EXPECT_EQ(got[static_cast<size_t>(t)]->column(0).ints[0], t);
  }
}

TEST(ColumnarOnceTest, CopiesShareTheSnapshotAndMutatorsDropIt) {
  Table a = WideTable(100, 0);
  const Table b = a;  // copied before any snapshot exists
  const std::shared_ptr<const ColumnarTable> view = b.columnar();
  EXPECT_EQ(a.columnar().get(), view.get());

  a.AddRow({Value(int64_t{-1}), Value(0.0), Value("new")});
  const std::shared_ptr<const ColumnarTable> grown = a.columnar();
  EXPECT_NE(grown.get(), view.get());
  EXPECT_EQ(grown->num_rows(), 101);
  EXPECT_EQ(b.columnar().get(), view.get());  // the copy keeps its rows
  EXPECT_EQ(view->num_rows(), 100);

  Table c = a;
  c.SortBy({0});
  EXPECT_EQ(c.columnar()->column(0).ints[0], -1);
  EXPECT_EQ(a.columnar().get(), grown.get());
}

}  // namespace
}  // namespace skalla
