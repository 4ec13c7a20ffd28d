#ifndef SKALLA_TESTS_TEST_UTIL_H_
#define SKALLA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>

#include "common/result.h"
#include "dist/metrics.h"
#include "gmdj/gmdj.h"
#include "storage/serializer.h"
#include "storage/table.h"

namespace skalla {

/// gtest helpers for Status / Result.
#define ASSERT_OK(expr)                                        \
  do {                                                         \
    const ::skalla::Status _st = (expr);                       \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (false)

#define EXPECT_OK(expr)                                        \
  do {                                                         \
    const ::skalla::Status _st = (expr);                       \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                   \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                        \
  ASSERT_OK_AND_ASSIGN_IMPL_(                                  \
      SKALLA_CONCAT_(_test_result_, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, expr)             \
  auto tmp = (expr);                                           \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();            \
  lhs = std::move(tmp).ValueUnsafe();

/// Asserts two tables hold the same multiset of rows (order-insensitive),
/// printing both on mismatch.
inline void ExpectSameRows(const Table& actual, const Table& expected) {
  EXPECT_TRUE(actual.SameRowMultiset(expected))
      << "actual:\n"
      << actual.ToString(50) << "expected:\n"
      << expected.ToString(50);
}

/// A table's SKL2 wire form: tables compared through it are byte-exactly
/// equal, including row order.
inline std::string TableBytes(const Table& table) {
  return Serializer::SerializeTable(table);
}

/// Per-exchange load conservation, flat and tree: the query's per-site rows
/// (BuildStragglerReport) and its aggregator hops' rows sum to every total
/// (bytes and groups each way, their retry share, delta savings, the SKL1
/// baseline, faults and scan counts), and each round's stored site seconds
/// are its rows'.
void ExpectSiteLoadsSumToTotals(const ExecutionMetrics& metrics);

/// A tiny deterministic detail relation used across unit tests:
/// T(g:int, h:int, v:int, w:double, s:string), 12 rows, groups g∈{1,2,3}.
Table MakeTinyTable();

}  // namespace skalla

#endif  // SKALLA_TESTS_TEST_UTIL_H_
