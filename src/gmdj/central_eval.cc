#include "gmdj/central_eval.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "engine/operators.h"
#include "expr/evaluator.h"
#include "gmdj/local_eval.h"
#include "storage/group_map.h"

namespace skalla {

namespace {

// Key order of a base-values relation. Value::Compare cannot serve as a
// sort order: it ties NaN with every number, and it compares int64 with
// double through a rounding conversion, so "equal" is not transitive
// (2^53 + 1 and 2^53 differ, yet both equal 2^53 as a double). This order
// ranks NULL < numbers < NaN < strings; numbers compare by exact value
// (5 and 5.0 tie, as do 0.0 and -0.0), NaNs all tie, and strings compare
// bytewise. Ties keep their input order (stable sort), so the result is
// deterministic.

/// Rank of a value's class in key order.
int KeyClass(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt64:
      return 1;
    case ValueType::kDouble:
      return std::isnan(v.AsDouble()) ? 2 : 1;
    case ValueType::kString:
      return 3;
  }
  return 0;
}

int Sign(bool less, bool greater) { return less ? -1 : (greater ? 1 : 0); }

/// Exact three-way comparison of an int64 with a non-NaN double. The range
/// checks run before the cast, which is undefined outside [-2^63, 2^63).
int CompareIntDouble(int64_t i, double d) {
  if (d >= 0x1p63) return -1;
  if (d < -0x1p63) return 1;
  const double whole = std::trunc(d);
  const int64_t t = static_cast<int64_t>(whole);
  if (i != t) return Sign(i < t, i > t);
  return Sign(whole < d, whole > d);  // i equals d's whole part
}

int CompareKeyValues(const Value& a, const Value& b) {
  const int ca = KeyClass(a);
  const int cb = KeyClass(b);
  if (ca != cb) return Sign(ca < cb, ca > cb);
  if (ca == 1) {
    if (a.is_int64() && b.is_int64()) {
      return Sign(a.AsInt64() < b.AsInt64(), a.AsInt64() > b.AsInt64());
    }
    if (a.is_double() && b.is_double()) {
      return Sign(a.AsDouble() < b.AsDouble(), a.AsDouble() > b.AsDouble());
    }
    return a.is_int64() ? CompareIntDouble(a.AsInt64(), b.AsDouble())
                        : -CompareIntDouble(b.AsInt64(), a.AsDouble());
  }
  if (ca == 3) {
    const int cmp = a.AsString().compare(b.AsString());
    return Sign(cmp < 0, cmp > 0);
  }
  return 0;  // NULL with NULL, NaN with NaN
}

/// Lexicographic key order over every column of two base rows.
bool KeyOrderLess(const Row& a, const Row& b) {
  for (size_t c = 0; c < a.size(); ++c) {
    const int cmp = CompareKeyValues(a[c], b[c]);
    if (cmp != 0) return cmp < 0;
  }
  return false;
}

}  // namespace

Result<Table> EvalBaseQuery(const BaseQuery& base, const FragmentList& source) {
  const Schema& schema = source.schema();
  std::optional<CompiledExpr> filter;
  if (base.filter != nullptr) {
    SKALLA_ASSIGN_OR_RETURN(
        filter, CompiledExpr::Compile(base.filter, /*base_schema=*/nullptr,
                                      &schema));
  }
  std::vector<int> cols;
  std::vector<Field> fields;
  for (const std::string& name : base.project_cols) {
    SKALLA_ASSIGN_OR_RETURN(int idx, schema.MustIndexOf(name));
    cols.push_back(idx);
    fields.push_back(schema.field(idx));
  }
  const int width = static_cast<int>(cols.size());
  // DISTINCT keeps each key once, in first-appearance order.
  GroupMap groups(width);
  std::vector<Row> rows;
  source.ForEachRow(0, source.num_rows(), [&](const Row& row) {
    if (filter.has_value() && !filter->EvalBool(nullptr, &row)) return;
    auto key_at = [&row, &cols](int c) -> const Value& {
      return row[static_cast<size_t>(cols[static_cast<size_t>(c)])];
    };
    if (base.distinct) {
      bool inserted = false;
      groups.FindOrInsert(GroupMap::Hash(width, key_at), key_at, &inserted);
      return;
    }
    Row projected;
    projected.reserve(cols.size());
    for (int c = 0; c < width; ++c) projected.push_back(key_at(c));
    rows.push_back(std::move(projected));
  });
  if (base.distinct) {
    rows.resize(static_cast<size_t>(groups.size()));
    for (int64_t g = 0; g < groups.size(); ++g) {
      rows[static_cast<size_t>(g)].assign(groups.key(g),
                                          groups.key(g) + width);
    }
  }
  // Ascending key order: X, its views and every reply inherit it, so
  // sorted keys ship as small deltas (docs/wire-format.md §3).
  std::stable_sort(rows.begin(), rows.end(), KeyOrderLess);
  return Table(MakeSchema(std::move(fields)), std::move(rows));
}

Result<Table> EvalGmdjExprCentralized(const GmdjExpr& expr,
                                      const FragmentCatalog& relations,
                                      int num_threads) {
  SKALLA_ASSIGN_OR_RETURN(
      FragmentList source,
      FragmentList::Of(relations, expr.base.source_table));
  SKALLA_ASSIGN_OR_RETURN(Table x, EvalBaseQuery(expr.base, source));
  for (const GmdjOp& op : expr.ops) {
    SKALLA_ASSIGN_OR_RETURN(FragmentList detail,
                            FragmentList::Of(relations, op.detail_table));
    LocalGmdjOptions options;
    options.mode = AggMode::kFinal;
    options.num_threads = num_threads;
    options.vectorize = false;  // the oracle shares no kernel with sites
    SKALLA_ASSIGN_OR_RETURN(x, EvalGmdjOp(x, detail, op, options));
  }
  if (expr.having != nullptr) {
    SKALLA_ASSIGN_OR_RETURN(
        CompiledExpr having,
        CompiledExpr::Compile(expr.having, &x.schema(), nullptr));
    Table filtered(x.schema_ptr());
    for (const Row& row : x.rows()) {
      if (having.EvalBool(&row, nullptr)) filtered.AddRow(row);
    }
    x = std::move(filtered);
  }
  if (!expr.order_by.empty()) {
    SKALLA_ASSIGN_OR_RETURN(x, SortedByKeys(x, expr.order_by));
  }
  if (expr.limit >= 0) {
    x = Limit(x, expr.limit);
  }
  return x;
}

}  // namespace skalla
