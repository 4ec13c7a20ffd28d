#include "engine/operators.h"

#include <algorithm>
#include <span>

#include "expr/evaluator.h"
#include "storage/columnar.h"
#include "storage/group_map.h"

namespace skalla {

namespace {

Result<std::vector<int>> ResolveColumns(const Schema& schema,
                                        const std::vector<std::string>& cols) {
  std::vector<int> indices;
  indices.reserve(cols.size());
  for (const std::string& name : cols) {
    SKALLA_ASSIGN_OR_RETURN(int idx, schema.MustIndexOf(name));
    indices.push_back(idx);
  }
  return indices;
}

SchemaPtr ProjectSchema(const Schema& schema, const std::vector<int>& indices) {
  std::vector<Field> fields;
  fields.reserve(indices.size());
  for (int idx : indices) fields.push_back(schema.field(idx));
  return MakeSchema(std::move(fields));
}

}  // namespace

Result<Table> Project(const Table& input,
                      const std::vector<std::string>& cols) {
  SKALLA_ASSIGN_OR_RETURN(std::vector<int> indices,
                          ResolveColumns(input.schema(), cols));
  Table out(ProjectSchema(input.schema(), indices));
  out.Reserve(input.num_rows());
  for (const Row& row : input.rows()) {
    Row projected;
    projected.reserve(indices.size());
    for (int idx : indices) projected.push_back(row[static_cast<size_t>(idx)]);
    out.AddRow(std::move(projected));
  }
  return out;
}

Result<Table> Filter(const Table& input, const ExprPtr& pred) {
  SKALLA_ASSIGN_OR_RETURN(
      CompiledExpr compiled,
      CompiledExpr::Compile(pred, /*base_schema=*/nullptr, &input.schema()));
  Table out(input.schema_ptr());
  for (const Row& row : input.rows()) {
    if (compiled.EvalBool(nullptr, &row)) out.AddRow(row);
  }
  return out;
}

Result<Table> DistinctProject(const Table& input,
                              const std::vector<std::string>& cols) {
  SKALLA_ASSIGN_OR_RETURN(std::vector<int> indices,
                          ResolveColumns(input.schema(), cols));
  const int width = static_cast<int>(indices.size());
  GroupMap groups(width);
  for (const Row& row : input.rows()) {
    auto key_at = [&row, &indices](int c) -> const Value& {
      return row[static_cast<size_t>(indices[static_cast<size_t>(c)])];
    };
    bool inserted = false;
    groups.FindOrInsert(GroupMap::Hash(width, key_at), key_at, &inserted);
  }
  // The map holds each distinct key once, in first-appearance order.
  std::vector<Row> rows(static_cast<size_t>(groups.size()));
  for (int64_t g = 0; g < groups.size(); ++g) {
    rows[static_cast<size_t>(g)].assign(groups.key(g), groups.key(g) + width);
  }
  return Table(ProjectSchema(input.schema(), indices), std::move(rows));
}

Result<Table> UnionAll(const std::vector<const Table*>& inputs) {
  if (inputs.empty()) return Table();
  const Table* first = inputs[0];
  Table out(first->schema_ptr());
  for (const Table* t : inputs) {
    if (t->schema().num_fields() != first->schema().num_fields()) {
      return Status::InvalidArgument(
          "union of incompatible schemas: [" + first->schema().ToString() +
          "] vs [" + t->schema().ToString() + "]");
    }
    out.Append(*t);
  }
  return out;
}

Result<Table> SortedBy(const Table& input,
                       const std::vector<std::string>& cols) {
  SKALLA_ASSIGN_OR_RETURN(std::vector<int> indices,
                          ResolveColumns(input.schema(), cols));
  Table out = input;
  out.SortBy(indices);
  return out;
}

Result<Table> SortedByKeys(const Table& input,
                           const std::vector<SortKey>& keys) {
  std::vector<std::pair<int, bool>> resolved;
  resolved.reserve(keys.size());
  for (const SortKey& key : keys) {
    SKALLA_ASSIGN_OR_RETURN(int idx, input.schema().MustIndexOf(key.column));
    resolved.emplace_back(idx, key.descending);
  }
  std::vector<Row> rows = input.rows();
  std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (const auto& [idx, desc] : resolved) {
      const int cmp = a[static_cast<size_t>(idx)].Compare(
          b[static_cast<size_t>(idx)]);
      if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
    }
    // Deterministic tie-break over the full row.
    for (size_t c = 0; c < a.size(); ++c) {
      const int cmp = a[c].Compare(b[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  return Table(input.schema_ptr(), std::move(rows));
}

Result<Table> HashGroupBy(const Table& input,
                          const std::vector<std::string>& group_cols,
                          const std::vector<AggSpec>& aggs) {
  SKALLA_ASSIGN_OR_RETURN(std::vector<int> group_indices,
                          ResolveColumns(input.schema(), group_cols));

  std::vector<int> agg_inputs;
  std::vector<Field> out_fields;
  for (int idx : group_indices) out_fields.push_back(input.schema().field(idx));
  for (const AggSpec& spec : aggs) {
    SKALLA_ASSIGN_OR_RETURN(Field f, FinalFieldFor(spec, input.schema()));
    out_fields.push_back(std::move(f));
    if (spec.is_count_star()) {
      agg_inputs.push_back(-1);
    } else {
      SKALLA_ASSIGN_OR_RETURN(int idx, input.schema().MustIndexOf(spec.input));
      agg_inputs.push_back(idx);
    }
  }

  // Group discovery in first-appearance order, each group listing its
  // rows in ascending order. Aggregate inputs then fold group-at-a-time
  // through the columnar snapshot's typed arrays (UpdateBatchInt64/Double
  // fold values[sel[k]] in ascending k — the same per-group update order
  // as a row-at-a-time loop, so the output is byte-identical). Unusable
  // columns and string/declared-NULL inputs keep boxed updates.
  const RowGroups groups = RowGroups::Of(input, group_indices);
  const size_t num_groups = static_cast<size_t>(groups.num_groups());
  const size_t num_aggs = aggs.size();
  std::vector<AggState> states;  // group-major, num_aggs per group
  states.reserve(num_groups * num_aggs);
  for (size_t g = 0; g < num_groups; ++g) {
    for (const AggSpec& spec : aggs) states.emplace_back(spec.func);
  }

  const std::shared_ptr<const ColumnarTable> view =
      input.num_rows() > 0 ? input.columnar() : nullptr;
  for (size_t a = 0; a < num_aggs; ++a) {
    const int in = agg_inputs[a];
    const ColumnarTable::Column* col =
        view != nullptr && in >= 0 ? &view->column(in) : nullptr;
    for (size_t g = 0; g < num_groups; ++g) {
      const std::span<const int64_t> sel =
          groups.rows(static_cast<int64_t>(g));
      AggState& state = states[g * num_aggs + a];
      if (in < 0) {
        state.UpdateBatchCountStar(sel.size());  // n times Update(kOne)
      } else if (col != nullptr && col->usable &&
                 col->type == ValueType::kInt64) {
        state.UpdateBatchInt64(col->ints.data(), col->valid_words(),
                               sel.data(), sel.size());
      } else if (col != nullptr && col->usable &&
                 col->type == ValueType::kDouble) {
        state.UpdateBatchDouble(col->doubles.data(), col->valid_words(),
                                sel.data(), sel.size());
      } else {
        for (const int64_t r : sel) {
          state.Update(input.row(r)[static_cast<size_t>(in)]);
        }
      }
    }
  }

  const int width = groups.map().width();
  Table out(MakeSchema(std::move(out_fields)));
  out.Reserve(static_cast<int64_t>(num_groups));
  for (size_t g = 0; g < num_groups; ++g) {
    const Value* key = groups.map().key(static_cast<int64_t>(g));
    Row row(key, key + width);
    row.reserve(static_cast<size_t>(width) + num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      row.push_back(states[g * num_aggs + a].Final());
    }
    out.AddRow(std::move(row));
  }
  return out;
}

Result<Table> Extend(const Table& input, const std::string& name,
                     const ExprPtr& expr) {
  SKALLA_ASSIGN_OR_RETURN(
      CompiledExpr compiled,
      CompiledExpr::Compile(expr, /*base_schema=*/nullptr, &input.schema()));
  std::vector<Field> fields = input.schema().fields();
  fields.push_back(Field{name, compiled.result_type()});
  Table out(MakeSchema(std::move(fields)));
  out.Reserve(input.num_rows());
  for (const Row& row : input.rows()) {
    Row extended = row;
    extended.push_back(compiled.Eval(nullptr, &row));
    out.AddRow(std::move(extended));
  }
  return out;
}

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<std::string>& left_keys,
                       const std::vector<std::string>& right_keys,
                       const std::string& right_prefix) {
  if (left_keys.empty() || left_keys.size() != right_keys.size()) {
    return Status::InvalidArgument("join key lists must be non-empty and "
                                   "of equal length");
  }
  SKALLA_ASSIGN_OR_RETURN(std::vector<int> left_key_idx,
                          ResolveColumns(left.schema(), left_keys));
  SKALLA_ASSIGN_OR_RETURN(std::vector<int> right_key_idx,
                          ResolveColumns(right.schema(), right_keys));

  std::vector<Field> fields = left.schema().fields();
  for (const Field& f : right.schema().fields()) {
    if (left.schema().Contains(f.name)) {
      if (right_prefix.empty()) {
        return Status::InvalidArgument(
            "join output column '" + f.name +
            "' collides and no right_prefix was given");
      }
      fields.push_back(Field{right_prefix + f.name, f.type});
    } else {
      fields.push_back(f);
    }
  }

  const RowGroups right_groups = RowGroups::Of(right, right_key_idx);

  Table out(MakeSchema(std::move(fields)));
  for (const Row& left_row : left.rows()) {
    // SQL: NULL keys never join. A NULL equals only NULL, so a left key
    // without NULLs finds only right rows without NULL keys.
    bool has_null_key = false;
    for (int idx : left_key_idx) {
      if (left_row[static_cast<size_t>(idx)].is_null()) has_null_key = true;
    }
    if (has_null_key) continue;
    const int64_t g = right_groups.Find(left_row, left_key_idx);
    if (g < 0) continue;
    for (int64_t right_id : right_groups.rows(g)) {
      const Row& right_row = right.row(right_id);
      Row joined = left_row;
      joined.insert(joined.end(), right_row.begin(), right_row.end());
      out.AddRow(std::move(joined));
    }
  }
  return out;
}

Result<Table> Unpivot(const Table& input,
                      const std::vector<std::string>& measure_cols,
                      const std::string& name_col,
                      const std::string& value_col) {
  if (measure_cols.empty()) {
    return Status::InvalidArgument("unpivot needs at least one measure");
  }
  SKALLA_ASSIGN_OR_RETURN(std::vector<int> measure_indices,
                          ResolveColumns(input.schema(), measure_cols));
  ValueType value_type = ValueType::kNull;
  for (size_t i = 0; i < measure_indices.size(); ++i) {
    const ValueType t =
        input.schema().field(measure_indices[i]).type;
    if (value_type == ValueType::kNull) value_type = t;
    if (t != value_type) {
      return Status::TypeError(
          "unpivot measures must share one type; '" + measure_cols[i] +
          "' differs");
    }
  }

  std::vector<bool> is_measure(static_cast<size_t>(input.schema().num_fields()),
                               false);
  for (int idx : measure_indices) is_measure[static_cast<size_t>(idx)] = true;
  std::vector<Field> fields;
  std::vector<int> kept;
  for (int c = 0; c < input.schema().num_fields(); ++c) {
    if (!is_measure[static_cast<size_t>(c)]) {
      fields.push_back(input.schema().field(c));
      kept.push_back(c);
    }
  }
  fields.push_back(Field{name_col, ValueType::kString});
  fields.push_back(Field{value_col, value_type});

  Table out(MakeSchema(std::move(fields)));
  out.Reserve(input.num_rows() * static_cast<int64_t>(measure_cols.size()));
  for (const Row& row : input.rows()) {
    for (size_t m = 0; m < measure_indices.size(); ++m) {
      const Value& v = row[static_cast<size_t>(measure_indices[m])];
      if (v.is_null()) continue;
      Row unpivoted;
      unpivoted.reserve(kept.size() + 2);
      for (int c : kept) unpivoted.push_back(row[static_cast<size_t>(c)]);
      unpivoted.push_back(Value(measure_cols[m]));
      unpivoted.push_back(v);
      out.AddRow(std::move(unpivoted));
    }
  }
  return out;
}

Table Limit(const Table& input, int64_t n) {
  Table out(input.schema_ptr());
  const int64_t keep = std::min(n, input.num_rows());
  out.Reserve(keep);
  for (int64_t i = 0; i < keep; ++i) out.AddRow(input.row(i));
  return out;
}

}  // namespace skalla
