#include "engine/operators.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "expr/evaluator.h"
#include "storage/columnar.h"
#include "storage/group_map.h"
#include "storage/hash_index.h"

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

struct RowHasher {
  const std::vector<int>* cols;
  size_t operator()(const Row* row) const {
    return static_cast<size_t>(RowKeyHash(*row, *cols));
  }
};

struct RowEq {
  const std::vector<int>* cols;
  bool operator()(const Row* a, const Row* b) const {
    return RowKeyEquals(*a, *cols, *b, *cols);
  }
};

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

Table Distinct(const Table& input) {
  std::vector<int> all_cols(static_cast<size_t>(input.schema().num_fields()));
  for (size_t i = 0; i < all_cols.size(); ++i) all_cols[i] = static_cast<int>(i);
  RowHasher hasher{&all_cols};
  RowEq eq{&all_cols};
  std::unordered_set<const Row*, RowHasher, RowEq> seen(16, hasher, eq);
  Table out(input.schema_ptr());
  for (const Row& row : input.rows()) {
    if (seen.insert(&row).second) out.AddRow(row);
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

  struct Group {
    Row key;
    std::vector<AggState> states;
    // Ascending row ids of the group's members — the selection vector fed
    // to the typed batch aggregate kernels in the second pass.
    std::vector<int64_t> sel;
  };
  RowHasher hasher{&group_indices};
  RowEq eq{&group_indices};
  std::unordered_map<const Row*, size_t, RowHasher, RowEq> index(16, hasher,
                                                                 eq);
  std::vector<Group> groups;

  // Pass 1: group discovery in first-appearance order, collecting each
  // group's member rows. Pass 2 folds aggregate inputs group-at-a-time
  // through the columnar snapshot's typed arrays (UpdateBatchInt64/Double
  // fold values[sel[k]] in ascending k — the same per-group update order
  // as the row-at-a-time loop, so the output is byte-identical). Unusable
  // columns and string/declared-NULL inputs keep boxed updates.
  for (int64_t r = 0; r < input.num_rows(); ++r) {
    const Row& row = input.row(r);
    auto [it, inserted] = index.emplace(&row, groups.size());
    if (inserted) {
      Group g;
      g.key.reserve(group_indices.size());
      for (int idx : group_indices) g.key.push_back(row[static_cast<size_t>(idx)]);
      g.states.reserve(aggs.size());
      for (const AggSpec& spec : aggs) g.states.emplace_back(spec.func);
      groups.push_back(std::move(g));
    }
    groups[it->second].sel.push_back(r);
  }

  const std::shared_ptr<const ColumnarTable> view =
      input.num_rows() > 0 ? input.columnar() : nullptr;
  for (size_t a = 0; a < aggs.size(); ++a) {
    const int in = agg_inputs[a];
    if (in < 0) {
      // COUNT(*): n times Update(kOne).
      for (Group& g : groups) g.states[a].UpdateBatchCountStar(g.sel.size());
      continue;
    }
    const ColumnarTable::Column* col =
        view != nullptr ? &view->column(in) : nullptr;
    if (col != nullptr && col->usable && col->type == ValueType::kInt64) {
      for (Group& g : groups) {
        g.states[a].UpdateBatchInt64(col->ints.data(), col->valid_words(),
                                     g.sel.data(), g.sel.size());
      }
    } else if (col != nullptr && col->usable &&
               col->type == ValueType::kDouble) {
      for (Group& g : groups) {
        g.states[a].UpdateBatchDouble(col->doubles.data(), col->valid_words(),
                                      g.sel.data(), g.sel.size());
      }
    } else {
      for (Group& g : groups) {
        for (const int64_t r : g.sel) {
          g.states[a].Update(input.row(r)[static_cast<size_t>(in)]);
        }
      }
    }
  }

  Table out(MakeSchema(std::move(out_fields)));
  out.Reserve(static_cast<int64_t>(groups.size()));
  for (const Group& g : groups) {
    Row row = g.key;
    for (const AggState& state : g.states) row.push_back(state.Final());
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

  HashIndex index;
  index.Build(right, right_key_idx);

  Table out(MakeSchema(std::move(fields)));
  for (const Row& left_row : left.rows()) {
    // SQL: NULL keys never join.
    bool has_null_key = false;
    for (int idx : left_key_idx) {
      if (left_row[static_cast<size_t>(idx)].is_null()) has_null_key = true;
    }
    if (has_null_key) continue;
    const std::vector<int64_t>* matches =
        index.Lookup(left_row, left_key_idx);
    if (matches == nullptr) continue;
    for (int64_t right_id : *matches) {
      const Row& right_row = right.row(right_id);
      bool right_null_key = false;
      for (int idx : right_key_idx) {
        if (right_row[static_cast<size_t>(idx)].is_null()) {
          right_null_key = true;
        }
      }
      if (right_null_key) continue;
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
