#include "cube/cube.h"

#include <set>

#include "common/logging.h"
#include "engine/operators.h"
#include "storage/group_map.h"

namespace skalla {

namespace {

/// How one user-facing aggregate is carried through rollup: AVG travels as
/// a (SUM, COUNT) pair — the same decomposition Theorem 1 uses — everything
/// else is its own carrier. Carrier values of COUNT/SUM/MIN/MAX are merged
/// across lattice levels with their super-aggregate.
struct Carrier {
  AggSpec user_spec;
  std::vector<AggSpec> carriers;  // 1 or 2 specs
};

std::vector<Carrier> DecomposeAggs(const std::vector<AggSpec>& aggs) {
  std::vector<Carrier> out;
  out.reserve(aggs.size());
  for (const AggSpec& spec : aggs) {
    Carrier carrier;
    carrier.user_spec = spec;
    if (spec.func == AggFunc::kAvg) {
      carrier.carriers = {
          AggSpec::Sum(spec.input, spec.output + "__sum"),
          AggSpec::CountCol(spec.input, spec.output + "__cnt")};
    } else {
      carrier.carriers = {spec};
    }
    out.push_back(std::move(carrier));
  }
  return out;
}

std::vector<AggSpec> FlattenCarriers(const std::vector<Carrier>& carriers) {
  std::vector<AggSpec> out;
  for (const Carrier& c : carriers) {
    out.insert(out.end(), c.carriers.begin(), c.carriers.end());
  }
  return out;
}

/// Super-aggregate used to merge a carrier column across lattice levels.
void MergeCarrier(AggFunc func, const Value& in, Value* acc) {
  Value tmp[1] = {in};
  MergeSubValues(func == AggFunc::kCount ? AggFunc::kCount : func, tmp, acc);
}

/// Schema of the user-facing cube result, typed against the source schema.
Result<SchemaPtr> CubeSchema(const CubeSpec& spec, const Schema& source) {
  std::vector<Field> fields;
  for (const std::string& dim : spec.dims) {
    SKALLA_ASSIGN_OR_RETURN(int idx, source.MustIndexOf(dim));
    fields.push_back(source.field(idx));
  }
  for (const AggSpec& agg : spec.aggs) {
    SKALLA_ASSIGN_OR_RETURN(Field f, FinalFieldFor(agg, source));
    fields.push_back(std::move(f));
  }
  return MakeSchema(std::move(fields));
}

/// Rolls the finest-granularity carrier table up to one grouping set.
///
/// `finest` has schema [dims..., carrier cols...]; `mask` bit i keeps
/// dimension i. Emits rows with NULL in dropped dimension positions and
/// merged carrier values. Row order is unspecified.
Table RollupToMask(const Table& finest, size_t num_dims,
                   const std::vector<Carrier>& carriers, uint32_t mask) {
  std::vector<int> group_cols;
  for (size_t d = 0; d < num_dims; ++d) {
    if (mask & (1u << d)) group_cols.push_back(static_cast<int>(d));
  }

  const int width = static_cast<int>(group_cols.size());
  GroupMap index(width);

  struct Group {
    Row dims;                 // full width, NULLs where rolled up
    std::vector<Value> acc;   // one per carrier column
  };
  std::vector<Group> groups;

  for (const Row& row : finest.rows()) {
    auto key_at = [&row, &group_cols](int c) -> const Value& {
      return row[static_cast<size_t>(group_cols[static_cast<size_t>(c)])];
    };
    bool inserted = false;
    const int64_t id =
        index.FindOrInsert(GroupMap::Hash(width, key_at), key_at, &inserted);
    if (inserted) {
      Group g;
      g.dims.resize(num_dims);  // NULL-initialized
      for (int c : group_cols) {
        g.dims[static_cast<size_t>(c)] = row[static_cast<size_t>(c)];
      }
      size_t col = num_dims;
      for (const Carrier& carrier : carriers) {
        for (const AggSpec& sub : carrier.carriers) {
          Value init[1];
          InitSubValues(sub.func, init);
          g.acc.push_back(init[0]);
          (void)col;
          ++col;
        }
      }
      groups.push_back(std::move(g));
    }
    Group& g = groups[static_cast<size_t>(id)];
    size_t col = num_dims;
    size_t acc_idx = 0;
    for (const Carrier& carrier : carriers) {
      for (const AggSpec& sub : carrier.carriers) {
        MergeCarrier(sub.func, row[col], &g.acc[acc_idx]);
        ++col;
        ++acc_idx;
      }
    }
  }

  // Emit carrier-form rows (same layout as `finest`).
  Table out(finest.schema_ptr());
  out.Reserve(static_cast<int64_t>(groups.size()));
  for (Group& g : groups) {
    Row row = std::move(g.dims);
    row.insert(row.end(), g.acc.begin(), g.acc.end());
    out.AddRow(std::move(row));
  }
  return out;
}

/// Converts a carrier-form table [dims..., carrier cols...] into the
/// user-facing form [dims..., final agg cols...].
Table FinalizeCarriers(const Table& carrier_table, size_t num_dims,
                       const std::vector<Carrier>& carriers,
                       SchemaPtr out_schema) {
  Table out(std::move(out_schema));
  out.Reserve(carrier_table.num_rows());
  for (const Row& row : carrier_table.rows()) {
    Row final_row(row.begin(), row.begin() + static_cast<int64_t>(num_dims));
    size_t col = num_dims;
    for (const Carrier& carrier : carriers) {
      if (carrier.user_spec.func == AggFunc::kAvg) {
        const Value acc[2] = {row[col], row[col + 1]};
        final_row.push_back(FinalizeSubValues(AggFunc::kAvg, acc));
        col += 2;
      } else {
        final_row.push_back(
            FinalizeSubValues(carrier.user_spec.func, &row[col]));
        col += 1;
      }
    }
    out.AddRow(std::move(final_row));
  }
  return out;
}

Status ValidateSpec(const CubeSpec& spec) {
  if (spec.dims.empty()) {
    return Status::InvalidArgument("cube needs at least one dimension");
  }
  if (spec.dims.size() > 16) {
    return Status::InvalidArgument("cube supports at most 16 dimensions");
  }
  if (spec.aggs.empty()) {
    return Status::InvalidArgument("cube needs at least one aggregate");
  }
  for (const AggSpec& agg : spec.aggs) {
    if (agg.func == AggFunc::kAvg && agg.is_count_star()) {
      return Status::InvalidArgument("avg(*) is not a valid aggregate");
    }
    if (agg.func == AggFunc::kVar || agg.func == AggFunc::kStdDev) {
      // VAR/STDDEV decompose into a sum-of-squares carrier, which is not
      // itself an aggregate over a source column; the cube's
      // carrier-based rollup cannot express it.
      return Status::InvalidArgument(
          std::string(AggFuncToString(agg.func)) +
          " is not supported in cube/grouping-sets queries");
    }
  }
  return Status::OK();
}

/// Builds the single-operator GMDJ expression computing the carrier
/// aggregates grouped on `group_dims`.
GmdjExpr FinestExpr(const CubeSpec& spec,
                    const std::vector<std::string>& group_dims,
                    const std::vector<AggSpec>& carrier_aggs) {
  GmdjExpr expr;
  expr.base.source_table = spec.table;
  expr.base.project_cols = group_dims;
  GmdjOp op;
  op.detail_table = spec.table;
  std::vector<ExprPtr> eqs;
  for (const std::string& dim : group_dims) {
    eqs.push_back(Eq(BCol(dim), RCol(dim)));
  }
  op.blocks.push_back(GmdjBlock{carrier_aggs, AndAll(eqs)});
  expr.ops.push_back(std::move(op));
  return expr;
}

/// Widens a per-grouping-set carrier result (subset dims only) to the full
/// dim width with NULLs in the dropped positions.
Table WidenToFullDims(const Table& narrow, const CubeSpec& spec,
                      uint32_t mask, SchemaPtr carrier_schema) {
  Table out(std::move(carrier_schema));
  out.Reserve(narrow.num_rows());
  const size_t num_dims = spec.dims.size();
  for (const Row& row : narrow.rows()) {
    Row wide(num_dims);  // NULLs
    size_t narrow_col = 0;
    for (size_t d = 0; d < num_dims; ++d) {
      if (mask & (1u << d)) wide[d] = row[narrow_col++];
    }
    for (size_t c = narrow_col; c < row.size(); ++c) wide.push_back(row[c]);
    out.AddRow(std::move(wide));
  }
  return out;
}

}  // namespace

std::vector<uint32_t> RollupMasks(size_t num_dims) {
  std::vector<uint32_t> masks;
  masks.reserve(num_dims + 1);
  uint32_t mask = 0;
  masks.push_back(mask);
  for (size_t d = 0; d < num_dims; ++d) {
    mask |= (1u << d);
    masks.push_back(mask);
  }
  return masks;
}

std::vector<uint32_t> CubeMasks(size_t num_dims) {
  std::vector<uint32_t> masks;
  masks.reserve(size_t{1} << num_dims);
  for (uint32_t m = 0; m < (1u << num_dims); ++m) masks.push_back(m);
  return masks;
}

namespace {

Status ValidateMasks(const CubeSpec& spec,
                     const std::vector<uint32_t>& masks) {
  if (masks.empty()) {
    return Status::InvalidArgument("no grouping sets requested");
  }
  std::set<uint32_t> seen;
  for (uint32_t mask : masks) {
    if (mask >= (1u << spec.dims.size())) {
      return Status::InvalidArgument("grouping-set mask out of range");
    }
    if (!seen.insert(mask).second) {
      return Status::InvalidArgument("duplicate grouping-set mask");
    }
  }
  return Status::OK();
}

}  // namespace

Result<Table> GroupingSetsCentralized(const CubeSpec& spec,
                                      const Table& source,
                                      const std::vector<uint32_t>& masks) {
  SKALLA_RETURN_NOT_OK(ValidateSpec(spec));
  SKALLA_RETURN_NOT_OK(ValidateMasks(spec, masks));
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr out_schema,
                          CubeSchema(spec, source.schema()));
  Table out(out_schema);
  for (uint32_t mask : masks) {
    std::vector<std::string> group_cols;
    for (size_t d = 0; d < spec.dims.size(); ++d) {
      if (mask & (1u << d)) group_cols.push_back(spec.dims[d]);
    }
    SKALLA_ASSIGN_OR_RETURN(Table grouped,
                            HashGroupBy(source, group_cols, spec.aggs));
    // Pad to the full dim width.
    for (const Row& row : grouped.rows()) {
      Row wide(spec.dims.size());
      size_t narrow_col = 0;
      for (size_t d = 0; d < spec.dims.size(); ++d) {
        if (mask & (1u << d)) wide[d] = row[narrow_col++];
      }
      for (size_t c = narrow_col; c < row.size(); ++c) {
        wide.push_back(row[c]);
      }
      out.AddRow(std::move(wide));
    }
  }
  return out;
}

Result<Table> CubeCentralized(const CubeSpec& spec, const Table& source) {
  SKALLA_RETURN_NOT_OK(ValidateSpec(spec));
  return GroupingSetsCentralized(spec, source, CubeMasks(spec.dims.size()));
}

Result<CubeExecution> CubeDistributed(Warehouse& warehouse,
                                      const CubeSpec& spec,
                                      CubeStrategy strategy,
                                      const OptimizerOptions& options) {
  SKALLA_RETURN_NOT_OK(ValidateSpec(spec));
  return GroupingSetsDistributed(warehouse, spec,
                                 CubeMasks(spec.dims.size()), strategy,
                                 options);
}

Result<CubeExecution> GroupingSetsDistributed(
    Warehouse& warehouse, const CubeSpec& spec,
    const std::vector<uint32_t>& masks, CubeStrategy strategy,
    const OptimizerOptions& options) {
  SKALLA_RETURN_NOT_OK(ValidateSpec(spec));
  SKALLA_RETURN_NOT_OK(ValidateMasks(spec, masks));
  if (warehouse.num_sites() == 0) return Status::NotFound("no sites");
  SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const Table> source,
                          warehouse.site(0).catalog().GetTable(spec.table));
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr out_schema,
                          CubeSchema(spec, source->schema()));

  const std::vector<Carrier> carriers = DecomposeAggs(spec.aggs);
  const std::vector<AggSpec> carrier_aggs = FlattenCarriers(carriers);
  const size_t num_dims = spec.dims.size();
  const uint32_t full_mask = (1u << num_dims) - 1;

  CubeExecution execution;
  execution.table = Table(out_schema);

  auto account = [&execution](const QueryResult& result) {
    ++execution.distributed_queries;
    execution.rounds += result.metrics.NumRounds();
    execution.total_bytes += result.metrics.TotalBytes();
    execution.response_seconds += result.metrics.ResponseSeconds();
  };

  (void)full_mask;

  if (strategy == CubeStrategy::kRollupFromFinest) {
    // One distributed query at the finest granularity; every requested
    // grouping set (including the finest itself, for uniform NULL
    // semantics) is rolled up locally from the shipped carrier values.
    SKALLA_ASSIGN_OR_RETURN(
        QueryResult finest,
        warehouse.Execute(FinestExpr(spec, spec.dims, carrier_aggs),
                          options));
    account(finest);
    for (uint32_t mask : masks) {
      const Table level =
          RollupToMask(finest.table, num_dims, carriers, mask);
      execution.table.Append(
          FinalizeCarriers(level, num_dims, carriers, out_schema));
    }
    return execution;
  }

  // kPerGroupingSet: one distributed query per non-empty grouping set; the
  // grand total (empty set), if requested, is rolled up from the processed
  // set with the fewest dimensions (a GMDJ needs a non-empty base
  // projection).
  bool want_grand_total = false;
  Table grand_total_source(out_schema);
  int grand_source_dims = -1;
  for (uint32_t mask : masks) {
    if (mask == 0) {
      want_grand_total = true;
      continue;
    }
    std::vector<std::string> group_dims;
    for (size_t d = 0; d < num_dims; ++d) {
      if (mask & (1u << d)) group_dims.push_back(spec.dims[d]);
    }
    SKALLA_ASSIGN_OR_RETURN(
        QueryResult level,
        warehouse.Execute(FinestExpr(spec, group_dims, carrier_aggs),
                          options));
    account(level);
    // Widen to carrier layout [all dims, carriers...].
    std::vector<Field> carrier_fields;
    for (const std::string& dim : spec.dims) {
      SKALLA_ASSIGN_OR_RETURN(int idx,
                              source->schema().MustIndexOf(dim));
      carrier_fields.push_back(source->schema().field(idx));
    }
    for (const AggSpec& sub : carrier_aggs) {
      SKALLA_ASSIGN_OR_RETURN(Field f,
                              FinalFieldFor(sub, source->schema()));
      carrier_fields.push_back(std::move(f));
    }
    const Table wide = WidenToFullDims(level.table, spec, mask,
                                       MakeSchema(carrier_fields));
    const int dims_in_mask = __builtin_popcount(mask);
    if (grand_source_dims < 0 || dims_in_mask < grand_source_dims) {
      grand_total_source = wide;
      grand_source_dims = dims_in_mask;
    }
    execution.table.Append(
        FinalizeCarriers(wide, num_dims, carriers, out_schema));
  }
  if (want_grand_total) {
    if (grand_source_dims < 0) {
      // Only the empty set was requested: aggregate via the first
      // dimension without emitting that level.
      SKALLA_ASSIGN_OR_RETURN(
          QueryResult level,
          warehouse.Execute(
              FinestExpr(spec, {spec.dims[0]}, carrier_aggs), options));
      account(level);
      std::vector<Field> carrier_fields;
      for (const std::string& dim : spec.dims) {
        SKALLA_ASSIGN_OR_RETURN(int idx,
                                source->schema().MustIndexOf(dim));
        carrier_fields.push_back(source->schema().field(idx));
      }
      for (const AggSpec& sub : carrier_aggs) {
        SKALLA_ASSIGN_OR_RETURN(Field f,
                                FinalFieldFor(sub, source->schema()));
        carrier_fields.push_back(std::move(f));
      }
      grand_total_source = WidenToFullDims(level.table, spec, 1u,
                                           MakeSchema(carrier_fields));
    }
    const Table total =
        RollupToMask(grand_total_source, num_dims, carriers, 0);
    execution.table.Append(
        FinalizeCarriers(total, num_dims, carriers, out_schema));
  }
  return execution;
}

}  // namespace skalla
