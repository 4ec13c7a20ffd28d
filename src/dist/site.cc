#include "dist/site.h"

#include "common/logging.h"
#include "common/stopwatch.h"
#include "engine/operators.h"
#include "gmdj/central_eval.h"
#include "gmdj/local_eval.h"

namespace skalla {

Result<Table> Site::EvalBase(const BaseQuery& base, double* cpu_sec) const {
  Stopwatch sw;
  SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const Table> source,
                          catalog_.GetTable(base.source_table));
  SKALLA_ASSIGN_OR_RETURN(Table result, EvalBaseQuery(base, *source));
  if (cpu_sec != nullptr) *cpu_sec = sw.ElapsedSeconds() / compute_scale_;
  return result;
}

namespace {

/// Extends `visible` with one finalized column per aggregate of `op`,
/// reading the sub-aggregate columns of `with_sub` (which carries all of
/// `visible`'s columns first, then the sub columns in AllAggs order), and
/// appends the raw sub columns to `subs`. All three tables are row-aligned.
Result<void*> FoldOpResults(const GmdjOp& op, const Schema& detail_schema,
                            const Table& with_sub, Table* visible,
                            Table* subs) {
  const int sub_start = visible->schema().num_fields();
  const std::vector<AggSpec> aggs = op.AllAggs();

  // New visible schema: old fields + finalized aggregate fields.
  std::vector<Field> visible_fields = visible->schema().fields();
  std::vector<Field> sub_fields = subs->schema().fields();
  for (const AggSpec& spec : aggs) {
    SKALLA_ASSIGN_OR_RETURN(Field f, FinalFieldFor(spec, detail_schema));
    visible_fields.push_back(std::move(f));
    SKALLA_ASSIGN_OR_RETURN(std::vector<Field> sf,
                            SubFieldsFor(spec, detail_schema));
    sub_fields.insert(sub_fields.end(), sf.begin(), sf.end());
  }

  SKALLA_CHECK(with_sub.num_rows() == visible->num_rows());
  SKALLA_CHECK(with_sub.num_rows() == subs->num_rows());

  Table new_visible(MakeSchema(std::move(visible_fields)));
  Table new_subs(MakeSchema(std::move(sub_fields)));
  new_visible.Reserve(visible->num_rows());
  new_subs.Reserve(subs->num_rows());

  for (int64_t r = 0; r < with_sub.num_rows(); ++r) {
    Row vrow = visible->row(r);
    Row srow = subs->row(r);
    const Row& wrow = with_sub.row(r);
    int col = sub_start;
    for (const AggSpec& spec : aggs) {
      const int arity = SubArity(spec.func);
      vrow.push_back(
          FinalizeSubValues(spec.func, &wrow[static_cast<size_t>(col)]));
      for (int i = 0; i < arity; ++i) {
        srow.push_back(wrow[static_cast<size_t>(col + i)]);
      }
      col += arity;
    }
    new_visible.AddRow(std::move(vrow));
    new_subs.AddRow(std::move(srow));
  }
  *visible = std::move(new_visible);
  *subs = std::move(new_subs);
  return nullptr;
}

}  // namespace

Result<Table> Site::EvalRound(const SiteRoundInput& input,
                              SiteEvalReport* report) const {
  Stopwatch sw;
  SKALLA_CHECK(input.ops != nullptr && !input.ops->empty());
  SKALLA_CHECK(input.key_attrs != nullptr);
  const std::vector<GmdjOp>& ops = *input.ops;
  const std::vector<std::string>& key_attrs = *input.key_attrs;

  // Local base-values relation (Prop. 2 path) or the shipped fragment. A
  // single operator reads it in place (slots may share one view); a chain
  // folds each operator's aggregates into a copy of its own.
  Table derived;
  if (input.base != nullptr) {
    SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const Table> source,
                            catalog_.GetTable(input.base->source_table));
    SKALLA_ASSIGN_OR_RETURN(derived, EvalBaseQuery(*input.base, *source));
  }
  SKALLA_CHECK(input.base != nullptr || input.x != nullptr);
  const Table& base_rel = input.base != nullptr ? derived : *input.x;

  // Single-operator round: evaluate straight into shippable H form.
  if (ops.size() == 1) {
    SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const Table> detail,
                            catalog_.GetTable(ops[0].detail_table));
    LocalGmdjOptions options;
    options.mode = AggMode::kSub;
    // In a fused-base round (Prop. 2) the shipped H rows are the only
    // carrier of the groups themselves — dropping untouched groups
    // (Prop. 1) would silently remove them from the query result, so
    // group reduction is suppressed when this site derived its own base.
    options.touched_only = input.touched_only && input.base == nullptr;
    options.carry_cols = key_attrs;
    options.num_threads = input.num_threads;
    options.scan_lo = input.detail_lo;
    options.scan_hi = input.detail_hi;
    SKALLA_ASSIGN_OR_RETURN(
        Table h,
        EvalGmdjOp(base_rel, *detail, ops[0], options, &report->scan));
    report->cpu_sec = sw.ElapsedSeconds() / compute_scale_;
    return h;
  }

  // Synchronization-reduced chain: evaluate every operator locally,
  // finalizing each operator's aggregates for use by later θs while
  // accumulating the shippable sub-aggregate columns.
  Table visible =
      input.base != nullptr ? std::move(derived) : Table(*input.x);
  SKALLA_ASSIGN_OR_RETURN(Table subs, Project(visible, key_attrs));
  for (const GmdjOp& op : ops) {
    SKALLA_ASSIGN_OR_RETURN(std::shared_ptr<const Table> detail,
                            catalog_.GetTable(op.detail_table));
    LocalGmdjOptions options;
    options.mode = AggMode::kSub;
    options.touched_only = false;  // alignment required for chaining
    options.num_threads = input.num_threads;
    SKALLA_ASSIGN_OR_RETURN(
        Table with_sub,
        EvalGmdjOp(visible, *detail, op, options, &report->scan));
    SKALLA_ASSIGN_OR_RETURN(
        void* unused,
        FoldOpResults(op, detail->schema(), with_sub, &visible, &subs));
    (void)unused;
  }
  report->cpu_sec = sw.ElapsedSeconds() / compute_scale_;
  return subs;
}

}  // namespace skalla
