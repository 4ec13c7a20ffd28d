#include "dist/sync.h"

#include <numeric>
#include <unordered_map>

#include "engine/operators.h"
#include "storage/hash_index.h"

namespace skalla {

Result<std::vector<SubSlot>> BuildSubSlots(const std::vector<GmdjOp>& ops,
                                           const SchemaMap& schemas,
                                           int* sub_width) {
  std::vector<SubSlot> slots;
  int width = 0;
  for (const GmdjOp& op : ops) {
    auto it = schemas.find(op.detail_table);
    if (it == schemas.end()) {
      return Status::NotFound("no schema for detail relation '" +
                              op.detail_table + "'");
    }
    for (const AggSpec& spec : op.AllAggs()) {
      SKALLA_ASSIGN_OR_RETURN(Field final_field,
                              FinalFieldFor(spec, *it->second));
      slots.push_back(
          SubSlot{spec.func, width, SubArity(spec.func), final_field});
      width += SubArity(spec.func);
    }
  }
  if (sub_width != nullptr) *sub_width = width;
  return slots;
}

Result<Table> CombineSubResults(const std::vector<const Table*>& inputs,
                                int num_key,
                                const std::vector<SubSlot>& slots) {
  if (inputs.empty()) {
    return Status::InvalidArgument("no sub-results to combine");
  }
  Table out(inputs[0]->schema_ptr());
  std::vector<int> key_cols(static_cast<size_t>(num_key));
  std::iota(key_cols.begin(), key_cols.end(), 0);
  HashIndex index;
  index.Build(out, key_cols);

  for (const Table* input : inputs) {
    if (input->schema().num_fields() != out.schema().num_fields()) {
      return Status::InvalidArgument(
          "sub-result schema mismatch in combine");
    }
    for (const Row& row : input->rows()) {
      const std::vector<int64_t>* match = index.Lookup(row, key_cols);
      if (match == nullptr) {
        out.AddRow(row);
        index.Insert(out, out.num_rows() - 1);
        continue;
      }
      Row& acc = out.mutable_row(match->front());
      for (const SubSlot& slot : slots) {
        MergeSubValues(slot.func,
                       &row[static_cast<size_t>(num_key + slot.offset)],
                       &acc[static_cast<size_t>(num_key + slot.offset)]);
      }
    }
  }
  return out;
}

}  // namespace skalla
