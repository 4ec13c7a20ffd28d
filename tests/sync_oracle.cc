#include "sync_oracle.h"

#include <numeric>
#include <unordered_set>

#include "storage/serializer.h"

namespace skalla {

namespace {

/// The row of `table` whose first `key_cols` equal `row`'s, by a linear
/// scan with RowKeyEquals (the oracle's inputs are a few rows), or -1.
int64_t FindRowByKey(const Table& table, const std::vector<int>& key_cols,
                     const Row& row) {
  for (int64_t i = 0; i < table.num_rows(); ++i) {
    if (RowKeyEquals(table.row(i), key_cols, row, key_cols)) return i;
  }
  return -1;
}

}  // namespace

Result<Table> CombineSubResultsRowwise(const std::vector<const Table*>& inputs,
                                       int num_key,
                                       const std::vector<SubSlot>& slots) {
  if (inputs.empty()) {
    return Status::InvalidArgument("no sub-results to combine");
  }
  Table out(inputs[0]->schema_ptr());
  std::vector<int> key_cols(static_cast<size_t>(num_key));
  std::iota(key_cols.begin(), key_cols.end(), 0);

  for (const Table* input : inputs) {
    if (input->schema().num_fields() != out.schema().num_fields()) {
      return Status::InvalidArgument(
          "sub-result schema mismatch in combine");
    }
    for (const Row& row : input->rows()) {
      const int64_t match = FindRowByKey(out, key_cols, row);
      if (match < 0) {
        out.AddRow(row);
        continue;
      }
      Row& acc = out.mutable_row(match);
      for (const SubSlot& slot : slots) {
        MergeSubValues(slot.func,
                       &row[static_cast<size_t>(num_key + slot.offset)],
                       &acc[static_cast<size_t>(num_key + slot.offset)]);
      }
    }
  }
  return out;
}

Result<Table> SynchronizeRowwise(const Table& x_in,
                                 const std::vector<const Table*>& replies,
                                 int num_key,
                                 const std::vector<SubSlot>& slots,
                                 int sub_width, bool plan_only) {
  Table x = x_in;
  std::vector<int> key_cols(static_cast<size_t>(num_key));
  std::iota(key_cols.begin(), key_cols.end(), 0);

  std::vector<std::vector<Value>> acc(static_cast<size_t>(x.num_rows()));
  auto init_acc_row = [&slots, sub_width]() {
    std::vector<Value> row(static_cast<size_t>(sub_width));
    for (const SubSlot& slot : slots) {
      InitSubValues(slot.func, &row[static_cast<size_t>(slot.offset)]);
    }
    return row;
  };
  for (auto& row : acc) row = init_acc_row();

  for (size_t from = 0; from < replies.size(); ++from) {
    for (const Row& h_row : replies[from]->rows()) {
      int64_t row_id = FindRowByKey(x, key_cols, h_row);
      if (row_id < 0) {
        if (!plan_only) {
          return Status::Internal(
              "site " + std::to_string(from) +
              " returned a group missing from the base-result structure");
        }
        Row key_row(h_row.begin(), h_row.begin() + num_key);
        x.AddRow(std::move(key_row));
        row_id = x.num_rows() - 1;
        acc.push_back(init_acc_row());
      }
      std::vector<Value>& acc_row = acc[static_cast<size_t>(row_id)];
      for (const SubSlot& slot : slots) {
        MergeSubValues(slot.func,
                       &h_row[static_cast<size_t>(num_key + slot.offset)],
                       &acc_row[static_cast<size_t>(slot.offset)]);
      }
    }
  }

  std::vector<Field> new_fields = x.schema().fields();
  for (const SubSlot& slot : slots) new_fields.push_back(slot.final_field);
  Table new_x(MakeSchema(std::move(new_fields)));
  new_x.Reserve(x.num_rows());
  for (int64_t i = 0; i < x.num_rows(); ++i) {
    Row row = x.row(i);
    const std::vector<Value>& acc_row = acc[static_cast<size_t>(i)];
    for (const SubSlot& slot : slots) {
      row.push_back(FinalizeSubValues(
          slot.func, &acc_row[static_cast<size_t>(slot.offset)]));
    }
    new_x.AddRow(std::move(row));
  }
  return new_x;
}

Result<Table> CombineWithFold(const std::vector<const Table*>& inputs,
                              int num_key, const std::vector<SubSlot>& slots,
                              int sub_width) {
  if (inputs.empty()) {
    return Status::InvalidArgument("no sub-results to combine");
  }
  GroupMap groups(num_key);
  SubResultFold fold(&groups, slots, sub_width, /*add_groups=*/true);
  for (size_t from = 0; from < inputs.size(); ++from) {
    SKALLA_ASSIGN_OR_RETURN(
        DecodedColumns h,
        Serializer::DecodeColumns(Serializer::SerializeTable(*inputs[from])));
    SKALLA_RETURN_NOT_OK(fold.Fold(h, static_cast<int>(from)));
  }
  return fold.Emit(inputs[0]->schema_ptr());
}

Result<Table> SynchronizeWithFold(const Table& x,
                                  const std::vector<const Table*>& replies,
                                  int num_key,
                                  const std::vector<SubSlot>& slots,
                                  int sub_width, bool plan_only) {
  Table out = x;
  SKALLA_ASSIGN_OR_RETURN(GroupMap groups, GroupMapOfRows(out, num_key));
  SubResultFold fold(&groups, slots, sub_width, plan_only);
  for (size_t from = 0; from < replies.size(); ++from) {
    SKALLA_ASSIGN_OR_RETURN(
        DecodedColumns h,
        Serializer::DecodeColumns(Serializer::SerializeTable(*replies[from])));
    SKALLA_RETURN_NOT_OK(fold.Fold(h, static_cast<int>(from)));
  }
  fold.FinalizeInto(&out,
                    static_cast<size_t>(out.schema().num_fields()) +
                        slots.size(),
                    /*carriers=*/nullptr);
  return out;
}

namespace {

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

Result<Table> DistinctProjectRowwise(const Table& input,
                                     const std::vector<std::string>& cols) {
  std::vector<int> indices;
  std::vector<Field> fields;
  for (const std::string& name : cols) {
    SKALLA_ASSIGN_OR_RETURN(int idx, input.schema().MustIndexOf(name));
    indices.push_back(idx);
    fields.push_back(input.schema().field(idx));
  }
  RowHasher hasher{&indices};
  RowEq eq{&indices};
  std::unordered_set<const Row*, RowHasher, RowEq> seen(16, hasher, eq);
  Table out(MakeSchema(std::move(fields)));
  for (const Row& row : input.rows()) {
    if (seen.insert(&row).second) {
      Row projected;
      projected.reserve(indices.size());
      for (int idx : indices) {
        projected.push_back(row[static_cast<size_t>(idx)]);
      }
      out.AddRow(std::move(projected));
    }
  }
  return out;
}

}  // namespace skalla
