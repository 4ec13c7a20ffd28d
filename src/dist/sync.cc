#include "dist/sync.h"

#include <algorithm>
#include <string>
#include <utility>

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

Result<GroupMap> GroupMapOfRows(const Table& x, int num_key) {
  GroupMap groups(num_key);
  for (const Row& row : x.rows()) {
    auto key_at = [&row](int c) -> const Value& {
      return row[static_cast<size_t>(c)];
    };
    bool inserted = false;
    groups.FindOrInsert(GroupMap::Hash(num_key, key_at), key_at, &inserted);
    if (!inserted) {
      return Status::InvalidArgument(
          "base-result structure holds a group key twice");
    }
  }
  return groups;
}

SubResultFold::SubResultFold(GroupMap* groups, std::vector<SubSlot> slots,
                             int sub_width, bool add_groups)
    : groups_(groups),
      slots_(std::move(slots)),
      sub_width_(static_cast<size_t>(sub_width)),
      add_groups_(add_groups),
      init_(sub_width_) {
  for (const SubSlot& slot : slots_) {
    InitSubValues(slot.func, &init_[static_cast<size_t>(slot.offset)]);
  }
  InitNewGroups();
}

void SubResultFold::InitNewGroups() {
  // resize + copy-assign: several times faster than appending Values one
  // group at a time.
  size_t at = acc_.size();
  acc_.resize(static_cast<size_t>(groups_->size()) * sub_width_);
  for (; at < acc_.size(); at += sub_width_) {
    std::copy(init_.begin(), init_.end(), acc_.begin() + at);
  }
}

Status SubResultFold::Validate(const DecodedColumns& reply, int from) const {
  const size_t num_key = static_cast<size_t>(groups_->width());
  if (reply.columns.size() != num_key + sub_width_) {
    return Status::InvalidArgument(
        "sender " + std::to_string(from) + " returned " +
        std::to_string(reply.columns.size()) + " columns, expected " +
        std::to_string(num_key) + " key + " + std::to_string(sub_width_) +
        " sub-aggregate columns");
  }
  for (const SubSlot& slot : slots_) {
    if (CarrierOpOf(slot.func) != CarrierOp::kAdd) continue;
    // COUNT's carrier and the last carrier of AVG, VAR and STDDEV count
    // rows; finalization reads them as int64.
    const int count_carrier =
        slot.func == AggFunc::kSum ? -1 : slot.arity - 1;
    for (int i = 0; i < slot.arity; ++i) {
      const size_t col = num_key + static_cast<size_t>(slot.offset + i);
      for (const Value& v : reply.columns[col]) {
        if (v.is_null() || v.is_int64()) continue;
        if (v.is_string() || i == count_carrier) {
          return Status::TypeError(
              "sender " + std::to_string(from) + " returned a " +
              ValueTypeToString(v.type()) + " in " +
              AggFuncToString(slot.func) + " carrier column " +
              std::to_string(col));
        }
      }
    }
  }
  return Status::OK();
}

Status SubResultFold::Fold(const DecodedColumns& reply, int from) {
  SKALLA_RETURN_NOT_OK(Validate(reply, from));
  const int num_key = groups_->width();
  const size_t n = static_cast<size_t>(reply.num_rows);
  // An empty reply merges nothing (and acc_ may hold no group yet).
  if (n == 0) return Status::OK();
  const std::vector<std::vector<Value>>& cols = reply.columns;

  // Key hashes, a column at a time.
  hashes_.assign(n, GroupMap::Seed());
  for (int c = 0; c < num_key; ++c) {
    const std::vector<Value>& key_col = cols[static_cast<size_t>(c)];
    for (size_t r = 0; r < n; ++r) {
      hashes_[r] = GroupMap::Combine(hashes_[r], key_col[r]);
    }
  }

  // Each row's group id; a plan-only round adds the keys the map lacks.
  ids_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    auto key_at = [&cols, r](int c) -> const Value& {
      return cols[static_cast<size_t>(c)][r];
    };
    if (add_groups_) {
      bool inserted = false;
      ids_[r] = groups_->FindOrInsert(hashes_[r], key_at, &inserted);
    } else {
      ids_[r] = groups_->Find(hashes_[r], key_at);
      if (ids_[r] < 0) {
        return Status::Internal(
            "site " + std::to_string(from) +
            " returned a group missing from the base-result structure");
      }
    }
  }

  InitNewGroups();  // the groups this reply added start at the identities

  // Theorem 1's super-aggregates, one carrier column at a time.
  for (const SubSlot& slot : slots_) {
    const CarrierOp op = CarrierOpOf(slot.func);
    for (int i = 0; i < slot.arity; ++i) {
      const size_t k = static_cast<size_t>(slot.offset + i);
      MergeCarrierColumn(op, cols[static_cast<size_t>(num_key) + k].data(), n,
                         ids_.data(), sub_width_, acc_.data() + k);
    }
  }
  return Status::OK();
}

void SubResultFold::FinalizeInto(
    Table* x, size_t row_capacity,
    std::vector<QuotientCarriers>* carriers) const {
  SchemaPtr schema = x->schema_ptr();
  const int old_fields = schema->num_fields();
  if (!slots_.empty()) {
    std::vector<Field> fields = schema->fields();
    for (const SubSlot& slot : slots_) fields.push_back(slot.final_field);
    schema = MakeSchema(std::move(fields));
  }
  const size_t num_key = static_cast<size_t>(groups_->width());
  const size_t old_rows = static_cast<size_t>(x->num_rows());
  const size_t num_groups = static_cast<size_t>(groups_->size());
  if (carriers != nullptr) {
    for (size_t s = 0; s < slots_.size(); ++s) {
      const SubSlot& slot = slots_[s];
      if (slot.func != AggFunc::kAvg) continue;
      QuotientCarriers& q = carriers->emplace_back();
      q.field = old_fields + static_cast<int>(s);
      q.num.resize(num_groups);
      q.den.resize(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        if (!AvgQuotient(acc_.data() + g * sub_width_ + slot.offset,
                         &q.num[g], &q.den[g])) {
          q.den[g] = 0;
        }
      }
    }
  }
  std::vector<Row> rows = x->ReleaseRows();
  rows.resize(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    Row& row = rows[g];
    row.reserve(row_capacity);
    if (g >= old_rows) {
      const Value* key = groups_->key(static_cast<int64_t>(g));
      row.assign(key, key + num_key);
    }
    const Value* acc = acc_.data() + g * sub_width_;
    for (const SubSlot& slot : slots_) {
      row.push_back(FinalizeSubValues(slot.func, acc + slot.offset));
    }
  }
  *x = Table(std::move(schema), std::move(rows));
}

Table SubResultFold::Emit(SchemaPtr schema) const {
  const size_t num_key = static_cast<size_t>(groups_->width());
  const size_t num_groups = static_cast<size_t>(groups_->size());
  std::vector<Row> rows(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    const Value* key = groups_->key(static_cast<int64_t>(g));
    const Value* acc = acc_.data() + g * sub_width_;
    rows[g].reserve(num_key + sub_width_);
    rows[g].assign(key, key + num_key);
    rows[g].insert(rows[g].end(), acc, acc + sub_width_);
  }
  return Table(std::move(schema), std::move(rows));
}

}  // namespace skalla
