#include "expr/evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/wrapping.h"
#include "storage/columnar.h"
#include "storage/table.h"

namespace skalla {

bool ValueIsTrue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt64:
      return v.AsInt64() != 0;
    case ValueType::kDouble:
      return v.AsDouble() != 0.0;
    case ValueType::kString:
      return !v.AsString().empty();
  }
  return false;
}

namespace {

/// Three-valued truth for Kleene logic.
enum class Truth { kFalse, kTrue, kUnknown };

Truth ToTruth(const Value& v) {
  if (v.is_null()) return Truth::kUnknown;
  return ValueIsTrue(v) ? Truth::kTrue : Truth::kFalse;
}

Value FromTruth(Truth t) {
  switch (t) {
    case Truth::kFalse:
      return Value(int64_t{0});
    case Truth::kTrue:
      return Value(int64_t{1});
    case Truth::kUnknown:
      return Value::Null();
  }
  return Value::Null();
}

Value EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  // Division always happens in double precision: GMDJ conditions such as
  // `R.NumBytes >= B.sum1 / B.cnt1` (Example 1 of the paper) expect real
  // averages, not integer division.
  if (op == BinaryOp::kDiv) {
    const double denom = r.ToDouble();
    if (denom == 0.0) return Value::Null();
    return Value(l.ToDouble() / denom);
  }
  if (op == BinaryOp::kMod) {
    if (!l.is_int64() || !r.is_int64() || r.AsInt64() == 0) {
      return Value::Null();
    }
    return Value(WrapMod(l.AsInt64(), r.AsInt64()));
  }
  if (l.is_int64() && r.is_int64()) {
    const int64_t a = l.AsInt64();
    const int64_t b = r.AsInt64();
    switch (op) {
      case BinaryOp::kAdd:
        return Value(WrapAdd(a, b));
      case BinaryOp::kSub:
        return Value(WrapSub(a, b));
      case BinaryOp::kMul:
        return Value(WrapMul(a, b));
      default:
        break;
    }
  }
  const double a = l.ToDouble();
  const double b = r.ToDouble();
  switch (op) {
    case BinaryOp::kAdd:
      return Value(a + b);
    case BinaryOp::kSub:
      return Value(a - b);
    case BinaryOp::kMul:
      return Value(a * b);
    default:
      break;
  }
  return Value::Null();
}

Value EvalComparison(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  const int cmp = l.Compare(r);
  bool out = false;
  switch (op) {
    case BinaryOp::kEq:
      out = (cmp == 0);
      break;
    case BinaryOp::kNe:
      out = (cmp != 0);
      break;
    case BinaryOp::kLt:
      out = (cmp < 0);
      break;
    case BinaryOp::kLe:
      out = (cmp <= 0);
      break;
    case BinaryOp::kGt:
      out = (cmp > 0);
      break;
    case BinaryOp::kGe:
      out = (cmp >= 0);
      break;
    default:
      break;
  }
  return Value(int64_t{out ? 1 : 0});
}

}  // namespace

Result<CompiledExpr> CompiledExpr::Compile(const ExprPtr& expr,
                                           const Schema* base_schema,
                                           const Schema* detail_schema) {
  CompiledExpr compiled;

  // Recursive lowering returning (node id, static type).
  struct Lowerer {
    CompiledExpr* out;
    const Schema* base_schema;
    const Schema* detail_schema;

    Result<std::pair<int, ValueType>> Lower(const Expr& e) {
      switch (e.kind()) {
        case ExprKind::kColumn: {
          const auto& col = static_cast<const ColumnExpr&>(e);
          const Schema* schema =
              col.side() == Side::kBase ? base_schema : detail_schema;
          if (schema == nullptr) {
            return Status::InvalidArgument(
                std::string("no ") +
                (col.side() == Side::kBase ? "base" : "detail") +
                " schema bound for column reference " + col.ToString());
          }
          SKALLA_ASSIGN_OR_RETURN(int idx, schema->MustIndexOf(col.name()));
          Node node;
          node.kind = ExprKind::kColumn;
          node.side = col.side();
          node.col_index = idx;
          out->nodes_.push_back(std::move(node));
          return std::make_pair(static_cast<int>(out->nodes_.size()) - 1,
                                schema->field(idx).type);
        }
        case ExprKind::kLiteral: {
          const auto& lit = static_cast<const LiteralExpr&>(e);
          Node node;
          node.kind = ExprKind::kLiteral;
          node.literal = lit.value();
          out->nodes_.push_back(std::move(node));
          return std::make_pair(static_cast<int>(out->nodes_.size()) - 1,
                                lit.value().type());
        }
        case ExprKind::kUnary: {
          const auto& un = static_cast<const UnaryExpr&>(e);
          SKALLA_ASSIGN_OR_RETURN(auto operand, Lower(*un.operand()));
          if (un.op() == UnaryOp::kNeg &&
              operand.second == ValueType::kString) {
            return Status::TypeError("cannot negate a string: " +
                                     e.ToString());
          }
          Node node;
          node.kind = ExprKind::kUnary;
          node.unary_op = un.op();
          node.left = operand.first;
          out->nodes_.push_back(std::move(node));
          const ValueType type = un.op() == UnaryOp::kNeg
                                     ? operand.second
                                     : ValueType::kInt64;
          return std::make_pair(static_cast<int>(out->nodes_.size()) - 1,
                                type);
        }
        case ExprKind::kBinary: {
          const auto& bin = static_cast<const BinaryExpr&>(e);
          SKALLA_ASSIGN_OR_RETURN(auto left, Lower(*bin.left()));
          SKALLA_ASSIGN_OR_RETURN(auto right, Lower(*bin.right()));
          SKALLA_ASSIGN_OR_RETURN(
              ValueType type,
              CheckTypes(bin.op(), left.second, right.second, e));
          Node node;
          node.kind = ExprKind::kBinary;
          node.binary_op = bin.op();
          node.left = left.first;
          node.right = right.first;
          out->nodes_.push_back(std::move(node));
          return std::make_pair(static_cast<int>(out->nodes_.size()) - 1,
                                type);
        }
      }
      return Status::Internal("unreachable expr kind");
    }

    Result<ValueType> CheckTypes(BinaryOp op, ValueType l, ValueType r,
                                 const Expr& e) {
      auto numeric = [](ValueType t) {
        return t == ValueType::kInt64 || t == ValueType::kDouble ||
               t == ValueType::kNull;
      };
      if (IsArithmetic(op)) {
        if (!numeric(l) || !numeric(r)) {
          return Status::TypeError("arithmetic on non-numeric operands: " +
                                   e.ToString());
        }
        if (op == BinaryOp::kDiv) return ValueType::kDouble;
        if (op == BinaryOp::kMod) return ValueType::kInt64;
        return (l == ValueType::kDouble || r == ValueType::kDouble)
                   ? ValueType::kDouble
                   : ValueType::kInt64;
      }
      if (IsComparison(op)) {
        const bool l_str = l == ValueType::kString;
        const bool r_str = r == ValueType::kString;
        if (l_str != r_str && l != ValueType::kNull && r != ValueType::kNull) {
          return Status::TypeError("comparison of string and numeric: " +
                                   e.ToString());
        }
        return ValueType::kInt64;
      }
      // AND / OR accept anything truth-convertible.
      return ValueType::kInt64;
    }
  };

  Lowerer lowerer{&compiled, base_schema, detail_schema};
  SKALLA_ASSIGN_OR_RETURN(auto root, lowerer.Lower(*expr));
  compiled.root_ = root.first;
  compiled.result_type_ = root.second;
  return compiled;
}

Value CompiledExpr::EvalNode(int node_id, const Row* base_row,
                             const Row* detail_row) const {
  const Node& node = nodes_[static_cast<size_t>(node_id)];
  switch (node.kind) {
    case ExprKind::kColumn: {
      const Row* row = node.side == Side::kBase ? base_row : detail_row;
      SKALLA_DCHECK(row != nullptr);
      return (*row)[static_cast<size_t>(node.col_index)];
    }
    case ExprKind::kLiteral:
      return node.literal;
    case ExprKind::kUnary: {
      const Value operand = EvalNode(node.left, base_row, detail_row);
      if (node.unary_op == UnaryOp::kIsNull) {
        return Value(int64_t{operand.is_null() ? 1 : 0});
      }
      if (node.unary_op == UnaryOp::kNot) {
        const Truth t = ToTruth(operand);
        if (t == Truth::kUnknown) return Value::Null();
        return Value(int64_t{t == Truth::kTrue ? 0 : 1});
      }
      if (operand.is_null()) return Value::Null();
      if (operand.is_int64()) return Value(WrapNeg(operand.AsInt64()));
      return Value(-operand.ToDouble());
    }
    case ExprKind::kBinary: {
      if (node.binary_op == BinaryOp::kAnd) {
        const Truth l = ToTruth(EvalNode(node.left, base_row, detail_row));
        if (l == Truth::kFalse) return Value(int64_t{0});
        const Truth r = ToTruth(EvalNode(node.right, base_row, detail_row));
        if (r == Truth::kFalse) return Value(int64_t{0});
        if (l == Truth::kUnknown || r == Truth::kUnknown) return Value::Null();
        return Value(int64_t{1});
      }
      if (node.binary_op == BinaryOp::kOr) {
        const Truth l = ToTruth(EvalNode(node.left, base_row, detail_row));
        if (l == Truth::kTrue) return Value(int64_t{1});
        const Truth r = ToTruth(EvalNode(node.right, base_row, detail_row));
        if (r == Truth::kTrue) return Value(int64_t{1});
        if (l == Truth::kUnknown || r == Truth::kUnknown) return Value::Null();
        return Value(int64_t{0});
      }
      const Value l = EvalNode(node.left, base_row, detail_row);
      const Value r = EvalNode(node.right, base_row, detail_row);
      if (IsArithmetic(node.binary_op)) {
        return EvalArithmetic(node.binary_op, l, r);
      }
      return EvalComparison(node.binary_op, l, r);
    }
  }
  return Value::Null();
}

Value CompiledExpr::Eval(const Row* base_row, const Row* detail_row) const {
  return EvalNode(root_, base_row, detail_row);
}

bool CompiledExpr::EvalBool(const Row* base_row, const Row* detail_row) const {
  return ValueIsTrue(Eval(base_row, detail_row));
}

// ---------------------------------------------------------------------------
// Vectorized batch evaluation (docs/vectorized-execution.md). The batch
// path replicates EvalNode element-for-element: every kernel below mirrors
// one branch of the scalar evaluator (or of Value::Compare), and any value
// shape without a mirrored kernel clears BatchCtx::ok so the caller redoes
// the chunk through scalar EvalBool. Correctness therefore never depends
// on the batch kernels being exhaustive — only equal where they do run.
// ---------------------------------------------------------------------------

namespace {

/// Detail positions per evaluation chunk: large enough to amortize the
/// per-node interpretation overhead, small enough that one chunk's
/// per-node buffers stay cache-resident.
constexpr size_t kBatchChunk = 1024;

int64_t* AcquireI64(BatchScratch* s, size_t n) {
  if (s->i64_used == s->i64.size()) s->i64.emplace_back();
  auto& buf = s->i64[s->i64_used++];
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

double* AcquireF64(BatchScratch* s, size_t n) {
  if (s->f64_used == s->f64.size()) s->f64.emplace_back();
  auto& buf = s->f64[s->f64_used++];
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

int32_t* AcquireI32(BatchScratch* s, size_t n) {
  if (s->i32_used == s->i32.size()) s->i32.emplace_back();
  auto& buf = s->i32[s->i32_used++];
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

uint8_t* AcquireU8(BatchScratch* s, size_t n) {
  if (s->u8_used == s->u8.size()) s->u8.emplace_back();
  auto& buf = s->u8[s->u8_used++];
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// Truth byte of a comparison outcome, given sign(Compare(l, r)).
uint8_t CmpTruth(BinaryOp op, int cmp) {
  switch (op) {
    case BinaryOp::kEq:
      return cmp == 0 ? 1 : 0;
    case BinaryOp::kNe:
      return cmp != 0 ? 1 : 0;
    case BinaryOp::kLt:
      return cmp < 0 ? 1 : 0;
    case BinaryOp::kLe:
      return cmp <= 0 ? 1 : 0;
    case BinaryOp::kGt:
      return cmp > 0 ? 1 : 0;
    case BinaryOp::kGe:
      return cmp >= 0 ? 1 : 0;
    default:
      return 0;
  }
}

}  // namespace

/// One node's value over the current chunk, in whichever representation is
/// cheapest: a single constant (literals, base-side columns, folded
/// subtrees), a typed array (possibly pointing straight into the columnar
/// view — zero copies in range mode), dictionary codes for string columns,
/// or 0/1/2 truth bytes for predicates (2 = SQL unknown).
struct CompiledExpr::BatchVal {
  enum class Rep : uint8_t { kConst, kInt, kDouble, kStr, kTruth };
  Rep rep = Rep::kConst;
  Value konst;                     // kConst
  const int64_t* i = nullptr;      // kInt
  const double* d = nullptr;       // kDouble
  const int32_t* codes = nullptr;  // kStr: dictionary codes, -1 = NULL
  const ColumnarTable::Column* strcol = nullptr;  // kStr: owner of dict
  const uint8_t* nulls = nullptr;  // kInt/kDouble: 1 = NULL; nullptr = none
  const uint8_t* truth = nullptr;  // kTruth
};

struct CompiledExpr::BatchCtx {
  const Row* base_row = nullptr;
  const ColumnarTable* view = nullptr;
  const int64_t* cand = nullptr;  // candidate mode when non-null
  int64_t pos0 = 0;               // range mode: first detail position
  size_t n = 0;                   // chunk length
  BatchScratch* scratch = nullptr;
  bool ok = true;  // cleared on unsupported shapes → scalar chunk redo

  int64_t Pos(size_t k) const {
    return cand != nullptr ? cand[k] : pos0 + static_cast<int64_t>(k);
  }
};

CompiledExpr::BatchVal CompiledExpr::EvalNodeBatch(int node_id,
                                                   BatchCtx* ctx) const {
  using Rep = BatchVal::Rep;
  const Node& node = nodes_[static_cast<size_t>(node_id)];
  const size_t n = ctx->n;
  BatchScratch* sc = ctx->scratch;

  auto fail = [&]() {
    ctx->ok = false;
    return BatchVal{};
  };
  auto make_const = [](Value v) {
    BatchVal out;
    out.rep = Rep::kConst;
    out.konst = std::move(v);
    return out;
  };
  auto make_truth = [](const uint8_t* t) {
    BatchVal out;
    out.rep = Rep::kTruth;
    out.truth = t;
    return out;
  };

  // ToTruth per element, over any representation.
  auto truth_vec = [&](const BatchVal& v) -> const uint8_t* {
    if (v.rep == Rep::kTruth) return v.truth;
    uint8_t* out = AcquireU8(sc, n);
    switch (v.rep) {
      case Rep::kConst: {
        const Truth t = ToTruth(v.konst);
        std::memset(out,
                    t == Truth::kUnknown ? 2 : (t == Truth::kTrue ? 1 : 0), n);
        break;
      }
      case Rep::kInt:
        for (size_t k = 0; k < n; ++k) {
          out[k] = (v.nulls != nullptr && v.nulls[k]) ? 2
                                                      : (v.i[k] != 0 ? 1 : 0);
        }
        break;
      case Rep::kDouble:
        // NaN != 0.0 holds, so NaN is true — matching ValueIsTrue.
        for (size_t k = 0; k < n; ++k) {
          out[k] = (v.nulls != nullptr && v.nulls[k])
                       ? 2
                       : (v.d[k] != 0.0 ? 1 : 0);
        }
        break;
      case Rep::kStr:
        for (size_t k = 0; k < n; ++k) {
          out[k] = v.codes[k] < 0
                       ? 2
                       : (v.strcol->dict[static_cast<size_t>(v.codes[k])]
                                  .empty()
                              ? 0
                              : 1);
        }
        break;
      case Rep::kTruth:
        break;
    }
    return out;
  };

  // A truth vector stands for int64 0/1/NULL Values (the scalar result of
  // comparisons and logic); lower it before arithmetic or comparison use.
  auto as_numeric = [&](BatchVal v) -> BatchVal {
    if (v.rep != Rep::kTruth) return v;
    BatchVal out;
    out.rep = Rep::kInt;
    int64_t* vals = AcquireI64(sc, n);
    uint8_t* nulls = AcquireU8(sc, n);
    bool any_null = false;
    for (size_t k = 0; k < n; ++k) {
      vals[k] = v.truth[k] == 1 ? 1 : 0;
      nulls[k] = v.truth[k] == 2 ? 1 : 0;
      any_null = any_null || nulls[k] != 0;
    }
    out.i = vals;
    out.nulls = any_null ? nulls : nullptr;
    return out;
  };

  // Uniform per-element numeric accessor over kConst / kInt / kDouble.
  struct NumView {
    bool valid_shape = true;
    bool is_const = false;
    bool const_null = false;
    bool const_is_int = false;
    int64_t ci = 0;
    double cd = 0;
    const int64_t* iv = nullptr;
    const double* dv = nullptr;
    const uint8_t* nulls = nullptr;
  };
  auto num_view = [](const BatchVal& v) {
    NumView w;
    switch (v.rep) {
      case Rep::kConst:
        w.is_const = true;
        if (v.konst.is_null()) {
          w.const_null = true;
        } else if (v.konst.is_int64()) {
          w.const_is_int = true;
          w.ci = v.konst.AsInt64();
          w.cd = static_cast<double>(w.ci);
        } else if (v.konst.is_double()) {
          w.cd = v.konst.AsDouble();
        } else {
          w.valid_shape = false;  // runtime string constant
        }
        break;
      case Rep::kInt:
        w.iv = v.i;
        w.nulls = v.nulls;
        break;
      case Rep::kDouble:
        w.dv = v.d;
        w.nulls = v.nulls;
        break;
      default:
        w.valid_shape = false;
    }
    return w;
  };
  auto elem_null = [](const NumView& w, size_t k) {
    return w.is_const ? w.const_null : (w.nulls != nullptr && w.nulls[k] != 0);
  };
  // Whole-vector property: a typed int array holds int64 Values, so the
  // int-vs-double decision of EvalArithmetic / Value::Compare is uniform
  // across the chunk.
  auto view_is_int = [](const NumView& w) {
    return w.is_const ? w.const_is_int : w.iv != nullptr;
  };
  auto elem_i = [](const NumView& w, size_t k) {
    return w.is_const ? w.ci : w.iv[k];
  };
  auto elem_d = [](const NumView& w, size_t k) {
    if (w.is_const) return w.cd;
    return w.iv != nullptr ? static_cast<double>(w.iv[k]) : w.dv[k];
  };

  switch (node.kind) {
    case ExprKind::kColumn: {
      if (node.side == Side::kBase) {
        SKALLA_DCHECK(ctx->base_row != nullptr);
        return make_const(
            (*ctx->base_row)[static_cast<size_t>(node.col_index)]);
      }
      const ColumnarTable::Column& col = ctx->view->column(node.col_index);
      if (!col.usable) return fail();
      BatchVal out;
      switch (col.type) {
        case ValueType::kNull:
          // usable + declared NULL = every cell is NULL.
          return make_const(Value::Null());
        case ValueType::kInt64: {
          out.rep = Rep::kInt;
          if (ctx->cand == nullptr) {
            out.i = col.ints.data() + ctx->pos0;
          } else {
            int64_t* vals = AcquireI64(sc, n);
            for (size_t k = 0; k < n; ++k) {
              vals[k] = col.ints[static_cast<size_t>(ctx->cand[k])];
            }
            out.i = vals;
          }
          if (col.has_nulls) {
            uint8_t* nulls = AcquireU8(sc, n);
            for (size_t k = 0; k < n; ++k) {
              nulls[k] = col.IsValid(ctx->Pos(k)) ? 0 : 1;
            }
            out.nulls = nulls;
          }
          return out;
        }
        case ValueType::kDouble: {
          out.rep = Rep::kDouble;
          if (ctx->cand == nullptr) {
            out.d = col.doubles.data() + ctx->pos0;
          } else {
            double* vals = AcquireF64(sc, n);
            for (size_t k = 0; k < n; ++k) {
              vals[k] = col.doubles[static_cast<size_t>(ctx->cand[k])];
            }
            out.d = vals;
          }
          if (col.has_nulls) {
            uint8_t* nulls = AcquireU8(sc, n);
            for (size_t k = 0; k < n; ++k) {
              nulls[k] = col.IsValid(ctx->Pos(k)) ? 0 : 1;
            }
            out.nulls = nulls;
          }
          return out;
        }
        case ValueType::kString: {
          out.rep = Rep::kStr;
          out.strcol = &col;
          if (ctx->cand == nullptr) {
            out.codes = col.codes.data() + ctx->pos0;
          } else {
            int32_t* codes = AcquireI32(sc, n);
            for (size_t k = 0; k < n; ++k) {
              codes[k] = col.codes[static_cast<size_t>(ctx->cand[k])];
            }
            out.codes = codes;
          }
          return out;
        }
      }
      return fail();
    }
    case ExprKind::kLiteral:
      return make_const(node.literal);
    case ExprKind::kUnary: {
      BatchVal a = EvalNodeBatch(node.left, ctx);
      if (!ctx->ok) return BatchVal{};
      if (node.unary_op == UnaryOp::kIsNull) {
        if (a.rep == Rep::kConst) {
          return make_const(Value(int64_t{a.konst.is_null() ? 1 : 0}));
        }
        uint8_t* out_t = AcquireU8(sc, n);
        switch (a.rep) {
          case Rep::kInt:
          case Rep::kDouble:
            for (size_t k = 0; k < n; ++k) {
              out_t[k] = (a.nulls != nullptr && a.nulls[k]) ? 1 : 0;
            }
            break;
          case Rep::kStr:
            for (size_t k = 0; k < n; ++k) out_t[k] = a.codes[k] < 0 ? 1 : 0;
            break;
          case Rep::kTruth:
            for (size_t k = 0; k < n; ++k) out_t[k] = a.truth[k] == 2 ? 1 : 0;
            break;
          case Rep::kConst:
            break;
        }
        return make_truth(out_t);
      }
      if (node.unary_op == UnaryOp::kNot) {
        if (a.rep == Rep::kConst) {
          const Truth t = ToTruth(a.konst);
          if (t == Truth::kUnknown) return make_const(Value::Null());
          return make_const(Value(int64_t{t == Truth::kTrue ? 0 : 1}));
        }
        const uint8_t* t = truth_vec(a);
        uint8_t* out_t = AcquireU8(sc, n);
        for (size_t k = 0; k < n; ++k) {
          out_t[k] = t[k] == 2 ? 2 : (t[k] == 1 ? 0 : 1);
        }
        return make_truth(out_t);
      }
      // kNeg.
      a = as_numeric(a);
      if (a.rep == Rep::kConst) {
        const Value& v = a.konst;
        if (v.is_null()) return make_const(Value::Null());
        if (v.is_int64()) return make_const(Value(WrapNeg(v.AsInt64())));
        if (v.is_double()) return make_const(Value(-v.AsDouble()));
        return fail();  // runtime string: let the scalar path handle it
      }
      if (a.rep == Rep::kInt) {
        int64_t* vals = AcquireI64(sc, n);
        for (size_t k = 0; k < n; ++k) vals[k] = WrapNeg(a.i[k]);
        BatchVal out;
        out.rep = Rep::kInt;
        out.i = vals;
        out.nulls = a.nulls;
        return out;
      }
      if (a.rep == Rep::kDouble) {
        double* vals = AcquireF64(sc, n);
        for (size_t k = 0; k < n; ++k) vals[k] = -a.d[k];
        BatchVal out;
        out.rep = Rep::kDouble;
        out.d = vals;
        out.nulls = a.nulls;
        return out;
      }
      return fail();
    }
    case ExprKind::kBinary: {
      const BinaryOp op = node.binary_op;
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        BatchVal l = EvalNodeBatch(node.left, ctx);
        if (!ctx->ok) return BatchVal{};
        BatchVal r = EvalNodeBatch(node.right, ctx);
        if (!ctx->ok) return BatchVal{};
        // Expressions have no side effects, so evaluating both sides and
        // combining with Kleene tables is element-wise identical to the
        // short-circuiting scalar evaluator.
        if (l.rep == Rep::kConst && r.rep == Rep::kConst) {
          const Truth lt = ToTruth(l.konst);
          const Truth rt = ToTruth(r.konst);
          Truth t;
          if (op == BinaryOp::kAnd) {
            t = (lt == Truth::kFalse || rt == Truth::kFalse) ? Truth::kFalse
                : (lt == Truth::kUnknown || rt == Truth::kUnknown)
                    ? Truth::kUnknown
                    : Truth::kTrue;
          } else {
            t = (lt == Truth::kTrue || rt == Truth::kTrue) ? Truth::kTrue
                : (lt == Truth::kUnknown || rt == Truth::kUnknown)
                    ? Truth::kUnknown
                    : Truth::kFalse;
          }
          return make_const(FromTruth(t));
        }
        const uint8_t* lt = truth_vec(l);
        const uint8_t* rt = truth_vec(r);
        uint8_t* out_t = AcquireU8(sc, n);
        // 3x3 Kleene tables over {0 false, 1 true, 2 unknown}, indexed
        // lt*3+rt. A table load is branchless; the naive ternary chain
        // mispredicts heavily when the scan sits near 50% selectivity.
        static constexpr uint8_t kAnd3[9] = {0, 0, 0, 0, 1, 2, 0, 2, 2};
        static constexpr uint8_t kOr3[9] = {0, 1, 2, 1, 1, 1, 2, 1, 2};
        const uint8_t* lut3 = op == BinaryOp::kAnd ? kAnd3 : kOr3;
        for (size_t k = 0; k < n; ++k) {
          out_t[k] = lut3[lt[k] * 3 + rt[k]];
        }
        return make_truth(out_t);
      }
      BatchVal l = as_numeric(EvalNodeBatch(node.left, ctx));
      if (!ctx->ok) return BatchVal{};
      BatchVal r = as_numeric(EvalNodeBatch(node.right, ctx));
      if (!ctx->ok) return BatchVal{};
      if (l.rep == Rep::kConst && r.rep == Rep::kConst) {
        return make_const(IsArithmetic(op)
                              ? EvalArithmetic(op, l.konst, r.konst)
                              : EvalComparison(op, l.konst, r.konst));
      }
      if (IsComparison(op)) {
        const bool l_str = l.rep == Rep::kStr;
        const bool r_str = r.rep == Rep::kStr;
        if (l_str || r_str) {
          if (l_str && r_str) return fail();  // two dictionaries: no order
          const BatchVal& sv = l_str ? l : r;
          const BatchVal& cv = l_str ? r : l;
          if (cv.rep != Rep::kConst) return fail();
          const Value& c = cv.konst;
          uint8_t* out_t = AcquireU8(sc, n);
          if (c.is_null()) {
            std::memset(out_t, 2, n);
          } else if (c.is_string()) {
            if (op == BinaryOp::kEq || op == BinaryOp::kNe) {
              // Dictionary equality: one code compare per element.
              const int32_t code = sv.strcol->CodeOf(c.AsString());
              const uint8_t eq = op == BinaryOp::kEq ? 1 : 0;
              for (size_t k = 0; k < n; ++k) {
                out_t[k] = sv.codes[k] < 0
                               ? 2
                               : (sv.codes[k] == code
                                      ? eq
                                      : static_cast<uint8_t>(1 - eq));
              }
            } else {
              // Ordering against a string constant via the per-dictionary
              // order index: column < constant ⟺ order_rank[code] < lb
              // where lb = LowerBoundRank(constant); equality holds iff
              // the constant is present and the rank equals lb. One
              // integer compare per element replaces the lexicographic
              // string compare, with identical outcomes.
              const std::string_view s = c.AsString();
              const int32_t lb = sv.strcol->LowerBoundRank(s);
              const bool present = sv.strcol->CodeOf(s) >= 0;
              const int32_t* rank = sv.strcol->order_rank.data();
              // lut[cmp+1] with cmp = Value::Compare(column, constant);
              // the sign flips when the column is the right operand.
              const uint8_t lut[3] = {CmpTruth(op, l_str ? -1 : 1),
                                      CmpTruth(op, 0),
                                      CmpTruth(op, l_str ? 1 : -1)};
              for (size_t k = 0; k < n; ++k) {
                const int32_t code = sv.codes[k];
                if (code < 0) {
                  out_t[k] = 2;
                  continue;
                }
                const int32_t rk = rank[code];
                const int cmp =
                    rk < lb ? -1 : (present && rk == lb ? 0 : 1);
                out_t[k] = lut[cmp + 1];
              }
            }
          } else {
            // Value::Compare orders every numeric before every string, so
            // the comparison outcome is a per-call constant.
            const uint8_t t = CmpTruth(op, l_str ? 1 : -1);
            for (size_t k = 0; k < n; ++k) {
              out_t[k] = sv.codes[k] < 0 ? 2 : t;
            }
          }
          return make_truth(out_t);
        }
        const NumView lv = num_view(l);
        const NumView rv = num_view(r);
        if (!lv.valid_shape || !rv.valid_shape) return fail();
        uint8_t* out_t = AcquireU8(sc, n);
        const uint8_t lut[3] = {CmpTruth(op, -1), CmpTruth(op, 0),
                                CmpTruth(op, 1)};
        // Hot path of equi-key residuals and range θs: a NULL-free int64
        // column against a non-NULL int64 constant.
        if (l.rep == Rep::kInt && l.nulls == nullptr && rv.is_const &&
            !rv.const_null && rv.const_is_int) {
          const int64_t c = rv.ci;
          const int64_t* a = l.i;
          for (size_t k = 0; k < n; ++k) {
            out_t[k] = lut[a[k] < c ? 0 : (a[k] > c ? 2 : 1)];
          }
        } else if (r.rep == Rep::kInt && r.nulls == nullptr && lv.is_const &&
                   !lv.const_null && lv.const_is_int) {
          const int64_t c = lv.ci;
          const int64_t* b = r.i;
          for (size_t k = 0; k < n; ++k) {
            out_t[k] = lut[c < b[k] ? 0 : (c > b[k] ? 2 : 1)];
          }
        } else {
          const bool int_cmp = view_is_int(lv) && view_is_int(rv);
          for (size_t k = 0; k < n; ++k) {
            if (elem_null(lv, k) || elem_null(rv, k)) {
              out_t[k] = 2;
              continue;
            }
            int cmp;
            if (int_cmp) {
              const int64_t a = elem_i(lv, k);
              const int64_t b = elem_i(rv, k);
              cmp = a < b ? -1 : (a > b ? 1 : 0);
            } else {
              // Value::Compare's double rule: NaN on either side compares
              // "equal" (both < and > are false).
              const double a = elem_d(lv, k);
              const double b = elem_d(rv, k);
              cmp = a < b ? -1 : (a > b ? 1 : 0);
            }
            out_t[k] = lut[cmp + 1];
          }
        }
        return make_truth(out_t);
      }
      // Arithmetic.
      const NumView lv = num_view(l);
      const NumView rv = num_view(r);
      if (!lv.valid_shape || !rv.valid_shape) return fail();
      if ((lv.is_const && lv.const_null) || (rv.is_const && rv.const_null)) {
        return make_const(Value::Null());
      }
      if (op == BinaryOp::kDiv) {
        double* vals = AcquireF64(sc, n);
        uint8_t* nulls = AcquireU8(sc, n);
        bool any_null = false;
        for (size_t k = 0; k < n; ++k) {
          if (elem_null(lv, k) || elem_null(rv, k)) {
            nulls[k] = 1;
            vals[k] = 0;
            any_null = true;
            continue;
          }
          const double denom = elem_d(rv, k);
          if (denom == 0.0) {
            nulls[k] = 1;
            vals[k] = 0;
            any_null = true;
            continue;
          }
          nulls[k] = 0;
          vals[k] = elem_d(lv, k) / denom;
        }
        BatchVal out;
        out.rep = Rep::kDouble;
        out.d = vals;
        out.nulls = any_null ? nulls : nullptr;
        return out;
      }
      if (op == BinaryOp::kMod) {
        // A double operand makes every element non-int64 → NULL, exactly
        // as EvalArithmetic's kMod guard.
        if (!view_is_int(lv) || !view_is_int(rv)) {
          return make_const(Value::Null());
        }
        int64_t* vals = AcquireI64(sc, n);
        uint8_t* nulls = AcquireU8(sc, n);
        bool any_null = false;
        for (size_t k = 0; k < n; ++k) {
          if (elem_null(lv, k) || elem_null(rv, k) || elem_i(rv, k) == 0) {
            nulls[k] = 1;
            vals[k] = 0;
            any_null = true;
            continue;
          }
          nulls[k] = 0;
          vals[k] = WrapMod(elem_i(lv, k), elem_i(rv, k));
        }
        BatchVal out;
        out.rep = Rep::kInt;
        out.i = vals;
        out.nulls = any_null ? nulls : nullptr;
        return out;
      }
      // kAdd / kSub / kMul.
      uint8_t* nulls = AcquireU8(sc, n);
      bool any_null = false;
      if (view_is_int(lv) && view_is_int(rv)) {
        int64_t* vals = AcquireI64(sc, n);
        for (size_t k = 0; k < n; ++k) {
          if (elem_null(lv, k) || elem_null(rv, k)) {
            nulls[k] = 1;
            vals[k] = 0;
            any_null = true;
            continue;
          }
          nulls[k] = 0;
          const int64_t a = elem_i(lv, k);
          const int64_t b = elem_i(rv, k);
          vals[k] = op == BinaryOp::kAdd   ? WrapAdd(a, b)
                    : op == BinaryOp::kSub ? WrapSub(a, b)
                                           : WrapMul(a, b);
        }
        BatchVal out;
        out.rep = Rep::kInt;
        out.i = vals;
        out.nulls = any_null ? nulls : nullptr;
        return out;
      }
      double* vals = AcquireF64(sc, n);
      for (size_t k = 0; k < n; ++k) {
        if (elem_null(lv, k) || elem_null(rv, k)) {
          nulls[k] = 1;
          vals[k] = 0;
          any_null = true;
          continue;
        }
        nulls[k] = 0;
        const double a = elem_d(lv, k);
        const double b = elem_d(rv, k);
        vals[k] = op == BinaryOp::kAdd ? a + b
                  : op == BinaryOp::kSub ? a - b
                                         : a * b;
      }
      BatchVal out;
      out.rep = Rep::kDouble;
      out.d = vals;
      out.nulls = any_null ? nulls : nullptr;
      return out;
    }
  }
  return fail();
}

bool CompiledExpr::SupportsBatchEval(const ColumnarTable& detail) const {
  // Abstract value shape per node; nodes_ is in child-before-parent order.
  enum class K : uint8_t { kNum, kStr, kConst, kBad };
  std::vector<K> kinds(nodes_.size(), K::kBad);
  for (size_t id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    switch (node.kind) {
      case ExprKind::kColumn:
        if (node.side == Side::kBase) {
          kinds[id] = K::kConst;
        } else {
          const ColumnarTable::Column& col = detail.column(node.col_index);
          if (!col.usable) {
            kinds[id] = K::kBad;
          } else if (col.type == ValueType::kString) {
            kinds[id] = K::kStr;
          } else {
            // Declared-NULL columns fold to a constant.
            kinds[id] = col.type == ValueType::kNull ? K::kConst : K::kNum;
          }
        }
        break;
      case ExprKind::kLiteral:
        kinds[id] = K::kConst;
        break;
      case ExprKind::kUnary: {
        const K a = kinds[static_cast<size_t>(node.left)];
        if (a == K::kBad ||
            (node.unary_op == UnaryOp::kNeg && a == K::kStr)) {
          kinds[id] = K::kBad;
        } else {
          kinds[id] = a == K::kConst ? K::kConst : K::kNum;
        }
        break;
      }
      case ExprKind::kBinary: {
        const K a = kinds[static_cast<size_t>(node.left)];
        const K b = kinds[static_cast<size_t>(node.right)];
        if (a == K::kBad || b == K::kBad) {
          kinds[id] = K::kBad;
          break;
        }
        const BinaryOp op = node.binary_op;
        if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
          kinds[id] = (a == K::kConst && b == K::kConst) ? K::kConst : K::kNum;
        } else if (IsComparison(op)) {
          if (a == K::kStr || b == K::kStr) {
            // String column vs constant only: Eq/Ne via dictionary codes,
            // ordering via the per-dictionary order index
            // (ColumnarTable::Column::order_rank), numeric constants via
            // the fixed numeric<string order. Two string columns (two
            // dictionaries) stay scalar: their codes admit no shared
            // order. A base-column constant's runtime value is unknowable
            // statically, so it stays supported here and a runtime string
            // whose op the batch kernel cannot handle redoes chunks
            // through the scalar path.
            const K other = a == K::kStr ? b : a;
            kinds[id] = (a != b && other == K::kConst) ? K::kNum : K::kBad;
          } else {
            kinds[id] =
                (a == K::kConst && b == K::kConst) ? K::kConst : K::kNum;
          }
        } else {  // arithmetic
          kinds[id] = (a == K::kStr || b == K::kStr)   ? K::kBad
                      : (a == K::kConst && b == K::kConst) ? K::kConst
                                                           : K::kNum;
        }
        break;
      }
    }
  }
  return root_ >= 0 && kinds[static_cast<size_t>(root_)] != K::kBad;
}

void CompiledExpr::EvalBoolBatchChunked(
    const Row* base_row, const Table& detail, const ColumnarTable& view,
    const int64_t* cand, int64_t pos0, size_t total, BatchScratch* scratch,
    std::vector<int64_t>* sel) const {
  for (size_t off = 0; off < total; off += kBatchChunk) {
    const size_t len = std::min(kBatchChunk, total - off);
    BatchCtx ctx;
    ctx.base_row = base_row;
    ctx.view = &view;
    ctx.cand = cand != nullptr ? cand + off : nullptr;
    ctx.pos0 = pos0 + static_cast<int64_t>(off);
    ctx.n = len;
    ctx.scratch = scratch;
    scratch->i64_used = 0;
    scratch->f64_used = 0;
    scratch->i32_used = 0;
    scratch->u8_used = 0;
    const BatchVal root = EvalNodeBatch(root_, &ctx);
    auto pos_at = [&](size_t k) {
      return cand != nullptr ? cand[off + k]
                             : pos0 + static_cast<int64_t>(off + k);
    };
    if (!ctx.ok) {
      // Unsupported runtime shape: redo the chunk through the scalar
      // evaluator, which is the ground truth the kernels replicate.
      ++scratch->fallback_chunks;
      for (size_t k = 0; k < len; ++k) {
        const int64_t pos = pos_at(k);
        if (EvalBool(base_row, &detail.row(pos))) sel->push_back(pos);
      }
      continue;
    }
    switch (root.rep) {
      case BatchVal::Rep::kConst:
        if (ValueIsTrue(root.konst)) {
          for (size_t k = 0; k < len; ++k) sel->push_back(pos_at(k));
        }
        break;
      case BatchVal::Rep::kTruth: {
        // Compacting store with an unconditional write and a data-dependent
        // cursor bump: near 50% selectivity a branchy push_back mispredicts
        // on every other row, which dominates the whole batch walk.
        const size_t m = sel->size();
        sel->resize(m + len);
        int64_t* out = sel->data() + m;
        size_t cnt = 0;
        if (cand != nullptr) {
          for (size_t k = 0; k < len; ++k) {
            out[cnt] = cand[off + k];
            cnt += root.truth[k] == 1;
          }
        } else {
          const int64_t first = pos0 + static_cast<int64_t>(off);
          for (size_t k = 0; k < len; ++k) {
            out[cnt] = first + static_cast<int64_t>(k);
            cnt += root.truth[k] == 1;
          }
        }
        sel->resize(m + cnt);
        break;
      }
      case BatchVal::Rep::kInt:
        for (size_t k = 0; k < len; ++k) {
          if ((root.nulls == nullptr || !root.nulls[k]) && root.i[k] != 0) {
            sel->push_back(pos_at(k));
          }
        }
        break;
      case BatchVal::Rep::kDouble:
        for (size_t k = 0; k < len; ++k) {
          if ((root.nulls == nullptr || !root.nulls[k]) &&
              root.d[k] != 0.0) {
            sel->push_back(pos_at(k));
          }
        }
        break;
      case BatchVal::Rep::kStr:
        for (size_t k = 0; k < len; ++k) {
          if (root.codes[k] >= 0 &&
              !root.strcol->dict[static_cast<size_t>(root.codes[k])]
                   .empty()) {
            sel->push_back(pos_at(k));
          }
        }
        break;
    }
  }
}

void CompiledExpr::EvalBoolBatch(const Row* base_row, const Table& detail,
                                 const ColumnarTable& view, int64_t lo,
                                 int64_t hi, BatchScratch* scratch,
                                 std::vector<int64_t>* sel) const {
  if (hi <= lo) return;
  EvalBoolBatchChunked(base_row, detail, view, nullptr, lo,
                       static_cast<size_t>(hi - lo), scratch, sel);
}

void CompiledExpr::EvalBoolBatch(const Row* base_row, const Table& detail,
                                 const ColumnarTable& view,
                                 const int64_t* candidates, size_t n,
                                 BatchScratch* scratch,
                                 std::vector<int64_t>* sel) const {
  if (n == 0) return;
  EvalBoolBatchChunked(base_row, detail, view, candidates, 0, n, scratch,
                       sel);
}

}  // namespace skalla
