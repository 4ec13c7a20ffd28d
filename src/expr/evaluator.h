#ifndef SKALLA_EXPR_EVALUATOR_H_
#define SKALLA_EXPR_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "storage/row.h"
#include "storage/schema.h"

namespace skalla {

class ColumnarTable;
class Table;

/// \brief Reusable buffers for CompiledExpr::EvalBoolBatch.
///
/// One scratch per scan lane (they are not thread-safe); the batch
/// evaluator acquires per-node chunk buffers from these pools and reuses
/// them across chunks, base rows, and calls, so the steady state performs
/// no allocation. Treat the members as opaque.
struct BatchScratch {
  std::vector<std::vector<int64_t>> i64;
  std::vector<std::vector<double>> f64;
  std::vector<std::vector<int32_t>> i32;
  std::vector<std::vector<uint8_t>> u8;
  size_t i64_used = 0;
  size_t f64_used = 0;
  size_t i32_used = 0;
  size_t u8_used = 0;
  /// Chunks redone through scalar EvalBool because a runtime value shape
  /// was not mirrored by the batch kernels. Monotonic across calls; callers
  /// that want per-scan numbers snapshot-diff it.
  int64_t fallback_chunks = 0;
};

/// \brief An expression compiled against concrete schemas.
///
/// Compilation resolves every column reference to a (side, index) pair and
/// type-checks the tree, so that evaluation in the GMDJ inner loop does no
/// name lookups and cannot fail. SQL NULL semantics:
///  - arithmetic with a NULL operand yields NULL;
///  - comparisons with a NULL operand yield NULL;
///  - AND/OR use Kleene three-valued logic;
///  - EvalBool maps NULL to false (a θ condition with unknown truth does not
///    select the detail tuple).
class CompiledExpr {
 public:
  /// Compiles `expr` against the two schemas. `base_schema` may be null for
  /// single-relation expressions (any kBase reference then fails to compile).
  static Result<CompiledExpr> Compile(const ExprPtr& expr,
                                      const Schema* base_schema,
                                      const Schema* detail_schema);

  CompiledExpr(CompiledExpr&&) noexcept = default;
  CompiledExpr& operator=(CompiledExpr&&) noexcept = default;
  CompiledExpr(const CompiledExpr&) = default;
  CompiledExpr& operator=(const CompiledExpr&) = default;

  /// Evaluates against a pair of rows; a null row pointer is only legal if
  /// the expression has no reference to that side.
  Value Eval(const Row* base_row, const Row* detail_row) const;

  /// Evaluates as a predicate: NULL and non-true become false.
  bool EvalBool(const Row* base_row, const Row* detail_row) const;

  /// True iff EvalBoolBatch can evaluate this expression against the given
  /// columnar detail view: every referenced detail column must be usable
  /// (type-conformant, see ColumnarTable::Column::usable), and detail
  /// string columns may only feed =/!= against a non-string-column operand,
  /// IS NULL, and truth conversion. Shape-independent of the base row.
  bool SupportsBatchEval(const ColumnarTable& detail) const;

  /// \brief Batch EvalBool over detail positions [lo, hi) against one
  /// fixed base row.
  ///
  /// Appends, in ascending position order, every position p in [lo, hi)
  /// with EvalBool(base_row, &detail.row(p)) true to *sel. Bit-exact with
  /// the scalar path by construction: unsupported runtime value shapes make
  /// the evaluator redo the affected chunk through scalar EvalBool. Call
  /// only after SupportsBatchEval(view); `detail` must be the table `view`
  /// was built from.
  void EvalBoolBatch(const Row* base_row, const Table& detail,
                     const ColumnarTable& view, int64_t lo, int64_t hi,
                     BatchScratch* scratch, std::vector<int64_t>* sel) const;

  /// Batch EvalBool over an explicit candidate list (the hash path's
  /// probed detail rows of one base row): selected candidates[k] are
  /// appended in ascending k — candidate order, which is the scalar path's
  /// visit order.
  void EvalBoolBatch(const Row* base_row, const Table& detail,
                     const ColumnarTable& view, const int64_t* candidates,
                     size_t n, BatchScratch* scratch,
                     std::vector<int64_t>* sel) const;

  /// Static type of the expression result (NULLs aside).
  ValueType result_type() const { return result_type_; }

 private:
  struct Node {
    ExprKind kind;
    /// kColumn:
    Side side = Side::kDetail;
    int col_index = -1;
    /// kLiteral:
    Value literal;
    /// kUnary / kBinary:
    UnaryOp unary_op = UnaryOp::kNeg;
    BinaryOp binary_op = BinaryOp::kAdd;
    int left = -1;   // node ids
    int right = -1;
  };

  CompiledExpr() = default;

  Value EvalNode(int node, const Row* base_row, const Row* detail_row) const;

  struct BatchVal;
  struct BatchCtx;
  BatchVal EvalNodeBatch(int node_id, BatchCtx* ctx) const;
  void EvalBoolBatchChunked(const Row* base_row, const Table& detail,
                            const ColumnarTable& view, const int64_t* cand,
                            int64_t pos0, size_t total, BatchScratch* scratch,
                            std::vector<int64_t>* sel) const;

  std::vector<Node> nodes_;
  int root_ = -1;
  ValueType result_type_ = ValueType::kNull;
};

/// Convenience: true iff the value is non-NULL and numerically non-zero
/// (or a non-empty string).
bool ValueIsTrue(const Value& v);

}  // namespace skalla

#endif  // SKALLA_EXPR_EVALUATOR_H_
