#include "expr/expr.h"

namespace skalla {

const char* SideToString(Side side) {
  return side == Side::kBase ? "B" : "R";
}

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "&&";
    case BinaryOp::kOr:
      return "||";
  }
  return "?";
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsArithmetic(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return true;
    default:
      return false;
  }
}

std::string ColumnExpr::ToString() const {
  return std::string(SideToString(side_)) + "." + name_;
}

bool ColumnExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kColumn) return false;
  const auto& o = static_cast<const ColumnExpr&>(other);
  return side_ == o.side_ && name_ == o.name_;
}

std::string LiteralExpr::ToString() const {
  if (value_.is_string()) {
    std::string quoted = "'";
    quoted += value_.AsString();
    quoted += '\'';
    return quoted;
  }
  return value_.ToString();
}

bool LiteralExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kLiteral) return false;
  const auto& o = static_cast<const LiteralExpr&>(other);
  if (value_.is_null() || o.value_.is_null()) {
    return value_.is_null() && o.value_.is_null();
  }
  return value_ == o.value_;
}

std::string UnaryExpr::ToString() const {
  if (op_ == UnaryOp::kIsNull) {
    return "(" + operand_->ToString() + " IS NULL)";
  }
  const char* op = op_ == UnaryOp::kNeg ? "-" : "!";
  return std::string(op) + "(" + operand_->ToString() + ")";
}

bool UnaryExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kUnary) return false;
  const auto& o = static_cast<const UnaryExpr&>(other);
  return op_ == o.op_ && operand_->Equals(*o.operand_);
}

std::string BinaryExpr::ToString() const {
  return "(" + left_->ToString() + " " + BinaryOpToString(op_) + " " +
         right_->ToString() + ")";
}

bool BinaryExpr::Equals(const Expr& other) const {
  if (other.kind() != ExprKind::kBinary) return false;
  const auto& o = static_cast<const BinaryExpr&>(other);
  return op_ == o.op_ && left_->Equals(*o.left_) && right_->Equals(*o.right_);
}

ExprPtr BCol(std::string name) {
  return std::make_shared<ColumnExpr>(Side::kBase, std::move(name));
}

ExprPtr RCol(std::string name) {
  return std::make_shared<ColumnExpr>(Side::kDetail, std::move(name));
}

ExprPtr Col(Side side, std::string name) {
  return std::make_shared<ColumnExpr>(side, std::move(name));
}

ExprPtr Lit(Value value) {
  return std::make_shared<LiteralExpr>(std::move(value));
}

ExprPtr Neg(ExprPtr operand) {
  return std::make_shared<UnaryExpr>(UnaryOp::kNeg, std::move(operand));
}

ExprPtr Not(ExprPtr operand) {
  return std::make_shared<UnaryExpr>(UnaryOp::kNot, std::move(operand));
}

ExprPtr IsNull(ExprPtr operand) {
  return std::make_shared<UnaryExpr>(UnaryOp::kIsNull, std::move(operand));
}

namespace {
ExprPtr MakeBinary(BinaryOp op, ExprPtr l, ExprPtr r) {
  return std::make_shared<BinaryExpr>(op, std::move(l), std::move(r));
}
}  // namespace

ExprPtr Add(ExprPtr l, ExprPtr r) {
  return MakeBinary(BinaryOp::kAdd, std::move(l), std::move(r));
}
ExprPtr Sub(ExprPtr l, ExprPtr r) {
  return MakeBinary(BinaryOp::kSub, std::move(l), std::move(r));
}
ExprPtr Mul(ExprPtr l, ExprPtr r) {
  return MakeBinary(BinaryOp::kMul, std::move(l), std::move(r));
}
ExprPtr Div(ExprPtr l, ExprPtr r) {
  return MakeBinary(BinaryOp::kDiv, std::move(l), std::move(r));
}
ExprPtr Mod(ExprPtr l, ExprPtr r) {
  return MakeBinary(BinaryOp::kMod, std::move(l), std::move(r));
}
ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return MakeBinary(BinaryOp::kEq, std::move(l), std::move(r));
}
ExprPtr Ne(ExprPtr l, ExprPtr r) {
  return MakeBinary(BinaryOp::kNe, std::move(l), std::move(r));
}
ExprPtr Lt(ExprPtr l, ExprPtr r) {
  return MakeBinary(BinaryOp::kLt, std::move(l), std::move(r));
}
ExprPtr Le(ExprPtr l, ExprPtr r) {
  return MakeBinary(BinaryOp::kLe, std::move(l), std::move(r));
}
ExprPtr Gt(ExprPtr l, ExprPtr r) {
  return MakeBinary(BinaryOp::kGt, std::move(l), std::move(r));
}
ExprPtr Ge(ExprPtr l, ExprPtr r) {
  return MakeBinary(BinaryOp::kGe, std::move(l), std::move(r));
}
ExprPtr And(ExprPtr l, ExprPtr r) {
  return MakeBinary(BinaryOp::kAnd, std::move(l), std::move(r));
}
ExprPtr Or(ExprPtr l, ExprPtr r) {
  return MakeBinary(BinaryOp::kOr, std::move(l), std::move(r));
}

ExprPtr True() { return Lit(Value(int64_t{1})); }
ExprPtr False() { return Lit(Value(int64_t{0})); }

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return True();
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = And(acc, conjuncts[i]);
  }
  return acc;
}

ExprPtr OrAll(const std::vector<ExprPtr>& disjuncts) {
  if (disjuncts.empty()) return False();
  ExprPtr acc = disjuncts[0];
  for (size_t i = 1; i < disjuncts.size(); ++i) {
    acc = Or(acc, disjuncts[i]);
  }
  return acc;
}

}  // namespace skalla
