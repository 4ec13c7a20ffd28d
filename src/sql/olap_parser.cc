#include "sql/olap_parser.h"

#include <cctype>
#include <set>

#include "common/string_util.h"
#include "expr/analyzer.h"
#include "expr/parser.h"

namespace skalla {

namespace {

enum class TokKind { kWord, kPunct, kNumber, kString, kEnd };

struct Tok {
  TokKind kind = TokKind::kEnd;
  std::string text;   // upper-cased for kWord comparisons
  std::string raw;    // original spelling
  size_t begin = 0;
  size_t end = 0;
};

/// A light tokenizer that only needs to recognize clause structure; the
/// expression fragments between clauses are re-parsed by expr/parser.h.
Result<std::vector<Tok>> Tokenize(std::string_view text) {
  std::vector<Tok> tokens;
  size_t pos = 0;
  while (pos < text.size()) {
    const char c = text[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
      continue;
    }
    Tok tok;
    tok.begin = pos;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      while (pos < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[pos])) ||
              text[pos] == '_')) {
        ++pos;
      }
      tok.kind = TokKind::kWord;
      tok.raw = std::string(text.substr(tok.begin, pos - tok.begin));
      tok.text = tok.raw;
      for (char& ch : tok.text) {
        ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
      }
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      while (pos < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[pos])) ||
              text[pos] == '.')) {
        ++pos;
      }
      tok.kind = TokKind::kNumber;
      tok.raw = std::string(text.substr(tok.begin, pos - tok.begin));
    } else if (c == '\'') {
      ++pos;
      while (pos < text.size()) {
        if (text[pos] == '\'') {
          if (pos + 1 < text.size() && text[pos + 1] == '\'') {
            pos += 2;
            continue;
          }
          ++pos;
          break;
        }
        ++pos;
      }
      if (pos > text.size() ||
          (pos <= text.size() && text[pos - 1] != '\'')) {
        return Status::InvalidArgument("unterminated string literal");
      }
      tok.kind = TokKind::kString;
      tok.raw = std::string(text.substr(tok.begin, pos - tok.begin));
    } else {
      // Multi-character comparison operators stay one token so that the
      // expression slicing below never splits them.
      static constexpr std::string_view kTwoChar[] = {"==", "!=", "<>",
                                                      "<=", ">=", "&&",
                                                      "||"};
      tok.kind = TokKind::kPunct;
      tok.raw = std::string(1, c);
      if (pos + 1 < text.size()) {
        const std::string_view two = text.substr(pos, 2);
        for (std::string_view op : kTwoChar) {
          if (two == op) {
            tok.raw = std::string(op);
            break;
          }
        }
      }
      pos += tok.raw.size();
      tok.text = tok.raw;
    }
    tok.end = pos;
    tokens.push_back(std::move(tok));
  }
  Tok end_tok;
  end_tok.begin = end_tok.end = text.size();
  tokens.push_back(end_tok);
  return tokens;
}

class QueryParser {
 public:
  QueryParser(std::string_view text, std::vector<Tok> tokens)
      : text_(text), tokens_(std::move(tokens)) {}

  Result<GmdjExpr> Parse() {
    GmdjExpr expr;
    SKALLA_RETURN_NOT_OK(Expect("SELECT"));

    std::vector<std::string> select_cols;
    std::vector<AggSpec> select_aggs;
    SKALLA_RETURN_NOT_OK(ParseItems(&select_cols, &select_aggs));

    SKALLA_RETURN_NOT_OK(Expect("FROM"));
    if (Peek().kind != TokKind::kWord) {
      return Status::InvalidArgument("expected relation name after FROM");
    }
    expr.base.source_table = Advance().raw;

    if (PeekIs("WHERE")) {
      Advance();
      SKALLA_ASSIGN_OR_RETURN(std::string_view span,
                              SliceUntil({"GROUP"}));
      ParserOptions options;
      options.default_side = Side::kDetail;
      SKALLA_ASSIGN_OR_RETURN(expr.base.filter, ParseExpr(span, options));
    }

    SKALLA_RETURN_NOT_OK(Expect("GROUP"));
    SKALLA_RETURN_NOT_OK(Expect("BY"));
    while (true) {
      if (Peek().kind != TokKind::kWord) {
        return Status::InvalidArgument("expected column name in GROUP BY");
      }
      expr.base.project_cols.push_back(Advance().raw);
      if (PeekIsPunct(",")) {
        Advance();
        continue;
      }
      break;
    }

    // Every bare SELECT item must be a grouping column.
    for (const std::string& col : select_cols) {
      bool found = false;
      for (const std::string& g : expr.base.project_cols) {
        if (g == col) found = true;
      }
      if (!found) {
        return Status::InvalidArgument(
            "selected column '" + col + "' is not in GROUP BY");
      }
    }
    if (select_aggs.empty()) {
      return Status::InvalidArgument(
          "query computes no aggregates (nothing for GMDJ to do)");
    }

    // Names visible on the base side in later conditions.
    std::set<std::string> base_names(expr.base.project_cols.begin(),
                                     expr.base.project_cols.end());

    // Key-equality condition shared by every operator.
    std::vector<ExprPtr> key_eqs;
    for (const std::string& col : expr.base.project_cols) {
      key_eqs.push_back(Eq(BCol(col), RCol(col)));
    }

    GmdjOp first;
    first.detail_table = expr.base.source_table;
    first.blocks.push_back(GmdjBlock{select_aggs, AndAll(key_eqs)});
    for (const AggSpec& spec : select_aggs) base_names.insert(spec.output);
    expr.ops.push_back(std::move(first));

    while (PeekIs("EXTEND")) {
      Advance();
      std::vector<std::string> cols;
      std::vector<AggSpec> aggs;
      SKALLA_RETURN_NOT_OK(ParseItems(&cols, &aggs));
      if (!cols.empty()) {
        return Status::InvalidArgument(
            "EXTEND items must all be aggregates");
      }
      if (aggs.empty()) {
        return Status::InvalidArgument("EXTEND clause has no aggregates");
      }
      ExprPtr theta = AndAll(key_eqs);
      if (PeekIs("WHERE")) {
        Advance();
        SKALLA_ASSIGN_OR_RETURN(std::string_view span,
                                SliceUntil({"EXTEND", "HAVING"}));
        ParserOptions options;
        options.default_side = Side::kDetail;
        SKALLA_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr(span, options));
        theta = And(theta, RebindToBase(cond, base_names));
      }
      GmdjOp op;
      op.detail_table = expr.base.source_table;
      op.blocks.push_back(GmdjBlock{aggs, theta});
      for (const AggSpec& spec : aggs) base_names.insert(spec.output);
      expr.ops.push_back(std::move(op));
    }

    if (PeekIs("HAVING")) {
      Advance();
      SKALLA_ASSIGN_OR_RETURN(std::string_view span,
                              SliceUntil({"ORDER", "LIMIT"}));
      ParserOptions options;
      options.default_side = Side::kDetail;
      SKALLA_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr(span, options));
      expr.having = RebindToBase(cond, base_names);
      // Every identifier must have bound to a key or an output.
      const auto leftover = CollectColumns(expr.having, Side::kDetail);
      if (!leftover.empty()) {
        return Status::InvalidArgument(
            "HAVING references unknown column '" + *leftover.begin() + "'");
      }
    }

    if (PeekIs("ORDER")) {
      Advance();
      SKALLA_RETURN_NOT_OK(Expect("BY"));
      while (true) {
        if (Peek().kind != TokKind::kWord) {
          return Status::InvalidArgument("expected column in ORDER BY");
        }
        SortKey key;
        key.column = Advance().raw;
        if (!base_names.count(key.column)) {
          return Status::InvalidArgument("ORDER BY references unknown "
                                         "column '" + key.column + "'");
        }
        if (PeekIs("DESC")) {
          Advance();
          key.descending = true;
        } else if (PeekIs("ASC")) {
          Advance();
        }
        expr.order_by.push_back(std::move(key));
        if (PeekIsPunct(",")) {
          Advance();
          continue;
        }
        break;
      }
    }
    if (PeekIs("LIMIT")) {
      Advance();
      if (Peek().kind != TokKind::kNumber) {
        return Status::InvalidArgument("expected row count after LIMIT");
      }
      const std::string& raw = Advance().raw;
      const std::optional<int64_t> n = ParseInt64(raw);
      if (!n.has_value() || *n < 0) {
        return Status::InvalidArgument("bad LIMIT value '" + raw +
                                       "': expected a non-negative int64");
      }
      expr.limit = *n;
    }

    if (Peek().kind != TokKind::kEnd) {
      return Status::InvalidArgument("trailing input at '" + Peek().raw +
                                     "'");
    }
    return expr;
  }

 private:
  const Tok& Peek() const { return tokens_[pos_]; }
  const Tok& Advance() { return tokens_[pos_++]; }

  bool PeekIs(std::string_view keyword) const {
    return Peek().kind == TokKind::kWord && Peek().text == keyword;
  }
  bool PeekIsPunct(std::string_view p) const {
    return Peek().kind == TokKind::kPunct && Peek().raw == p;
  }

  Status Expect(std::string_view keyword) {
    if (!PeekIs(keyword)) {
      return Status::InvalidArgument("expected " + std::string(keyword) +
                                     " at '" + Peek().raw + "'");
    }
    Advance();
    return Status::OK();
  }

  /// Consumes tokens up to (not including) the first top-level occurrence
  /// of any stop keyword (or end of input) and returns the covered source
  /// span, for re-parsing with the expression parser.
  Result<std::string_view> SliceUntil(
      const std::vector<std::string_view>& stops) {
    const size_t begin = Peek().begin;
    int depth = 0;
    size_t end = begin;
    while (Peek().kind != TokKind::kEnd) {
      if (Peek().kind == TokKind::kPunct) {
        if (Peek().raw == "(") ++depth;
        if (Peek().raw == ")") --depth;
      }
      if (depth == 0 && Peek().kind == TokKind::kWord) {
        for (std::string_view stop : stops) {
          if (Peek().text == stop) {
            if (end == begin) {
              return Status::InvalidArgument("empty expression before " +
                                             std::string(stop));
            }
            return text_.substr(begin, end - begin);
          }
        }
      }
      end = Advance().end;
    }
    if (end == begin) {
      return Status::InvalidArgument("empty expression at end of query");
    }
    return text_.substr(begin, end - begin);
  }

  /// Parses a comma-separated list of items: bare columns into `cols`,
  /// `FUNC(arg) AS name` into `aggs`. Stops before FROM/WHERE/EXTEND/end.
  Status ParseItems(std::vector<std::string>* cols,
                    std::vector<AggSpec>* aggs) {
    while (true) {
      if (Peek().kind != TokKind::kWord) {
        return Status::InvalidArgument("expected item at '" + Peek().raw +
                                       "'");
      }
      const Tok word = Advance();
      if (PeekIsPunct("(")) {
        SKALLA_ASSIGN_OR_RETURN(AggFunc func, AggFuncFromString(word.raw));
        Advance();  // (
        std::string input;
        if (PeekIsPunct("*")) {
          Advance();
          input = "*";
        } else if (Peek().kind == TokKind::kWord) {
          input = Advance().raw;
        } else {
          return Status::InvalidArgument(
              "expected aggregate argument after '" + word.raw + "('");
        }
        if (!PeekIsPunct(")")) {
          return Status::InvalidArgument("expected ')' in aggregate");
        }
        Advance();
        SKALLA_RETURN_NOT_OK(Expect("AS"));
        if (Peek().kind != TokKind::kWord) {
          return Status::InvalidArgument("expected alias after AS");
        }
        aggs->push_back(AggSpec{func, input, Advance().raw});
      } else {
        cols->push_back(word.raw);
      }
      if (PeekIsPunct(",")) {
        Advance();
        continue;
      }
      return Status::OK();
    }
  }

  std::string_view text_;
  std::vector<Tok> tokens_;
  size_t pos_ = 0;
};

}  // namespace

ExprPtr RebindToBase(const ExprPtr& expr,
                     const std::set<std::string>& base_names) {
  switch (expr->kind()) {
    case ExprKind::kColumn: {
      const auto& col = static_cast<const ColumnExpr&>(*expr);
      if (col.side() == Side::kDetail && base_names.count(col.name())) {
        return BCol(col.name());
      }
      return expr;
    }
    case ExprKind::kLiteral:
      return expr;
    case ExprKind::kUnary: {
      const auto& un = static_cast<const UnaryExpr&>(*expr);
      ExprPtr operand = RebindToBase(un.operand(), base_names);
      if (operand == un.operand()) return expr;
      return std::make_shared<UnaryExpr>(un.op(), std::move(operand));
    }
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(*expr);
      ExprPtr left = RebindToBase(bin.left(), base_names);
      ExprPtr right = RebindToBase(bin.right(), base_names);
      if (left == bin.left() && right == bin.right()) return expr;
      return std::make_shared<BinaryExpr>(bin.op(), std::move(left),
                                          std::move(right));
    }
  }
  return expr;
}

Result<GmdjExpr> ParseOlapQuery(std::string_view text) {
  SKALLA_ASSIGN_OR_RETURN(std::vector<Tok> tokens, Tokenize(text));
  QueryParser parser(text, std::move(tokens));
  return parser.Parse();
}

}  // namespace skalla
