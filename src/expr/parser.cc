#include "expr/parser.h"

#include <cctype>
#include <cstdlib>

#include "common/string_util.h"

namespace skalla {

namespace {

enum class TokenKind {
  kEnd,
  kNumber,
  kString,
  kIdent,
  kOp,      // punctuation operator
  kLParen,
  kRParen,
  kDot,
  kComma,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  Value number;  // for kNumber
  size_t offset = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size()) break;
      const size_t start = pos_;
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && pos_ + 1 < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
        SKALLA_ASSIGN_OR_RETURN(Token t, LexNumber());
        tokens.push_back(std::move(t));
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        tokens.push_back(LexIdent());
      } else if (c == '\'') {
        SKALLA_ASSIGN_OR_RETURN(Token t, LexString());
        tokens.push_back(std::move(t));
      } else if (c == '(') {
        tokens.push_back(Token{TokenKind::kLParen, "(", Value(), start});
        ++pos_;
      } else if (c == ')') {
        tokens.push_back(Token{TokenKind::kRParen, ")", Value(), start});
        ++pos_;
      } else if (c == '.') {
        tokens.push_back(Token{TokenKind::kDot, ".", Value(), start});
        ++pos_;
      } else if (c == ',') {
        tokens.push_back(Token{TokenKind::kComma, ",", Value(), start});
        ++pos_;
      } else {
        SKALLA_ASSIGN_OR_RETURN(Token t, LexOperator());
        tokens.push_back(std::move(t));
      }
    }
    tokens.push_back(Token{TokenKind::kEnd, "", Value(), pos_});
    return tokens;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Result<Token> LexNumber() {
    const size_t start = pos_;
    bool is_double = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '+' || text_[pos_] == '-') && pos_ > start &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      if (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E') {
        is_double = true;
      }
      ++pos_;
    }
    const std::string lexeme(text_.substr(start, pos_ - start));
    Token t;
    t.kind = TokenKind::kNumber;
    t.text = lexeme;
    t.offset = start;
    char* end = nullptr;
    if (is_double) {
      const double d = std::strtod(lexeme.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return Status::InvalidArgument("bad numeric literal '" + lexeme + "'");
      }
      t.number = Value(d);
    } else {
      const std::optional<int64_t> v = ParseInt64(lexeme);
      if (!v.has_value()) {
        return Status::InvalidArgument("integer literal '" + lexeme +
                                       "' is outside the int64 range");
      }
      t.number = Value(*v);
    }
    return t;
  }

  Token LexIdent() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    return Token{TokenKind::kIdent,
                 std::string(text_.substr(start, pos_ - start)), Value(),
                 start};
  }

  Result<Token> LexString() {
    const size_t start = pos_;
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\'') {
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '\'') {
          out.push_back('\'');
          pos_ += 2;
          continue;
        }
        ++pos_;
        Token t;
        t.kind = TokenKind::kString;
        t.text = out;
        t.offset = start;
        return t;
      }
      out.push_back(c);
      ++pos_;
    }
    return Status::InvalidArgument("unterminated string literal");
  }

  Result<Token> LexOperator() {
    const size_t start = pos_;
    static constexpr std::string_view kTwoChar[] = {
        "==", "!=", "<>", "<=", ">=", "&&", "||"};
    if (pos_ + 1 < text_.size()) {
      const std::string_view two = text_.substr(pos_, 2);
      for (std::string_view op : kTwoChar) {
        if (two == op) {
          pos_ += 2;
          return Token{TokenKind::kOp, std::string(op), Value(), start};
        }
      }
    }
    const char c = text_[pos_];
    static constexpr std::string_view kOneChar = "+-*/%<>=!";
    if (kOneChar.find(c) != std::string_view::npos) {
      ++pos_;
      return Token{TokenKind::kOp, std::string(1, c), Value(), start};
    }
    return Status::InvalidArgument(
        StrFormat("unexpected character '%c' at offset %zu", c, start));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const ParserOptions& options)
      : tokens_(std::move(tokens)), options_(options) {}

  Result<ExprPtr> Parse() {
    SKALLA_ASSIGN_OR_RETURN(ExprPtr e, ParseOr());
    if (Peek().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("trailing input at '" + Peek().text +
                                     "'");
    }
    return e;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool MatchOp(std::string_view op) {
    if (Peek().kind == TokenKind::kOp && Peek().text == op) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool PeekKeyword(std::string_view kw) const {
    return Peek().kind == TokenKind::kIdent && ToLower(Peek().text) == kw;
  }

  bool MatchKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<ExprPtr> ParseOr() {
    SKALLA_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (MatchOp("||") || MatchKeyword("or")) {
      SKALLA_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = Or(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    SKALLA_ASSIGN_OR_RETURN(ExprPtr left, ParseCmp());
    while (MatchOp("&&") || MatchKeyword("and")) {
      SKALLA_ASSIGN_OR_RETURN(ExprPtr right, ParseCmp());
      left = And(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseCmp() {
    SKALLA_ASSIGN_OR_RETURN(ExprPtr left, ParseSum());
    struct OpMap {
      std::string_view text;
      BinaryOp op;
    };
    static constexpr OpMap kOps[] = {
        {"==", BinaryOp::kEq}, {"=", BinaryOp::kEq},  {"!=", BinaryOp::kNe},
        {"<>", BinaryOp::kNe}, {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe},
        {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    if (Peek().kind == TokenKind::kOp) {
      for (const OpMap& m : kOps) {
        if (Peek().text == m.text) {
          ++pos_;
          SKALLA_ASSIGN_OR_RETURN(ExprPtr right, ParseSum());
          return ExprPtr(std::make_shared<BinaryExpr>(m.op, std::move(left),
                                                      std::move(right)));
        }
      }
    }
    // SQL: `e IS [NOT] NULL` (the only NULL test; `= NULL` is unknown).
    if (MatchKeyword("is")) {
      const bool is_negated = MatchKeyword("not");
      if (!MatchKeyword("null")) {
        return Status::InvalidArgument("expected NULL after IS [NOT]");
      }
      ExprPtr test = IsNull(std::move(left));
      return is_negated ? Not(std::move(test)) : test;
    }
    // SQL sugar: `e [NOT] IN (a, b, ...)` and `e [NOT] BETWEEN lo AND hi`
    // desugar to equality disjunctions / bound conjunctions.
    bool negated = false;
    if (MatchKeyword("not")) {
      negated = true;
      if (!PeekKeyword("in") && !PeekKeyword("between")) {
        return Status::InvalidArgument(
            "expected IN or BETWEEN after NOT in comparison");
      }
    }
    if (MatchKeyword("in")) {
      if (Peek().kind != TokenKind::kLParen) {
        return Status::InvalidArgument("expected '(' after IN");
      }
      Advance();
      std::vector<ExprPtr> members;
      while (true) {
        SKALLA_ASSIGN_OR_RETURN(ExprPtr member, ParseSum());
        members.push_back(Eq(left, std::move(member)));
        if (Peek().kind == TokenKind::kComma) {
          Advance();
          continue;
        }
        break;
      }
      if (Peek().kind != TokenKind::kRParen) {
        return Status::InvalidArgument("expected ')' to close IN list");
      }
      Advance();
      ExprPtr membership = OrAll(members);
      return negated ? Not(std::move(membership)) : membership;
    }
    if (MatchKeyword("between")) {
      SKALLA_ASSIGN_OR_RETURN(ExprPtr lo, ParseSum());
      if (!MatchKeyword("and")) {
        return Status::InvalidArgument("expected AND in BETWEEN");
      }
      SKALLA_ASSIGN_OR_RETURN(ExprPtr hi, ParseSum());
      ExprPtr range = And(Ge(left, std::move(lo)), Le(left, std::move(hi)));
      return negated ? Not(std::move(range)) : range;
    }
    if (negated) {
      return Status::Internal("unreachable NOT handling");
    }
    return left;
  }

  Result<ExprPtr> ParseSum() {
    SKALLA_ASSIGN_OR_RETURN(ExprPtr left, ParseTerm());
    while (true) {
      if (MatchOp("+")) {
        SKALLA_ASSIGN_OR_RETURN(ExprPtr right, ParseTerm());
        left = Add(std::move(left), std::move(right));
      } else if (MatchOp("-")) {
        SKALLA_ASSIGN_OR_RETURN(ExprPtr right, ParseTerm());
        left = Sub(std::move(left), std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseTerm() {
    SKALLA_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (true) {
      if (MatchOp("*")) {
        SKALLA_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
        left = Mul(std::move(left), std::move(right));
      } else if (MatchOp("/")) {
        SKALLA_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
        left = Div(std::move(left), std::move(right));
      } else if (MatchOp("%")) {
        SKALLA_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
        left = Mod(std::move(left), std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (MatchOp("-")) {
      SKALLA_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      // Fold a unary minus over a numeric literal into a negative literal,
      // so "-2" round-trips through printing as the same tree.
      if (operand->kind() == ExprKind::kLiteral) {
        const auto& lit = static_cast<const LiteralExpr&>(*operand);
        if (lit.value().is_int64()) return Lit(Value(-lit.value().AsInt64()));
        if (lit.value().is_double()) {
          return Lit(Value(-lit.value().AsDouble()));
        }
      }
      return Neg(std::move(operand));
    }
    if (MatchOp("!") || MatchKeyword("not")) {
      SKALLA_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return Not(std::move(operand));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kNumber: {
        Advance();
        return Lit(t.number);
      }
      case TokenKind::kString: {
        const std::string text = Advance().text;
        return Lit(Value(text));
      }
      case TokenKind::kLParen: {
        Advance();
        SKALLA_ASSIGN_OR_RETURN(ExprPtr inner, ParseOr());
        if (Peek().kind != TokenKind::kRParen) {
          return Status::InvalidArgument("expected ')' at '" + Peek().text +
                                         "'");
        }
        Advance();
        return inner;
      }
      case TokenKind::kIdent: {
        const std::string ident = Advance().text;
        const std::string lower = ToLower(ident);
        if (lower == "true") return True();
        if (lower == "false") return False();
        if (lower == "null") return Lit(Value::Null());
        if (Peek().kind == TokenKind::kDot) {
          Advance();
          if (Peek().kind != TokenKind::kIdent) {
            return Status::InvalidArgument("expected column name after '" +
                                           ident + ".'");
          }
          const std::string col = Advance().text;
          if (ident == options_.base_alias) return BCol(col);
          if (ident == options_.detail_alias) return RCol(col);
          return Status::InvalidArgument(
              "unknown relation qualifier '" + ident + "' (expected '" +
              options_.base_alias + "' or '" + options_.detail_alias + "')");
        }
        return Col(options_.default_side, ident);
      }
      default:
        return Status::InvalidArgument("unexpected token '" + t.text + "'");
    }
  }

  std::vector<Token> tokens_;
  ParserOptions options_;
  size_t pos_ = 0;
};

}  // namespace

Result<ExprPtr> ParseExpr(std::string_view text, const ParserOptions& options) {
  Lexer lexer(text);
  SKALLA_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens), options);
  return parser.Parse();
}

}  // namespace skalla
