#include "expr/parser.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace skalla {
namespace {

Result<ExprPtr> Parse(const std::string& text) { return ParseExpr(text); }

TEST(ParserTest, ParsesColumnQualifiers) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse("B.SourceAS = R.SourceAS"));
  EXPECT_EQ(e->ToString(), "(B.SourceAS = R.SourceAS)");
}

TEST(ParserTest, UnqualifiedBindsToDetailByDefault) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse("NumBytes > 100"));
  EXPECT_EQ(e->ToString(), "(R.NumBytes > 100)");
}

TEST(ParserTest, CustomAliases) {
  ParserOptions options;
  options.base_alias = "X";
  options.detail_alias = "Flow";
  ASSERT_OK_AND_ASSIGN(ExprPtr e,
                       ParseExpr("X.a = Flow.b", options));
  EXPECT_EQ(e->ToString(), "(B.a = R.b)");
}

TEST(ParserTest, PrecedenceMulOverAdd) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse("1 + 2 * 3"));
  EXPECT_EQ(e->ToString(), "(1 + (2 * 3))");
}

TEST(ParserTest, PrecedenceCmpOverAnd) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse("B.a = R.a && R.v >= 2"));
  EXPECT_EQ(e->ToString(), "((B.a = R.a) && (R.v >= 2))");
}

TEST(ParserTest, PrecedenceAndOverOr) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse("R.a = 1 || R.b = 2 && R.c = 3"));
  EXPECT_EQ(e->ToString(), "((R.a = 1) || ((R.b = 2) && (R.c = 3)))");
}

TEST(ParserTest, Parentheses) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse("(1 + 2) * 3"));
  EXPECT_EQ(e->ToString(), "((1 + 2) * 3)");
}

TEST(ParserTest, KeywordOperators) {
  // `not` binds at unary level (tighter than comparison), like `!` in C.
  ASSERT_OK_AND_ASSIGN(ExprPtr e,
                       Parse("R.a = 1 and not (R.b = 2) or R.c = 3"));
  EXPECT_EQ(e->ToString(),
            "(((R.a = 1) && !((R.b = 2))) || (R.c = 3))");
}

TEST(ParserTest, ComparisonSpellings) {
  for (const auto& [text, canon] :
       std::vector<std::pair<std::string, std::string>>{
           {"R.a == 1", "(R.a = 1)"},
           {"R.a != 1", "(R.a != 1)"},
           {"R.a <> 1", "(R.a != 1)"},
           {"R.a <= 1", "(R.a <= 1)"},
           {"R.a >= 1", "(R.a >= 1)"}}) {
    ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse(text));
    EXPECT_EQ(e->ToString(), canon) << text;
  }
}

TEST(ParserTest, NumericLiterals) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e1, Parse("42"));
  EXPECT_EQ(e1->ToString(), "42");
  ASSERT_OK_AND_ASSIGN(ExprPtr e2, Parse("2.5"));
  EXPECT_EQ(e2->ToString(), "2.5");
  ASSERT_OK_AND_ASSIGN(ExprPtr e3, Parse("1e3"));
  EXPECT_EQ(e3->ToString(), "1000");
}

TEST(ParserTest, IntegerLiteralsOutsideInt64AreRejected) {
  // Clamping these to INT64_MAX would silently answer another query.
  for (const char* text :
       {"R.v = 99999999999999999999", "R.v = -9223372036854775809",
        "R.v = 9223372036854775808"}) {
    auto result = Parse(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(result.status().message().find("int64 range"), std::string::npos)
        << result.status().ToString();
  }
  ASSERT_OK_AND_ASSIGN(ExprPtr max, Parse("9223372036854775807"));
  EXPECT_EQ(max->ToString(), "9223372036854775807");
  // INT64_MIN has no literal; it is written as an expression.
  EXPECT_OK(Parse("R.v = -9223372036854775807 - 1").status());
}

TEST(ParserTest, StringLiteralsWithEscapedQuote) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse("R.s = 'it''s'"));
  EXPECT_EQ(e->ToString(), "(R.s = 'it's')");
}

TEST(ParserTest, BooleanAndNullLiterals) {
  ASSERT_OK_AND_ASSIGN(ExprPtr t, Parse("true"));
  EXPECT_EQ(t->ToString(), "1");
  ASSERT_OK_AND_ASSIGN(ExprPtr f, Parse("false"));
  EXPECT_EQ(f->ToString(), "0");
  ASSERT_OK_AND_ASSIGN(ExprPtr n, Parse("null"));
  EXPECT_EQ(n->ToString(), "NULL");
}

TEST(ParserTest, UnaryMinusAndNot) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse("-R.v * 2"));
  EXPECT_EQ(e->ToString(), "(-(R.v) * 2)");
  ASSERT_OK_AND_ASSIGN(ExprPtr e2, Parse("!(R.v > 1)"));
  EXPECT_EQ(e2->ToString(), "!((R.v > 1))");
}

TEST(ParserTest, PaperExampleCondition) {
  ASSERT_OK_AND_ASSIGN(
      ExprPtr e,
      Parse("B.SourceAS = R.SourceAS && B.DestAS = R.DestAS && "
            "R.NumBytes >= B.sum1 / B.cnt1"));
  EXPECT_EQ(e->ToString(),
            "(((B.SourceAS = R.SourceAS) && (B.DestAS = R.DestAS)) && "
            "(R.NumBytes >= (B.sum1 / B.cnt1)))");
}

TEST(ParserTest, InDesugarsToEqualityDisjunction) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse("R.a IN (1, 2, 3)"));
  EXPECT_EQ(e->ToString(), "(((R.a = 1) || (R.a = 2)) || (R.a = 3))");
}

TEST(ParserTest, NotInDesugarsToNegatedDisjunction) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse("R.s not in ('x', 'y')"));
  EXPECT_EQ(e->ToString(), "!(((R.s = 'x') || (R.s = 'y')))");
}

TEST(ParserTest, BetweenDesugarsToBounds) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse("R.v BETWEEN 1 AND 10"));
  EXPECT_EQ(e->ToString(), "((R.v >= 1) && (R.v <= 10))");
}

TEST(ParserTest, NotBetween) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse("R.v not between B.lo and B.hi"));
  EXPECT_EQ(e->ToString(), "!(((R.v >= B.lo) && (R.v <= B.hi)))");
}

TEST(ParserTest, BetweenComposesWithConjunction) {
  // The AND inside BETWEEN must not be confused with the conjunction.
  ASSERT_OK_AND_ASSIGN(
      ExprPtr e, Parse("R.v between 1 and 10 && R.s = 'a'"));
  EXPECT_EQ(e->ToString(),
            "(((R.v >= 1) && (R.v <= 10)) && (R.s = 'a'))");
}

TEST(ParserTest, InWithExpressions) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse("R.a in (B.x + 1, 2 * 3)"));
  EXPECT_EQ(e->ToString(), "((R.a = (B.x + 1)) || (R.a = (2 * 3)))");
}

TEST(ParserTest, InErrors) {
  EXPECT_FALSE(Parse("R.a IN 1, 2").ok());       // missing parens
  EXPECT_FALSE(Parse("R.a IN (1, 2").ok());      // unclosed
  EXPECT_FALSE(Parse("R.a BETWEEN 1 10").ok());  // missing AND
  EXPECT_FALSE(Parse("R.a NOT 5").ok());         // NOT without IN/BETWEEN
}

TEST(ParserTest, IsNullAndIsNotNull) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, Parse("R.v IS NULL"));
  EXPECT_EQ(e->ToString(), "(R.v IS NULL)");
  ASSERT_OK_AND_ASSIGN(ExprPtr e2, Parse("B.a is not null && R.v > 1"));
  EXPECT_EQ(e2->ToString(), "(!((B.a IS NULL)) && (R.v > 1))");
  // Round-trips through ToString.
  ASSERT_OK_AND_ASSIGN(ExprPtr e3, Parse(e->ToString()));
  EXPECT_TRUE(e->Equals(*e3));
  EXPECT_FALSE(Parse("R.v IS 5").ok());
}

TEST(ParserTest, ErrorUnterminatedString) {
  EXPECT_FALSE(Parse("R.s = 'oops").ok());
}

TEST(ParserTest, ErrorTrailingInput) {
  auto result = Parse("1 + 2 extra");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("trailing"), std::string::npos);
}

TEST(ParserTest, ErrorUnknownQualifier) {
  auto result = Parse("Z.a = 1");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("qualifier"), std::string::npos);
}

TEST(ParserTest, ErrorDanglingParen) {
  EXPECT_FALSE(Parse("(1 + 2").ok());
}

TEST(ParserTest, ErrorBadCharacter) {
  EXPECT_FALSE(Parse("R.a = #").ok());
}

TEST(ParserTest, RoundTripThroughToString) {
  // Printing an expression and re-parsing it must give a structurally
  // equal tree.
  for (const char* text :
       {"B.a = R.b && R.v >= B.sum1 / B.cnt1",
        "R.x + 2 * R.y - 3 < 10 || R.z != 'abc'",
        "!(B.g = R.g) || R.v % 2 = 0"}) {
    ASSERT_OK_AND_ASSIGN(ExprPtr first, Parse(text));
    ASSERT_OK_AND_ASSIGN(ExprPtr second, Parse(first->ToString()));
    EXPECT_TRUE(first->Equals(*second)) << text;
  }
}

}  // namespace
}  // namespace skalla
