#include <gtest/gtest.h>

#include "ecodb/sql/binder.h"
#include "ecodb/sql/lexer.h"
#include "ecodb/sql/parser.h"
#include "ecodb/sql/planner.h"
#include "ecodb/tpch/queries.h"
#include "test_util.h"

namespace ecodb {
namespace {

using sql::Lex;
using sql::ParseSelect;
using sql::PlanQuery;

TEST(LexerTest, TokenKinds) {
  auto tokens = Lex("SELECT a, 1.5 FROM t WHERE s = 'it''s' AND x >= 2");
  ASSERT_TRUE(tokens.ok());
  const auto& ts = tokens.value();
  EXPECT_TRUE(ts[0].IsKeyword("SELECT"));
  EXPECT_EQ(ts[1].text, "a");
  EXPECT_TRUE(ts[2].IsSymbol(","));
  EXPECT_EQ(ts[3].kind, sql::TokenKind::kDouble);
  EXPECT_DOUBLE_EQ(ts[3].dbl_value, 1.5);
  // ... s = 'it's' ...
  bool found_string = false;
  for (const auto& t : ts) {
    if (t.kind == sql::TokenKind::kString) {
      EXPECT_EQ(t.text, "it's");
      found_string = true;
    }
  }
  EXPECT_TRUE(found_string);
}

TEST(LexerTest, ErrorsOnBadInput) {
  EXPECT_TRUE(Lex("SELECT 'unterminated").status().IsParseError());
  EXPECT_TRUE(Lex("SELECT @").status().IsParseError());
}

TEST(ParserTest, SimpleSelectStructure) {
  auto stmt = ParseSelect(
      "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity = 24");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value().items.size(), 2u);
  EXPECT_EQ(stmt.value().from_tables.size(), 1u);
  ASSERT_NE(stmt.value().where, nullptr);
  EXPECT_EQ(stmt.value().where->kind, sql::AstKind::kCompare);
}

TEST(ParserTest, FullClauseSet) {
  auto stmt = ParseSelect(
      "SELECT a, SUM(b) AS total FROM t1, t2 WHERE a = c AND b > 1 "
      "GROUP BY a ORDER BY total DESC, a ASC LIMIT 10;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& s = stmt.value();
  EXPECT_EQ(s.items[1].alias, "total");
  EXPECT_EQ(s.group_by.size(), 1u);
  ASSERT_EQ(s.order_by.size(), 2u);
  EXPECT_FALSE(s.order_by[0].ascending);
  EXPECT_TRUE(s.order_by[1].ascending);
  EXPECT_EQ(s.limit, 10);
}

TEST(ParserTest, JoinOnFoldsIntoWhere) {
  auto stmt = ParseSelect(
      "SELECT a FROM t1 JOIN t2 ON x = y WHERE b = 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value().from_tables.size(), 2u);
  // WHERE and ON combined under AND.
  ASSERT_NE(stmt.value().where, nullptr);
  EXPECT_EQ(stmt.value().where->kind, sql::AstKind::kLogical);
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = ParseSelect("SELECT a + b * c FROM t");
  ASSERT_TRUE(stmt.ok());
  const auto& e = *stmt.value().items[0].expr;
  ASSERT_EQ(e.kind, sql::AstKind::kArith);
  EXPECT_EQ(e.arith_op, ArithOp::kAdd);
  EXPECT_EQ(e.args[1]->arith_op, ArithOp::kMul);
}

TEST(ParserTest, BetweenInNotAndDates) {
  auto stmt = ParseSelect(
      "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3) "
      "AND NOT c = 4 AND d >= DATE '1994-01-01'");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
}

class ParseErrorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParseErrorTest, RejectsMalformedSql) {
  auto stmt = ParseSelect(GetParam());
  EXPECT_FALSE(stmt.ok()) << "accepted: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    BadSql, ParseErrorTest,
    ::testing::Values("SELECT", "SELECT a", "SELECT a FROM",
                      "SELECT a FROM t WHERE", "SELECT FROM t",
                      "SELECT a FROM t GROUP a", "SELECT a FROM t LIMIT x",
                      "SELECT a FROM t ORDER a", "FROM t SELECT a",
                      "SELECT a FROM t WHERE a IN ()",
                      "SELECT a FROM t trailing garbage ("));

class SqlEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing::MakeTestDb();
    ASSERT_NE(db_, nullptr);
  }

  // Runs SQL and a hand-built plan; compares result multisets.
  void ExpectSameResults(const std::string& sql, const PlanNode& hand) {
    auto sql_result = db_->ExecuteSql(sql);
    ASSERT_TRUE(sql_result.ok()) << sql_result.status().ToString();
    auto hand_result = db_->ExecutePlanQuery(hand);
    ASSERT_TRUE(hand_result.ok()) << hand_result.status().ToString();
    auto key = [](const Row& r) {
      std::string s;
      for (const Value& v : r) s += v.ToString() + "|";
      return s;
    };
    std::vector<std::string> a, b;
    for (const Row& r : sql_result.value().rows()) a.push_back(key(r));
    for (const Row& r : hand_result.value().rows()) b.push_back(key(r));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "SQL: " << sql;
    EXPECT_FALSE(a.empty()) << "vacuous comparison for " << sql;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SqlEquivalenceTest, Q5MatchesHandPlan) {
  tpch::Q5Params p;
  auto hand = tpch::BuildQ5Plan(*db_->catalog(), p);
  ASSERT_TRUE(hand.ok());
  ExpectSameResults(tpch::Q5Sql(p), *hand.value());
}

TEST_F(SqlEquivalenceTest, Q1MatchesHandPlan) {
  auto hand = tpch::BuildQ1Plan(*db_->catalog(), "1998-09-02");
  ASSERT_TRUE(hand.ok());
  ExpectSameResults(tpch::Q1Sql("1998-09-02"), *hand.value());
}

TEST_F(SqlEquivalenceTest, Q6MatchesHandPlan) {
  tpch::Q6Params p;
  auto hand = tpch::BuildQ6Plan(*db_->catalog(), p);
  ASSERT_TRUE(hand.ok());
  ExpectSameResults(tpch::Q6Sql(p), *hand.value());
}

TEST_F(SqlEquivalenceTest, SelectionMatchesHandPlan) {
  auto hand = tpch::BuildSelectionQuery(*db_->catalog(), 24);
  ASSERT_TRUE(hand.ok());
  ExpectSameResults(tpch::SelectionSql(24), *hand.value());
}

TEST_F(SqlEquivalenceTest, SelectStarAndLimit) {
  auto r = db_->ExecuteSql("SELECT * FROM region ORDER BY r_name LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows().size(), 3u);
  EXPECT_EQ(r.value().rows()[0][1].AsString(), "AFRICA");
  EXPECT_EQ(r.value().rows()[1][1].AsString(), "AMERICA");
}

TEST_F(SqlEquivalenceTest, InListQuery) {
  auto r = db_->ExecuteSql(
      "SELECT n_name FROM nation WHERE n_regionkey IN (2) ORDER BY n_name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows().size(), 5u);  // 5 ASIA nations
  EXPECT_EQ(r.value().rows()[0][0].AsString(), "CHINA");
}

TEST_F(SqlEquivalenceTest, CountStarAndAliases) {
  auto r = db_->ExecuteSql("SELECT COUNT(*) AS n FROM nation");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows().size(), 1u);
  EXPECT_EQ(r.value().rows()[0][0].AsInt(), 25);
  EXPECT_EQ(r.value().schema.field(0).name, "n");
}

TEST_F(SqlEquivalenceTest, UnknownTableAndColumnErrors) {
  EXPECT_FALSE(db_->ExecuteSql("SELECT x FROM nosuch").ok());
  EXPECT_FALSE(db_->ExecuteSql("SELECT nocol FROM nation").ok());
  EXPECT_FALSE(
      db_->ExecuteSql("SELECT n_name, SUM(nocol) FROM nation GROUP BY n_name")
          .ok());
}

TEST_F(SqlEquivalenceTest, AggregateMixedWithNonGroupColumnRejected) {
  EXPECT_FALSE(
      db_->ExecuteSql("SELECT n_name, COUNT(*) FROM nation").ok());
}

TEST_F(SqlEquivalenceTest, OrderByOrdinalBindsToSelectItem) {
  // ORDER BY 1 sorts by the first select item, not by the constant 1.
  auto r = db_->ExecuteSql("SELECT r_regionkey FROM region ORDER BY 1 DESC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows().size(), 5u);
  EXPECT_EQ(r.value().rows()[0][0].AsInt(), 4);
  EXPECT_EQ(r.value().rows()[4][0].AsInt(), 0);
  // Ordinals count output columns, SELECT * included.
  auto star = db_->ExecuteSql("SELECT * FROM region ORDER BY 2 LIMIT 1");
  ASSERT_TRUE(star.ok()) << star.status().ToString();
  EXPECT_EQ(star.value().rows()[0][1].AsString(), "AFRICA");
  auto mixed = db_->ExecuteSql(
      "SELECT n_regionkey, n_name FROM nation ORDER BY 1 DESC, 2 ASC "
      "LIMIT 1");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ(mixed.value().rows()[0][1].AsString(), "EGYPT");
}

TEST_F(SqlEquivalenceTest, OrderByOrdinalOutOfRangeIsParseError) {
  for (const char* sql : {"SELECT r_regionkey FROM region ORDER BY 0",
                          "SELECT r_regionkey FROM region ORDER BY 2",
                          "SELECT * FROM region ORDER BY 4"}) {
    SCOPED_TRACE(sql);
    auto r = db_->ExecuteSql(sql);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
  }
}

TEST_F(SqlEquivalenceTest, OrderByNonProjectedColumnSortsUnderProjection) {
  auto plan =
      db_->PlanSql("SELECT n_name FROM nation ORDER BY n_nationkey DESC");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan.value()->kind, PlanKind::kProject);
  ASSERT_EQ(plan.value()->children[0]->kind, PlanKind::kSort);
  EXPECT_EQ(plan.value()->children[0]->children[0]->kind, PlanKind::kScan);
  auto r = db_->ExecutePlanQuery(*plan.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows().size(), 25u);
  ASSERT_EQ(r.value().rows()[0].size(), 1u);
  EXPECT_EQ(r.value().rows()[0][0].AsString(), "UNITED STATES");  // key 24
  EXPECT_EQ(r.value().rows()[24][0].AsString(), "ALGERIA");       // key 0

  // Projected keys (an alias, a name) mix with a non-projected one; all
  // of them bind below the projection.
  auto mixed = db_->ExecuteSql(
      "SELECT n_name AS nm, n_regionkey FROM nation "
      "ORDER BY n_regionkey DESC, nm LIMIT 2");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  ASSERT_EQ(mixed.value().rows().size(), 2u);
  EXPECT_EQ(mixed.value().rows()[0][0].AsString(), "EGYPT");
  EXPECT_EQ(mixed.value().rows()[1][0].AsString(), "IRAN");
  auto hidden = db_->ExecuteSql(
      "SELECT n_name FROM nation WHERE n_regionkey = 0 "
      "ORDER BY n_regionkey, n_nationkey DESC LIMIT 1");
  ASSERT_TRUE(hidden.ok()) << hidden.status().ToString();
  EXPECT_EQ(hidden.value().rows()[0][0].AsString(), "MOZAMBIQUE");
}

TEST_F(SqlEquivalenceTest, OrderByProjectedKeysKeepsSortOnTop) {
  for (const char* sql :
       {"SELECT n_name, n_regionkey FROM nation ORDER BY n_regionkey",
        "SELECT n_name AS nm FROM nation ORDER BY nm DESC",
        "SELECT n_regionkey * 2 AS r2 FROM nation ORDER BY 1"}) {
    SCOPED_TRACE(sql);
    auto plan = db_->PlanSql(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_EQ(plan.value()->kind, PlanKind::kSort);
    EXPECT_EQ(plan.value()->children[0]->kind, PlanKind::kProject);
  }
  // SELECT * ... ORDER BY a column: a sort straight over the scan.
  for (const char* key : {"l_extendedprice", "l_partkey DESC"}) {
    auto plan =
        db_->PlanSql(std::string("SELECT * FROM lineitem ORDER BY ") + key);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_EQ(plan.value()->kind, PlanKind::kSort);
    EXPECT_EQ(plan.value()->children[0]->kind, PlanKind::kScan);
  }
}

TEST_F(SqlEquivalenceTest, OrderByNonProjectedColumnOfAggregateIsParseError) {
  for (const char* sql :
       {"SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey "
        "ORDER BY n_name",
        "SELECT n_name FROM nation ORDER BY nocol",
        "SELECT * FROM nation ORDER BY nocol"}) {
    SCOPED_TRACE(sql);
    auto r = db_->ExecuteSql(sql);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
  }
}

TEST_F(SqlEquivalenceTest, SelectDistinctNamesItselfAsUnsupported) {
  auto r = db_->ExecuteSql("SELECT DISTINCT r_regionkey FROM region");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("DISTINCT"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(r.status().message().find("unknown column"), std::string::npos)
      << r.status().ToString();
}

/// SQL this dialect does not support fails with a ParseError that names
/// the construct, not with the token that happens to follow it.
struct UnsupportedSql {
  const char* sql;
  const char* construct;
};

class UnsupportedSqlTest : public ::testing::TestWithParam<UnsupportedSql> {};

TEST_P(UnsupportedSqlTest, ParseErrorNamesTheConstruct) {
  auto stmt = ParseSelect(GetParam().sql);
  ASSERT_FALSE(stmt.ok()) << "accepted: " << GetParam().sql;
  const Status& st = stmt.status();
  EXPECT_TRUE(st.IsParseError()) << st.ToString();
  EXPECT_NE(st.message().find(GetParam().construct), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("is not supported"), std::string::npos)
      << st.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Constructs, UnsupportedSqlTest,
    ::testing::Values(
        UnsupportedSql{"SELECT n_name FROM nation WHERE n_name LIKE 'A%'",
                       "LIKE"},
        UnsupportedSql{
            "SELECT n_name FROM nation WHERE n_name NOT LIKE 'A%'", "LIKE"},
        UnsupportedSql{"SELECT n_regionkey, COUNT(*) AS n FROM nation "
                       "GROUP BY n_regionkey HAVING COUNT(*) > 4",
                       "HAVING"},
        UnsupportedSql{"SELECT CASE WHEN n_nationkey > 3 THEN 1 ELSE 0 END "
                       "FROM nation",
                       "CASE"},
        UnsupportedSql{"SELECT n_name FROM nation WHERE n_comment IS NULL",
                       "IS [NOT] NULL"},
        UnsupportedSql{
            "SELECT n_name FROM nation WHERE n_comment IS NOT NULL",
            "IS [NOT] NULL"},
        UnsupportedSql{"SELECT n_name FROM nation LEFT JOIN region "
                       "ON n_regionkey = r_regionkey",
                       "LEFT JOIN"},
        UnsupportedSql{"SELECT n_name FROM nation LEFT OUTER JOIN region "
                       "ON n_regionkey = r_regionkey",
                       "LEFT JOIN"},
        UnsupportedSql{"SELECT s_name FROM nation JOIN region "
                       "ON n_regionkey = r_regionkey FULL OUTER JOIN "
                       "supplier ON s_nationkey = n_nationkey",
                       "FULL JOIN"},
        UnsupportedSql{"EXPLAIN SELECT n_name FROM nation", "EXPLAIN"}));

TEST(ParserTest, ChainedJoinsFoldEveryConditionIntoWhere) {
  auto stmt = ParseSelect(
      "SELECT s_name FROM nation JOIN region ON n_regionkey = r_regionkey "
      "INNER JOIN supplier ON s_nationkey = n_nationkey, customer "
      "WHERE c_nationkey = n_nationkey");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value().from_tables,
            (std::vector<std::string>{"nation", "region", "supplier",
                                      "customer"}));
  // WHERE AND the two ON conditions, nested left-deep.
  const auto& where = *stmt.value().where;
  ASSERT_EQ(where.kind, sql::AstKind::kLogical);
  EXPECT_EQ(where.args.size(), 2u);
  EXPECT_EQ(where.args[0]->kind, sql::AstKind::kLogical);
}

TEST_F(SqlEquivalenceTest, ChainedJoinRunsLikeTheCommaJoin) {
  auto joined = db_->ExecuteSql(
      "SELECT COUNT(*) AS n FROM nation JOIN region "
      "ON n_regionkey = r_regionkey JOIN supplier ON s_nationkey = "
      "n_nationkey");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  auto comma = db_->ExecuteSql(
      "SELECT COUNT(*) AS n FROM nation, region, supplier "
      "WHERE n_regionkey = r_regionkey AND s_nationkey = n_nationkey");
  ASSERT_TRUE(comma.ok()) << comma.status().ToString();
  EXPECT_EQ(joined.value().rows()[0][0].AsInt(),
            comma.value().rows()[0][0].AsInt());
  EXPECT_GT(comma.value().rows()[0][0].AsInt(), 0);
}

TEST_F(SqlEquivalenceTest, Int64OverflowIsNull) {
  auto r = db_->ExecuteSql(
      "SELECT 9223372036854775807 + 1, r_regionkey * 2 FROM region "
      "ORDER BY 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows().size(), 5u);
  EXPECT_TRUE(r.value().rows()[0][0].is_null());
  EXPECT_EQ(r.value().rows()[4][1].AsInt(), 8);
}

TEST_F(SqlEquivalenceTest, QualifiedColumnNames) {
  auto r = db_->ExecuteSql(
      "SELECT nation.n_name FROM nation WHERE nation.n_nationkey = 8");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows().size(), 1u);
  EXPECT_EQ(r.value().rows()[0][0].AsString(), "INDIA");
}

}  // namespace
}  // namespace ecodb
