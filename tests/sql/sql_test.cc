#include "sql/sql_parser.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sql/sql_lexer.h"
#include "storage/loader.h"

namespace jsontiles::sql {
namespace {

using storage::Loader;
using storage::Relation;
using storage::StorageMode;

TEST(SqlLexerTest, BasicTokens) {
  auto tokens = TokenizeSql(
      "SELECT t->>'a'::BigInt, 'str''x', 1.5 FROM tbl WHERE x <> 3");
  ASSERT_TRUE(tokens.ok());
  const auto& v = tokens.ValueOrDie();
  EXPECT_EQ(v[0].type, TokenType::kKeyword);
  EXPECT_EQ(v[0].text, "SELECT");
  EXPECT_EQ(v[1].type, TokenType::kIdentifier);
  EXPECT_EQ(v[1].text, "t");
  EXPECT_EQ(v[2].type, TokenType::kArrowText);
  EXPECT_EQ(v[3].type, TokenType::kString);
  EXPECT_EQ(v[3].text, "a");
  EXPECT_EQ(v[4].type, TokenType::kCast);
  EXPECT_EQ(v[5].text, "bigint");  // identifiers lower-cased
  EXPECT_EQ(v[7].text, "str'x");   // '' unescaped
  EXPECT_EQ(v[9].type, TokenType::kFloat);
  EXPECT_EQ(v.back().type, TokenType::kEnd);
}

TEST(SqlLexerTest, Operators) {
  auto tokens = TokenizeSql("a -> b ->> c :: <= >= != < > = + - * / %");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenType> types;
  for (const auto& t : tokens.ValueOrDie()) types.push_back(t.type);
  EXPECT_EQ(types[1], TokenType::kArrow);
  EXPECT_EQ(types[3], TokenType::kArrowText);
  EXPECT_EQ(types[5], TokenType::kCast);
  // != normalizes to <>
  bool found_ne = false;
  for (const auto& t : tokens.ValueOrDie()) {
    if (t.type == TokenType::kOperator && t.text == "<>") found_ne = true;
  }
  EXPECT_TRUE(found_ne);
}

TEST(SqlLexerTest, Rejects) {
  EXPECT_FALSE(TokenizeSql("'unterminated").ok());
  EXPECT_FALSE(TokenizeSql("\"unterminated").ok());
  EXPECT_FALSE(TokenizeSql("a ! b").ok());
  EXPECT_FALSE(TokenizeSql("a @ b").ok());
}

class SqlExecFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::vector<std::string> docs;
    for (int i = 0; i < 1000; i++) {
      docs.push_back(
          R"({"id":)" + std::to_string(i) + R"(,"name":"user)" +
          std::to_string(i % 10) + R"(","score":)" + std::to_string(i % 100) +
          R"(,"price":)" + std::to_string(i % 50) + ".5" +
          R"(,"day":"2024-01-)" + (i % 28 + 1 < 10 ? "0" : "") +
          std::to_string(i % 28 + 1) + R"(","tags":[{"t":"a)" +
          std::to_string(i % 4) + R"("}]})");
    }
    for (int g = 0; g < 10; g++) {
      docs.push_back(R"({"gid":)" + std::to_string(g) + R"(,"gname":"group)" +
                     std::to_string(g) + R"("})");
    }
    Loader loader(StorageMode::kTiles, {});
    relation_ = loader.Load(docs, "events").MoveValueOrDie().release();
  }
  static void TearDownTestSuite() {
    delete relation_;
    relation_ = nullptr;
  }

  static Result<SqlResult> Run(const std::string& statement) {
    SqlCatalog catalog;
    catalog.tables["events"] = relation_;
    exec::QueryContext ctx;
    return ExecuteSql(statement, catalog, ctx);
  }

  static Relation* relation_;
};
Relation* SqlExecFixture::relation_ = nullptr;

TEST_F(SqlExecFixture, SimpleProjectionAndFilter) {
  auto r = Run(
      "SELECT e->>'id'::BigInt, e->>'name' FROM events e "
      "WHERE e->>'score'::BigInt >= 98 ORDER BY 1 LIMIT 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& res = r.ValueOrDie();
  ASSERT_EQ(res.rows.size(), 5u);
  EXPECT_EQ(res.rows[0][0].int_value(), 98);
  EXPECT_EQ(res.rows[0][1].string_value(), "user8");
  EXPECT_EQ(res.rows[1][0].int_value(), 99);
  EXPECT_EQ(res.column_names[0], "id");
}

TEST_F(SqlExecFixture, AggregationWithGroupByHaving) {
  auto r = Run(
      "SELECT e->>'name' AS who, COUNT(*) AS n, AVG(e->>'score'::BigInt) "
      "FROM events e WHERE e->>'id'::BigInt IS NOT NULL "
      "GROUP BY e->>'name' HAVING COUNT(*) > 50 ORDER BY who");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& res = r.ValueOrDie();
  ASSERT_EQ(res.rows.size(), 10u);  // 10 user groups with 100 each
  EXPECT_EQ(res.rows[0][0].string_value(), "user0");
  EXPECT_EQ(res.rows[0][1].int_value(), 100);
  EXPECT_EQ(res.column_names[1], "n");
}

TEST_F(SqlExecFixture, ArithmeticInAggregates) {
  auto r = Run(
      "SELECT SUM(e->>'price'::Float * (1 + e->>'score'::BigInt)) "
      "FROM events e WHERE e->>'score'::BigInt < 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Rows with score 0 or 1: ids with i%100 in {0,1}: 20 rows.
  EXPECT_FALSE(r.ValueOrDie().rows[0][0].is_null());
}

TEST_F(SqlExecFixture, PostAggregateArithmetic) {
  auto r = Run(
      "SELECT 100 * SUM(e->>'score'::BigInt) / COUNT(*) FROM events e "
      "WHERE e->>'id'::BigInt IS NOT NULL");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NEAR(r.ValueOrDie().rows[0][0].AsDouble(), 100 * 49.5, 1.0);
}

TEST_F(SqlExecFixture, DateLiteralsAndExtract) {
  auto r = Run(
      "SELECT COUNT(*) FROM events e "
      "WHERE e->>'day'::Date >= DATE '2024-01-20'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r.ValueOrDie().rows[0][0].int_value(), 200);
  auto r2 = Run(
      "SELECT EXTRACT(YEAR FROM e->>'day'), COUNT(*) FROM events e "
      "WHERE e->>'day' IS NOT NULL GROUP BY EXTRACT(YEAR FROM e->>'day')");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r2.ValueOrDie().rows.size(), 1u);
  EXPECT_EQ(r2.ValueOrDie().rows[0][0].int_value(), 2024);
}

TEST_F(SqlExecFixture, LikeInBetweenCase) {
  auto r = Run(
      "SELECT SUM(CASE WHEN e->>'name' LIKE 'user1%' THEN 1 ELSE 0 END), "
      "COUNT(*) FROM events e WHERE e->>'score'::BigInt BETWEEN 0 AND 9 "
      "AND e->>'name' IN ('user0','user1','user2')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& row = r.ValueOrDie().rows[0];
  EXPECT_GT(row[1].int_value(), 0);
  EXPECT_LE(row[0].int_value(), row[1].int_value());
}

TEST_F(SqlExecFixture, SelfJoinWithPushdown) {
  // Join event documents to "group" documents in the same combined relation.
  auto r = Run(
      "SELECT g->>'gname', COUNT(*) FROM events e, events g "
      "WHERE e->>'id'::BigInt % 100 = g->>'gid'::BigInt "
      "AND g->>'gname' IS NOT NULL AND e->>'id'::BigInt IS NOT NULL "
      "GROUP BY g->>'gname' ORDER BY 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& res = r.ValueOrDie();
  ASSERT_EQ(res.rows.size(), 10u);
  EXPECT_EQ(res.rows[0][0].string_value(), "group0");
  EXPECT_EQ(res.rows[0][1].int_value(), 10);  // ids 0,100,...,900
}

TEST_F(SqlExecFixture, ContainsPredicate) {
  auto r = Run(
      "SELECT COUNT(*) FROM events e WHERE CONTAINS(e->'tags', 't', 'a1')");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().rows[0][0].int_value(), 250);
}

TEST_F(SqlExecFixture, SubstringAndOrderByAlias) {
  auto r = Run(
      "SELECT SUBSTRING(e->>'name' FROM 5 FOR 1) AS suffix, COUNT(*) AS n "
      "FROM events e WHERE e->>'name' IS NOT NULL "
      "GROUP BY SUBSTRING(e->>'name' FROM 5 FOR 1) ORDER BY n DESC, suffix");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().rows.size(), 10u);
}

TEST_F(SqlExecFixture, ErrorMessages) {
  EXPECT_FALSE(Run("SELECT").ok());
  EXPECT_FALSE(Run("SELECT 1").ok());                      // no FROM
  EXPECT_FALSE(Run("SELECT 1 FROM missing m").ok());       // unknown table
  EXPECT_FALSE(Run("SELECT x->>'a' FROM events e").ok());  // unknown alias
  EXPECT_FALSE(Run("SELECT e->>'a' FROM events e GROUP BY e->>'b'").ok());
  EXPECT_FALSE(
      Run("SELECT COUNT(*) FROM events e WHERE SUM(e->>'id'::Int) > 1").ok());
  EXPECT_FALSE(Run("SELECT 1 FROM events e ORDER BY 9").ok());
  EXPECT_FALSE(Run("SELECT 1 FROM events e LIMIT x").ok());
  EXPECT_FALSE(Run("SELECT e->>'a'::NoSuchType FROM events e").ok());
}

TEST_F(SqlExecFixture, FormatResult) {
  auto r = Run("SELECT e->>'id'::BigInt AS id FROM events e ORDER BY 1 LIMIT 3");
  ASSERT_TRUE(r.ok());
  std::string text = FormatSqlResult(r.ValueOrDie());
  EXPECT_NE(text.find("id"), std::string::npos);
  EXPECT_NE(text.find("0"), std::string::npos);
}

TEST_F(SqlExecFixture, SqlMatchesBuilderApi) {
  // The SQL path and the C++ QueryBlock path must agree.
  auto r = Run(
      "SELECT e->>'name', SUM(e->>'score'::BigInt) FROM events e "
      "WHERE e->>'id'::BigInt IS NOT NULL GROUP BY e->>'name' ORDER BY 1");
  ASSERT_TRUE(r.ok());
  exec::QueryContext ctx;
  opt::QueryBlock q;
  q.AddTable(opt::TableRef::Rel(
      "e", relation_,
      exec::IsNotNull(exec::Access("e", {"id"}, exec::ValueType::kInt))));
  q.GroupBy({exec::Access("e", {"name"}, exec::ValueType::kString)});
  q.Aggregate(exec::AggSpec::Sum(
      exec::Access("e", {"score"}, exec::ValueType::kInt)));
  q.OrderBy(exec::Slot(0));
  auto rows = q.Execute(ctx);
  ASSERT_EQ(rows.size(), r.ValueOrDie().rows.size());
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_EQ(rows[i][0].string_value(), r.ValueOrDie().rows[i][0].string_value());
    EXPECT_EQ(rows[i][1].int_value(), r.ValueOrDie().rows[i][1].int_value());
  }
}

// MOD and BigInt casts over values with no safe int64 result: INT64_MIN % -1
// (a trapping division on x86) is 0, and a float beyond int64 is null as a
// BigInt or a MOD operand. Run through SQL over tiles, so the scan's compiled
// kernels see the values.
TEST(SqlExecEdgeValuesTest, ModAndBigIntCastOfExtremes) {
  std::vector<std::string> docs(
      50, R"({"a": -9223372036854775808, "f": 1e300, "g": -1})");
  Loader loader(StorageMode::kTiles, {});
  auto relation = loader.Load(docs, "t").MoveValueOrDie();
  SqlCatalog catalog;
  catalog.tables["t"] = relation.get();
  const struct {
    const char* sql;
    bool null;
  } cases[] = {
      {"SELECT t->>'a'::BigInt % -1 FROM t t", false},
      {"SELECT t->>'a'::BigInt % t->>'g'::BigInt FROM t t", false},
      {"SELECT t->>'f'::BigInt FROM t t", true},
      {"SELECT t->>'a'::BigInt % t->>'f'::Float FROM t t", true},
  };
  for (const auto& c : cases) {
    exec::QueryContext ctx;
    auto r = ExecuteSql(c.sql, catalog, ctx);
    ASSERT_TRUE(r.ok()) << c.sql << ": " << r.status().ToString();
    const auto& rows = r.ValueOrDie().rows;
    ASSERT_EQ(rows.size(), docs.size()) << c.sql;
    for (const auto& row : rows) {
      if (c.null) {
        EXPECT_TRUE(row[0].is_null()) << c.sql;
      } else {
        EXPECT_EQ(row[0].int_value(), 0) << c.sql;
      }
    }
  }
}

}  // namespace
}  // namespace jsontiles::sql
