#include "opt/query.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "opt/cardinality.h"
#include "opt/join_order.h"
#include "storage/loader.h"

namespace jsontiles::opt {
namespace {

using exec::Access;
using exec::AggSpec;
using exec::ConstFloat;
using exec::ConstInt;
using exec::ConstString;
using exec::ExprPtr;
using exec::QueryContext;
using exec::RowSet;
using exec::Slot;
using exec::Value;
using exec::ValueType;
using storage::Loader;
using storage::Relation;
using storage::StorageMode;

// A combined relation with three "tables": nations (5 rows), customers
// (100 rows, each in a nation) and orders (1000 rows, each by a customer).
std::vector<std::string> CombinedDocs() {
  std::vector<std::string> docs;
  const char* nation_names[] = {"ALGERIA", "BRAZIL", "CANADA", "DENMARK", "EGYPT"};
  for (int n = 0; n < 5; n++) {
    docs.push_back(R"({"n_key":)" + std::to_string(n) + R"(,"n_name":")" +
                   nation_names[n] + R"("})");
  }
  for (int c = 0; c < 100; c++) {
    docs.push_back(R"({"c_key":)" + std::to_string(c) + R"(,"c_nation":)" +
                   std::to_string(c % 5) + R"(,"c_balance":)" +
                   std::to_string(c * 10.5) + "}");
  }
  for (int o = 0; o < 1000; o++) {
    docs.push_back(R"({"o_key":)" + std::to_string(o) + R"(,"o_cust":)" +
                   std::to_string(o % 100) + R"(,"o_total":)" +
                   std::to_string(100.0 + o % 500) + "}");
  }
  return docs;
}

std::unique_ptr<Relation> LoadCombined(StorageMode mode) {
  tiles::TileConfig config;
  config.tile_size = 128;
  config.partition_size = 4;
  Loader loader(mode, config);
  return loader.Load(CombinedDocs(), "combined").MoveValueOrDie();
}

TEST(JoinOrderTest, SelectiveJoinFirst) {
  JoinGraph graph;
  graph.table_cardinalities = {1000000, 10, 1000};  // big, tiny-filtered, medium
  // big ⋈ tiny is highly selective (the big side has 100000 distinct keys of
  // which the filtered tiny table keeps 10); big ⋈ medium is not.
  graph.edges.push_back({0, 1, 100000, 10});
  graph.edges.push_back({0, 2, 1000, 1000});
  auto result = OptimizeJoinOrder(graph);
  ASSERT_EQ(result.sequence.size(), 3u);
  // The selective join (table 1) must happen before table 2 enters.
  auto pos = [&](int t) {
    return std::find(result.sequence.begin(), result.sequence.end(), t) -
           result.sequence.begin();
  };
  EXPECT_LT(pos(1), pos(2));
}

TEST(JoinOrderTest, DisconnectedGraphStillCompletes) {
  JoinGraph graph;
  graph.table_cardinalities = {100, 200};
  auto result = OptimizeJoinOrder(graph);  // cross product fallback
  EXPECT_EQ(result.sequence.size(), 2u);
}

TEST(JoinOrderTest, SingleTable) {
  JoinGraph graph;
  graph.table_cardinalities = {42};
  EXPECT_EQ(OptimizeJoinOrder(graph).sequence, std::vector<int>({0}));
}

// A scan of `rel` reading `access`, requiring its path, filtered by
// `filter` over slot 0.
exec::ScanSpec ScanOf(const Relation& rel, const ExprPtr& access,
                      ExprPtr filter) {
  exec::ScanSpec spec;
  spec.relation = &rel;
  spec.table_alias = "t";
  spec.accesses = {access};
  spec.filter = std::move(filter);
  spec.null_rejecting_paths = {access->path};
  return spec;
}

TEST(CardinalityTest, PresenceFromStats) {
  auto rel = LoadCombined(StorageMode::kTiles);
  ExprPtr okey = Access("t", {"o_key"}, ValueType::kInt);
  auto est = EstimateScanCardinality(ScanOf(*rel, okey, nullptr));
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  // 1000 of 1105 documents are orders.
  EXPECT_NEAR(est.ValueOrDie(), 1000.0, 120.0);
  ExprPtr nkey = Access("t", {"n_key"}, ValueType::kInt);
  auto est2 = EstimateScanCardinality(ScanOf(*rel, nkey, nullptr));
  ASSERT_TRUE(est2.ok()) << est2.status().ToString();
  // Nations are rare (5 rows): within 2x of the truth.
  EXPECT_GE(est2.ValueOrDie(), 2.5);
  EXPECT_LE(est2.ValueOrDie(), 10.0);
}

TEST(CardinalityTest, FilterSelectivitySampled) {
  auto rel = LoadCombined(StorageMode::kJsonb);  // no stats: pure sampling
  ExprPtr total = Access("t", {"o_total"}, ValueType::kFloat);
  ExprPtr filter = exec::Gt(Slot(0), ConstFloat(500.0));
  auto est = EstimateScanCardinality(ScanOf(*rel, total, filter));
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  // totals are 100..599 uniform; > 500 is ~20% of 1000 orders.
  EXPECT_GT(est.ValueOrDie(), 60.0);
  EXPECT_LT(est.ValueOrDie(), 450.0);
}

TEST(QueryBlockTest, SingleTableAggregation) {
  for (StorageMode mode : {StorageMode::kJsonText, StorageMode::kJsonb,
                           StorageMode::kSinew, StorageMode::kTiles}) {
    auto rel = LoadCombined(mode);
    QueryContext ctx;
    QueryBlock q;
    q.AddTable(TableRef::Rel("o", rel.get(),
                             exec::IsNotNull(Access("o", {"o_key"}, ValueType::kInt))));
    q.GroupBy({});
    q.Aggregate(AggSpec::CountStar());
    q.Aggregate(AggSpec::Sum(Access("o", {"o_total"}, ValueType::kFloat)));
    RowSet rows = q.Execute(ctx);
    ASSERT_EQ(rows.size(), 1u) << StorageModeName(mode);
    EXPECT_EQ(rows[0][0].int_value(), 1000) << StorageModeName(mode);
    // sum of 100 + o%500 over 0..999 = 100000 + 2*sum(0..499) = 349500...
    // each residue 0..499 occurs exactly twice: sum = 1000*100 + 2*(499*500/2).
    EXPECT_DOUBLE_EQ(rows[0][1].float_value(), 100000.0 + 2 * (499.0 * 500 / 2))
        << StorageModeName(mode);
  }
}

TEST(QueryBlockTest, ThreeWayJoinAllModesAgree) {
  // Materialized comparison rows (arena-backed views die with the context).
  std::vector<std::vector<std::string>> reference;
  bool first = true;
  for (StorageMode mode : {StorageMode::kJsonText, StorageMode::kJsonb,
                           StorageMode::kSinew, StorageMode::kTiles}) {
    auto rel = LoadCombined(mode);
    QueryContext ctx;
    QueryBlock q;
    // Revenue per nation name for orders with total >= 400.
    q.AddTable(TableRef::Rel("n", rel.get()));
    q.AddTable(TableRef::Rel("c", rel.get()));
    q.AddTable(TableRef::Rel(
        "o", rel.get(),
        exec::Ge(Access("o", {"o_total"}, ValueType::kFloat), ConstFloat(400.0))));
    q.AddJoin(Access("c", {"c_nation"}, ValueType::kInt),
              Access("n", {"n_key"}, ValueType::kInt));
    q.AddJoin(Access("o", {"o_cust"}, ValueType::kInt),
              Access("c", {"c_key"}, ValueType::kInt));
    q.GroupBy({Access("n", {"n_name"}, ValueType::kString)});
    q.Aggregate(AggSpec::Sum(Access("o", {"o_total"}, ValueType::kFloat)));
    q.Aggregate(AggSpec::CountStar());
    q.OrderBy(Slot(0));
    RowSet rows = q.Execute(ctx);
    ASSERT_EQ(rows.size(), 5u) << StorageModeName(mode);
    std::vector<std::vector<std::string>> materialized;
    for (const auto& row : rows) {
      materialized.push_back(
          {row[0].ToString(), row[1].ToString(), row[2].ToString()});
    }
    if (first) {
      reference = std::move(materialized);
      first = false;
      continue;
    }
    EXPECT_EQ(materialized, reference) << StorageModeName(mode);
  }
}

TEST(QueryBlockTest, JoinOrderUsesCardinalities) {
  auto rel = LoadCombined(StorageMode::kTiles);
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel("o", rel.get()));
  q.AddTable(TableRef::Rel("n", rel.get()));
  q.AddTable(TableRef::Rel("c", rel.get()));
  q.AddJoin(Access("c", {"c_nation"}, ValueType::kInt),
            Access("n", {"n_key"}, ValueType::kInt));
  q.AddJoin(Access("o", {"o_cust"}, ValueType::kInt),
            Access("c", {"c_key"}, ValueType::kInt));
  q.GroupBy({});
  q.Aggregate(AggSpec::CountStar());
  RowSet rows = q.Execute(ctx);
  EXPECT_EQ(rows[0][0].int_value(), 1000);
  // The chosen order should not start with the biggest table (orders).
  auto plan = q.Explain();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan.ValueOrDie().join_order.size(), 3u);
  EXPECT_NE(plan.ValueOrDie().join_order[0], "o");
}

TEST(QueryBlockTest, HavingAndResidual) {
  auto rel = LoadCombined(StorageMode::kTiles);
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel("c", rel.get()));
  q.AddTable(TableRef::Rel("o", rel.get()));
  // Join with residual: only orders whose total exceeds the customer balance.
  q.AddJoin(Access("o", {"o_cust"}, ValueType::kInt),
            Access("c", {"c_key"}, ValueType::kInt),
            exec::Gt(Access("o", {"o_total"}, ValueType::kFloat),
                     Access("c", {"c_balance"}, ValueType::kFloat)));
  q.GroupBy({Access("c", {"c_key"}, ValueType::kInt)});
  q.Aggregate(AggSpec::CountStar());
  q.Having(exec::Gt(Slot(1), ConstInt(9)));
  RowSet rows = q.Execute(ctx);
  for (const auto& row : rows) {
    EXPECT_GT(row[1].int_value(), 9);
  }
  EXPECT_GT(rows.size(), 0u);
  EXPECT_LT(rows.size(), 100u);
}

TEST(QueryBlockTest, RowsetTableComposition) {
  auto rel = LoadCombined(StorageMode::kTiles);
  QueryContext ctx;
  // Phase 1: total per customer.
  QueryBlock inner;
  inner.AddTable(TableRef::Rel(
      "o", rel.get(),
      exec::IsNotNull(Access("o", {"o_key"}, ValueType::kInt))));
  inner.GroupBy({Access("o", {"o_cust"}, ValueType::kInt)});
  inner.Aggregate(AggSpec::Sum(Access("o", {"o_total"}, ValueType::kFloat)));
  RowSet per_customer = inner.Execute(ctx);
  ASSERT_EQ(per_customer.size(), 100u);

  // Phase 2: join the aggregate back to customers via a rowset table.
  QueryBlock outer;
  outer.AddTable(TableRef::Rel("c", rel.get()));
  outer.AddTable(TableRef::Rows("sub", &per_customer, {"cust", "total"}));
  outer.AddJoin(Access("c", {"c_key"}, ValueType::kInt),
                Access("sub", {"cust"}, ValueType::kInt));
  outer.GroupBy({});
  outer.Aggregate(AggSpec::CountStar());
  outer.Aggregate(AggSpec::Max(Access("sub", {"total"}, ValueType::kFloat)));
  RowSet rows = outer.Execute(ctx);
  EXPECT_EQ(rows[0][0].int_value(), 100);
  EXPECT_GT(rows[0][1].float_value(), 0.0);
}

TEST(QueryBlockTest, SelectProjection) {
  auto rel = LoadCombined(StorageMode::kTiles);
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel(
      "n", rel.get(),
      exec::Eq(Access("n", {"n_name"}, ValueType::kString), ConstString("CANADA"))));
  q.Select({Access("n", {"n_key"}, ValueType::kInt)});
  RowSet rows = q.Execute(ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int_value(), 2);
  EXPECT_EQ(ScalarResult(rows).int_value(), 2);
}

}  // namespace
}  // namespace jsontiles::opt
