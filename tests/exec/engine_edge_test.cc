// Edge cases and failure injection across the engine: empty relations,
// degenerate plans, adversarial documents, huge values, cross-mode agreement
// on pathological data.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operators.h"
#include "obs/plan_profile.h"
#include "opt/query.h"
#include "storage/loader.h"
#include "util/random.h"

namespace jsontiles::exec {
namespace {

using opt::QueryBlock;
using opt::TableRef;
using storage::Loader;
using storage::Relation;
using storage::StorageMode;

std::unique_ptr<Relation> Load(const std::vector<std::string>& docs,
                               StorageMode mode = StorageMode::kTiles,
                               tiles::TileConfig config = {}) {
  Loader loader(mode, config);
  return loader.Load(docs, "t").MoveValueOrDie();
}

TEST(EngineEdgeTest, EmptyRelation) {
  auto rel = Load({});
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel("t", rel.get()));
  q.GroupBy({});
  q.Aggregate(AggSpec::CountStar());
  auto rows = q.Execute(ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int_value(), 0);
}

TEST(EngineEdgeTest, SingleDocumentRelation) {
  auto rel = Load({R"({"a":1})"});
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel("t", rel.get()));
  q.Select({Access("t", {"a"}, ValueType::kInt)});
  auto rows = q.Execute(ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int_value(), 1);
}

TEST(EngineEdgeTest, LimitZeroAndLimitBeyondSize) {
  auto rel = Load({R"({"a":1})", R"({"a":2})"});
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel("t", rel.get()));
  q.Select({Access("t", {"a"}, ValueType::kInt)});
  q.Limit(0);
  EXPECT_TRUE(q.Execute(ctx).empty());
  QueryBlock q2;
  q2.AddTable(TableRef::Rel("t", rel.get()));
  q2.Select({Access("t", {"a"}, ValueType::kInt)});
  q2.Limit(100);
  EXPECT_EQ(q2.Execute(ctx).size(), 2u);
}

TEST(EngineEdgeTest, CrossJoinWithoutEdges) {
  auto rel = Load({R"({"a":1})", R"({"a":2})", R"({"b":"x"})"});
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel("l", rel.get(),
                           IsNotNull(Access("l", {"a"}, ValueType::kInt))));
  q.AddTable(TableRef::Rel("r", rel.get(),
                           IsNotNull(Access("r", {"b"}, ValueType::kString))));
  q.GroupBy({});
  q.Aggregate(AggSpec::CountStar());
  auto rows = q.Execute(ctx);
  EXPECT_EQ(rows[0][0].int_value(), 2);  // 2 x 1 cross product
}

TEST(EngineEdgeTest, DeeplyNestedAccess) {
  std::string doc = R"({"a":{"b":{"c":{"d":{"e":{"f":42}}}}}})";
  auto rel = Load(std::vector<std::string>(10, doc));
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel("t", rel.get()));
  q.GroupBy({});
  q.Aggregate(AggSpec::Sum(
      Access("t", {"a", "b", "c", "d", "e", "f"}, ValueType::kInt)));
  auto rows = q.Execute(ctx);
  EXPECT_EQ(rows[0][0].int_value(), 420);
}

TEST(EngineEdgeTest, UnicodeKeysAndValues) {
  std::vector<std::string> docs(20, "{\"n\\u00e4me\":\"J\\u00fcrgen\",\"x\":1}");
  auto rel = Load(docs);
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel("t", rel.get()));
  q.GroupBy({Access("t", {"n\xc3\xa4me"}, ValueType::kString)});
  q.Aggregate(AggSpec::CountStar());
  auto rows = q.Execute(ctx);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].string_value(), "J\xc3\xbcrgen");
  EXPECT_EQ(rows[0][1].int_value(), 20);
}

TEST(EngineEdgeTest, VeryLongStringsSurvive) {
  std::string big(100000, 'x');
  std::vector<std::string> docs(5, R"({"id":1,"blob":")" + big + R"("})");
  for (StorageMode mode : {StorageMode::kJsonb, StorageMode::kTiles}) {
    auto rel = Load(docs, mode);
    QueryContext ctx;
    QueryBlock q;
    q.AddTable(TableRef::Rel("t", rel.get()));
    q.Select({Access("t", {"blob"}, ValueType::kString)});
    auto rows = q.Execute(ctx);
    ASSERT_EQ(rows.size(), 5u);
    EXPECT_EQ(rows[0][0].string_value().size(), big.size());
  }
}

TEST(EngineEdgeTest, HeterogeneousTypeSoup) {
  // The same key carries six different types; every mode must agree.
  std::vector<std::string> docs = {
      R"({"v":1})",          R"({"v":2.5})",      R"({"v":"three"})",
      R"({"v":true})",       R"({"v":null})",     R"({"v":[1,2]})",
      R"({"v":{"w":7}})",    R"({"v":"19.99"})",  R"({"v":4})",
      R"({"v":5})"};
  std::vector<std::string> expectations;
  for (StorageMode mode : {StorageMode::kJsonText, StorageMode::kJsonb,
                           StorageMode::kSinew, StorageMode::kTiles}) {
    auto rel = Load(docs, mode);
    QueryContext ctx;
    QueryBlock q;
    q.AddTable(TableRef::Rel("t", rel.get()));
    q.GroupBy({});
    q.Aggregate(AggSpec::Sum(Access("t", {"v"}, ValueType::kFloat)));
    q.Aggregate(AggSpec::Count(Access("t", {"v"}, ValueType::kString)));
    auto rows = q.Execute(ctx);
    // Sum over castable-to-float values: 1 + 2.5 + 19.99 + 4 + 5 (+bool?).
    std::string sum = rows[0][0].ToString();
    std::string count = rows[0][1].ToString();
    expectations.push_back(sum + "/" + count);
  }
  for (size_t i = 1; i < expectations.size(); i++) {
    EXPECT_EQ(expectations[i], expectations[0]);
  }
}

TEST(EngineEdgeTest, TinyTilesManyPartitions) {
  tiles::TileConfig config;
  config.tile_size = 4;
  config.partition_size = 2;
  std::vector<std::string> docs;
  for (int i = 0; i < 103; i++) {  // deliberately not a multiple of 8
    docs.push_back(R"({"i":)" + std::to_string(i) + "}");
  }
  auto rel = Load(docs, StorageMode::kTiles, config);
  EXPECT_EQ(rel->tiles().size(), 26u);
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel("t", rel.get()));
  q.GroupBy({});
  q.Aggregate(AggSpec::Sum(Access("t", {"i"}, ValueType::kInt)));
  EXPECT_EQ(q.Execute(ctx)[0][0].int_value(), 103 * 102 / 2);
}

TEST(EngineEdgeTest, AllNullColumnAggregates) {
  std::vector<std::string> docs(50, R"({"present":1})");
  auto rel = Load(docs);
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel("t", rel.get()));
  q.GroupBy({});
  q.Aggregate(AggSpec::Sum(Access("t", {"absent"}, ValueType::kInt)));
  q.Aggregate(AggSpec::Min(Access("t", {"absent"}, ValueType::kInt)));
  q.Aggregate(AggSpec::Count(Access("t", {"absent"}, ValueType::kInt)));
  auto rows = q.Execute(ctx);
  EXPECT_TRUE(rows[0][0].is_null());
  EXPECT_TRUE(rows[0][1].is_null());
  EXPECT_EQ(rows[0][2].int_value(), 0);
}

TEST(EngineEdgeTest, DuplicateJoinKeysExplode) {
  // 10 x 10 duplicate keys -> 100 join results; checks multimap behavior.
  std::vector<std::string> docs;
  for (int i = 0; i < 10; i++) docs.push_back(R"({"l":7})");
  for (int i = 0; i < 10; i++) docs.push_back(R"({"r":7})");
  auto rel = Load(docs);
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel("a", rel.get(),
                           IsNotNull(Access("a", {"l"}, ValueType::kInt))));
  q.AddTable(TableRef::Rel("b", rel.get(),
                           IsNotNull(Access("b", {"r"}, ValueType::kInt))));
  q.AddJoin(Access("a", {"l"}, ValueType::kInt),
            Access("b", {"r"}, ValueType::kInt));
  q.GroupBy({});
  q.Aggregate(AggSpec::CountStar());
  EXPECT_EQ(q.Execute(ctx)[0][0].int_value(), 100);
}

// Every join type emits output only per probe row, so an empty probe side
// returns at once; the node still reports both input sizes.
TEST(EngineEdgeTest, EmptyProbeSideSkipsTheBuild) {
  RowSet build;
  for (int64_t i = 0; i < 100; i++) build.push_back({Value::Int(i)});
  const RowSet probe;
  for (JoinType type : {JoinType::kInner, JoinType::kLeft, JoinType::kSemi,
                        JoinType::kAnti}) {
    obs::PlanProfile profile;
    QueryContext ctx;
    ctx.profile = &profile;
    RowSet out = HashJoinExec(build, probe, {Slot(0)}, {Slot(0)}, type,
                              nullptr, ctx);
    EXPECT_TRUE(out.empty());
    ASSERT_EQ(profile.size(), 1u);
    const obs::OperatorStats& op = profile.op(0);
    EXPECT_EQ(op.rows_in, 100u);
    EXPECT_EQ(op.rows_out, 0u);
    std::map<std::string, int64_t> counters(op.counters.begin(),
                                            op.counters.end());
    EXPECT_EQ(counters["build_rows"], 100);
    EXPECT_EQ(counters["probe_rows"], 0);
  }
}

// The hash table goes on the smaller input, whichever argument it is;
// `table_rows` reports its rows.
TEST(EngineEdgeTest, HashJoinReportsTheHashedSide) {
  RowSet large;
  for (int64_t i = 0; i < 100; i++) large.push_back({Value::Int(i)});
  RowSet small;
  for (int64_t i = 0; i < 5; i++) small.push_back({Value::Int(i * 10)});
  struct Orientation {
    const RowSet* build;
    const RowSet* probe;
  };
  for (Orientation o : {Orientation{&large, &small},
                        Orientation{&small, &large}}) {
    obs::PlanProfile profile;
    QueryContext ctx;
    ctx.profile = &profile;
    RowSet out = HashJoinExec(*o.build, *o.probe, {Slot(0)}, {Slot(0)},
                              JoinType::kInner, nullptr, ctx);
    EXPECT_EQ(out.size(), 5u);
    ASSERT_EQ(profile.size(), 1u);
    std::map<std::string, int64_t> counters(profile.op(0).counters.begin(),
                                            profile.op(0).counters.end());
    EXPECT_EQ(counters["build_rows"], static_cast<int64_t>(o.build->size()));
    EXPECT_EQ(counters["probe_rows"], static_cast<int64_t>(o.probe->size()));
    EXPECT_EQ(counters["table_rows"], 5);
  }
}

TEST(EngineEdgeTest, ParallelAggregationMatchesSerial) {
  Random rng(11);
  std::vector<std::string> docs;
  for (int i = 0; i < 40000; i++) {
    docs.push_back(R"({"g":)" + std::to_string(rng.Uniform(13)) + R"(,"v":)" +
                   std::to_string(rng.Uniform(1000)) + "}");
  }
  auto rel = Load(docs);
  auto run = [&](size_t threads) {
    ExecOptions options;
    options.num_threads = threads;
    QueryContext ctx(options);
    QueryBlock q;
    q.AddTable(TableRef::Rel("t", rel.get()));
    q.GroupBy({Access("t", {"g"}, ValueType::kInt)});
    q.Aggregate(AggSpec::Sum(Access("t", {"v"}, ValueType::kInt)));
    q.Aggregate(AggSpec::CountStar());
    q.OrderBy(Slot(0));
    RowSet rows = q.Execute(ctx);
    std::vector<std::string> out;
    for (const auto& r : rows) {
      out.push_back(r[0].ToString() + "," + r[1].ToString() + "," + r[2].ToString());
    }
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

}  // namespace
}  // namespace jsontiles::exec
