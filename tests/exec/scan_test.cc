#include "exec/scan.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/expr_compile.h"
#include "exec/operators.h"
#include "storage/loader.h"

namespace jsontiles::exec {
namespace {

using storage::Loader;
using storage::Relation;
using storage::StorageMode;

std::vector<std::string> MixedDocs() {
  // Two document types: "orders" (o_id, o_total, o_date) and "items"
  // (i_id, i_price), interleaved in blocks.
  std::vector<std::string> docs;
  for (int i = 0; i < 200; i++) {
    int day = i % 28 + 1;
    std::string day_str = (day < 10 ? "0" : "") + std::to_string(day);
    docs.push_back(R"({"o_id":)" + std::to_string(i) + R"(,"o_total":)" +
                   std::to_string(100.5 + i) + R"(,"o_date":"2020-01-)" +
                   day_str + R"("})");
  }
  for (int i = 0; i < 200; i++) {
    docs.push_back(R"({"i_id":)" + std::to_string(i) + R"(,"i_price":)" +
                   std::to_string(i % 50) + "}");
  }
  return docs;
}

std::unique_ptr<Relation> LoadMode(StorageMode mode,
                                   const std::vector<std::string>& docs) {
  tiles::TileConfig config;
  config.tile_size = 64;
  config.partition_size = 4;
  Loader loader(mode, config);
  return loader.Load(docs, "t").MoveValueOrDie();
}

ScanSpec MakeSpec(const Relation* rel) {
  ScanSpec spec;
  spec.relation = rel;
  spec.table_alias = "t";
  return spec;
}

TEST(ScanTest, AllStorageModesAgree) {
  auto docs = MixedDocs();
  ExprPtr id = Access("t", {"o_id"}, ValueType::kInt);
  ExprPtr total = Access("t", {"o_total"}, ValueType::kFloat);
  ExprPtr filter_tpl = Gt(Slot(1), ConstFloat(250.0));

  RowSet reference;
  bool first = true;
  for (StorageMode mode : {StorageMode::kJsonText, StorageMode::kJsonb,
                           StorageMode::kSinew, StorageMode::kTiles}) {
    auto rel = LoadMode(mode, docs);
    QueryContext ctx;
    ScanSpec spec = MakeSpec(rel.get());
    spec.accesses = {id, total};
    spec.filter = filter_tpl;
    spec.null_rejecting_paths = {id->path, total->path};
    RowSet rows = ScanExec(spec, ctx);
    // 200 orders with totals 100.5..299.5; > 250 leaves 150..199 -> 50 rows.
    ASSERT_EQ(rows.size(), 50u) << StorageModeName(mode);
    if (first) {
      reference = rows;
      first = false;
      continue;
    }
    ASSERT_EQ(rows.size(), reference.size());
    for (size_t r = 0; r < rows.size(); r++) {
      EXPECT_EQ(rows[r][0].int_value(), reference[r][0].int_value());
      EXPECT_DOUBLE_EQ(rows[r][1].float_value(), reference[r][1].float_value());
    }
  }
}

// A scan whose filter keeps no row still has one column per access, in
// every storage mode, serial and parallel, so a LEFT JOIN built on it pads
// every build column.
TEST(ScanTest, EmptyResultKeepsSlotWidth) {
  auto docs = MixedDocs();
  ExprPtr id = Access("t", {"o_id"}, ValueType::kInt);
  ExprPtr total = Access("t", {"o_total"}, ValueType::kFloat);
  for (StorageMode mode : {StorageMode::kJsonText, StorageMode::kJsonb,
                           StorageMode::kSinew, StorageMode::kTiles}) {
    auto rel = LoadMode(mode, docs);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ExecOptions options;
      options.num_threads = threads;
      QueryContext ctx(options);
      ScanSpec spec = MakeSpec(rel.get());
      spec.accesses = {id, total};
      spec.filter = Gt(Slot(1), ConstFloat(1e9));
      RowSet rows = ScanExec(spec, ctx);
      EXPECT_TRUE(rows.empty()) << StorageModeName(mode);
      EXPECT_EQ(rows.width(), 2u) << StorageModeName(mode);

      RowSet probe{{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)}};
      RowSet left = HashJoinExec(rows, probe, {Slot(0)}, {Slot(0)},
                                 JoinType::kLeft, nullptr, ctx);
      ASSERT_EQ(left.size(), 3u) << StorageModeName(mode);
      EXPECT_EQ(left.width(), 3u) << StorageModeName(mode);
      EXPECT_TRUE(left[2][2].is_null()) << StorageModeName(mode);
    }
  }
}

TEST(ScanTest, TileSkippingSkipsForeignTiles) {
  auto docs = MixedDocs();
  auto rel = LoadMode(StorageMode::kTiles, docs);
  ExprPtr id = Access("t", {"i_id"}, ValueType::kInt);
  QueryContext ctx;
  ScanSpec spec = MakeSpec(rel.get());
  spec.accesses = {id};
  spec.filter = IsNotNull(Slot(0));
  spec.null_rejecting_paths = {id->path};
  RowSet rows = ScanExec(spec, ctx);
  EXPECT_EQ(rows.size(), 200u);
  EXPECT_GT(ctx.tiles_skipped, 0u);  // order-only tiles were skipped

  // Without skipping, same result but all tiles visited.
  ExecOptions options;
  options.enable_tile_skipping = false;
  QueryContext ctx2(options);
  RowSet rows2 = ScanExec(spec, ctx2);
  EXPECT_EQ(rows2.size(), 200u);
  EXPECT_EQ(ctx2.tiles_skipped, 0u);
}

TEST(ScanTest, SkippingRespectsNullSemantics) {
  // COUNT(*) with no null-rejecting paths must see every row even when the
  // accessed key is absent from many tiles (§4.8: aggregates count nulls).
  auto docs = MixedDocs();
  auto rel = LoadMode(StorageMode::kTiles, docs);
  ExprPtr price = Access("t", {"i_price"}, ValueType::kInt);
  QueryContext ctx;
  ScanSpec spec = MakeSpec(rel.get());
  spec.accesses = {price};
  // No filter, no null-rejecting paths: a COUNT(*) over everything.
  RowSet rows = ScanExec(spec, ctx);
  EXPECT_EQ(rows.size(), 400u);
  size_t nulls = 0;
  for (const auto& row : rows) nulls += row[0].is_null();
  EXPECT_EQ(nulls, 200u);
}

TEST(ScanTest, DateColumnServesTimestampRequests) {
  auto docs = MixedDocs();
  auto rel = LoadMode(StorageMode::kTiles, docs);
  // Cast to Timestamp: served from the extracted Timestamp column.
  ExprPtr date_ts = Access("t", {"o_date"}, ValueType::kTimestamp);
  QueryContext ctx;
  ScanSpec spec = MakeSpec(rel.get());
  spec.accesses = {date_ts};
  spec.filter = Ge(Slot(0), ConstDate("2020-01-15"));
  spec.null_rejecting_paths = {date_ts->path};
  RowSet rows = ScanExec(spec, ctx);
  EXPECT_GT(rows.size(), 0u);
  for (const auto& row : rows) {
    EXPECT_EQ(row[0].type, ValueType::kTimestamp);
  }

  // §4.9: cast to Text must reproduce the original string exactly (goes to
  // the binary JSON, not the Timestamp column).
  ExprPtr date_text = Access("t", {"o_date"}, ValueType::kString);
  ScanSpec spec2 = MakeSpec(rel.get());
  spec2.accesses = {date_text};
  spec2.filter = Eq(Slot(0), ConstString("2020-01-07"));
  spec2.null_rejecting_paths = {date_text->path};
  QueryContext ctx2;
  RowSet rows2 = ScanExec(spec2, ctx2);
  EXPECT_GT(rows2.size(), 0u);
  for (const auto& row : rows2) {
    EXPECT_EQ(row[0].string_value(), "2020-01-07");
  }
}

TEST(ScanTest, TypeOutlierFallsBackToBinary) {
  // Mostly-int key with a few float outliers: the column extracts ints; the
  // floats must still be readable through the fallback.
  std::vector<std::string> docs;
  for (int i = 0; i < 60; i++) docs.push_back(R"({"v":)" + std::to_string(i) + "}");
  for (int i = 0; i < 4; i++) docs.push_back(R"({"v":0.5})");
  auto rel = LoadMode(StorageMode::kTiles, docs);
  ExprPtr v = Access("t", {"v"}, ValueType::kFloat);
  QueryContext ctx;
  ScanSpec spec = MakeSpec(rel.get());
  spec.accesses = {v};
  RowSet rows = ScanExec(spec, ctx);
  ASSERT_EQ(rows.size(), 64u);
  double sum = 0;
  for (const auto& row : rows) {
    ASSERT_FALSE(row[0].is_null());
    sum += row[0].float_value();
  }
  EXPECT_DOUBLE_EQ(sum, 59.0 * 60 / 2 + 4 * 0.5);
}

TEST(ScanTest, ParallelScanIsDeterministic) {
  auto docs = MixedDocs();
  auto rel = LoadMode(StorageMode::kTiles, docs);
  ExprPtr id = Access("t", {"o_id"}, ValueType::kInt);
  ScanSpec spec = MakeSpec(rel.get());
  spec.accesses = {id};
  spec.filter = IsNotNull(Slot(0));
  spec.null_rejecting_paths = {id->path};

  QueryContext serial;
  RowSet a = ScanExec(spec, serial);
  ExecOptions options;
  options.num_threads = 4;
  QueryContext parallel(options);
  RowSet b = ScanExec(spec, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i][0].int_value(), b[i][0].int_value());
  }
}

// A filter none of whose conjuncts compiles (CASE arms of mixed type) runs
// entirely as interpreter residuals inside the batch scan. Every storage
// mode must keep exactly the rows a per-row EvalExpr of the filter keeps.
TEST(ScanTest, UncompiledFilterMatchesInterpreterInAllModes) {
  auto docs = MixedDocs();
  ExprPtr id = Access("t", {"o_id"}, ValueType::kInt);
  ExprPtr total = Access("t", {"o_total"}, ValueType::kFloat);
  // total > 150 AND id < 180, each spelled through a mixed-type CASE.
  ExprPtr filter = And(
      Eq(Case({Gt(Slot(1), ConstFloat(150.0)), ConstString("big"), Slot(0)}),
         ConstString("big")),
      Eq(Case({Lt(Slot(0), ConstInt(180)), Slot(0), ConstString("no")}),
         Slot(0)));
  ASSERT_FALSE(CompiledPredicate::Compile(
                   filter, {ValueType::kInt, ValueType::kFloat})
                   .any_compiled());

  for (StorageMode mode : {StorageMode::kJsonText, StorageMode::kJsonb,
                           StorageMode::kSinew, StorageMode::kTiles}) {
    auto rel = LoadMode(mode, docs);
    ScanSpec spec = MakeSpec(rel.get());
    spec.accesses = {id, total};
    QueryContext all_ctx;
    const RowSet all = ScanExec(spec, all_ctx);
    ASSERT_EQ(all.size(), docs.size()) << StorageModeName(mode);
    Arena arena;
    RowSet expected(2);
    for (RowView row : all) {
      Value keep = EvalExpr(*filter, row.data(), &arena);
      if (!keep.is_null() && keep.bool_value()) expected.push_back(row);
    }
    // Orders 50..179: totals above 150 and ids below 180.
    ASSERT_EQ(expected.size(), 130u) << StorageModeName(mode);

    spec.filter = filter;
    QueryContext ctx;
    const RowSet got = ScanExec(spec, ctx);
    ASSERT_EQ(got.size(), expected.size()) << StorageModeName(mode);
    for (size_t r = 0; r < got.size(); r++) {
      EXPECT_EQ(got[r][0].int_value(), expected[r][0].int_value())
          << StorageModeName(mode) << " row " << r;
      EXPECT_EQ(got[r][1].float_value(), expected[r][1].float_value())
          << StorageModeName(mode) << " row " << r;
    }
  }
}

// A JSON-text batch transforms its documents into buffers the next batch
// reuses, so projected strings must be copied out of them. Over several
// batches, every row keeps its own string; documents that are not JSON give
// null slots but keep their row id.
TEST(ScanTest, JsonTextStringsOutliveTheirBatch) {
  std::vector<std::string> docs;
  for (int i = 0; i < 3000; i++) {
    docs.push_back(i % 500 == 7 ? "{not json"
                                : R"({"id":)" + std::to_string(i) +
                                      R"(,"name":"name-)" + std::to_string(i) +
                                      R"("})");
  }
  auto rel = LoadMode(StorageMode::kJsonText, docs);
  ScanSpec spec = MakeSpec(rel.get());
  spec.accesses = {RowId("t"), Access("t", {"name"}, ValueType::kString),
                   Access("t", {"id"}, ValueType::kInt)};
  QueryContext ctx;
  const RowSet rows = ScanExec(spec, ctx);
  ASSERT_EQ(rows.size(), docs.size());
  for (size_t r = 0; r < rows.size(); r++) {
    EXPECT_EQ(rows[r][0].int_value(), static_cast<int64_t>(r));
    if (r % 500 == 7) {
      EXPECT_TRUE(rows[r][1].is_null()) << r;
      EXPECT_TRUE(rows[r][2].is_null()) << r;
      continue;
    }
    EXPECT_EQ(rows[r][1].string_value(), "name-" + std::to_string(r));
    EXPECT_EQ(rows[r][2].int_value(), static_cast<int64_t>(r));
  }
}

TEST(OperatorsTest, AggregateSumCountAvgMinMax) {
  RowSet in;
  for (int i = 1; i <= 10; i++) {
    in.push_back({Value::Int(i % 2), Value::Int(i)});
  }
  in.push_back({Value::Int(0), Value::Null()});  // null value ignored by SUM
  QueryContext ctx;
  RowSet out = AggregateExec(
      in, {Slot(0)},
      {AggSpec::CountStar(), AggSpec::Count(Slot(1)), AggSpec::Sum(Slot(1)),
       AggSpec::Avg(Slot(1)), AggSpec::Min(Slot(1)), AggSpec::Max(Slot(1))},
      ctx);
  ASSERT_EQ(out.size(), 2u);
  for (const auto& row : out) {
    if (row[0].int_value() == 0) {
      EXPECT_EQ(row[1].int_value(), 6);   // count(*)
      EXPECT_EQ(row[2].int_value(), 5);   // count(v)
      EXPECT_EQ(row[3].int_value(), 30);  // 2+4+6+8+10
      EXPECT_DOUBLE_EQ(row[4].float_value(), 6.0);
      EXPECT_EQ(row[5].int_value(), 2);
      EXPECT_EQ(row[6].int_value(), 10);
    } else {
      EXPECT_EQ(row[2].int_value(), 5);
      EXPECT_EQ(row[3].int_value(), 25);  // 1+3+5+7+9
    }
  }
}

TEST(OperatorsTest, GlobalAggregateOfEmptyInput) {
  QueryContext ctx;
  RowSet out = AggregateExec({}, {}, {AggSpec::CountStar(), AggSpec::Sum(Slot(0))},
                             ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].int_value(), 0);
  EXPECT_TRUE(out[0][1].is_null());
}

TEST(OperatorsTest, CountDistinct) {
  RowSet in;
  for (int i = 0; i < 100; i++) in.push_back({Value::Int(i % 7)});
  QueryContext ctx;
  RowSet out = AggregateExec(in, {}, {AggSpec::CountDistinct(Slot(0))}, ctx);
  EXPECT_EQ(out[0][0].int_value(), 7);
}

TEST(OperatorsTest, HashJoinTypes) {
  RowSet build = {{Value::Int(1), Value::String("a")},
                  {Value::Int(2), Value::String("b")},
                  {Value::Int(2), Value::String("c")}};
  RowSet probe = {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)},
                  {Value::Null()}};
  QueryContext ctx;
  // Inner: 1 match for key 1, 2 matches for key 2.
  RowSet inner = HashJoinExec(build, probe, {Slot(0)}, {Slot(0)},
                              JoinType::kInner, nullptr, ctx);
  EXPECT_EQ(inner.size(), 3u);
  // Left: unmatched probe rows (3 and null) kept with null build columns.
  RowSet left = HashJoinExec(build, probe, {Slot(0)}, {Slot(0)},
                             JoinType::kLeft, nullptr, ctx);
  EXPECT_EQ(left.size(), 5u);
  size_t null_pads = 0;
  for (const auto& row : left) null_pads += row[2].is_null();
  EXPECT_EQ(null_pads, 2u);
  // Semi: probe rows with a match.
  RowSet semi = HashJoinExec(build, probe, {Slot(0)}, {Slot(0)},
                             JoinType::kSemi, nullptr, ctx);
  EXPECT_EQ(semi.size(), 2u);
  // Anti: probe rows without a match (null key never matches -> kept).
  RowSet anti = HashJoinExec(build, probe, {Slot(0)}, {Slot(0)},
                             JoinType::kAnti, nullptr, ctx);
  EXPECT_EQ(anti.size(), 2u);
}

TEST(OperatorsTest, JoinResidualPredicate) {
  RowSet build = {{Value::Int(1), Value::Int(10)}, {Value::Int(1), Value::Int(20)}};
  RowSet probe = {{Value::Int(1), Value::Int(15)}};
  QueryContext ctx;
  // Combined row = [probe(2), build(2)]; keep matches where build.v > probe.v.
  ExprPtr residual = Gt(Slot(3), Slot(1));
  RowSet out = HashJoinExec(build, probe, {Slot(0)}, {Slot(0)},
                            JoinType::kInner, residual, ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][3].int_value(), 20);
}

TEST(OperatorsTest, SortAndLimit) {
  RowSet in = {{Value::Int(3), Value::String("c")},
               {Value::Int(1), Value::String("b")},
               {Value::Int(1), Value::String("a")},
               {Value::Int(2), Value::String("d")}};
  QueryContext ctx;
  RowSet sorted = SortExec(in, {{Slot(0), false}, {Slot(1), true}}, ctx);
  EXPECT_EQ(sorted[0][1].string_value(), "b");  // 1 desc-by-string: b before a
  EXPECT_EQ(sorted[1][1].string_value(), "a");
  EXPECT_EQ(sorted[3][0].int_value(), 3);
  RowSet limited = LimitExec(std::move(sorted), 2, ctx);
  EXPECT_EQ(limited.size(), 2u);
}

TEST(OperatorsTest, FilterAndProject) {
  RowSet in = {{Value::Int(1)}, {Value::Int(5)}, {Value::Null()}};
  QueryContext ctx;
  RowSet filtered = FilterExec(in, Gt(Slot(0), ConstInt(2)), ctx);
  ASSERT_EQ(filtered.size(), 1u);  // null comparison rejects the null row
  RowSet projected = ProjectExec(filtered, {Mul(Slot(0), ConstInt(3))}, ctx);
  EXPECT_EQ(projected[0][0].int_value(), 15);
}

}  // namespace
}  // namespace jsontiles::exec
