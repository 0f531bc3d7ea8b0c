// Shard-level pruning in ScanExec (routing-key equality, shard bloom
// filters, shard zone maps — checked before any tile-level work), the
// shards_scanned/shards_pruned observability counters, SQL over sharded
// catalog tables, and global-rowid joins against sharded array side
// relations.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/scan.h"
#include "opt/query.h"
#include "sql/sql_parser.h"
#include "storage/loader.h"
#include "storage/shard.h"
#include "tiles/keypath.h"

namespace jsontiles::exec {
namespace {

using opt::QueryBlock;
using opt::TableRef;
using storage::LoadOptions;
using storage::Loader;
using storage::Relation;
using storage::ShardedRelation;
using storage::ShardOptions;
using storage::ShardRouting;
using storage::StorageMode;

std::string Path(std::initializer_list<const char*> keys) {
  std::string encoded;
  for (const char* k : keys) tiles::AppendKeySegment(&encoded, k);
  return encoded;
}

std::string Canonical(const RowSet& rows) {
  std::string out;
  for (const auto& row : rows) {
    for (const auto& v : row) out += (v.is_null() ? "∅" : v.ToString()) + "|";
    out += "\n";
  }
  return out;
}

/// 800 docs, hash-routed on integer "k" (80 distinct values) over 8 shards.
std::unique_ptr<ShardedRelation> HashSharded() {
  std::vector<std::string> docs;
  for (int i = 0; i < 800; i++) {
    docs.push_back(R"({"k":)" + std::to_string(i % 80) + R"(,"v":)" +
                   std::to_string(i) + "}");
  }
  ShardOptions options;
  options.shard_count = 8;
  options.routing = ShardRouting::kHashKey;
  options.routing_keys = {"k"};
  tiles::TileConfig config;
  config.tile_size = 32;
  return ShardedRelation::Load(docs, "hashed", StorageMode::kTiles, config, {},
                               options)
      .MoveValueOrDie();
}

TEST(ShardScanTest, RoutingKeyEqualityPrunesToOneShard) {
  auto sharded = HashSharded();
  sql::SqlCatalog catalog;
  catalog.sharded_tables["hashed"] = sharded.get();
  QueryContext ctx;
  auto result = sql::ExecuteSql(
      "SELECT t->>'v'::BigInt FROM hashed t WHERE t->>'k'::BigInt = 42 "
      "ORDER BY 1",
      catalog, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // k=42 appears in rows 42, 122, ..., 762: ten rows.
  EXPECT_EQ(result.ValueOrDie().rows.size(), 10u);
  EXPECT_EQ(result.ValueOrDie().rows[0][0].int_value(), 42);
  // All equal keys live in one shard; the other 7 are pruned unscanned.
  EXPECT_EQ(ctx.shards_scanned, 1u);
  EXPECT_EQ(ctx.shards_pruned, 7u);
}

TEST(ShardScanTest, RoutingPruneDisabledWithTileSkippingOff) {
  auto sharded = HashSharded();
  sql::SqlCatalog catalog;
  catalog.sharded_tables["hashed"] = sharded.get();
  ExecOptions options;
  options.enable_tile_skipping = false;
  QueryContext ctx(options);
  auto result = sql::ExecuteSql(
      "SELECT t->>'v'::BigInt FROM hashed t WHERE t->>'k'::BigInt = 42 "
      "ORDER BY 1",
      catalog, ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().rows.size(), 10u);
  EXPECT_EQ(ctx.shards_pruned, 0u);
  EXPECT_EQ(ctx.shards_scanned, 8u);
}

TEST(ShardScanTest, StringRoutingEqualityPrunes) {
  std::vector<std::string> docs;
  for (int i = 0; i < 400; i++) {
    docs.push_back(R"({"city":"c)" + std::to_string(i % 20) + R"(","v":)" +
                   std::to_string(i) + "}");
  }
  ShardOptions options;
  options.shard_count = 8;
  options.routing = ShardRouting::kHashKey;
  options.routing_keys = {"city"};
  auto sharded = ShardedRelation::Load(docs, "cities", StorageMode::kTiles, {},
                                       {}, options)
                     .MoveValueOrDie();
  sql::SqlCatalog catalog;
  catalog.sharded_tables["cities"] = sharded.get();
  QueryContext ctx;
  auto result = sql::ExecuteSql(
      "SELECT COUNT(*) FROM cities t WHERE t->>'city' = 'c7'", catalog, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().rows[0][0].int_value(), 20);
  EXPECT_EQ(ctx.shards_scanned, 1u);
  EXPECT_EQ(ctx.shards_pruned, 7u);
}

TEST(ShardScanTest, BloomPrunesShardsWithoutThePath) {
  // Route on a type marker: "a"-docs and "b"-docs land on (at most) two home
  // shards. A scan requiring a_key can only touch shards holding "a" docs —
  // the rest are pruned by the shard bloom filter.
  std::vector<std::string> docs;
  for (int i = 0; i < 300; i++) {
    if (i % 2 == 0) {
      docs.push_back(R"({"t":"a","a_key":)" + std::to_string(i) + "}");
    } else {
      docs.push_back(R"({"t":"b","b_key":)" + std::to_string(i) + "}");
    }
  }
  ShardOptions options;
  options.shard_count = 8;
  options.routing = ShardRouting::kHashKey;
  options.routing_keys = {"t"};
  tiles::TileConfig config;
  config.tile_size = 32;
  auto sharded = ShardedRelation::Load(docs, "marked", StorageMode::kTiles,
                                       config, {}, options)
                     .MoveValueOrDie();
  size_t shards_with_a = 0;
  for (size_t s = 0; s < sharded->shard_count(); s++) {
    if (sharded->shard_stats(s).MayContainPath(Path({"a_key"}))) {
      shards_with_a++;
    }
  }
  ASSERT_GE(shards_with_a, 1u);
  ASSERT_LE(shards_with_a, 2u);  // only hash("a") % 8 can hold a_key docs

  sql::SqlCatalog catalog;
  catalog.sharded_tables["marked"] = sharded.get();
  QueryContext ctx;
  auto result = sql::ExecuteSql(
      "SELECT COUNT(*) FROM marked m WHERE m->>'a_key'::BigInt IS NOT NULL",
      catalog, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie().rows[0][0].int_value(), 150);
  EXPECT_EQ(ctx.shards_scanned, shards_with_a);
  EXPECT_EQ(ctx.shards_pruned, 8u - shards_with_a);
}

TEST(ShardScanTest, ZoneMapsPruneDisjointValueRanges) {
  // Each region's values occupy a disjoint range; routing on the region
  // string gives shards whose zone maps cover only their regions' ranges. A
  // range predicate selecting one region's values prunes the others.
  std::vector<std::string> docs;
  for (int r = 0; r < 8; r++) {
    for (int j = 0; j < 40; j++) {
      docs.push_back(R"({"region":"r)" + std::to_string(r) + R"(","v":)" +
                     std::to_string(r * 1000 + j) + "}");
    }
  }
  ShardOptions options;
  options.shard_count = 8;
  options.routing = ShardRouting::kHashKey;
  options.routing_keys = {"region"};
  tiles::TileConfig config;
  config.tile_size = 32;
  auto sharded = ShardedRelation::Load(docs, "regions", StorageMode::kTiles,
                                       config, {}, options)
                     .MoveValueOrDie();
  sql::SqlCatalog catalog;
  catalog.sharded_tables["regions"] = sharded.get();
  QueryContext ctx;
  auto result = sql::ExecuteSql(
      "SELECT COUNT(*) FROM regions t WHERE t->>'v'::BigInt < 40", catalog,
      ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Only region r0's docs satisfy v < 40.
  EXPECT_EQ(result.ValueOrDie().rows[0][0].int_value(), 40);
  // Shards without region r0 have min(v) >= 1000: zone-pruned.
  EXPECT_GE(ctx.shards_pruned, 1u);
  EXPECT_EQ(ctx.shards_scanned + ctx.shards_pruned, 8u);
  EXPECT_LE(ctx.shards_scanned, 7u);
}

TEST(ShardScanTest, PruningNeverChangesAnswers) {
  auto sharded = HashSharded();
  // Compare every equality probe against the same scan with skipping off.
  for (int key = 0; key < 80; key += 13) {
    std::string statement =
        "SELECT t->>'v'::BigInt FROM hashed t WHERE t->>'k'::BigInt = " +
        std::to_string(key) + " ORDER BY 1";
    sql::SqlCatalog catalog;
    catalog.sharded_tables["hashed"] = sharded.get();
    QueryContext pruned_ctx;
    ExecOptions no_skip;
    no_skip.enable_tile_skipping = false;
    QueryContext full_ctx(no_skip);
    auto a = sql::ExecuteSql(statement, catalog, pruned_ctx);
    auto b = sql::ExecuteSql(statement, catalog, full_ctx);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(Canonical(a.ValueOrDie().rows), Canonical(b.ValueOrDie().rows))
        << statement;
  }
}

TEST(ShardScanTest, ExplainAnalyzeReportsShardCounters) {
  auto sharded = HashSharded();
  sql::SqlCatalog catalog;
  catalog.sharded_tables["hashed"] = sharded.get();
  QueryContext ctx;
  auto result = sql::ExecuteSql(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM hashed t "
      "WHERE t->>'k'::BigInt = 3",
      catalog, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string plan;
  for (const auto& row : result.ValueOrDie().rows) {
    plan += std::string(row[0].s()) + "\n";
  }
  EXPECT_NE(plan.find("Shards scanned: 1, pruned: 7"), std::string::npos)
      << plan;
}

TEST(ShardScanTest, GlobalRowIdsAreUniqueAcrossShards) {
  auto sharded = HashSharded();
  QueryBlock q;
  q.AddTable(TableRef::Sharded("t", sharded.get()));
  q.GroupBy({exec::RowId("t")});
  q.Aggregate(AggSpec::CountStar());
  QueryContext ctx;
  auto rows = q.Execute(ctx);
  // One group per document: no two rows across shards share a rowid.
  EXPECT_EQ(rows.size(), 800u);
  for (const auto& row : rows) {
    EXPECT_EQ(row[1].int_value(), 1) << "duplicate rowid " << row[0].i;
  }
}

TEST(ShardScanTest, SideRouteContainsMatchesUnsharded) {
  std::vector<std::string> docs;
  for (int i = 0; i < 600; i++) {
    std::string tags = i % 3 == 0 ? R"([{"t":"hot"},{"t":"new"}])"
                                  : R"([{"t":"cold"},{"t":"old"}])";
    docs.push_back(R"({"id":)" + std::to_string(i) + R"(,"grp":)" +
                   std::to_string(i % 5) + R"(,"tags":)" + tags + "}");
  }
  LoadOptions load_options;
  load_options.extract_arrays = true;

  // Docs with a "hot" tag per group, and their largest id: each shard's
  // side relation marks its own rows under global row ids.
  auto run = [&](TableRef table) {
    QueryContext ctx;
    QueryBlock q;
    q.AddTable(std::move(table));
    q.GroupBy({exec::Access("t", {"grp"}, ValueType::kInt)});
    q.Aggregate(AggSpec::CountStar());
    q.Aggregate(AggSpec::Max(exec::Access("t", {"id"}, ValueType::kInt)));
    q.OrderBy(Slot(0));
    return Canonical(q.Execute(ctx));
  };
  auto hot = [] { return exec::ArrayContains("t", {"tags"}, "t", "hot"); };

  Loader loader(StorageMode::kTiles, {}, load_options);
  auto plain = loader.Load(docs, "base").MoveValueOrDie();
  ASSERT_NE(plain->FindSideRelation(Path({"tags"})), nullptr);
  std::string expected = run(TableRef::Rel("t", plain.get(), hot()));
  ASSERT_FALSE(expected.empty());

  for (size_t shards : {size_t{2}, size_t{3}}) {
    ShardOptions shard_options;
    shard_options.shard_count = shards;
    auto sharded = ShardedRelation::Load(docs, "base", StorageMode::kTiles, {},
                                         load_options, shard_options)
                       .MoveValueOrDie();
    EXPECT_EQ(run(TableRef::Sharded("t", sharded.get(), hot())), expected)
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace jsontiles::exec
