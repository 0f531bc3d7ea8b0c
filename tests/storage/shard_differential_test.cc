// Differential shard/single harness (DESIGN.md §10): every query result over
// a ShardedRelation must be BIT-identical to the same documents loaded
// unsharded — across shard counts, thread counts and storage modes, for the
// Figure-14 workloads (TPC-H and Yelp), through SaveSharded/OpenSharded
// round-trips, and under a spill-inducing memory limit. Canonicalization is
// Value::ToString per cell, which renders floats exactly (shortest
// round-trip), so two equal strings mean equal bits.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sql/sql_parser.h"
#include "storage/loader.h"
#include "storage/shard.h"
#include "workload/tpch.h"
#include "workload/tpch_queries.h"
#include "workload/yelp.h"

namespace jsontiles::storage {
namespace {

using exec::ExecOptions;
using exec::QueryContext;
using exec::RowSet;

std::string Canonical(const RowSet& rows) {
  std::string out;
  for (const auto& row : rows) {
    for (const auto& v : row) {
      out += v.is_null() ? "∅" : v.ToString();
      out += "|";
    }
    out += "\n";
  }
  return out;
}

const workload::TpchData& Tpch() {
  static const workload::TpchData data = [] {
    workload::TpchOptions options;
    options.scale_factor = 0.004;
    return workload::GenerateTpch(options);
  }();
  return data;
}

const std::vector<std::string>& Yelp() {
  static const std::vector<std::string> docs = [] {
    workload::YelpOptions options;
    options.num_business = 50;
    return workload::GenerateYelp(options);
  }();
  return docs;
}

tiles::TileConfig SmallTiles() {
  tiles::TileConfig config;
  config.tile_size = 128;
  return config;
}

/// Unsharded baseline answers, computed once per (workload, mode).
std::string TpchBaseline(StorageMode mode, int query) {
  Loader loader(mode, SmallTiles());
  static std::map<StorageMode, std::unique_ptr<Relation>> cache;
  auto& rel = cache[mode];
  if (rel == nullptr) rel = loader.Load(Tpch().combined, "tpch").MoveValueOrDie();
  QueryContext ctx;
  return Canonical(workload::RunTpchQuery(query, *rel, ctx));
}

std::string YelpBaseline(StorageMode mode, int query) {
  Loader loader(mode, SmallTiles());
  static std::map<StorageMode, std::unique_ptr<Relation>> cache;
  auto& rel = cache[mode];
  if (rel == nullptr) rel = loader.Load(Yelp(), "yelp").MoveValueOrDie();
  QueryContext ctx;
  return Canonical(workload::RunYelpQuery(query, *rel, ctx));
}

constexpr size_t kShardCounts[] = {1, 2, 3, 8};
constexpr size_t kThreadCounts[] = {1, 4};

// The full Fig-14 sweep on the paper's primary mode: every TPC-H query and
// every Yelp query, every shard/thread combination, results bit-identical.
TEST(ShardDifferentialTest, TilesFig14Workload) {
  for (size_t shards : kShardCounts) {
    for (size_t threads : kThreadCounts) {
      LoadOptions load_options;
      load_options.num_threads = threads;
      ShardOptions shard_options;
      shard_options.shard_count = shards;
      auto tpch = ShardedRelation::Load(Tpch().combined, "tpch",
                                        StorageMode::kTiles, SmallTiles(),
                                        load_options, shard_options)
                      .MoveValueOrDie();
      auto yelp = ShardedRelation::Load(Yelp(), "yelp", StorageMode::kTiles,
                                        SmallTiles(), load_options,
                                        shard_options)
                      .MoveValueOrDie();
      ExecOptions exec_options;
      exec_options.num_threads = threads;
      for (int q = 1; q <= 22; q++) {
        QueryContext ctx(exec_options);
        EXPECT_EQ(Canonical(workload::RunTpchQuery(q, *tpch, ctx)),
                  TpchBaseline(StorageMode::kTiles, q))
            << "TPC-H Q" << q << " shards=" << shards
            << " threads=" << threads;
      }
      for (int q = 1; q <= 5; q++) {
        QueryContext ctx(exec_options);
        EXPECT_EQ(Canonical(workload::RunYelpQuery(q, *yelp, ctx)),
                  YelpBaseline(StorageMode::kTiles, q))
            << "Yelp Y" << q << " shards=" << shards
            << " threads=" << threads;
      }
    }
  }
}

// All storage modes, a representative query subset (scan-heavy, join-heavy,
// aggregation-heavy, float-summing) — same sweep, same guarantee. One test per
// mode keeps each well inside the per-test timeout under sanitizers.
void CheckStorageMode(StorageMode mode) {
  const int tpch_queries[] = {1, 3, 6, 12, 14, 18};
  for (size_t shards : kShardCounts) {
    for (size_t threads : kThreadCounts) {
      LoadOptions load_options;
      load_options.num_threads = threads;
      ShardOptions shard_options;
      shard_options.shard_count = shards;
      auto sharded = ShardedRelation::Load(Tpch().combined, "tpch", mode,
                                           SmallTiles(), load_options,
                                           shard_options)
                         .MoveValueOrDie();
      ExecOptions exec_options;
      exec_options.num_threads = threads;
      for (int q : tpch_queries) {
        QueryContext ctx(exec_options);
        EXPECT_EQ(Canonical(workload::RunTpchQuery(q, *sharded, ctx)),
                  TpchBaseline(mode, q))
            << StorageModeName(mode) << " Q" << q << " shards=" << shards
            << " threads=" << threads;
      }
    }
  }
}

TEST(ShardDifferentialTest, AllStorageModesJsonText) {
  CheckStorageMode(StorageMode::kJsonText);
}

TEST(ShardDifferentialTest, AllStorageModesJsonb) {
  CheckStorageMode(StorageMode::kJsonb);
}

TEST(ShardDifferentialTest, AllStorageModesSinew) {
  CheckStorageMode(StorageMode::kSinew);
}

TEST(ShardDifferentialTest, AllStorageModesTiles) {
  CheckStorageMode(StorageMode::kTiles);
}

// Hash routing (the pruning-enabled layout) must not change any answer.
TEST(ShardDifferentialTest, HashRoutingSameAnswers) {
  LoadOptions load_options;
  load_options.num_threads = 4;
  ShardOptions shard_options;
  shard_options.shard_count = 8;
  shard_options.routing = ShardRouting::kHashKey;
  shard_options.routing_keys = {"l_orderkey"};
  auto sharded = ShardedRelation::Load(Tpch().combined, "tpch",
                                       StorageMode::kTiles, SmallTiles(),
                                       load_options, shard_options)
                     .MoveValueOrDie();
  ExecOptions exec_options;
  exec_options.num_threads = 4;
  for (int q : {1, 3, 6, 12, 18}) {
    QueryContext ctx(exec_options);
    EXPECT_EQ(Canonical(workload::RunTpchQuery(q, *sharded, ctx)),
              TpchBaseline(StorageMode::kTiles, q))
        << "Q" << q;
  }
}

// SaveSharded -> OpenSharded: the reopened relation answers identically
// (shard statistics are recomputed, not persisted).
TEST(ShardDifferentialTest, PersistenceRoundTrip) {
  LoadOptions load_options;
  load_options.num_threads = 4;
  ShardOptions shard_options;
  shard_options.shard_count = 3;
  auto sharded = ShardedRelation::Load(Tpch().combined, "tpch",
                                       StorageMode::kTiles, SmallTiles(),
                                       load_options, shard_options)
                     .MoveValueOrDie();
  std::string dir = ::testing::TempDir();
  ASSERT_TRUE(SaveSharded(*sharded, dir).ok());
  auto reopened = OpenSharded(ShardManifestPath(dir, "tpch")).MoveValueOrDie();
  EXPECT_EQ(reopened->shard_count(), 3u);
  EXPECT_EQ(reopened->num_rows(), sharded->num_rows());
  for (int q : {1, 3, 6, 14, 18}) {
    QueryContext ctx;
    EXPECT_EQ(Canonical(workload::RunTpchQuery(q, *reopened, ctx)),
              TpchBaseline(StorageMode::kTiles, q))
        << "Q" << q;
  }
  // Cleanup.
  for (size_t s = 0; s < 3; s++) {
    std::remove((dir + "/tpch.shard-" + std::to_string(s) + ".jtrl").c_str());
  }
  std::remove(ShardManifestPath(dir, "tpch").c_str());
}

// A spill-inducing memory limit composes with sharded scans: still
// bit-identical (the memory governor from the spill PR).
TEST(ShardDifferentialTest, SpillingKeepsBitIdentity) {
  LoadOptions load_options;
  load_options.num_threads = 4;
  ShardOptions shard_options;
  shard_options.shard_count = 4;
  auto sharded = ShardedRelation::Load(Tpch().combined, "tpch",
                                       StorageMode::kTiles, SmallTiles(),
                                       load_options, shard_options)
                     .MoveValueOrDie();
  ExecOptions exec_options;
  exec_options.mem_limit_bytes = 1 << 18;  // 256 KiB: forces operator spills
  for (int q : {1, 3, 18}) {
    QueryContext ctx(exec_options);
    EXPECT_EQ(Canonical(workload::RunTpchQuery(q, *sharded, ctx)),
              TpchBaseline(StorageMode::kTiles, q))
        << "Q" << q;
  }
}

// EXPLAIN ANALYZE row counts match between a sharded and a plain catalog
// table (per-operator rows in/out are the same; only timings may differ).
// Tile skipping is disabled for the comparison: scans emit at tile
// granularity, and the 3-shard round-robin layout draws different tile
// boundaries than the single relation, so skip-dependent intermediate
// counts are legitimately layout-dependent (final results stay identical —
// every other test in this file proves that with skipping on).
TEST(ShardDifferentialTest, ExplainAnalyzeRowCountsMatch) {
  Loader loader(StorageMode::kTiles, SmallTiles());
  auto plain = loader.Load(Tpch().combined, "tpch").MoveValueOrDie();
  ShardOptions shard_options;
  shard_options.shard_count = 3;
  auto sharded = ShardedRelation::Load(Tpch().combined, "tpch",
                                       StorageMode::kTiles, SmallTiles(), {},
                                       shard_options)
                     .MoveValueOrDie();

  const char* statements[] = {
      "EXPLAIN ANALYZE SELECT l->>'l_returnflag', "
      "SUM(l->>'l_quantity'::BigInt), COUNT(*) FROM tpch l "
      "WHERE l->>'l_orderkey'::BigInt IS NOT NULL "
      "GROUP BY l->>'l_returnflag' ORDER BY 1",
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM tpch o, tpch c "
      "WHERE o->>'o_custkey'::BigInt = c->>'c_custkey'::BigInt"};

  auto row_counts = [](const sql::SqlResult& result) {
    // Keep only the "rows in=…"/"rows out=…" fragments of the plan text.
    std::string counts;
    for (const auto& row : result.rows) {
      std::string line(row[0].s());
      size_t pos = 0;
      while ((pos = line.find("rows ", pos)) != std::string::npos) {
        size_t end = line.find_first_of(",)", pos);
        counts += line.substr(pos, end - pos) + ";";
        pos = end == std::string::npos ? line.size() : end;
      }
    }
    return counts;
  };

  for (const char* statement : statements) {
    sql::SqlCatalog plain_catalog;
    plain_catalog.tables["tpch"] = plain.get();
    sql::SqlCatalog sharded_catalog;
    sharded_catalog.sharded_tables["tpch"] = sharded.get();
    ExecOptions no_skip;
    no_skip.enable_tile_skipping = false;
    QueryContext ctx1(no_skip), ctx2(no_skip);
    auto a = sql::ExecuteSql(statement, plain_catalog, ctx1);
    auto b = sql::ExecuteSql(statement, sharded_catalog, ctx2);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(row_counts(a.ValueOrDie()), row_counts(b.ValueOrDie()))
        << statement;
  }
}

}  // namespace
}  // namespace jsontiles::storage
