// Distributed/local differential harness (DESIGN.md §13): every query result
// executed on a worker cluster must be BIT-identical to the same documents
// loaded unsharded in-process — across worker counts, shard counts and thread
// counts, for the Figure-14 workloads (TPC-H and Yelp). Every cluster runs
// against a SaveSharded/OpenSharded round-trip by construction (workers open
// shards from the JTSM manifest), so the sweep also exercises manifest
// persistence. Canonicalization is Value::ToString per cell, which renders
// floats exactly (shortest round-trip), so two equal strings mean equal bits.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "dist/cluster.h"
#include "dist/wire.h"
#include "sql/sql_parser.h"
#include "storage/loader.h"
#include "storage/shard.h"
#include "workload/tpch.h"
#include "workload/tpch_queries.h"
#include "workload/yelp.h"

#ifndef JSONTILES_WORKERD_PATH
#error "dist tests require the JSONTILES_WORKERD_PATH compile definition"
#endif

namespace jsontiles::dist {
namespace {

using exec::ExecOptions;
using exec::QueryContext;
using exec::RowSet;
using storage::LoadOptions;
using storage::Relation;
using storage::ShardedRelation;
using storage::ShardOptions;
using storage::StorageMode;

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

/// Unsharded in-process baseline answers, computed once per query.
std::string TpchBaseline(int query) {
  static std::unique_ptr<Relation> rel;
  static std::map<int, std::string> cache;
  auto it = cache.find(query);
  if (it != cache.end()) return it->second;
  if (rel == nullptr) {
    storage::Loader loader(StorageMode::kTiles, SmallTiles());
    rel = loader.Load(Tpch().combined, "tpch").MoveValueOrDie();
  }
  QueryContext ctx;
  return cache[query] = Canonical(workload::RunTpchQuery(query, *rel, ctx));
}

std::string YelpBaseline(int query) {
  static std::unique_ptr<Relation> rel;
  static std::map<int, std::string> cache;
  auto it = cache.find(query);
  if (it != cache.end()) return it->second;
  if (rel == nullptr) {
    storage::Loader loader(StorageMode::kTiles, SmallTiles());
    rel = loader.Load(Yelp(), "yelp").MoveValueOrDie();
  }
  QueryContext ctx;
  return cache[query] = Canonical(workload::RunYelpQuery(query, *rel, ctx));
}

/// A saved + reopened sharded workload, plus cleanup of its files.
struct SavedWorkload {
  std::string manifest_path;
  std::unique_ptr<ShardedRelation> sharded;
  std::string dir;
  std::string name;
  size_t shards = 0;

  SavedWorkload() = default;
  SavedWorkload(SavedWorkload&& other) noexcept { *this = std::move(other); }
  SavedWorkload& operator=(SavedWorkload&& other) noexcept {
    manifest_path = std::move(other.manifest_path);
    sharded = std::move(other.sharded);
    dir = std::move(other.dir);
    name = std::move(other.name);
    shards = other.shards;
    other.manifest_path.clear();
    other.shards = 0;
    return *this;
  }

  ~SavedWorkload() {
    for (size_t s = 0; s < shards; s++) {
      std::remove(
          (dir + "/" + name + ".shard-" + std::to_string(s) + ".jtrl")
              .c_str());
    }
    if (!manifest_path.empty()) std::remove(manifest_path.c_str());
    if (!dir.empty()) ::rmdir(dir.c_str());
  }
};

/// Per-process workload directory: ctest runs each TEST as its own process,
/// in parallel with the failpoint and chaos suites — every dist test that
/// saves a workload needs its own directory or they clobber each other's
/// manifests.
std::string PrivateDir() {
  std::string dir =
      ::testing::TempDir() + "distdiff_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

SavedWorkload SaveAndOpen(const std::vector<std::string>& docs,
                          const std::string& name, size_t shards) {
  LoadOptions load_options;
  load_options.num_threads = 4;
  ShardOptions shard_options;
  shard_options.shard_count = shards;
  auto loaded = ShardedRelation::Load(docs, name, StorageMode::kTiles,
                                      SmallTiles(), load_options,
                                      shard_options)
                    .MoveValueOrDie();
  SavedWorkload out;
  out.dir = PrivateDir();
  out.name = name;
  out.shards = shards;
  JSONTILES_CHECK(storage::SaveSharded(*loaded, out.dir).ok());
  out.manifest_path = storage::ShardManifestPath(out.dir, name);
  out.sharded = storage::OpenSharded(out.manifest_path).MoveValueOrDie();
  return out;
}

std::unique_ptr<Cluster> StartCluster(const SavedWorkload& w, size_t workers,
                                      size_t worker_threads) {
  ClusterOptions options;
  options.num_workers = workers;
  options.worker_threads = worker_threads;
  options.workerd_path = JSONTILES_WORKERD_PATH;
  auto cluster = Cluster::Start(w.manifest_path, w.sharded.get(), options);
  if (!cluster.ok()) {
    ADD_FAILURE() << "Cluster::Start: " << cluster.status().ToString();
  }
  return cluster.MoveValueOrDie();
}

constexpr size_t kShardCounts[] = {1, 2, 3, 8};
constexpr size_t kWorkerCounts[] = {1, 2, 4};
constexpr size_t kThreadCounts[] = {1, 4};

// The full sweep: every TPC-H and Yelp query, every worker × shard × thread
// combination, results bit-identical to the unsharded in-process baseline.
// Thread count applies on both sides: the coordinator's ExecOptions (local
// operators above the exchange) and the workers' fragment contexts.
TEST(DistDifferentialTest, WorkersShardsThreadsFig14) {
  for (size_t shards : kShardCounts) {
    SavedWorkload tpch = SaveAndOpen(Tpch().combined, "tpch", shards);
    SavedWorkload yelp = SaveAndOpen(Yelp(), "yelp", shards);
    for (size_t workers : kWorkerCounts) {
      for (size_t threads : kThreadCounts) {
        auto tpch_cluster = StartCluster(tpch, workers, threads);
        auto yelp_cluster = StartCluster(yelp, workers, threads);
        ExecOptions exec_options;
        exec_options.num_threads = threads;
        for (int q = 1; q <= 22; q++) {
          QueryContext ctx(exec_options);
          ctx.dist = tpch_cluster.get();
          EXPECT_EQ(Canonical(workload::RunTpchQuery(q, *tpch.sharded, ctx)),
                    TpchBaseline(q))
              << "TPC-H Q" << q << " workers=" << workers
              << " shards=" << shards << " threads=" << threads;
        }
        for (int q = 1; q <= 5; q++) {
          QueryContext ctx(exec_options);
          ctx.dist = yelp_cluster.get();
          EXPECT_EQ(Canonical(workload::RunYelpQuery(q, *yelp.sharded, ctx)),
                    YelpBaseline(q))
              << "Yelp Y" << q << " workers=" << workers
              << " shards=" << shards << " threads=" << threads;
        }
      }
    }
  }
}

// The LPT shard assignment is deterministic and covers every shard exactly
// once; more workers than shards leaves the extras idle but harmless.
TEST(DistDifferentialTest, ShardAssignmentCoversAllShards) {
  SavedWorkload tpch = SaveAndOpen(Tpch().combined, "tpch", 3);
  for (size_t workers : kWorkerCounts) {
    auto cluster = StartCluster(tpch, workers, 1);
    EXPECT_EQ(cluster->shard_count(), 3u);
    ASSERT_EQ(cluster->shard_owner().size(), 3u);
    for (size_t owner : cluster->shard_owner()) {
      EXPECT_LT(owner, cluster->num_workers());
    }
    // Deterministic: a second cluster assigns identically.
    auto again = StartCluster(tpch, workers, 1);
    EXPECT_EQ(cluster->shard_owner(), again->shard_owner());
  }
}

// The manifest (v4) carries per-shard row counts and byte sizes, so the
// coordinator plans the assignment without touching any shard file.
TEST(DistDifferentialTest, ManifestCarriesShardStats) {
  SavedWorkload tpch = SaveAndOpen(Tpch().combined, "tpch", 3);
  auto cluster = StartCluster(tpch, 2, 1);
  const storage::ShardManifestInfo& manifest = cluster->manifest();
  EXPECT_EQ(manifest.version, 4u);
  ASSERT_EQ(manifest.num_rows.size(), 3u);
  ASSERT_EQ(manifest.file_sizes.size(), 3u);
  uint64_t total_rows = 0;
  for (size_t s = 0; s < 3; s++) {
    EXPECT_GT(manifest.num_rows[s], 0u) << "shard " << s;
    EXPECT_GT(manifest.file_sizes[s], 0u) << "shard " << s;
    total_rows += manifest.num_rows[s];
  }
  EXPECT_EQ(total_rows, tpch.sharded->num_rows());
}

// Only manifest version 4 is read. A version-1 or version-3 manifest (the v4
// layout plus the extraction threshold and the reorder flag in the tile
// config) and a version-2 one (v3 with each shard entry followed by a
// side-relation inventory) fail with a clean Unsupported status, from
// ReadShardManifest (what a coordinator calls) and from OpenSharded.
TEST(DistDifferentialTest, OldManifestVersionsRejected) {
  SavedWorkload tpch = SaveAndOpen(Tpch().combined, "tpch", 2);
  auto parsed = storage::ReadShardManifest(tpch.manifest_path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const storage::ShardManifestInfo& info = parsed.ValueOrDie();
  ASSERT_EQ(info.version, 4u);

  // Re-encode with ByteWriter, the manifest writer's codec, so the bytes
  // match what a v1, v2 or v3 writer produced.
  for (uint64_t version : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
    std::vector<uint8_t> old;
    ByteWriter w(&old);
    for (char c : std::string_view("JTSM")) w.U8(static_cast<uint8_t>(c));
    w.Varint(version);
    w.Str(info.name);
    w.U8(static_cast<uint8_t>(info.mode));
    w.U8(static_cast<uint8_t>(info.shard_options.routing));
    w.Str(info.routing_path);
    w.U8(static_cast<uint8_t>(info.routing_kind));
    w.Varint(info.config.tile_size);
    w.Varint(info.config.partition_size);
    w.F64(0.6);  // extraction threshold
    w.U8(info.config.enable_date_extraction ? 1 : 0);
    w.U8(1);  // reordering
    w.Varint(info.shard_count());
    for (size_t s = 0; s < info.shard_count(); s++) {
      w.Str(info.filenames[s]);
      w.Varint(info.num_rows[s]);
      w.Varint(info.file_sizes[s]);
      if (version == 2) w.Varint(0);  // empty side inventory
    }
    {
      std::FILE* f = std::fopen(tpch.manifest_path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(old.data(), 1, old.size(), f), old.size());
      std::fclose(f);
    }

    auto reparsed = storage::ReadShardManifest(tpch.manifest_path);
    ASSERT_FALSE(reparsed.ok()) << "version " << version;
    EXPECT_EQ(reparsed.status().code(), StatusCode::kUnsupported)
        << reparsed.status().ToString();
    EXPECT_NE(reparsed.status().message().find(
                  "unsupported shard manifest version " +
                  std::to_string(version)),
              std::string::npos)
        << reparsed.status().ToString();
    auto reopened = storage::OpenSharded(tpch.manifest_path);
    ASSERT_FALSE(reopened.ok()) << "version " << version;
    EXPECT_EQ(reopened.status().code(), StatusCode::kUnsupported)
        << reopened.status().ToString();
  }
}

// SQL front-end integration: a catalog with `dist` set routes sharded scans
// through the cluster, the aggregation push-down engages for eligible
// queries, and EXPLAIN ANALYZE shows the exchange with per-worker counters.
TEST(DistDifferentialTest, SqlCatalogAndExplainAnalyze) {
  SavedWorkload tpch = SaveAndOpen(Tpch().combined, "tpch", 3);
  auto cluster = StartCluster(tpch, 2, 1);

  sql::SqlCatalog local_catalog;
  local_catalog.sharded_tables["tpch"] = tpch.sharded.get();
  sql::SqlCatalog dist_catalog = local_catalog;
  dist_catalog.dist = cluster.get();

  const char* statements[] = {
      // Aggregate push-down shape: partials merge in the coordinator.
      "SELECT l->>'l_returnflag', SUM(l->>'l_quantity'::BigInt), "
      "SUM(l->>'l_extendedprice'::Float), COUNT(*) FROM tpch l "
      "GROUP BY l->>'l_returnflag' ORDER BY 1",
      // Scan shape with a filter: row batches stream back.
      "SELECT l->>'l_orderkey'::BigInt, l->>'l_shipdate' FROM tpch l "
      "WHERE l->>'l_quantity'::BigInt > 45 ORDER BY 1, 2 LIMIT 20",
      // Join: distributed scans feed the local join above the exchange.
      "SELECT COUNT(*) FROM tpch o, tpch c "
      "WHERE o->>'o_custkey'::BigInt = c->>'c_custkey'::BigInt"};
  for (const char* statement : statements) {
    QueryContext ctx1, ctx2;
    auto local = sql::ExecuteSql(statement, local_catalog, ctx1);
    auto dist = sql::ExecuteSql(statement, dist_catalog, ctx2);
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    ASSERT_TRUE(dist.ok()) << dist.status().ToString();
    EXPECT_EQ(Canonical(local.ValueOrDie().rows),
              Canonical(dist.ValueOrDie().rows))
        << statement;
  }

  QueryContext ctx;
  auto explained = sql::ExecuteSql(
      "EXPLAIN ANALYZE SELECT l->>'l_returnflag', COUNT(*) FROM tpch l "
      "GROUP BY l->>'l_returnflag' ORDER BY 1",
      dist_catalog, ctx);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  std::string plan;
  for (const auto& row : explained.ValueOrDie().rows) {
    plan += std::string(row[0].s()) + "\n";
  }
  EXPECT_NE(plan.find("ExchangeAggregate"), std::string::npos) << plan;
  EXPECT_NE(plan.find("workers="), std::string::npos) << plan;
  EXPECT_NE(plan.find("w0_rows="), std::string::npos) << plan;
  EXPECT_NE(plan.find("w1_rows="), std::string::npos) << plan;
}

// Shard pruning happens in the coordinator with the same statistics the
// local scan uses: a selective range predicate on a hash-routed layout must
// report pruned shards and still answer identically.
TEST(DistDifferentialTest, CoordinatorShardPruning) {
  LoadOptions load_options;
  load_options.num_threads = 4;
  ShardOptions shard_options;
  shard_options.shard_count = 8;
  shard_options.routing = storage::ShardRouting::kHashKey;
  shard_options.routing_keys = {"l_orderkey"};
  auto loaded = ShardedRelation::Load(Tpch().combined, "tpch",
                                      StorageMode::kTiles, SmallTiles(),
                                      load_options, shard_options)
                    .MoveValueOrDie();
  SavedWorkload w;
  w.dir = PrivateDir();
  w.name = "tpch";
  w.shards = 8;
  ASSERT_TRUE(storage::SaveSharded(*loaded, w.dir).ok());
  w.manifest_path = storage::ShardManifestPath(w.dir, "tpch");
  w.sharded = storage::OpenSharded(w.manifest_path).MoveValueOrDie();

  auto cluster = StartCluster(w, 2, 1);
  sql::SqlCatalog catalog;
  catalog.sharded_tables["tpch"] = w.sharded.get();
  catalog.dist = cluster.get();
  // Point lookup on the routing key: at most one shard survives pruning.
  QueryContext ctx;
  auto result = sql::ExecuteSql(
      "SELECT COUNT(*) FROM tpch l WHERE l->>'l_orderkey'::BigInt = 1",
      catalog, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(ctx.shards_pruned, 0u);
  EXPECT_LE(ctx.shards_scanned, 1u);

  // Same count locally.
  sql::SqlCatalog local_catalog;
  local_catalog.sharded_tables["tpch"] = w.sharded.get();
  QueryContext local_ctx;
  auto local = sql::ExecuteSql(
      "SELECT COUNT(*) FROM tpch l WHERE l->>'l_orderkey'::BigInt = 1",
      local_catalog, local_ctx);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(Canonical(local.ValueOrDie().rows),
            Canonical(result.ValueOrDie().rows));
}

}  // namespace
}  // namespace jsontiles::dist
