// Chaos harness for the distributed runtime (DESIGN.md §14): arm every
// initial worker with a seeded crash at a random result-frame boundary
// (dist.worker_crash_frame=nth:N — the worker SIGKILLs itself mid-stream, so
// the coordinator sees EOF with partial output staged), then run the
// Figure-14 workloads and require every answer to stay BIT-identical to the
// unsharded in-process baseline. The point of the sweep is that recovery is
// not best-effort: fragment re-dispatch after a crash at an arbitrary frame
// boundary must discard the dead worker's partial output atomically and
// produce exactly the bytes a crash-free run produces, across worker counts,
// shard counts and seeds — with the recovery observable (fragments_retried,
// workers_respawned) and zero worker processes leaked.

#include "util/failpoint.h"

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/cluster.h"
#include "storage/loader.h"
#include "storage/shard.h"
#include "util/logging.h"
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

// The chaos query mix: aggregate push-down shapes (partials + merge) and
// scan/join shapes (row-batch streams) — both commit paths must survive a
// crash at any frame boundary.
constexpr int kTpchQueries[] = {1, 3, 6, 12, 13};
constexpr int kYelpQueries[] = {1, 2, 3};

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

  ~SavedWorkload() {
    for (size_t s = 0; s < shards; s++) {
      std::remove(
          (dir + "/" + name + ".shard-" + std::to_string(s) + ".jtrl")
              .c_str());
    }
    if (!manifest_path.empty()) std::remove(manifest_path.c_str());
    ::rmdir(dir.c_str());  // succeeds once the last workload is gone
  }
};

std::unique_ptr<SavedWorkload> SaveAndOpen(const std::vector<std::string>& docs,
                                           const std::string& name,
                                           size_t shards) {
  LoadOptions load_options;
  load_options.num_threads = 4;
  ShardOptions shard_options;
  shard_options.shard_count = shards;
  auto loaded = ShardedRelation::Load(docs, name, StorageMode::kTiles,
                                      SmallTiles(), load_options,
                                      shard_options)
                    .MoveValueOrDie();
  auto out = std::make_unique<SavedWorkload>();
  // Per-process directory: ctest runs the chaos tests in parallel with the
  // other dist suites, which save workloads under the same names.
  out->dir = ::testing::TempDir() + "chaos_" + std::to_string(::getpid());
  ::mkdir(out->dir.c_str(), 0755);
  out->name = name;
  out->shards = shards;
  JSONTILES_CHECK(storage::SaveSharded(*loaded, out->dir).ok());
  out->manifest_path = storage::ShardManifestPath(out->dir, name);
  out->sharded = storage::OpenSharded(out->manifest_path).MoveValueOrDie();
  return out;
}

/// Start a cluster whose initial workers each carry a seeded crash point:
/// worker i SIGKILLs itself while writing its `crash_frame[i]`-th result
/// frame. Respawned workers are healthy (respawn_failpoints stays empty).
std::unique_ptr<Cluster> StartChaosCluster(const SavedWorkload& w,
                                           size_t workers,
                                           const std::vector<int>& crash_frame) {
  ClusterOptions options;
  options.num_workers = workers;
  options.workerd_path = JSONTILES_WORKERD_PATH;
  options.per_worker_failpoints.resize(workers);
  for (size_t i = 0; i < workers; i++) {
    options.per_worker_failpoints[i].push_back(
        "dist.worker_crash_frame=nth:" + std::to_string(crash_frame[i]));
  }
  auto cluster = Cluster::Start(w.manifest_path, w.sharded.get(), options);
  if (!cluster.ok()) {
    ADD_FAILURE() << "Cluster::Start: " << cluster.status().ToString();
  }
  return cluster.MoveValueOrDie();
}

/// Small backoffs: chaos sweeps measure correctness, not patience.
ExecOptions FastRetry() {
  ExecOptions options;
  options.dist_retry.respawn_backoff_ms = 1;
  options.dist_retry.respawn_backoff_cap_ms = 10;
  return options;
}

void ExpectNoChildren(const char* where) {
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1) << where;
  EXPECT_EQ(errno, ECHILD) << where;
}

constexpr size_t kShardCounts[] = {3, 8};
constexpr size_t kWorkerCounts[] = {2, 4};
constexpr uint32_t kSeeds[] = {7, 42};

// The sweep: (shards × workers × seeds), every initial worker armed to die
// at a seeded frame boundary, every query bit-identical to the unsharded
// baseline, at least one fragment retried per cluster, no leaked processes.
TEST(DistChaosTest, SeededCrashSweepStaysBitIdentical) {
  for (size_t shards : kShardCounts) {
    auto tpch = SaveAndOpen(Tpch().combined, "tpch", shards);
    auto yelp = SaveAndOpen(Yelp(), "yelp", shards);
    for (size_t workers : kWorkerCounts) {
      for (uint32_t seed : kSeeds) {
        // Frame boundaries 1..5: early enough that every worker that serves
        // at least one fragment is guaranteed to hit its crash point within
        // the query mix (every fragment writes at least one result frame).
        std::mt19937 rng(seed);
        std::uniform_int_distribution<int> frame(1, 5);
        std::vector<int> crash_frame(workers);
        for (size_t i = 0; i < workers; i++) crash_frame[i] = frame(rng);

        const std::string label = "shards=" + std::to_string(shards) +
                                  " workers=" + std::to_string(workers) +
                                  " seed=" + std::to_string(seed);
        auto tpch_cluster = StartChaosCluster(*tpch, workers, crash_frame);
        for (int q : kTpchQueries) {
          QueryContext ctx(FastRetry());
          ctx.dist = tpch_cluster.get();
          EXPECT_EQ(Canonical(workload::RunTpchQuery(q, *tpch->sharded, ctx)),
                    TpchBaseline(q))
              << "TPC-H Q" << q << " " << label;
          Status st = ctx.ConsumeStatus();
          EXPECT_TRUE(st.ok()) << "TPC-H Q" << q << " " << label << ": "
                               << st.ToString();
        }
        // Every worker that served a fragment crashed exactly once and was
        // replaced; the recovery must be visible in the cluster metrics.
        EXPECT_GE(tpch_cluster->fragments_retried(), 1u) << label;
        EXPECT_GE(tpch_cluster->workers_respawned(), 1u) << label;
        EXPECT_EQ(tpch_cluster->alive_workers(), workers) << label;
        tpch_cluster.reset();

        auto yelp_cluster = StartChaosCluster(*yelp, workers, crash_frame);
        for (int q : kYelpQueries) {
          QueryContext ctx(FastRetry());
          ctx.dist = yelp_cluster.get();
          EXPECT_EQ(Canonical(workload::RunYelpQuery(q, *yelp->sharded, ctx)),
                    YelpBaseline(q))
              << "Yelp Y" << q << " " << label;
          Status st = ctx.ConsumeStatus();
          EXPECT_TRUE(st.ok()) << "Yelp Y" << q << " " << label << ": "
                               << st.ToString();
        }
        EXPECT_GE(yelp_cluster->fragments_retried(), 1u) << label;
        yelp_cluster.reset();

        // Both clusters torn down: every worker ever spawned (initial,
        // crashed, respawned) must be reaped — zero zombies, zero leaks.
        ExpectNoChildren(label.c_str());
      }
    }
  }
}

// Chaos under concurrent fragment streams: more workers than shards leaves
// idle workers whose crash points never fire — recovery must not wait on
// them, and the armed workers' deaths still recover cleanly.
TEST(DistChaosTest, IdleArmedWorkersDoNotStall) {
  auto tpch = SaveAndOpen(Tpch().combined, "tpch", 3);
  // 6 workers, 3 shards: at least 3 workers never receive a fragment.
  auto cluster = StartChaosCluster(*tpch, 6, {1, 1, 1, 1, 1, 1});
  QueryContext ctx(FastRetry());
  ctx.dist = cluster.get();
  EXPECT_EQ(Canonical(workload::RunTpchQuery(6, *tpch->sharded, ctx)),
            TpchBaseline(6));
  Status st = ctx.ConsumeStatus();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(cluster->fragments_retried(), 1u);
  cluster.reset();
  ExpectNoChildren("idle-armed teardown");
}

}  // namespace
}  // namespace jsontiles::dist
