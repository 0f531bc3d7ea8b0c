// LoadBreakdown aggregation over a sharded load, whose one task graph runs
// every shard's partitions: per-phase CPU seconds sum across shards while
// total_wall_secs stays wall-clock, and the degraded-mode error budget
// (LoadOptions::max_errors) is a single cap across all shards — exercised
// at 4 shards x 4 threads so the CI TSan job would catch a racy counter.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/loader.h"
#include "storage/shard.h"

namespace jsontiles::storage {
namespace {

/// `n` documents with `bad` malformed ones spread through the stream at
/// stride+1 spacing, so round-robin sharding lands them on rotating shards.
std::vector<std::string> DocsWithErrors(size_t n, size_t bad) {
  std::vector<std::string> docs(n);
  for (size_t i = 0; i < n; i++) {
    docs[i] = R"({"id":)" + std::to_string(i) + R"(,"v":)" +
              std::to_string(i % 50) + "}";
  }
  size_t stride = bad == 0 ? n : n / bad;
  for (size_t i = 0; i < bad; i++) {
    docs[i * (stride + 1) % n] = "{broken json " + std::to_string(i);
  }
  return docs;
}

TEST(ShardBreakdownTest, PhaseSecondsSumAcrossConcurrentShards) {
  auto docs = DocsWithErrors(2000, 0);
  tiles::TileConfig config;
  config.tile_size = 64;
  LoadOptions load_options;
  load_options.num_threads = 4;
  ShardOptions shard_options;
  shard_options.shard_count = 4;
  LoadBreakdown breakdown;
  auto sharded = ShardedRelation::Load(docs, "t", StorageMode::kTiles, config,
                                       load_options, shard_options, &breakdown)
                     .MoveValueOrDie();
  EXPECT_EQ(sharded->num_rows(), 2000u);
  EXPECT_EQ(breakdown.tuples, 2000u);
  EXPECT_EQ(breakdown.skipped_docs, 0u);
  // Phase seconds are CPU sums over all 4 shard loads; the wall clock covers
  // the concurrent span. All phases ran.
  EXPECT_GT(breakdown.jsonb_secs, 0.0);
  EXPECT_GT(breakdown.extract_secs, 0.0);
  EXPECT_GT(breakdown.total_wall_secs, 0.0);
}

TEST(ShardBreakdownTest, GlobalErrorCapExactBudgetSucceeds) {
  const size_t kErrors = 8;
  auto docs = DocsWithErrors(800, kErrors);
  LoadOptions load_options;
  load_options.num_threads = 4;
  load_options.max_errors = kErrors;
  ShardOptions shard_options;
  shard_options.shard_count = 4;
  LoadBreakdown breakdown;
  auto sharded =
      ShardedRelation::Load(docs, "t", StorageMode::kTiles, {}, load_options,
                            shard_options, &breakdown)
          .MoveValueOrDie();
  EXPECT_EQ(sharded->num_rows(), 800u - kErrors);
  // skipped_docs is global: the sum over all shards, exactly the bad count.
  EXPECT_EQ(breakdown.skipped_docs, kErrors);
}

TEST(ShardBreakdownTest, GlobalErrorCapOneUnderBudgetFails) {
  const size_t kErrors = 8;
  auto docs = DocsWithErrors(800, kErrors);
  LoadOptions load_options;
  load_options.num_threads = 4;
  load_options.max_errors = kErrors - 1;  // one malformed doc over budget
  ShardOptions shard_options;
  shard_options.shard_count = 4;
  auto result = ShardedRelation::Load(docs, "t", StorageMode::kTiles, {},
                                      load_options, shard_options);
  EXPECT_FALSE(result.ok());
}

TEST(ShardBreakdownTest, CapIsGlobalNotPerShard) {
  // 4 bad docs all land in shard 0 (indices divisible by 4, round-robin over
  // 4 shards). A per-shard budget of 3 would wrongly pass the other shards;
  // the global cap must fail the load.
  std::vector<std::string> docs;
  for (size_t i = 0; i < 400; i++) {
    if (i % 4 == 0 && i < 16) {
      docs.push_back("{bad");
    } else {
      docs.push_back(R"({"id":)" + std::to_string(i) + "}");
    }
  }
  LoadOptions load_options;
  load_options.num_threads = 4;
  load_options.max_errors = 3;
  ShardOptions shard_options;
  shard_options.shard_count = 4;
  EXPECT_FALSE(ShardedRelation::Load(docs, "t", StorageMode::kTiles, {},
                                     load_options, shard_options)
                   .ok());
  // With budget 4 the same load succeeds and reports all skips.
  load_options.max_errors = 4;
  LoadBreakdown breakdown;
  auto sharded = ShardedRelation::Load(docs, "t", StorageMode::kTiles, {},
                                       load_options, shard_options, &breakdown)
                     .MoveValueOrDie();
  EXPECT_EQ(breakdown.skipped_docs, 4u);
  EXPECT_EQ(sharded->num_rows(), 396u);
}

TEST(ShardBreakdownTest, SerialAndConcurrentLoadsAgreeOnCounts) {
  const size_t kErrors = 6;
  auto docs = DocsWithErrors(600, kErrors);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    LoadOptions load_options;
    load_options.num_threads = threads;
    load_options.max_errors = 100;
    ShardOptions shard_options;
    shard_options.shard_count = 4;
    LoadBreakdown breakdown;
    auto sharded =
        ShardedRelation::Load(docs, "t", StorageMode::kTiles, {}, load_options,
                              shard_options, &breakdown)
            .MoveValueOrDie();
    EXPECT_EQ(breakdown.skipped_docs, kErrors) << "threads=" << threads;
    EXPECT_EQ(breakdown.tuples, 600u - kErrors) << "threads=" << threads;
    EXPECT_EQ(sharded->num_rows(), 600u - kErrors) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace jsontiles::storage
