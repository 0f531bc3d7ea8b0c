// Fault injection for the sharded storage paths: loader.partition (one
// shard's partition fails mid-way through the load's one task graph over
// every shard), shard.manifest_write (the save fails after the shard files
// are on disk) and shard.open. A failed SaveSharded must leave no partial
// manifest and no stray shard files; failing Statuses must name the shard
// that failed.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/shard.h"
#include "util/failpoint.h"

namespace jsontiles::storage {
namespace {

std::vector<std::string> Docs(size_t n) {
  std::vector<std::string> docs;
  for (size_t i = 0; i < n; i++) {
    docs.push_back(R"({"k":)" + std::to_string(i % 10) + R"(,"v":)" +
                   std::to_string(i) + "}");
  }
  return docs;
}

bool Exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

class ShardFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisableAll(); }
};

TEST_F(ShardFailpointTest, ShardLoadFailureNamesTheShard) {
  // 100 documents per shard in partitions of 32: four partitions per shard,
  // so the third reorder task fails while other workers still parse, reorder
  // or build tiles of this and other shards. A hang or a success fails.
  tiles::TileConfig config;
  config.tile_size = 16;
  config.partition_size = 2;
  LoadOptions load_options;
  load_options.num_threads = 4;
  ShardOptions shard_options;
  shard_options.shard_count = 4;
  const auto docs = Docs(400);
  for (int round = 0; round < 20; round++) {
    SCOPED_TRACE("round " + std::to_string(round));
    failpoint::Enable("loader.partition", failpoint::Spec::Nth(3));
    auto result = ShardedRelation::Load(docs, "faulty", StorageMode::kTiles,
                                        config, load_options, shard_options);
    ASSERT_FALSE(result.ok());
    // The annotation names a shard index and the relation.
    EXPECT_NE(result.status().message().find("shard "), std::string::npos)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("'faulty'"), std::string::npos)
        << result.status().ToString();
    EXPECT_GE(failpoint::Hits("loader.partition"), 3u);
  }
}

TEST_F(ShardFailpointTest, SerialShardLoadFailureAlsoClean) {
  // One partition per shard, run in shard order on the caller: the second
  // reorder task is shard 1's.
  failpoint::Enable("loader.partition", failpoint::Spec::Nth(2));
  ShardOptions shard_options;
  shard_options.shard_count = 3;
  auto result = ShardedRelation::Load(Docs(100), "faulty", StorageMode::kJsonb,
                                      {}, {}, shard_options);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("shard 1"), std::string::npos)
      << result.status().ToString();
}

TEST_F(ShardFailpointTest, ManifestWriteFailureLeavesNoFiles) {
  ShardOptions shard_options;
  shard_options.shard_count = 3;
  auto sharded = ShardedRelation::Load(Docs(120), "atomic", StorageMode::kTiles,
                                       {}, {}, shard_options)
                     .MoveValueOrDie();
  std::string dir = ::testing::TempDir();
  failpoint::Enable("shard.manifest_write", failpoint::Spec::Always());
  Status st = SaveSharded(*sharded, dir);
  ASSERT_FALSE(st.ok());
  // No partial manifest and no stray shard files: the failed save cleaned
  // up everything it had written.
  EXPECT_FALSE(Exists(ShardManifestPath(dir, "atomic")));
  for (int s = 0; s < 3; s++) {
    EXPECT_FALSE(Exists(dir + "/atomic.shard-" + std::to_string(s) + ".jtrl"))
        << "shard file " << s << " left behind";
  }
  // After disabling the failpoint the same save succeeds and reopens.
  failpoint::DisableAll();
  ASSERT_TRUE(SaveSharded(*sharded, dir).ok());
  auto reopened = OpenSharded(ShardManifestPath(dir, "atomic"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.ValueOrDie()->num_rows(), 120u);
  for (int s = 0; s < 3; s++) {
    std::remove((dir + "/atomic.shard-" + std::to_string(s) + ".jtrl").c_str());
  }
  std::remove(ShardManifestPath(dir, "atomic").c_str());
}

TEST_F(ShardFailpointTest, OpenFailpointFailsCleanly) {
  ShardOptions shard_options;
  shard_options.shard_count = 2;
  auto sharded = ShardedRelation::Load(Docs(60), "op", StorageMode::kTiles, {},
                                       {}, shard_options)
                     .MoveValueOrDie();
  std::string dir = ::testing::TempDir();
  ASSERT_TRUE(SaveSharded(*sharded, dir).ok());
  failpoint::Enable("shard.open", failpoint::Spec::Always());
  EXPECT_FALSE(OpenSharded(ShardManifestPath(dir, "op")).ok());
  failpoint::DisableAll();
  EXPECT_TRUE(OpenSharded(ShardManifestPath(dir, "op")).ok());
  for (int s = 0; s < 2; s++) {
    std::remove((dir + "/op.shard-" + std::to_string(s) + ".jtrl").c_str());
  }
  std::remove(ShardManifestPath(dir, "op").c_str());
}

}  // namespace
}  // namespace jsontiles::storage
