#include "storage/shard.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/loader.h"
#include "storage/serialize.h"
#include "tiles/keypath.h"
#include "util/random.h"

namespace jsontiles::storage {
namespace {

std::string Path(std::initializer_list<const char*> keys) {
  std::string encoded;
  for (const char* k : keys) tiles::AppendKeySegment(&encoded, k);
  return encoded;
}

std::vector<std::string> KeyedDocs(size_t n) {
  Random rng(11);
  std::vector<std::string> docs;
  for (size_t i = 0; i < n; i++) {
    docs.push_back(R"({"k":)" + std::to_string(i % 40) + R"(,"v":)" +
                   std::to_string(i) + R"(,"s":")" + rng.NextString(2, 10) +
                   R"("})");
  }
  return docs;
}

ShardOptions HashOn(size_t count, std::vector<std::string> keys) {
  ShardOptions o;
  o.shard_count = count;
  o.routing = ShardRouting::kHashKey;
  o.routing_keys = std::move(keys);
  return o;
}

TEST(ShardTest, RoundRobinBalances) {
  auto docs = KeyedDocs(101);
  ShardOptions options;
  options.shard_count = 4;
  auto sharded = ShardedRelation::Load(docs, "t", StorageMode::kTiles, {}, {},
                                       options)
                     .MoveValueOrDie();
  ASSERT_EQ(sharded->shard_count(), 4u);
  EXPECT_EQ(sharded->num_rows(), 101u);
  // Document i lands on shard i % 4 — the first shard gets the remainder.
  EXPECT_EQ(sharded->shard(0).num_rows(), 26u);
  EXPECT_EQ(sharded->shard(1).num_rows(), 25u);
  EXPECT_EQ(sharded->shard(2).num_rows(), 25u);
  EXPECT_EQ(sharded->shard(3).num_rows(), 25u);
  EXPECT_EQ(sharded->routing_kind(), RoutingValueKind::kNone);
  EXPECT_TRUE(sharded->routing_path().empty());
}

TEST(ShardTest, HashRoutingGroupsEqualKeys) {
  auto docs = KeyedDocs(400);
  auto sharded = ShardedRelation::Load(docs, "t", StorageMode::kJsonb, {}, {},
                                       HashOn(8, {"k"}))
                     .MoveValueOrDie();
  EXPECT_EQ(sharded->routing_kind(), RoutingValueKind::kIntOnly);
  EXPECT_EQ(sharded->routing_path(), Path({"k"}));
  // Every distinct key value appears in exactly one shard.
  std::map<int64_t, std::set<size_t>> shards_of_key;
  for (size_t s = 0; s < sharded->shard_count(); s++) {
    const Relation& shard = sharded->shard(s);
    for (size_t r = 0; r < shard.num_rows(); r++) {
      shards_of_key[shard.Jsonb(r).FindKey("k")->GetInt()].insert(s);
    }
  }
  EXPECT_EQ(shards_of_key.size(), 40u);
  for (const auto& [key, shards] : shards_of_key) {
    EXPECT_EQ(shards.size(), 1u) << "key " << key << " straddles shards";
    EXPECT_EQ(*shards.begin(),
              ShardKeyHashInt(key) % sharded->shard_count());
  }
}

TEST(ShardTest, IntegralFloatRoutesLikeInt) {
  std::vector<std::string> docs = {R"({"k":5,"v":1})", R"({"k":5.0,"v":2})",
                                   R"({"k":7,"v":3})"};
  auto sharded = ShardedRelation::Load(docs, "t", StorageMode::kJsonb, {}, {},
                                       HashOn(4, {"k"}))
                     .MoveValueOrDie();
  size_t five_shard = ShardKeyHashInt(5) % 4;
  size_t seven_shard = ShardKeyHashInt(7) % 4;
  const Relation& shard = sharded->shard(five_shard);
  // Both the int 5 and the float 5.0 land on hash(5)'s shard; the k=7 doc
  // joins them only if its hash collides at 4 shards.
  ASSERT_EQ(shard.num_rows(), five_shard == seven_shard ? 3u : 2u);
  std::set<int64_t> vs;
  for (size_t r = 0; r < shard.num_rows(); r++) {
    vs.insert(shard.Jsonb(r).FindKey("v")->GetInt());
  }
  EXPECT_TRUE(vs.count(1) == 1 && vs.count(2) == 1);
  EXPECT_EQ(sharded->routing_kind(), RoutingValueKind::kIntOnly);
}

TEST(ShardTest, StringRouting) {
  std::vector<std::string> docs;
  for (int i = 0; i < 60; i++) {
    docs.push_back(R"({"city":"c)" + std::to_string(i % 7) + R"(","v":)" +
                   std::to_string(i) + "}");
  }
  auto sharded = ShardedRelation::Load(docs, "t", StorageMode::kJsonb, {}, {},
                                       HashOn(4, {"city"}))
                     .MoveValueOrDie();
  EXPECT_EQ(sharded->routing_kind(), RoutingValueKind::kStringOnly);
  for (int c = 0; c < 7; c++) {
    std::string city = "c" + std::to_string(c);
    size_t home = ShardKeyHashString(city) % 4;
    for (size_t s = 0; s < 4; s++) {
      const Relation& shard = sharded->shard(s);
      for (size_t r = 0; r < shard.num_rows(); r++) {
        auto v = shard.Jsonb(r).FindKey("city");
        if (v.has_value() && v->GetString() == city) {
          EXPECT_EQ(s, home);
        }
      }
    }
  }
}

TEST(ShardTest, MixedRoutingValuesDisablePruningKind) {
  std::vector<std::string> docs = {R"({"k":1})", R"({"k":"one"})",
                                   R"({"k":2})"};
  auto sharded = ShardedRelation::Load(docs, "t", StorageMode::kJsonb, {}, {},
                                       HashOn(2, {"k"}))
                     .MoveValueOrDie();
  EXPECT_EQ(sharded->routing_kind(), RoutingValueKind::kMixed);
}

TEST(ShardTest, MissingRoutingValueFallsBackByPosition) {
  std::vector<std::string> docs = {R"({"other":1})", R"({"k":null})",
                                   R"({"other":2})", R"({"other":3})"};
  auto sharded = ShardedRelation::Load(docs, "t", StorageMode::kJsonb, {}, {},
                                       HashOn(2, {"k"}))
                     .MoveValueOrDie();
  EXPECT_EQ(sharded->num_rows(), 4u);
  // Position fallback: docs 0..3 -> shard i % 2.
  EXPECT_EQ(sharded->shard(0).num_rows(), 2u);
  EXPECT_EQ(sharded->shard(1).num_rows(), 2u);
}

TEST(ShardTest, RowIdBases) {
  EXPECT_EQ(ShardedRelation::RowIdBase(0), 0);
  EXPECT_EQ(ShardedRelation::RowIdBase(1), int64_t{1} << 40);
  EXPECT_EQ(ShardedRelation::RowIdBase(3), int64_t{3} << 40);
}

TEST(ShardTest, InvalidOptionsRejected) {
  auto docs = KeyedDocs(4);
  {
    ShardOptions o;
    o.shard_count = 0;
    EXPECT_FALSE(
        ShardedRelation::Load(docs, "t", StorageMode::kJsonb, {}, {}, o).ok());
  }
  {
    ShardOptions o;
    o.shard_count = 1 << 20;
    EXPECT_FALSE(
        ShardedRelation::Load(docs, "t", StorageMode::kJsonb, {}, {}, o).ok());
  }
  {
    ShardOptions o;
    o.shard_count = 2;
    o.routing = ShardRouting::kHashKey;  // no routing_keys
    EXPECT_FALSE(
        ShardedRelation::Load(docs, "t", StorageMode::kJsonb, {}, {}, o).ok());
  }
}

TEST(ShardTest, MoreShardsThanDocs) {
  auto docs = KeyedDocs(3);
  ShardOptions options;
  options.shard_count = 8;
  auto sharded = ShardedRelation::Load(docs, "t", StorageMode::kTiles, {}, {},
                                       options)
                     .MoveValueOrDie();
  EXPECT_EQ(sharded->shard_count(), 8u);
  EXPECT_EQ(sharded->num_rows(), 3u);
  size_t non_empty = 0;
  for (size_t s = 0; s < 8; s++) {
    if (sharded->shard(s).num_rows() > 0) non_empty++;
  }
  EXPECT_EQ(non_empty, 3u);
}

TEST(ShardTest, EmptyInput) {
  ShardOptions options;
  options.shard_count = 2;
  auto sharded = ShardedRelation::Load({}, "t", StorageMode::kTiles, {}, {},
                                       options)
                     .MoveValueOrDie();
  EXPECT_EQ(sharded->num_rows(), 0u);
  EXPECT_EQ(sharded->shard_count(), 2u);
}

TEST(ShardStatsTest, BloomUnionCoversAllTilePaths) {
  // First half has "a", second half has "b": shard 0 (round-robin over a
  // striped stream) sees both, but a shard loaded from "a"-docs only must
  // report b as absent.
  std::vector<std::string> a_docs, b_docs;
  for (int i = 0; i < 100; i++) {
    a_docs.push_back(R"({"a":)" + std::to_string(i) + "}");
    b_docs.push_back(R"({"b":)" + std::to_string(i) + "}");
  }
  tiles::TileConfig config;
  config.tile_size = 32;
  Loader loader(StorageMode::kTiles, config);
  auto rel = loader.Load(a_docs, "a").MoveValueOrDie();
  ShardStats stats = ComputeShardStats(*rel);
  ASSERT_TRUE(stats.has_path_stats);
  EXPECT_TRUE(stats.MayContainPath(Path({"a"})));
  EXPECT_FALSE(stats.MayContainPath(Path({"b"})));
}

TEST(ShardStatsTest, ZoneMapsWidenAcrossTiles) {
  std::vector<std::string> docs;
  for (int i = 0; i < 200; i++) {
    docs.push_back(R"({"v":)" + std::to_string(100 + i) + "}");
  }
  tiles::TileConfig config;
  config.tile_size = 64;
  Loader loader(StorageMode::kTiles, config);
  auto rel = loader.Load(docs, "z").MoveValueOrDie();
  ShardStats stats = ComputeShardStats(*rel);
  const ShardZoneEntry* zone = stats.FindZone(Path({"v"}));
  ASSERT_NE(zone, nullptr);
  EXPECT_TRUE(zone->valid);
  EXPECT_TRUE(zone->any_values);
  EXPECT_EQ(zone->min_i, 100);
  EXPECT_EQ(zone->max_i, 299);
}

TEST(ShardStatsTest, NonTiledModesHaveNoStats) {
  Loader loader(StorageMode::kJsonb, {});
  auto rel = loader.Load(KeyedDocs(10), "j").MoveValueOrDie();
  ShardStats stats = ComputeShardStats(*rel);
  EXPECT_FALSE(stats.has_path_stats);
  // No stats: everything may be present (no unsound pruning).
  EXPECT_TRUE(stats.MayContainPath(Path({"anything"})));
}

// Side `_rowid`s are shard-local: each names a row of its own shard, and
// that row's array holds the element.
TEST(ShardTest, SideRowIdsAreShardLocal) {
  std::vector<std::string> docs;
  for (int i = 0; i < 600; i++) {
    const std::string id = std::to_string(i);
    docs.push_back(R"({"id":)" + id + R"(,"tags":[{"t":"x)" + id +
                   R"("},{"t":"y)" + id + R"("}]})");
  }
  LoadOptions load_options;
  load_options.extract_arrays = true;
  ShardOptions options;
  options.shard_count = 3;
  auto sharded = ShardedRelation::Load(docs, "t", StorageMode::kTiles, {},
                                       load_options, options)
                     .MoveValueOrDie();
  std::string tags_path = Path({"tags"});
  for (size_t p = 0; p < sharded->shard_count(); p++) {
    const Relation& shard = sharded->shard(p);
    const Relation* side = shard.FindSideRelation(tags_path);
    ASSERT_NE(side, nullptr);
    ASSERT_EQ(side->num_rows(), 2 * shard.num_rows());
    std::vector<int> elements(shard.num_rows(), 0);
    for (size_t k = 0; k < side->num_rows(); k++) {
      auto rowid = side->Jsonb(k).FindKey("_rowid");
      ASSERT_TRUE(rowid.has_value());
      ASSERT_EQ(rowid->type(), json::JsonType::kInt);
      ASSERT_GE(rowid->GetInt(), 0) << "shard " << p;
      ASSERT_LT(rowid->GetInt(), static_cast<int64_t>(shard.num_rows()))
          << "shard " << p;
      const size_t row = static_cast<size_t>(rowid->GetInt());
      const std::string id =
          std::to_string(shard.Jsonb(row).FindKey("id")->GetInt());
      const std::string t(side->Jsonb(k).FindKey("t")->GetString());
      EXPECT_TRUE(t == "x" + id || t == "y" + id)
          << "shard " << p << " row " << row << " element " << t;
      elements[row]++;
    }
    for (size_t r = 0; r < shard.num_rows(); r++) {
      EXPECT_EQ(elements[r], 2) << "shard " << p << " row " << r;
    }
  }
}

std::string Bytes(const Relation& relation) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(SerializeRelation(relation, &bytes).ok());
  return std::string(bytes.begin(), bytes.end());
}

// Every shard serializes to the same bytes at every thread count, and to the
// bytes of a plain load of the documents routed to it.
TEST(ShardTest, ParallelLoadMatchesSerial) {
  constexpr size_t kShards = 4;
  std::vector<std::string> docs = KeyedDocs(500);
  for (size_t i = 0; i < docs.size(); i++) {
    docs[i].pop_back();
    docs[i] += R"(,"tags":["a)" + std::to_string(i % 7) + R"(","b)" +
               std::to_string(i % 5) + R"("]})";
  }
  std::vector<std::vector<std::string>> routed(kShards);
  for (size_t i = 0; i < docs.size(); i++) routed[i % kShards].push_back(docs[i]);
  // Partitions of 32 documents: four per shard.
  tiles::TileConfig config;
  config.tile_size = 16;
  config.partition_size = 2;
  ShardOptions options;
  options.shard_count = kShards;
  for (StorageMode mode : {StorageMode::kSinew, StorageMode::kTiles}) {
    LoadOptions load_options;
    load_options.extract_arrays = mode == StorageMode::kTiles;
    std::vector<std::string> want;
    for (const auto& shard_docs : routed) {
      auto plain = Loader(mode, config, load_options).Load(shard_docs, "t");
      ASSERT_TRUE(plain.ok()) << plain.status().ToString();
      const Relation& relation = *plain.ValueOrDie();
      EXPECT_EQ(relation.FindSideRelation(Path({"tags"})) != nullptr,
                load_options.extract_arrays);
      want.push_back(Bytes(relation));
    }
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      load_options.num_threads = threads;
      auto sharded = ShardedRelation::Load(docs, "t", mode, config,
                                           load_options, options);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ASSERT_EQ(sharded.ValueOrDie()->shard_count(), kShards);
      for (size_t s = 0; s < kShards; s++) {
        EXPECT_EQ(Bytes(sharded.ValueOrDie()->shard(s)), want[s])
            << "mode " << static_cast<int>(mode) << " threads " << threads
            << " shard " << s;
      }
    }
  }
}

}  // namespace
}  // namespace jsontiles::storage
