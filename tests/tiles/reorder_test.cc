#include "tiles/reorder.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/jsonb.h"
#include "tiles/array_extract.h"
#include "tiles/keypath.h"
#include "tiles/tile_builder.h"
#include "util/random.h"

namespace jsontiles::tiles {
namespace {

using json::JsonbValue;

struct Docs {
  std::vector<std::vector<uint8_t>> buffers;
  std::vector<JsonbValue> views;

  void Add(std::string_view text) {
    buffers.push_back(json::JsonbFromText(text).MoveValueOrDie());
  }
  const std::vector<JsonbValue>& Views() {
    views.clear();
    for (const auto& b : buffers) views.emplace_back(b.data());
    return views;
  }
};

// HackerNews-style documents of Figure 3: several distinct types.
std::string MakeNewsItem(Random& rng, int type) {
  int64_t id = static_cast<int64_t>(rng.Next() % 100000);
  switch (type) {
    case 0:
      return R"({"id":)" + std::to_string(id) +
             R"(,"type":"story","score":3,"desc":2,"title":"t","url":"u"})";
    case 1:
      return R"({"id":)" + std::to_string(id) +
             R"(,"type":"poll","score":5,"desc":2,"title":"t"})";
    case 2:
      return R"({"id":)" + std::to_string(id) +
             R"(,"type":"pollop","score":6,"poll":2,"title":"t"})";
    default:
      return R"({"id":)" + std::to_string(id) +
             R"(,"type":"comment","parent":4,"text":"c"})";
  }
}

TEST(ReorderTest, PermutationIsBijection) {
  Random rng(5);
  Docs docs;
  for (int i = 0; i < 256; i++) {
    docs.Add(MakeNewsItem(rng, static_cast<int>(rng.Uniform(4))));
  }
  TileConfig config;
  config.tile_size = 32;
  config.partition_size = 8;
  DocumentItems items = ItemsFromJsonb(docs.Views());
  ReorderResult result = ReorderPartition(items, config);
  ASSERT_EQ(result.permutation.size(), 256u);
  std::vector<uint32_t> sorted = result.permutation;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < 256; i++) EXPECT_EQ(sorted[i], i);
}

TEST(ReorderTest, ClustersMixedDocumentTypes) {
  // Round-robin type interleaving: without reordering no tile reaches the
  // threshold for the type-specific keys (url/poll/parent).
  Random rng(9);
  Docs docs;
  for (int i = 0; i < 256; i++) docs.Add(MakeNewsItem(rng, i % 4));
  TileConfig config;
  config.tile_size = 64;
  config.partition_size = 4;
  TileBuilder builder(config);

  DocumentItems items = ItemsFromJsonb(docs.Views());

  auto count_extracted_type_columns = [&](const std::vector<uint32_t>& perm) {
    size_t extracted = 0;
    for (size_t t = 0; t < 4; t++) {
      std::vector<uint32_t> indices(perm.begin() + static_cast<long>(t * 64),
                                    perm.begin() + static_cast<long>((t + 1) * 64));
      std::vector<JsonbValue> tile_docs;
      for (uint32_t i : indices) tile_docs.push_back(docs.Views()[i]);
      DocumentItems tile_items = items.Project(indices);
      Tile tile = builder.BuildFromItems(tile_docs, tile_items, t * 64);
      std::string url_path, poll_path, parent_path;
      AppendKeySegment(&url_path, "url");
      AppendKeySegment(&poll_path, "poll");
      AppendKeySegment(&parent_path, "parent");
      if (tile.FindColumn(url_path) != nullptr) extracted++;
      if (tile.FindColumn(poll_path) != nullptr) extracted++;
      if (tile.FindColumn(parent_path) != nullptr) extracted++;
    }
    return extracted;
  };

  std::vector<uint32_t> identity(256);
  std::iota(identity.begin(), identity.end(), 0);
  size_t before = count_extracted_type_columns(identity);
  EXPECT_EQ(before, 0u);  // interleaving kills extraction

  ReorderResult result = ReorderPartition(items, config);
  EXPECT_GT(result.surviving_itemsets, 0u);
  EXPECT_GT(result.moved_tuples, 0u);
  size_t after = count_extracted_type_columns(result.permutation);
  EXPECT_GE(after, 3u);  // each type now dominates some tile
}

TEST(ReorderTest, HomogeneousDataIsStable) {
  Docs docs;
  for (int i = 0; i < 128; i++) {
    docs.Add(R"({"id":)" + std::to_string(i) + R"(,"v":"x"})");
  }
  TileConfig config;
  config.tile_size = 32;
  config.partition_size = 4;
  DocumentItems items = ItemsFromJsonb(docs.Views());
  ReorderResult result = ReorderPartition(items, config);
  // All tuples match the same single itemset; nothing needs to move between
  // tiles (order inside the single cluster is preserved by construction).
  EXPECT_EQ(result.moved_tuples, 0u);
  for (uint32_t i = 0; i < 128; i++) EXPECT_EQ(result.permutation[i], i);
}

TEST(ReorderTest, DisabledByPartitionSizeOne) {
  Random rng(1);
  Docs docs;
  for (int i = 0; i < 64; i++) docs.Add(MakeNewsItem(rng, i % 4));
  TileConfig config;
  config.tile_size = 16;
  config.partition_size = 1;
  DocumentItems items = ItemsFromJsonb(docs.Views());
  ReorderResult result = ReorderPartition(items, config);
  EXPECT_EQ(result.moved_tuples, 0u);
}

TEST(ReorderTest, EmptyInput) {
  TileConfig config;
  DocumentItems items;
  ReorderResult result = ReorderPartition(items, config);
  EXPECT_TRUE(result.permutation.empty());
}

TEST(ArrayExtractTest, DetectAndExplode) {
  Docs docs;
  docs.Add(R"({"id":1,"hashtags":[{"text":"a"},{"text":"b"},{"text":"c"}],"geo":{"lat":1.0}})");
  docs.Add(R"({"id":2,"hashtags":[{"text":"d"}],"geo":{"lat":2.0}})");
  docs.Add(R"({"id":3,"hashtags":[],"geo":{"lat":3.0}})");
  auto detected = DetectHighCardinalityArrays(docs.Views());
  ASSERT_EQ(detected.size(), 1u);
  EXPECT_EQ(PathToDisplayString(detected[0]), "hashtags");

  std::vector<std::vector<uint8_t>> side;
  for (size_t i = 0; i < docs.Views().size(); i++) {
    ExplodeArray(docs.Views()[i], detected[0], static_cast<int64_t>(i), &side);
  }
  ASSERT_EQ(side.size(), 4u);
  JsonbValue first(side[0].data());
  EXPECT_EQ(first.FindKey("text")->GetString(), "a");
  EXPECT_EQ(first.FindKey(kParentRowIdKey)->GetInt(), 0);
  JsonbValue last(side[3].data());
  EXPECT_EQ(last.FindKey("text")->GetString(), "d");
  EXPECT_EQ(last.FindKey(kParentRowIdKey)->GetInt(), 1);
}

// The fixed rule at its edges: presence exactly 30% and an average of
// exactly 1.0 element qualify; 20% presence or 0.9 elements do not.
TEST(ArrayExtractTest, FixedRuleBoundaries) {
  Docs docs;
  for (int i = 0; i < 10; i++) {
    std::string doc = R"({"id":)" + std::to_string(i) + R"(,"one":[1])";
    doc += i < 9 ? R"(,"most":[1])" : R"(,"most":[])";
    if (i < 3) doc += R"(,"third":[1,2])";
    if (i < 2) doc += R"(,"sparse":[1,2,3,4,5,6])";
    docs.Add(doc + "}");
  }
  std::vector<std::string> names;
  for (const auto& path : DetectHighCardinalityArrays(docs.Views())) {
    names.push_back(PathToDisplayString(path));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"one", "third"}));
}

TEST(ArrayExtractTest, ScalarElementsWrapped) {
  Docs docs;
  docs.Add(R"({"tags":["x","y"]})");
  std::string path;
  AppendKeySegment(&path, "tags");
  std::vector<std::vector<uint8_t>> side;
  ExplodeArray(docs.Views()[0], path, 7, &side);
  ASSERT_EQ(side.size(), 2u);
  JsonbValue v(side[0].data());
  EXPECT_EQ(v.FindKey(kScalarValueKey)->GetString(), "x");
  EXPECT_EQ(v.FindKey(kParentRowIdKey)->GetInt(), 7);
}

TEST(StatsTest, RelationAggregation) {
  RelationStats stats;
  TileStats tile1;
  tile1.path_frequencies = {{"a", 100}, {"b", 50}};
  HyperLogLog h1;
  for (int i = 0; i < 100; i++) h1.AddInt(static_cast<uint64_t>(i));
  tile1.column_sketches.push_back(h1);
  stats.MergeTile(0, tile1, {"a"});
  stats.AddTuples(100);

  TileStats tile2;
  tile2.path_frequencies = {{"a", 80}, {"c", 10}};
  HyperLogLog h2;
  for (int i = 50; i < 150; i++) h2.AddInt(static_cast<uint64_t>(i));
  tile2.column_sketches.push_back(h2);
  stats.MergeTile(1, tile2, {"a"});
  stats.AddTuples(100);

  EXPECT_EQ(stats.EstimateKeyCardinality("a"), 180u);
  EXPECT_EQ(stats.EstimateKeyCardinality("b"), 50u);
  // Missing key: the smallest retrieved counter (c=10), not the table count.
  EXPECT_EQ(stats.EstimateKeyCardinality("zz"), 10u);
  auto distinct = stats.EstimateDistinct("a");
  ASSERT_TRUE(distinct.has_value());
  EXPECT_NEAR(*distinct, 150.0, 15.0);  // union of [0,100) and [50,150)
  EXPECT_FALSE(stats.EstimateDistinct("b").has_value());
}

TEST(StatsTest, CounterReplacementKeepsFrequent) {
  RelationStats stats;
  // Fill all 256 slots at tile 0.
  TileStats fill;
  for (int i = 0; i < 256; i++) {
    fill.path_frequencies.emplace_back("key" + std::to_string(i),
                                       static_cast<uint32_t>(1000 + i));
  }
  stats.MergeTile(0, fill, {});
  EXPECT_EQ(stats.num_counters(), RelationStats::kMaxFrequencyCounters);
  // A new key from a later tile replaces a slot.
  TileStats later;
  later.path_frequencies = {{"newkey", 5000}};
  stats.MergeTile(1, later, {});
  EXPECT_EQ(stats.EstimateKeyCardinality("newkey"), 5000u);
}

}  // namespace
}  // namespace jsontiles::tiles
