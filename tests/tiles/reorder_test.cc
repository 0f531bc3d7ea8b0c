#include "tiles/reorder.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/jsonb.h"
#include "mining/fpgrowth.h"
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

// The reference ReorderPartition: step 1 mines a copy of each tile's
// transactions, and step 3 sorts a copy of every transaction and merges it
// with each survivor. ReorderPartition must agree with it exactly.
size_t OracleOverlap(const std::vector<mining::Item>& itemset,
                     const std::vector<mining::Item>& tx) {
  size_t i = 0, j = 0, common = 0;
  while (i < itemset.size() && j < tx.size()) {
    if (itemset[i] == tx[j]) {
      common++;
      i++;
      j++;
    } else if (itemset[i] < tx[j]) {
      i++;
    } else {
      j++;
    }
  }
  return common;
}

uint64_t OracleIdSum(const std::vector<mining::Item>& items) {
  uint64_t sum = 0;
  for (mining::Item i : items) sum += i;
  return sum;
}

ReorderResult OracleReorderPartition(const DocumentItems& items,
                                     const TileConfig& config) {
  const size_t n = items.transactions.size();
  ReorderResult result;
  result.permutation.resize(n);
  std::iota(result.permutation.begin(), result.permutation.end(), 0);
  if (n == 0 || config.partition_size <= 1) return result;
  const size_t tile_size = config.tile_size;
  const size_t num_tiles = (n + tile_size - 1) / tile_size;
  if (num_tiles <= 1) return result;
  constexpr uint64_t kReorderItemsetBudget = 512;
  constexpr size_t kMaxReorderItemsets = 32;

  const double reduced =
      kExtractionThreshold / static_cast<double>(config.partition_size);
  mining::FpGrowthMiner miner;
  std::map<std::vector<mining::Item>, uint64_t> aggregated;
  for (size_t t = 0; t < num_tiles; t++) {
    size_t begin = t * tile_size;
    size_t end = std::min(begin + tile_size, n);
    std::vector<mining::Transaction> chunk(items.transactions.begin() + begin,
                                           items.transactions.begin() + end);
    mining::MinerOptions options;
    options.min_support = static_cast<uint32_t>(
        std::ceil(reduced * static_cast<double>(end - begin)));
    if (options.min_support == 0) options.min_support = 1;
    options.budget = kReorderItemsetBudget;
    for (auto& set : miner.Mine(chunk, options)) {
      aggregated[set.items] += set.support;
    }
  }
  const double survive_limit =
      kExtractionThreshold * static_cast<double>(tile_size);
  std::vector<mining::Itemset> survivors;
  for (auto& [set_items, support] : aggregated) {
    if (static_cast<double>(support) > survive_limit) {
      survivors.push_back(
          mining::Itemset{set_items, static_cast<uint32_t>(support)});
    }
  }
  if (survivors.size() > kMaxReorderItemsets) {
    std::sort(survivors.begin(), survivors.end(),
              [](const mining::Itemset& a, const mining::Itemset& b) {
                if (a.support != b.support) return a.support > b.support;
                if (a.items.size() != b.items.size()) {
                  return a.items.size() > b.items.size();
                }
                return a.items < b.items;
              });
    survivors.resize(kMaxReorderItemsets);
  }
  result.surviving_itemsets = survivors.size();
  if (survivors.empty()) return result;

  const int kUnmatched = -1;
  std::vector<int> best(n, kUnmatched);
  std::vector<mining::Transaction> sorted_txs = items.transactions;
  for (auto& tx : sorted_txs) std::sort(tx.begin(), tx.end());
  for (size_t d = 0; d < n; d++) {
    size_t best_overlap = 0;
    size_t best_size = 0;
    uint64_t best_idsum = 0;
    for (size_t s = 0; s < survivors.size(); s++) {
      size_t overlap = OracleOverlap(survivors[s].items, sorted_txs[d]);
      if (overlap == 0) continue;
      uint64_t idsum = OracleIdSum(survivors[s].items);
      bool better = false;
      if (overlap > best_overlap) {
        better = true;
      } else if (overlap == best_overlap) {
        if (survivors[s].items.size() < best_size) {
          better = true;
        } else if (survivors[s].items.size() == best_size && idsum < best_idsum) {
          better = true;
        }
      }
      if (better) {
        best[d] = static_cast<int>(s);
        best_overlap = overlap;
        best_size = survivors[s].items.size();
        best_idsum = idsum;
      }
    }
  }

  std::vector<std::vector<uint32_t>> clusters(survivors.size());
  std::vector<uint32_t> unmatched;
  for (size_t d = 0; d < n; d++) {
    if (best[d] == kUnmatched) {
      unmatched.push_back(static_cast<uint32_t>(d));
    } else {
      clusters[static_cast<size_t>(best[d])].push_back(static_cast<uint32_t>(d));
    }
  }
  std::vector<size_t> order(clusters.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (clusters[a].size() != clusters[b].size()) {
      return clusters[a].size() > clusters[b].size();
    }
    return a < b;
  });
  std::vector<uint32_t> arrangement;
  arrangement.reserve(n);
  for (size_t c : order) {
    arrangement.insert(arrangement.end(), clusters[c].begin(), clusters[c].end());
  }
  arrangement.insert(arrangement.end(), unmatched.begin(), unmatched.end());
  for (size_t pos = 0; pos < n; pos++) {
    if (arrangement[pos] / tile_size != pos / tile_size) result.moved_tuples++;
  }
  result.permutation = std::move(arrangement);
  return result;
}

// A random partition over `universe` items: documents follow one of a few
// random schemas, lose and gain items at random, and now and then repeat an
// item or hold none at all.
DocumentItems RandomPartition(
    Random& rng, size_t num_docs, size_t universe,
    const std::vector<std::vector<mining::Item>>& schemas) {
  DocumentItems items;
  for (size_t i = 0; i < universe; i++) items.dict.push_back(std::to_string(i));
  for (size_t d = 0; d < num_docs; d++) {
    mining::Transaction tx;
    if (!rng.Chance(0.05)) {
      for (mining::Item item : schemas[rng.Uniform(schemas.size())]) {
        if (!rng.Chance(0.1)) tx.push_back(item);
      }
      while (rng.Chance(0.3)) {
        tx.push_back(static_cast<mining::Item>(rng.Uniform(universe)));
      }
      if (!tx.empty() && rng.Chance(0.1)) {
        tx.push_back(tx[rng.Uniform(tx.size())]);
      }
      // Transactions are in no particular item order.
      for (size_t i = tx.size(); i > 1; i--) {
        std::swap(tx[i - 1], tx[rng.Uniform(i)]);
      }
    }
    items.transactions.push_back(std::move(tx));
  }
  return items;
}

void ExpectSameAsOracle(const DocumentItems& items, const TileConfig& config,
                        size_t* reordered) {
  ReorderResult expected = OracleReorderPartition(items, config);
  ReorderResult actual = ReorderPartition(items, config);
  EXPECT_EQ(actual.permutation, expected.permutation);
  EXPECT_EQ(actual.surviving_itemsets, expected.surviving_itemsets);
  EXPECT_EQ(actual.moved_tuples, expected.moved_tuples);
  if (expected.moved_tuples > 0) (*reordered)++;
}

TEST(ReorderDifferentialTest, RandomPartitionsMatchOracle) {
  Random rng(2024);
  size_t reordered = 0, many_survivors = 0;
  for (int round = 0; round < 300; round++) {
    TileConfig config;
    config.tile_size = size_t{1} << rng.Range(2, 5);               // 4..32
    config.partition_size = static_cast<size_t>(rng.Range(1, 8));  // 1..8
    const size_t full = config.tile_size * config.partition_size;
    // Mostly full partitions; every third one ends on a short last tile.
    const size_t num_docs =
        round % 3 == 0 ? rng.Uniform(full) + 1 : full;
    const size_t universe = static_cast<size_t>(rng.Range(4, 40));
    std::vector<std::vector<mining::Item>> schemas(
        static_cast<size_t>(rng.Range(1, 5)));
    for (auto& schema : schemas) {
      // Dense schemas yield hundreds of frequent itemsets, so more than 32
      // survive and the cap applies.
      const size_t width =
          round % 4 == 0 ? std::min<size_t>(universe, 9) : rng.Uniform(6) + 1;
      for (size_t i = 0; i < width; i++) {
        schema.push_back(static_cast<mining::Item>(rng.Uniform(universe)));
      }
    }
    DocumentItems items = RandomPartition(rng, num_docs, universe, schemas);
    ReorderResult expected = OracleReorderPartition(items, config);
    if (expected.surviving_itemsets == 32) many_survivors++;
    ExpectSameAsOracle(items, config, &reordered);
  }
  // The rounds do exercise reordering and the survivor cap.
  EXPECT_GT(reordered, 50u);
  EXPECT_GT(many_survivors, 5u);
}

// Survivors {0,5}, {1,4} and {2,3} have the same size and id sum, so a tuple
// holding {0,5,1,4} ties with two of them on overlap, size and id sum; both
// pick the first. The tuples {6} and {} match no survivor.
TEST(ReorderDifferentialTest, TiesAndUnmatchedTuplesMatchOracle) {
  const std::vector<mining::Transaction> shapes = {
      {0, 5}, {4, 1}, {3, 2}, {0, 5, 1, 4},
      {5, 0}, {1, 4}, {2, 3}, {1, 4, 2, 3}};
  for (size_t partition_size : {1u, 2u, 4u}) {
    TileConfig config;
    config.tile_size = 8;
    config.partition_size = partition_size;
    DocumentItems items;
    for (int i = 0; i < 7; i++) items.dict.push_back(std::to_string(i));
    // A short last tile: one document less than the partition holds.
    for (size_t d = 0; d + 1 < config.tile_size * partition_size; d++) {
      items.transactions.push_back(shapes[d % shapes.size()]);
    }
    items.transactions[5] = {6};
    items.transactions[2] = {};
    size_t reordered = 0;
    ExpectSameAsOracle(items, config, &reordered);
    if (partition_size > 1) {
      EXPECT_GT(ReorderPartition(items, config).surviving_itemsets, 3u);
    }
  }
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
