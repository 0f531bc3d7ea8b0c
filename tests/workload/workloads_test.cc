// Integration tests for the Yelp / Twitter / HackerNews / corpus workloads.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/jsonb.h"
#include "storage/loader.h"
#include "tiles/keypath.h"
#include "workload/hackernews.h"
#include "workload/simdjson_corpus.h"
#include "workload/twitter.h"
#include "workload/yelp.h"

namespace jsontiles::workload {
namespace {

using exec::QueryContext;
using exec::RowSet;
using storage::LoadOptions;
using storage::Loader;
using storage::Relation;
using storage::StorageMode;

std::vector<std::vector<std::string>> Materialize(const RowSet& rows) {
  std::vector<std::vector<std::string>> out;
  for (const auto& row : rows) {
    std::vector<std::string> r;
    for (const auto& v : row) {
      if (v.type == exec::ValueType::kFloat) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.6g", v.float_value());
        r.emplace_back(buf);
      } else {
        r.push_back(v.ToString());
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

TEST(YelpWorkloadTest, AllDocumentsParseAndQueriesAgree) {
  YelpOptions options;
  options.num_business = 60;
  auto docs = GenerateYelp(options);
  EXPECT_GT(docs.size(), 60u * 50);
  for (const auto& d : docs) {
    ASSERT_TRUE(json::JsonbFromText(d).ok()) << d;
  }
  tiles::TileConfig config;
  config.tile_size = 256;
  std::vector<std::vector<std::vector<std::string>>> results;
  for (StorageMode mode : {StorageMode::kJsonb, StorageMode::kSinew,
                           StorageMode::kTiles}) {
    Loader loader(mode, config);
    auto rel = loader.Load(docs, "yelp").MoveValueOrDie();
    std::vector<std::vector<std::string>> per_mode;
    for (int q = 1; q <= 5; q++) {
      QueryContext ctx;
      RowSet rows = RunYelpQuery(q, *rel, ctx);
      EXPECT_FALSE(rows.empty()) << "Y" << q;
      for (auto& r : Materialize(rows)) per_mode.push_back(std::move(r));
      per_mode.push_back({"--- end of Y" + std::to_string(q)});
    }
    results.push_back(std::move(per_mode));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(TwitterWorkloadTest, QueriesAgreeAcrossModesAndStarVariant) {
  TwitterOptions options;
  options.num_tweets = 4000;
  auto docs = GenerateTwitter(options);
  for (const auto& d : docs) {
    ASSERT_TRUE(json::JsonbFromText(d).ok()) << d;
  }
  tiles::TileConfig config;
  config.tile_size = 512;

  // Plain modes.
  std::vector<std::vector<std::vector<std::string>>> results;
  for (StorageMode mode : {StorageMode::kJsonb, StorageMode::kTiles}) {
    Loader loader(mode, config);
    auto rel = loader.Load(docs, "twitter").MoveValueOrDie();
    std::vector<std::vector<std::string>> per_mode;
    for (int q = 1; q <= 5; q++) {
      QueryContext ctx;
      RowSet rows = RunTwitterQuery(q, *rel, ctx);
      EXPECT_FALSE(rows.empty()) << "T" << q;
      for (auto& r : Materialize(rows)) per_mode.push_back(std::move(r));
    }
    results.push_back(std::move(per_mode));
  }
  EXPECT_EQ(results[0], results[1]);

  // Tiles-*: the scan answers T3/T4's CONTAINS from the side relations,
  // with the same answer.
  LoadOptions star_options;
  star_options.extract_arrays = true;
  Loader star_loader(StorageMode::kTiles, config, star_options);
  auto star_rel = star_loader.Load(docs, "twitter").MoveValueOrDie();
  EXPECT_FALSE(star_rel->side_relations().empty());
  std::vector<std::vector<std::string>> star_results;
  for (int q = 1; q <= 5; q++) {
    QueryContext ctx;
    RowSet rows = RunTwitterQuery(q, *star_rel, ctx);
    for (auto& r : Materialize(rows)) star_results.push_back(std::move(r));
  }
  EXPECT_EQ(star_results, results[0]);
}

TEST(TwitterWorkloadTest, ChangingSchemaVariant) {
  TwitterOptions options;
  options.num_tweets = 3000;
  options.changing_schema = true;
  auto docs = GenerateTwitter(options);
  // Early tweets lack retweet_count; late ones have it.
  size_t with_rt = 0;
  for (const auto& d : docs) {
    if (d.find("retweet_count") != std::string::npos) with_rt++;
  }
  EXPECT_GT(with_rt, docs.size() / 4);
  EXPECT_LT(with_rt, docs.size());

  tiles::TileConfig config;
  config.tile_size = 256;
  Loader loader(StorageMode::kTiles, config);
  auto rel = loader.Load(docs, "changing").MoveValueOrDie();
  for (int q : {1, 2, 5}) {
    QueryContext ctx;
    EXPECT_FALSE(RunTwitterQuery(q, *rel, ctx).empty()) << "T" << q;
  }
}

// Tiles-* on the evolving-schema stream: the entity arrays first appear in
// the 2010 tweets, more than a quarter of the way in, so detection has to
// see all loaded rows. The sparse two-element geo.coordinates never
// qualifies, and the side relations answer T1-T5 like plain Tiles.
TEST(TwitterWorkloadTest, ChangingSchemaStarVariantExtractsLateArrays) {
  TwitterOptions options;
  options.num_tweets = 4000;
  options.changing_schema = true;
  auto docs = GenerateTwitter(options);
  tiles::TileConfig config;
  config.tile_size = 256;

  LoadOptions star_options;
  star_options.extract_arrays = true;
  auto star = Loader(StorageMode::kTiles, config, star_options)
                  .Load(docs, "changing")
                  .MoveValueOrDie();
  std::vector<std::string> sides;
  for (const auto& [path, side] : star->side_relations()) {
    EXPECT_GT(side->num_rows(), 0u) << tiles::PathToDisplayString(path);
    sides.push_back(tiles::PathToDisplayString(path));
  }
  std::sort(sides.begin(), sides.end());
  EXPECT_EQ(sides, (std::vector<std::string>{"entities.hashtags",
                                             "entities.user_mentions"}));

  auto plain =
      Loader(StorageMode::kTiles, config).Load(docs, "changing").MoveValueOrDie();
  for (int q = 1; q <= 5; q++) {
    QueryContext plain_ctx, star_ctx;
    EXPECT_EQ(Materialize(RunTwitterQuery(q, *star, star_ctx)),
              Materialize(RunTwitterQuery(q, *plain, plain_ctx)))
        << "T" << q;
  }
}

TEST(HackerNewsWorkloadTest, GeneratesAndExtractionImprovesWithReordering) {
  HackerNewsOptions options;
  options.num_items = 4096;
  auto docs = GenerateHackerNews(options);
  ASSERT_EQ(docs.size(), 4096u);
  for (const auto& d : docs) {
    ASSERT_TRUE(json::JsonbFromText(d).ok()) << d;
  }
  tiles::TileConfig with, without;
  with.tile_size = without.tile_size = 256;
  with.partition_size = 8;
  without.partition_size = 1;  // no reordering
  auto count_columns = [&](const tiles::TileConfig& config) {
    Loader loader(StorageMode::kTiles, config);
    auto rel = loader.Load(docs, "hn").MoveValueOrDie();
    size_t columns = 0;
    for (const auto& tile : rel->tiles()) columns += tile.columns.size();
    return columns;
  };
  size_t with_reorder = count_columns(with);
  size_t without_reorder = count_columns(without);
  // Round-robin types: reordering must unlock strictly more extraction.
  EXPECT_GT(with_reorder, without_reorder);
}

TEST(SimdJsonCorpusTest, AllFilesAreValidJson) {
  auto files = GenerateSimdJsonCorpus();
  ASSERT_EQ(files.size(), 8u);
  for (const auto& f : files) {
    auto jsonb = json::JsonbFromText(f.json);
    ASSERT_TRUE(jsonb.ok()) << f.name;
    EXPECT_GT(f.json.size(), 100000u) << f.name;  // meaningfully sized
  }
}

}  // namespace
}  // namespace jsontiles::workload
