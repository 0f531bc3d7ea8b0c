#include "tiles/tile_builder.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/jsonb.h"
#include "tiles/keypath.h"

namespace jsontiles::tiles {
namespace {

using json::JsonbValue;
using json::JsonType;

// Keep the buffers alive alongside the views.
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

std::string Path(std::initializer_list<const char*> keys) {
  std::string encoded;
  for (const char* k : keys) AppendKeySegment(&encoded, k);
  return encoded;
}

// Tile #2 of the paper's Figure 2 (real date strings substituted).
Docs Figure2Tile2() {
  Docs docs;
  docs.Add(R"({"id":5,"create":"2010-01-01","text":"b","user":{"id":7},"replies":3,"geo":{"lat":1.9}})");
  docs.Add(R"({"id":6,"create":"2011-01-01","text":"c","user":{"id":1},"replies":2,"geo":null})");
  docs.Add(R"({"id":7,"create":"2012-01-01","text":"d","user":{"id":3},"replies":0,"geo":{"lat":2.7}})");
  docs.Add(R"({"id":8,"create":"2013-01-01","text":"x","user":{"id":3},"replies":1,"geo":{"lat":3.5}})");
  return docs;
}

TEST(TileBuilderTest, PaperRunningExample) {
  Docs docs = Figure2Tile2();
  TileBuilder builder(TileConfig{});
  Tile tile = builder.Build(docs.Views(), 4);

  EXPECT_EQ(tile.row_begin, 4u);
  EXPECT_EQ(tile.row_count, 4u);

  // The paper extracts {id, create, text, user.id, replies, geo.lat}.
  ASSERT_NE(tile.FindColumn(Path({"id"})), nullptr);
  ASSERT_NE(tile.FindColumn(Path({"create"})), nullptr);
  ASSERT_NE(tile.FindColumn(Path({"text"})), nullptr);
  ASSERT_NE(tile.FindColumn(Path({"user", "id"})), nullptr);
  ASSERT_NE(tile.FindColumn(Path({"replies"})), nullptr);
  ASSERT_NE(tile.FindColumn(Path({"geo", "lat"})), nullptr);
  EXPECT_EQ(tile.columns.size(), 6u);

  const ExtractedColumn* id = tile.FindColumn(Path({"id"}));
  EXPECT_EQ(id->storage_type, ColumnType::kInt64);
  EXPECT_FALSE(id->nullable);
  EXPECT_EQ(id->column.GetInt(0), 5);
  EXPECT_EQ(id->column.GetInt(3), 8);

  // geo.lat appears in 3 of 4 tuples (75% >= 60%): extracted with one null.
  const ExtractedColumn* lat = tile.FindColumn(Path({"geo", "lat"}));
  EXPECT_EQ(lat->storage_type, ColumnType::kFloat64);
  EXPECT_TRUE(lat->nullable);
  EXPECT_FALSE(lat->column.IsNull(0));
  EXPECT_TRUE(lat->column.IsNull(1));  // tweet 6 has geo: null
  EXPECT_DOUBLE_EQ(lat->column.GetFloat(2), 2.7);

  // §4.9: the create column holds dates and is extracted as Timestamp.
  const ExtractedColumn* create = tile.FindColumn(Path({"create"}));
  EXPECT_TRUE(create->is_timestamp);
  EXPECT_EQ(create->storage_type, ColumnType::kTimestamp);
  EXPECT_EQ(FormatDate(create->column.GetTimestamp(0)), "2010-01-01");
}

TEST(TileBuilderTest, BelowThresholdPathsStayBinary) {
  Docs docs;
  for (int i = 0; i < 10; i++) {
    if (i < 3) {
      docs.Add(R"({"common":1,"rare":true})");
    } else {
      docs.Add(R"({"common":1})");
    }
  }
  TileBuilder builder(TileConfig{});
  Tile tile = builder.Build(docs.Views(), 0);
  EXPECT_NE(tile.FindColumn(Path({"common"})), nullptr);
  EXPECT_EQ(tile.FindColumn(Path({"rare"})), nullptr);
  // §4.4/§4.8: the non-extracted path is in the bloom filter, so the tile
  // cannot be skipped; an unseen path can.
  EXPECT_TRUE(tile.MayContainPath(Path({"rare"})));
  EXPECT_FALSE(tile.MayContainPath(Path({"never_seen_anywhere"})));
}

TEST(TileBuilderTest, MixedTypesChooseMostCommon) {
  Docs docs;
  for (int i = 0; i < 6; i++) docs.Add(R"({"v":)" + std::to_string(i) + "}");
  for (int i = 0; i < 4; i++) docs.Add(R"({"v":1.5})");
  TileBuilder builder(TileConfig{});
  Tile tile = builder.Build(docs.Views(), 0);
  const ExtractedColumn* v = tile.FindColumn(Path({"v"}));
  ASSERT_NE(v, nullptr);
  // Integers are more common (6 of 10, at the 60% threshold); the floats
  // (4 of 10) stay in binary JSON.
  EXPECT_EQ(v->source_type, JsonType::kInt);
  EXPECT_TRUE(v->has_type_outliers);
  EXPECT_TRUE(v->nullable);
  EXPECT_FALSE(v->column.IsNull(0));
  EXPECT_TRUE(v->column.IsNull(7));
}

TEST(TileBuilderTest, NullTypedKeysAreNeverColumns) {
  Docs docs;
  for (int i = 0; i < 8; i++) docs.Add(R"({"gone":null,"id":1})");
  TileBuilder builder(TileConfig{});
  Tile tile = builder.Build(docs.Views(), 0);
  EXPECT_EQ(tile.FindColumn(Path({"gone"})), nullptr);
  EXPECT_NE(tile.FindColumn(Path({"id"})), nullptr);
}

TEST(TileBuilderTest, NumericStringsBecomeNumericColumns) {
  Docs docs;
  for (int i = 0; i < 8; i++) {
    docs.Add(R"({"price":")" + std::to_string(i) + R"(.99"})");
  }
  TileBuilder builder(TileConfig{});
  Tile tile = builder.Build(docs.Views(), 0);
  const ExtractedColumn* price = tile.FindColumn(Path({"price"}));
  ASSERT_NE(price, nullptr);
  EXPECT_EQ(price->storage_type, ColumnType::kNumeric);
  EXPECT_EQ(price->column.GetNumeric(3).ToString(), "3.99");
}

TEST(TileBuilderTest, DateDetectionRespectsConfig) {
  Docs docs;
  for (int i = 0; i < 8; i++) docs.Add(R"({"d":"2020-06-01"})");
  TileConfig config;
  config.enable_date_extraction = false;
  TileBuilder builder(config);
  Tile tile = builder.Build(docs.Views(), 0);
  EXPECT_EQ(tile.FindColumn(Path({"d"}))->storage_type, ColumnType::kString);
}

TEST(TileBuilderTest, MostlyDatesWithOutlierStillTimestamp) {
  Docs docs;
  for (int i = 0; i < 39; i++) docs.Add(R"({"d":"2020-06-01"})");
  docs.Add(R"({"d":"not a date"})");  // 97.5% parse rate >= 95%
  TileBuilder builder(TileConfig{});
  Tile tile = builder.Build(docs.Views(), 0);
  const ExtractedColumn* d = tile.FindColumn(Path({"d"}));
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->is_timestamp);
  EXPECT_TRUE(d->column.IsNull(39));  // outlier answered from binary JSON
}

TEST(TileBuilderTest, StatisticsCoverAllSeenPaths) {
  Docs docs = Figure2Tile2();
  TileBuilder builder(TileConfig{});
  Tile tile = builder.Build(docs.Views(), 0);
  // id/create/text/user.id/replies in all 4; geo.lat in 3.
  bool found_lat = false;
  for (const auto& [key, count] : tile.stats.path_frequencies) {
    if (DictKeyPath(key) == Path({"geo", "lat"})) {
      EXPECT_EQ(count, 3u);
      found_lat = true;
    }
    if (DictKeyPath(key) == Path({"id"})) {
      EXPECT_EQ(count, 4u);
    }
  }
  EXPECT_TRUE(found_lat);
  // One sketch per extracted column.
  EXPECT_EQ(tile.stats.column_sketches.size(), tile.columns.size());
  // user.id has 3 distinct values {7,1,3}.
  for (size_t i = 0; i < tile.columns.size(); i++) {
    if (tile.columns[i].path == Path({"user", "id"})) {
      EXPECT_NEAR(tile.stats.column_sketches[i].Estimate(), 3.0, 0.5);
    }
  }
}

TEST(TileBuilderTest, EmptyInput) {
  TileBuilder builder(TileConfig{});
  Tile tile = builder.Build({}, 0);
  EXPECT_EQ(tile.row_count, 0u);
  EXPECT_TRUE(tile.columns.empty());
}

TEST(TileBuilderTest, UpdateRowInPlace) {
  Docs docs = Figure2Tile2();
  TileBuilder builder(TileConfig{});
  Tile tile = builder.Build(docs.Views(), 0);

  // Replace row 0 with a document that still matches the schema.
  auto updated = json::JsonbFromText(
                     R"({"id":50,"create":"2020-06-01","text":"upd","user":{"id":9},"replies":7,"geo":{"lat":9.9}})")
                     .MoveValueOrDie();
  bool outlier = UpdateTileRow(&tile, 0, JsonbValue(updated.data()));
  EXPECT_FALSE(outlier);
  EXPECT_EQ(tile.FindColumn(Path({"id"}))->column.GetInt(0), 50);
  EXPECT_EQ(tile.FindColumn(Path({"text"}))->column.GetString(0, updated.data()),
            "upd");
  EXPECT_DOUBLE_EQ(tile.FindColumn(Path({"geo", "lat"}))->column.GetFloat(0), 9.9);

  // Replace row 1 with a document sharing nothing: outlier, nulls, and the
  // new path lands in the bloom filter.
  auto alien = json::JsonbFromText(R"({"completely":"different"})").MoveValueOrDie();
  outlier = UpdateTileRow(&tile, 1, JsonbValue(alien.data()));
  EXPECT_TRUE(outlier);
  EXPECT_TRUE(tile.FindColumn(Path({"id"}))->column.IsNull(1));
  EXPECT_TRUE(tile.MayContainPath(Path({"completely"})));
  EXPECT_EQ(tile.outlier_count, 1u);
  EXPECT_FALSE(tile.NeedsRecompute());
  // Three of four rows outliers -> recompute advised.
  UpdateTileRow(&tile, 2, JsonbValue(alien.data()));
  UpdateTileRow(&tile, 3, JsonbValue(alien.data()));
  EXPECT_TRUE(tile.NeedsRecompute());
}

}  // namespace
}  // namespace jsontiles::tiles
