#include "storage/loader.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "opt/query.h"
#include "storage/relation.h"
#include "storage/serialize.h"
#include "tiles/keypath.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace jsontiles::storage {
namespace {

std::string Path(std::initializer_list<const char*> keys) {
  std::string encoded;
  for (const char* k : keys) tiles::AppendKeySegment(&encoded, k);
  return encoded;
}

std::vector<std::string> SimpleDocs(size_t n) {
  std::vector<std::string> docs;
  for (size_t i = 0; i < n; i++) {
    docs.push_back(R"({"id":)" + std::to_string(i) + R"(,"name":"user)" +
                   std::to_string(i % 17) + R"(","score":)" +
                   std::to_string(i % 100) + "}");
  }
  return docs;
}

TEST(LoaderTest, JsonTextMode) {
  Loader loader(StorageMode::kJsonText, {});
  auto rel = loader.Load(SimpleDocs(10), "t").MoveValueOrDie();
  EXPECT_EQ(rel->mode(), StorageMode::kJsonText);
  EXPECT_EQ(rel->num_rows(), 10u);
  EXPECT_EQ(rel->JsonText(3), R"({"id":3,"name":"user3","score":3})");
  EXPECT_TRUE(rel->tiles().empty());
}

TEST(LoaderTest, JsonbMode) {
  Loader loader(StorageMode::kJsonb, {});
  auto rel = loader.Load(SimpleDocs(10), "t").MoveValueOrDie();
  EXPECT_EQ(rel->num_rows(), 10u);
  EXPECT_EQ(rel->Jsonb(7).FindKey("id")->GetInt(), 7);
  EXPECT_TRUE(rel->tiles().empty());
}

TEST(LoaderTest, TilesModeBuildsTilesAndStats) {
  tiles::TileConfig config;
  config.tile_size = 64;
  config.partition_size = 4;
  Loader loader(StorageMode::kTiles, config);
  LoadBreakdown breakdown;
  auto rel = loader.Load(SimpleDocs(300), "t", &breakdown).MoveValueOrDie();
  EXPECT_EQ(rel->num_rows(), 300u);
  // ceil(300/64) tiles.
  EXPECT_EQ(rel->tiles().size(), 5u);
  EXPECT_EQ(rel->tiles()[4].row_begin, 256u);
  EXPECT_EQ(rel->tiles()[4].row_count, 44u);
  // Homogeneous docs: id extracted in every tile.
  for (const auto& tile : rel->tiles()) {
    EXPECT_NE(tile.FindColumn(Path({"id"})), nullptr);
  }
  // TileForRow maps correctly.
  EXPECT_EQ(rel->TileForRow(0), &rel->tiles()[0]);
  EXPECT_EQ(rel->TileForRow(299), &rel->tiles()[4]);
  // Stats aggregated.
  EXPECT_TRUE(rel->has_stats());
  EXPECT_EQ(rel->stats().total_tuples(), 300u);
  std::string id_key = tiles::MakeDictKey(Path({"id"}),
                                          static_cast<uint8_t>(json::JsonType::kInt));
  EXPECT_EQ(rel->stats().EstimateKeyCardinality(id_key), 300u);
  auto distinct = rel->stats().EstimateDistinct(id_key);
  ASSERT_TRUE(distinct.has_value());
  EXPECT_NEAR(*distinct, 300.0, 30.0);
  // Breakdown sanity.
  EXPECT_EQ(breakdown.tuples, 300u);
  EXPECT_GT(breakdown.total_wall_secs, 0.0);
  EXPECT_GT(breakdown.jsonb_secs, 0.0);
}

TEST(LoaderTest, SinewModeGlobalTile) {
  tiles::TileConfig config;
  config.tile_size = 64;
  Loader loader(StorageMode::kSinew, config);
  auto rel = loader.Load(SimpleDocs(300), "t").MoveValueOrDie();
  ASSERT_EQ(rel->tiles().size(), 1u);  // one global extraction
  EXPECT_EQ(rel->tiles()[0].row_count, 300u);
  EXPECT_NE(rel->tiles()[0].FindColumn(Path({"id"})), nullptr);
  EXPECT_FALSE(rel->has_stats());
  EXPECT_EQ(rel->TileForRow(250), &rel->tiles()[0]);
}

TEST(LoaderTest, SinewGlobalThresholdMissesLocalPatterns) {
  // Figure 2 scenario: a key in 40% of the table (clustered in the second
  // half) is below Sinew's global 60% cut but extracted by tiles locally.
  std::vector<std::string> docs;
  for (int i = 0; i < 120; i++) docs.push_back(R"({"id":1,"text":"a"})");
  for (int i = 0; i < 80; i++) {
    docs.push_back(R"({"id":2,"text":"b","geo":{"lat":1.5}})");
  }
  tiles::TileConfig config;
  config.tile_size = 50;
  config.partition_size = 4;
  Loader sinew_loader(StorageMode::kSinew, config);
  auto sinew = sinew_loader.Load(docs, "t").MoveValueOrDie();
  EXPECT_EQ(sinew->tiles()[0].FindColumn(Path({"geo", "lat"})), nullptr);

  Loader tiles_loader(StorageMode::kTiles, config);
  auto tiled = tiles_loader.Load(docs, "t").MoveValueOrDie();
  bool extracted_somewhere = false;
  for (const auto& tile : tiled->tiles()) {
    if (tile.FindColumn(Path({"geo", "lat"})) != nullptr) extracted_somewhere = true;
  }
  EXPECT_TRUE(extracted_somewhere);
}

// Three document shapes interleaved, so reordering moves tuples across
// tiles; `tags` qualifies for a side relation under extract_arrays.
std::vector<std::string> MixedDocs(size_t n) {
  std::vector<std::string> docs;
  for (size_t i = 0; i < n; i++) {
    const std::string id = std::to_string(i);
    switch (i % 3) {
      case 0:
        docs.push_back(R"({"id":)" + id + R"(,"name":"user)" +
                       std::to_string(i % 17) + R"(","tags":[{"t":"a"},{"t":")" +
                       std::to_string(i % 5) + R"("}]})");
        break;
      case 1:
        docs.push_back(R"({"order":)" + id + R"(,"price":)" +
                       std::to_string(i % 100) + R"(.5,"at":"2020-01-0)" +
                       std::to_string(1 + i % 9) + R"("})");
        break;
      default:
        docs.push_back(R"({"id":)" + id + R"(,"geo":{"lat":)" +
                       std::to_string(i % 90) + R"(,"lon":1},"tags":[{"t":"b"}]})");
        break;
    }
  }
  return docs;
}

std::vector<uint8_t> SerializedLoad(StorageMode mode, tiles::TileConfig config,
                                    LoadOptions options,
                                    const std::vector<std::string>& docs,
                                    LoadBreakdown* breakdown = nullptr) {
  auto rel = Loader(mode, config, options).Load(docs, "t", breakdown);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  std::vector<uint8_t> bytes;
  if (!rel.ok()) return bytes;
  EXPECT_TRUE(SerializeRelation(*rel.ValueOrDie(), &bytes).ok());
  return bytes;
}

// Every thread count stores the same bytes: documents, tiles, statistics
// and side relations. 500 documents are not a multiple of the tile size, so
// the last partition and tile are short.
TEST(LoaderTest, ParallelLoadIsDeterministic) {
  struct Case {
    const char* label;
    tiles::TileConfig config;
    LoadOptions options;
    std::vector<std::string> docs;
  };
  std::vector<Case> cases;
  tiles::TileConfig reordering;
  reordering.tile_size = 32;
  reordering.partition_size = 4;
  tiles::TileConfig no_reordering = reordering;
  no_reordering.partition_size = 1;
  cases.push_back({"32/4", reordering, {}, MixedDocs(500)});
  cases.push_back({"32/1", no_reordering, {}, MixedDocs(500)});
  // Skips shrink their own partitions and chunks.
  Case skips{"32/4 max_errors", reordering, {}, MixedDocs(500)};
  for (size_t i = 3; i < 500; i += 41) skips.docs[i] = "{broken";
  skips.options.max_errors = 100;
  cases.push_back(skips);
  Case arrays{"32/4 extract_arrays", reordering, {}, MixedDocs(500)};
  arrays.options.extract_arrays = true;
  cases.push_back(arrays);

  for (const Case& c : cases) {
    for (StorageMode mode :
         {StorageMode::kJsonb, StorageMode::kSinew, StorageMode::kTiles}) {
      if (c.options.extract_arrays && mode != StorageMode::kTiles) continue;
      LoadOptions options = c.options;
      options.num_threads = 1;
      LoadBreakdown serial_breakdown;
      const std::vector<uint8_t> serial =
          SerializedLoad(mode, c.config, options, c.docs, &serial_breakdown);
      ASSERT_FALSE(serial.empty()) << c.label;
      if (c.options.max_errors > 0) {
        EXPECT_EQ(serial_breakdown.skipped_docs, 13u) << c.label;
      }
      if (mode == StorageMode::kTiles && c.config.partition_size > 1) {
        EXPECT_GT(serial_breakdown.moved_tuples, 0u) << c.label;
      }
      for (size_t threads : {2, 3, 4}) {
        options.num_threads = threads;
        LoadBreakdown breakdown;
        EXPECT_EQ(SerializedLoad(mode, c.config, options, c.docs, &breakdown),
                  serial)
            << c.label << " mode " << static_cast<int>(mode) << " threads "
            << threads;
        EXPECT_EQ(breakdown.skipped_docs, serial_breakdown.skipped_docs);
        EXPECT_EQ(breakdown.moved_tuples, serial_breakdown.moved_tuples);
      }
    }
  }
  // The side relations exist, so the JSONB-input path was compared too.
  auto rel = Loader(StorageMode::kTiles, reordering,
                    LoadOptions{.num_threads = 4, .extract_arrays = true})
                 .Load(MixedDocs(500), "t")
                 .MoveValueOrDie();
  EXPECT_EQ(rel->side_relations().size(), 1u);
}

// Reordering may permute documents within their tiles without moving any
// across them (moved_tuples 0, permutation [0 2 1 3] here). The documents
// must still be stored in the permuted order the tiles were built from:
// every column cell is the value its own row holds.
TEST(LoaderTest, ReorderWithinTilesKeepsColumnsAligned) {
  tiles::TileConfig config;
  config.tile_size = 3;
  config.partition_size = 2;
  const std::vector<std::string> docs = {
      R"({"a":0,"b":0,"f":0})", R"({"a":1,"b":1,"c":1})",
      R"({"a":2,"b":2,"c":2,"f":2})", R"({"a":3,"b":3,"c":3,"d":3})"};
  LoadBreakdown breakdown;
  auto rel = Loader(StorageMode::kTiles, config)
                 .Load(docs, "t", &breakdown)
                 .MoveValueOrDie();
  EXPECT_EQ(breakdown.moved_tuples, 0u);
  EXPECT_EQ(rel->Jsonb(1).FindKey("a")->GetInt(), 2);  // reordered
  size_t cells = 0;
  for (const auto& tile : rel->tiles()) {
    for (const auto& col : tile.columns) {
      ASSERT_EQ(col.storage_type, tiles::ColumnType::kInt64);
      for (size_t i = 0; i < tile.row_count; i++) {
        const auto value = tiles::LookupPath(rel->Jsonb(tile.row_begin + i),
                                             col.path);
        ASSERT_EQ(col.column.IsNull(i), !value.has_value())
            << tiles::PathToDisplayString(col.path) << " row "
            << tile.row_begin + i;
        if (value.has_value()) {
          EXPECT_EQ(col.column.GetInt(i), value->GetInt());
          cells++;
        }
      }
    }
  }
  EXPECT_GE(cells, 9u);
}

TEST(LoaderTest, MalformedDocumentFailsLoad) {
  Loader loader(StorageMode::kTiles, {});
  std::vector<std::string> docs = {R"({"ok":1})", "{broken"};
  auto result = loader.Load(docs, "t");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(LoaderTest, MaxErrorsSkipsMalformedDocs) {
  auto docs = SimpleDocs(100);
  docs[10] = "{broken";
  docs[55] = "not json at all";
  LoadOptions options;
  options.max_errors = 5;
  Loader loader(StorageMode::kTiles, {}, options);
  LoadBreakdown breakdown;
  auto rel = loader.Load(docs, "t", &breakdown).MoveValueOrDie();
  EXPECT_EQ(rel->num_rows(), 98u);
  EXPECT_EQ(breakdown.skipped_docs, 2u);
  EXPECT_EQ(breakdown.tuples, 98u);
  // Every surviving row is a well-formed document.
  for (size_t r = 0; r < rel->num_rows(); r++) {
    EXPECT_TRUE(rel->Jsonb(r).FindKey("id").has_value());
  }
}

TEST(LoaderTest, MaxErrorsBudgetIsGlobalAcrossPartitions) {
  // 4 partitions (tile_size 32 * partition_size 1 = 32 docs each), one bad
  // doc in each: a budget of 2 must fail the load even though no single
  // partition exceeds it.
  tiles::TileConfig config;
  config.tile_size = 32;
  config.partition_size = 1;
  auto docs = SimpleDocs(128);
  for (size_t p = 0; p < 4; p++) docs[p * 32 + 5] = "{bad";
  LoadOptions options;
  options.max_errors = 2;
  options.num_threads = 4;
  Loader strict(StorageMode::kTiles, config, options);
  EXPECT_FALSE(strict.Load(docs, "t").ok());

  options.max_errors = 4;
  Loader lenient(StorageMode::kTiles, config, options);
  LoadBreakdown breakdown;
  auto rel = lenient.Load(docs, "t", &breakdown).MoveValueOrDie();
  EXPECT_EQ(rel->num_rows(), 124u);
  EXPECT_EQ(breakdown.skipped_docs, 4u);
}

TEST(LoaderTest, MaxErrorsZeroKeepsFailFast) {
  auto docs = SimpleDocs(10);
  docs[3] = "{broken";
  Loader loader(StorageMode::kTiles, {}, LoadOptions{});
  EXPECT_FALSE(loader.Load(docs, "t").ok());
}

TEST(LoaderTest, DegradedLoadStillQueriesCleanly) {
  tiles::TileConfig config;
  config.tile_size = 16;
  config.partition_size = 2;
  auto docs = SimpleDocs(200);
  for (size_t i = 0; i < 200; i += 37) docs[i] = "corrupt!";
  LoadOptions options;
  options.max_errors = 100;
  options.num_threads = 4;
  Loader loader(StorageMode::kTiles, config, options);
  LoadBreakdown breakdown;
  auto rel = loader.Load(docs, "t", &breakdown).MoveValueOrDie();
  EXPECT_EQ(breakdown.skipped_docs, 6u);  // ceil(200/37)
  EXPECT_EQ(rel->num_rows(), 194u);
  ASSERT_FALSE(rel->tiles().empty());
  // Tiles cover exactly the surviving rows.
  size_t covered = 0;
  for (const auto& tile : rel->tiles()) covered += tile.row_count;
  EXPECT_EQ(covered, 194u);
}

TEST(LoaderTest, PartitionFailpointSurfacesStatus) {
  struct Cleanup {
    ~Cleanup() { failpoint::DisableAll(); }
  } cleanup;
  tiles::TileConfig config;
  config.tile_size = 32;
  config.partition_size = 1;
  auto docs = SimpleDocs(128);  // 4 partitions

  failpoint::Enable("loader.partition", failpoint::Spec::Nth(3));
  LoadOptions options;
  options.num_threads = 4;
  Loader loader(StorageMode::kTiles, config, options);
  auto result = loader.Load(docs, "t");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);

  // The same loader succeeds once the fault is gone.
  failpoint::DisableAll();
  EXPECT_TRUE(loader.Load(docs, "t").ok());
}

// A failing partition stops the task graph while other workers parse,
// reorder, build tiles or wait on a reorder: every run must return the
// failpoint's Status, never hang or succeed. 16 partitions of two 16-row
// tiles; Nth(k) fails the k-th partition task to start.
TEST(LoaderTest, PartitionFailpointUnderFourThreads) {
  struct Cleanup {
    ~Cleanup() { failpoint::DisableAll(); }
  } cleanup;
  tiles::TileConfig config;
  config.tile_size = 16;
  config.partition_size = 2;
  const auto docs = MixedDocs(16 * 32);
  LoadOptions options;
  options.num_threads = 4;
  Loader loader(StorageMode::kTiles, config, options);
  for (uint64_t k : {1, 2, 5, 15, 16}) {
    for (int run = 0; run < 20; run++) {
      failpoint::Enable("loader.partition", failpoint::Spec::Nth(k));
      auto result = loader.Load(docs, "t");
      ASSERT_FALSE(result.ok()) << "Nth(" << k << ") run " << run;
      EXPECT_EQ(result.status().code(), StatusCode::kInternal);
      failpoint::DisableAll();
    }
  }
  failpoint::Enable("loader.partition", failpoint::Spec::Nth(17));
  EXPECT_TRUE(loader.Load(docs, "t").ok());  // only 16 partitions
}

// A side relation is loaded through the same partition pipeline, so the
// failpoint's hit after the main partitions fails the first side load, and
// the whole load with it.
TEST(LoaderTest, SideRelationFailpointSurfacesStatus) {
  struct Cleanup {
    ~Cleanup() { failpoint::DisableAll(); }
  } cleanup;
  tiles::TileConfig config;
  config.tile_size = 32;
  config.partition_size = 1;
  std::vector<std::string> docs;
  for (int i = 0; i < 96; i++) {  // 3 partitions
    docs.push_back(R"({"id":)" + std::to_string(i) +
                   R"(,"tags":[{"t":"a"},{"t":"b"}],"refs":[1,2,3]})");
  }
  LoadOptions options;
  options.extract_arrays = true;
  Loader loader(StorageMode::kTiles, config, options);

  failpoint::Enable("loader.partition", failpoint::Spec::Nth(4));
  auto result = loader.Load(docs, "t");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);

  failpoint::DisableAll();
  auto rel = loader.Load(docs, "t").MoveValueOrDie();
  EXPECT_EQ(rel->side_relations().size(), 2u);
}

TEST(LoaderTest, ArrayExtractionBuildsSideRelation) {
  std::vector<std::string> docs;
  Random rng(4);
  for (int i = 0; i < 200; i++) {
    std::string tags = "[";
    int n = static_cast<int>(rng.Uniform(6));
    for (int t = 0; t < n; t++) {
      if (t) tags += ",";
      tags += R"({"text":"tag)" + std::to_string(rng.Uniform(20)) + R"("})";
    }
    tags += "]";
    docs.push_back(R"({"id":)" + std::to_string(i) + R"(,"hashtags":)" + tags + "}");
  }
  tiles::TileConfig config;
  config.tile_size = 64;
  LoadOptions options;
  options.extract_arrays = true;
  Loader loader(StorageMode::kTiles, config, options);
  auto rel = loader.Load(docs, "tweets").MoveValueOrDie();
  ASSERT_EQ(rel->side_relations().size(), 1u);
  const Relation* side = rel->FindSideRelation(Path({"hashtags"}));
  ASSERT_NE(side, nullptr);
  EXPECT_GT(side->num_rows(), 100u);
  // Side docs carry the parent row id and the element fields.
  auto doc = side->Jsonb(0);
  EXPECT_TRUE(doc.FindKey("_rowid").has_value());
  EXPECT_TRUE(doc.FindKey("text").has_value());
  // The side relation extracted its own columns.
  ASSERT_FALSE(side->tiles().empty());
  EXPECT_NE(side->tiles()[0].FindColumn(Path({"text"})), nullptr);
}

// Rows live in blocks the tile tasks stored and the relation adopted; an
// update allocates its new document beside them and overwrites none.
TEST(LoaderTest, UpdateRowsAfterParallelReorderedLoad) {
  tiles::TileConfig config;
  config.tile_size = 32;
  config.partition_size = 4;
  LoadOptions options;
  options.num_threads = 4;
  LoadBreakdown breakdown;
  auto rel = Loader(StorageMode::kTiles, config, options)
                 .Load(MixedDocs(500), "t", &breakdown)
                 .MoveValueOrDie();
  ASSERT_GT(breakdown.moved_tuples, 0u);
  auto bytes_of = [&](size_t row) {
    const uint8_t* data = rel->Jsonb(row).data();
    return std::vector<uint8_t>(data, data + rel->DocSize(row));
  };
  std::vector<std::vector<uint8_t>> before;
  for (size_t r = 0; r < rel->num_rows(); r++) before.push_back(bytes_of(r));

  const std::vector<size_t> updated = {0, 31, 32, 250, 499};
  for (size_t row : updated) {
    ASSERT_TRUE(rel->UpdateRow(row, R"({"id":)" + std::to_string(1000 + row) +
                                        R"(,"name":"updated"})")
                    .ok());
  }
  for (size_t r = 0; r < rel->num_rows(); r++) {
    if (std::find(updated.begin(), updated.end(), r) != updated.end()) {
      EXPECT_EQ(rel->Jsonb(r).FindKey("id")->GetInt(),
                static_cast<int64_t>(1000 + r));
      EXPECT_EQ(rel->Jsonb(r).FindKey("name")->GetString(), "updated");
    } else {
      EXPECT_EQ(bytes_of(r), before[r]) << "row " << r;
    }
  }
}

TEST(RelationTest, UpdateRowRewritesDocAndTile) {
  tiles::TileConfig config;
  config.tile_size = 32;
  Loader loader(StorageMode::kTiles, config);
  auto rel = loader.Load(SimpleDocs(64), "t").MoveValueOrDie();
  ASSERT_TRUE(rel->UpdateRow(5, R"({"id":999,"name":"upd","score":1})").ok());
  EXPECT_EQ(rel->Jsonb(5).FindKey("id")->GetInt(), 999);
  const tiles::Tile* tile = rel->TileForRow(5);
  const auto* col = tile->FindColumn(Path({"id"}));
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col->column.GetInt(5), 999);
  EXPECT_FALSE(rel->UpdateRow(1000, "{}").ok());
}

// A partition that skips a malformed document ends short, so the tiles after
// it do not start at multiples of tile_size: with 4-row tiles and 2-tile
// partitions, skipping document 1 gives tiles [0,4) [4,7) [7,11) [11,15) ...
TEST(RelationTest, ShortPartitionTileForRowAndUpdateRow) {
  tiles::TileConfig config;
  config.tile_size = 4;
  config.partition_size = 2;
  LoadOptions options;
  options.max_errors = 1;
  std::vector<std::string> docs = SimpleDocs(24);
  docs[1] = "{not json";
  auto rel =
      Loader(StorageMode::kTiles, config, options).Load(docs, "t").MoveValueOrDie();
  ASSERT_EQ(rel->num_rows(), 23u);
  ASSERT_GE(rel->tiles().size(), 3u);
  EXPECT_EQ(rel->tiles()[1].row_begin, 4u);
  EXPECT_EQ(rel->tiles()[1].row_count, 3u);
  EXPECT_EQ(rel->tiles()[2].row_begin, 7u);
  for (size_t r = 0; r < rel->num_rows(); r++) {
    const tiles::Tile* tile = rel->TileForRow(r);
    ASSERT_NE(tile, nullptr);
    EXPECT_GE(r, tile->row_begin) << "row " << r;
    EXPECT_LT(r, tile->row_begin + tile->row_count) << "row " << r;
  }

  // Rows whose id equals `id`, answered by a scan over the tiles.
  auto count_id = [&](int64_t id) {
    exec::QueryContext ctx;
    opt::QueryBlock q;
    q.AddTable(opt::TableRef::Rel(
        "t", rel.get(),
        exec::Eq(exec::Access("t", {"id"}, exec::ValueType::kInt),
                 exec::ConstInt(id))));
    q.Select({exec::Access("t", {"id"}, exec::ValueType::kInt)});
    return q.Execute(ctx).size();
  };
  const int64_t old_id = rel->Jsonb(7).FindKey("id")->GetInt();
  ASSERT_EQ(count_id(old_id), 1u);
  const size_t bytes = rel->DocumentBytes();
  const size_t old_size = rel->DocSize(7);
  ASSERT_TRUE(rel->UpdateRow(7, R"({"id":777,"name":"upd","score":1})").ok());
  EXPECT_EQ(rel->DocumentBytes(), bytes - old_size + rel->DocSize(7));
  const tiles::Tile* tile = rel->TileForRow(7);
  const auto* col = tile->FindColumn(Path({"id"}));
  ASSERT_NE(col, nullptr);
  EXPECT_EQ(col->column.GetInt(7 - tile->row_begin), 777);
  EXPECT_EQ(count_id(777), 1u);
  EXPECT_EQ(count_id(old_id), 0u);
}

TEST(RelationTest, MassOutlierUpdatesTriggerRecompute) {
  tiles::TileConfig config;
  config.tile_size = 16;
  config.partition_size = 1;
  Loader loader(StorageMode::kTiles, config);
  auto rel = loader.Load(SimpleDocs(16), "t").MoveValueOrDie();
  // Overwrite most rows with a new document type. The first two keep `id`,
  // so they still overlap the extracted schema and are no outliers; the
  // recompute fires at the 9th outlier (row 10), when 11 of 16 rows (69%,
  // at least the 60% threshold) hold the new keys.
  for (size_t r = 0; r < 12; r++) {
    const std::string id = r < 2 ? R"("id":)" + std::to_string(r) + "," : "";
    ASSERT_TRUE(rel->UpdateRow(r, "{" + id + R"("kind":"new","v":)" +
                                      std::to_string(r) + "}")
                    .ok());
  }
  // The recompute should have kicked in: the tile now extracts the new keys.
  const tiles::Tile* tile = rel->TileForRow(0);
  EXPECT_NE(tile->FindColumn(Path({"kind"})), nullptr);
}

}  // namespace
}  // namespace jsontiles::storage
