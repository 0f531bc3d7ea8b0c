// Coverage for path prefixes, access cast routes and storage accounting.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operators.h"
#include "opt/query.h"
#include "storage/loader.h"
#include "tiles/keypath.h"

namespace jsontiles::tiles {
namespace {

using exec::Access;
using exec::QueryContext;
using exec::ValueType;
using opt::QueryBlock;
using opt::TableRef;
using storage::Loader;
using storage::StorageMode;

TEST(PathPrefixTest, EnumeratesAllPrefixes) {
  std::string path = EncodePath({PathSegment::Key("entities"),
                                 PathSegment::Key("hashtags"),
                                 PathSegment::Index(0),
                                 PathSegment::Key("text")});
  std::vector<std::string> prefixes;
  ForEachPathPrefix(path, [&](std::string_view p) {
    prefixes.push_back(PathToDisplayString(p));
  });
  ASSERT_EQ(prefixes.size(), 4u);
  EXPECT_EQ(prefixes[0], "entities");
  EXPECT_EQ(prefixes[1], "entities.hashtags");
  EXPECT_EQ(prefixes[2], "entities.hashtags[0]");
  EXPECT_EQ(prefixes[3], "entities.hashtags[0].text");
}

TEST(PathPrefixTest, TileAnswersIntermediateLevels) {
  std::vector<std::string> docs(64, R"({"a":{"b":{"c":1}}})");
  Loader loader(StorageMode::kTiles, {});
  auto rel = loader.Load(docs, "t").MoveValueOrDie();
  const Tile& tile = rel->tiles()[0];
  std::string a = EncodePath({PathSegment::Key("a")});
  std::string ab = EncodePath({PathSegment::Key("a"), PathSegment::Key("b")});
  std::string abc = EncodePath({PathSegment::Key("a"), PathSegment::Key("b"),
                                PathSegment::Key("c")});
  EXPECT_TRUE(tile.MayContainPath(a));
  EXPECT_TRUE(tile.MayContainPath(ab));
  EXPECT_TRUE(tile.MayContainPath(abc));
  EXPECT_FALSE(tile.MayContainPath(EncodePath({PathSegment::Key("zzz")})));
}

// Cast routes (§4.3/§4.5): the requested type differs from the stored column
// type — values must still be served (from the column with a cheap cast).
TEST(CastRouteTest, NumericColumnServesOtherNumericRequests) {
  std::vector<std::string> docs;
  for (int i = 0; i < 64; i++) {
    docs.push_back(R"({"i":)" + std::to_string(i) + R"(,"f":)" +
                   std::to_string(i) + ".5}");
  }
  Loader loader(StorageMode::kTiles, {});
  auto rel = loader.Load(docs, "t").MoveValueOrDie();
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel("t", rel.get()));
  q.GroupBy({});
  // Int column requested as Float; Float column requested as Int (trunc);
  // Int column requested as Text.
  q.Aggregate(exec::AggSpec::Sum(Access("t", {"i"}, ValueType::kFloat)));
  q.Aggregate(exec::AggSpec::Sum(Access("t", {"f"}, ValueType::kInt)));
  q.Aggregate(exec::AggSpec::Max(Access("t", {"i"}, ValueType::kString)));
  auto rows = q.Execute(ctx);
  EXPECT_DOUBLE_EQ(rows[0][0].float_value(), 63.0 * 64 / 2);
  EXPECT_EQ(rows[0][1].int_value(), 63 * 64 / 2);
  EXPECT_EQ(rows[0][2].string_value(), "9");  // lexicographic max of "0".."63"
}

TEST(CastRouteTest, StringColumnServesTypedRequests) {
  std::vector<std::string> docs(64, R"({"n":"123","d":"2020-06-01"})");
  tiles::TileConfig config;
  config.enable_date_extraction = false;  // force the string column route
  Loader loader(StorageMode::kTiles, config);
  auto rel = loader.Load(docs, "t").MoveValueOrDie();
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel("t", rel.get()));
  q.GroupBy({});
  q.Aggregate(exec::AggSpec::Sum(Access("t", {"n"}, ValueType::kInt)));
  q.Aggregate(exec::AggSpec::Min(Access("t", {"d"}, ValueType::kTimestamp)));
  auto rows = q.Execute(ctx);
  EXPECT_EQ(rows[0][0].int_value(), 123 * 64);
  EXPECT_EQ(rows[0][1].type, ValueType::kTimestamp);
  EXPECT_EQ(FormatDate(rows[0][1].ts_value()), "2020-06-01");
}

TEST(StorageAccountingTest, SizesAreTracked) {
  std::vector<std::string> docs;
  for (int i = 0; i < 128; i++) {
    docs.push_back(R"({"k":"0123456789","n":)" +
                   std::to_string(123456 + i * 1000) + "}");
  }
  Loader loader(StorageMode::kTiles, {});
  auto rel = loader.Load(docs, "t").MoveValueOrDie();
  EXPECT_GT(rel->DocumentBytes(), 128u * 10);
  EXPECT_EQ(rel->DocSize(0), json::JsonbValue(rel->Jsonb(0).data()).Size());
  // Tile bytes are the column buffers plus per-column headers. "n" spans
  // 127000 and packs at 4 bytes a row; "k" references its value inside
  // the documents instead of copying it, and one offset and one length
  // serve every row.
  size_t want = 0;
  for (const auto& tile : rel->tiles()) {
    for (const auto& col : tile.columns) {
      want += col.column.MemoryBytes() + col.path.size() + sizeof(col);
    }
  }
  EXPECT_EQ(rel->TileBytes(), want);
  const auto* n = rel->tiles()[0].FindColumn(EncodePath({PathSegment::Key("n")}));
  const auto* k = rel->tiles()[0].FindColumn(EncodePath({PathSegment::Key("k")}));
  ASSERT_NE(n, nullptr);
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(n->column.MemoryBytes(), 2 * 8 + 128 * 4u);
  EXPECT_EQ(k->column.MemoryBytes(), 2 * 8u);
}

TEST(SinewTest, OutlierFallbackOnGlobalTile) {
  // Sinew extracts the int majority; float outliers served from JSONB.
  std::vector<std::string> docs;
  for (int i = 0; i < 90; i++) docs.push_back(R"({"v":)" + std::to_string(i) + "}");
  for (int i = 0; i < 10; i++) docs.push_back(R"({"v":0.25})");
  Loader loader(StorageMode::kSinew, {});
  auto rel = loader.Load(docs, "t").MoveValueOrDie();
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel("t", rel.get()));
  q.GroupBy({});
  q.Aggregate(exec::AggSpec::Sum(Access("t", {"v"}, ValueType::kFloat)));
  auto rows = q.Execute(ctx);
  EXPECT_DOUBLE_EQ(rows[0][0].float_value(), 89.0 * 90 / 2 + 2.5);
}

}  // namespace
}  // namespace jsontiles::tiles
