#include "storage/serialize.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/json_type.h"
#include "json/jsonb.h"
#include "opt/query.h"
#include "storage/loader.h"
#include "storage/shard.h"
#include "util/bit_util.h"
#include "util/random.h"
#include "workload/twitter.h"

namespace jsontiles::storage {
namespace {

using exec::Access;
using exec::QueryContext;
using exec::ValueType;
using opt::QueryBlock;
using opt::TableRef;

std::vector<std::string> MixedDocs(size_t n) {
  Random rng(17);
  std::vector<std::string> docs;
  for (size_t i = 0; i < n; i++) {
    if (i % 3 == 0) {
      docs.push_back(R"({"a":)" + std::to_string(i) + R"(,"s":")" +
                     rng.NextString(3, 20) + R"(","d":"2021-0)" +
                     std::to_string(i % 9 + 1) + R"(-15","p":")" +
                     std::to_string(i % 90 + 10) + R"(.50"})");
    } else {
      docs.push_back(R"({"b":)" + std::to_string(i) + R"(,"f":)" +
                     std::to_string(0.5 + static_cast<double>(i)) +
                     R"(,"flag":)" + (i % 2 ? "true" : "false") + "}");
    }
  }
  return docs;
}

std::string RunProbeQuery(const Relation& rel) {
  QueryContext ctx;
  QueryBlock q;
  q.AddTable(TableRef::Rel(
      "t", &rel, exec::IsNotNull(Access("t", {"a"}, ValueType::kInt))));
  q.GroupBy({});
  q.Aggregate(exec::AggSpec::Sum(Access("t", {"a"}, ValueType::kInt)));
  q.Aggregate(exec::AggSpec::Min(Access("t", {"d"}, ValueType::kTimestamp)));
  q.Aggregate(exec::AggSpec::Sum(Access("t", {"p"}, ValueType::kFloat)));
  q.Aggregate(exec::AggSpec::CountStar());
  auto rows = q.Execute(ctx);
  std::string out;
  for (const auto& v : rows[0]) out += v.ToString() + "|";
  out += std::to_string(ctx.tiles_skipped);
  return out;
}

TEST(SerializeTest, RoundTripPreservesEverything) {
  tiles::TileConfig config;
  config.tile_size = 128;
  Loader loader(StorageMode::kTiles, config);
  auto rel = loader.Load(MixedDocs(1000), "mixed").MoveValueOrDie();

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SerializeRelation(*rel, &bytes).ok());
  auto back = DeserializeRelation(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const Relation& restored = *back.ValueOrDie();

  EXPECT_EQ(restored.name(), "mixed");
  EXPECT_EQ(restored.mode(), StorageMode::kTiles);
  EXPECT_EQ(restored.num_rows(), rel->num_rows());
  EXPECT_EQ(restored.tiles().size(), rel->tiles().size());
  EXPECT_EQ(restored.config().tile_size, 128u);
  // Documents byte-identical.
  for (size_t row = 0; row < rel->num_rows(); row += 97) {
    EXPECT_EQ(rel->Jsonb(row).ToJsonText(), restored.Jsonb(row).ToJsonText());
  }
  // Columns, headers and flags identical per tile.
  for (size_t t = 0; t < rel->tiles().size(); t++) {
    const auto& a = rel->tiles()[t];
    const auto& b = restored.tiles()[t];
    ASSERT_EQ(a.columns.size(), b.columns.size());
    for (size_t c = 0; c < a.columns.size(); c++) {
      EXPECT_EQ(a.columns[c].path, b.columns[c].path);
      EXPECT_EQ(a.columns[c].storage_type, b.columns[c].storage_type);
      EXPECT_EQ(a.columns[c].is_timestamp, b.columns[c].is_timestamp);
      EXPECT_EQ(a.columns[c].column.null_count(), b.columns[c].column.null_count());
    }
  }
  // Statistics survive.
  EXPECT_EQ(restored.stats().total_tuples(), rel->stats().total_tuples());
  // Queries agree — including tile-skipping behavior (bloom filters).
  EXPECT_EQ(RunProbeQuery(*rel), RunProbeQuery(restored));
}

TEST(SerializeTest, AllStorageModes) {
  for (StorageMode mode : {StorageMode::kJsonText, StorageMode::kJsonb,
                           StorageMode::kSinew, StorageMode::kTiles}) {
    Loader loader(mode, {});
    auto rel = loader.Load(MixedDocs(200), "m").MoveValueOrDie();
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(SerializeRelation(*rel, &bytes).ok());
    auto back = DeserializeRelation(bytes.data(), bytes.size());
    ASSERT_TRUE(back.ok()) << StorageModeName(mode);
    EXPECT_EQ(back.ValueOrDie()->num_rows(), 200u);
    if (mode == StorageMode::kJsonText) {
      EXPECT_EQ(back.ValueOrDie()->JsonText(7), rel->JsonText(7));
    }
  }
}

TEST(SerializeTest, SideRelationsIncluded) {
  workload::TwitterOptions options;
  options.num_tweets = 1500;
  auto docs = workload::GenerateTwitter(options);
  LoadOptions load_options;
  load_options.extract_arrays = true;
  Loader loader(StorageMode::kTiles, {}, load_options);
  auto rel = loader.Load(docs, "tw").MoveValueOrDie();
  ASSERT_FALSE(rel->side_relations().empty());

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SerializeRelation(*rel, &bytes).ok());
  auto back = DeserializeRelation(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie()->side_relations().size(),
            rel->side_relations().size());
  // The side route still answers T4 on the restored relation.
  QueryContext ctx1, ctx2;
  auto a = workload::RunTwitterQuery(4, *rel, ctx1);
  auto b = workload::RunTwitterQuery(4, *back.ValueOrDie(), ctx2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i][1].int_value(), b[i][1].int_value());
  }
}

TEST(SerializeTest, FileRoundTrip) {
  Loader loader(StorageMode::kTiles, {});
  auto rel = loader.Load(MixedDocs(300), "f").MoveValueOrDie();
  std::string path = ::testing::TempDir() + "/jsontiles_serialize_test.bin";
  ASSERT_TRUE(SaveRelation(*rel, path).ok());
  auto back = LoadRelation(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie()->num_rows(), 300u);
  std::remove(path.c_str());
}

// A directory used to pass as a file of the huge size ftell reports for it,
// and the allocation aborted the process.
TEST(SerializeTest, LoadFromDirectoryFails) {
  EXPECT_FALSE(LoadRelation(::testing::TempDir()).ok());
}

// The relation fits the stdio buffer, so /dev/full reports ENOSPC only at
// fclose, whose result used to be ignored.
TEST(SerializeTest, SaveToFullDeviceFails) {
  Loader loader(StorageMode::kTiles, {});
  auto rel = loader.Load(MixedDocs(5), "full").MoveValueOrDie();
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SerializeRelation(*rel, &bytes).ok());
  ASSERT_LT(bytes.size(), 4096u);
  EXPECT_FALSE(SaveRelation(*rel, "/dev/full").ok());
}

TEST(SerializeTest, CorruptionRejected) {
  Loader loader(StorageMode::kTiles, {});
  auto rel = loader.Load(MixedDocs(100), "c").MoveValueOrDie();
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SerializeRelation(*rel, &bytes).ok());
  // Bad magic.
  {
    auto bad = bytes;
    bad[0] = 'X';
    EXPECT_FALSE(DeserializeRelation(bad.data(), bad.size()).ok());
  }
  // Truncations at many points must fail cleanly, never crash.
  for (size_t cut : {size_t{5}, bytes.size() / 4, bytes.size() / 2,
                     bytes.size() - 3}) {
    EXPECT_FALSE(DeserializeRelation(bytes.data(), cut).ok());
  }
  // Trailing garbage.
  {
    auto bad = bytes;
    bad.push_back(0xFF);
    EXPECT_FALSE(DeserializeRelation(bad.data(), bad.size()).ok());
  }
  // Random byte flips: either a clean error or a successful parse (flips in
  // document payload bytes are data, not structure) — never a crash.
  Random rng(5);
  for (int i = 0; i < 200; i++) {
    auto bad = bytes;
    bad[rng.Uniform(bad.size())] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    auto result = DeserializeRelation(bad.data(), bad.size());
    (void)result;
  }
  EXPECT_FALSE(LoadRelation("/nonexistent/path.bin").ok());
}

void AppendVarint(std::vector<uint8_t>* bytes, uint64_t v) {
  uint8_t buf[10];
  int n = bit_util::EncodeVarint(buf, v);
  bytes->insert(bytes->end(), buf, buf + n);
}

// The header of a hand-built JTRL v3 file: magic, version, a kTiles
// relation named "t" and its tile config.
std::vector<uint8_t> RelationHeader(uint64_t tile_size = 1024,
                                    uint64_t partition_size = 8,
                                    uint8_t date_extraction = 1) {
  std::vector<uint8_t> bytes = {'J', 'T', 'R', 'L'};
  AppendVarint(&bytes, 3);  // version
  bytes.push_back(static_cast<uint8_t>(StorageMode::kTiles));
  AppendVarint(&bytes, 1);
  bytes.push_back('t');                // name
  AppendVarint(&bytes, tile_size);
  AppendVarint(&bytes, partition_size);
  bytes.push_back(date_extraction);
  return bytes;
}

// The start of a hand-built JTRL file: a kTiles relation with no documents
// and one tile of no rows, up to its column count.
std::vector<uint8_t> TileFilePrefix() {
  std::vector<uint8_t> bytes = RelationHeader();
  AppendVarint(&bytes, 0);  // documents
  AppendVarint(&bytes, 1);  // tiles
  for (int i = 0; i < 3; i++) AppendVarint(&bytes, 0);  // rows, outliers
  return bytes;
}

// A relation with no documents and no tiles under the given tile config.
std::vector<uint8_t> EmptyFile(uint64_t tile_size, uint64_t partition_size,
                               uint8_t date_extraction = 1) {
  std::vector<uint8_t> bytes =
      RelationHeader(tile_size, partition_size, date_extraction);
  AppendVarint(&bytes, 0);                              // documents
  AppendVarint(&bytes, 0);                              // tiles
  for (int i = 0; i < 3; i++) AppendVarint(&bytes, 0);  // relation stats
  AppendVarint(&bytes, 0);                              // side relations
  return bytes;
}

// Tile and partition sizes outside [1, 2^20] and date flags other than 0/1
// are corrupt, as in a JTSM manifest: one codec reads both headers.
TEST(SerializeTest, TileConfigOutOfRangeRejected) {
  for (const auto& [tile_size, partition_size] :
       {std::pair<uint64_t, uint64_t>{1, 1}, {1u << 20, 1u << 20}}) {
    const auto good = EmptyFile(tile_size, partition_size);
    auto opened = DeserializeRelation(good.data(), good.size());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened.ValueOrDie()->config().tile_size, tile_size);
    EXPECT_EQ(opened.ValueOrDie()->config().partition_size, partition_size);
  }
  const auto no_dates = EmptyFile(1024, 8, 0);
  auto opened = DeserializeRelation(no_dates.data(), no_dates.size());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE(opened.ValueOrDie()->config().enable_date_extraction);
  for (const auto& bad :
       {EmptyFile(0, 8), EmptyFile(1024, uint64_t{1} << 21),
        EmptyFile((1u << 20) + 1, 8), EmptyFile(1024, 0),
        EmptyFile(1024, 8, 2)}) {
    auto result = DeserializeRelation(bad.data(), bad.size());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kParseError);
    EXPECT_NE(result.status().message().find("ReadTileConfig"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(SerializeTest, WrappingVectorCountRejected) {
  // The tile has no columns; its bloom filter claims `words` uint64 words
  // over an 8-byte payload.
  auto file = [](uint64_t words) {
    auto bytes = TileFilePrefix();
    for (int i = 0; i < 3; i++) AppendVarint(&bytes, 0);  // columns, stats
    AppendVarint(&bytes, words);
    AppendVarint(&bytes, 8);
    bytes.insert(bytes.end(), 8, 0xFF);
    for (int i = 0; i < 5; i++) AppendVarint(&bytes, 0);  // relation stats
    return bytes;
  };
  // Control: an honest count opens.
  const auto good = file(1);
  ASSERT_TRUE(DeserializeRelation(good.data(), good.size()).ok());
  // (2^61 + 1) * sizeof(uint64_t) wraps to the 8 payload bytes.
  const auto bad = file((uint64_t{1} << 61) + 1);
  auto result = DeserializeRelation(bad.data(), bad.size());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("count <= n / sizeof(T)"),
            std::string::npos)
      << result.status().ToString();
}

TEST(SerializeTest, WrappingBitmapCountRejected) {
  auto bytes = TileFilePrefix();
  AppendVarint(&bytes, 1);  // one column
  AppendVarint(&bytes, 1);
  bytes.push_back('a');  // path
  bytes.push_back(static_cast<uint8_t>(json::JsonType::kBool));  // source
  bytes.push_back(static_cast<uint8_t>(tiles::ColumnType::kBool));  // storage
  bytes.push_back(0);  // flags
  // Validity bitmap of 2^64 - 1 bits: (count + 7) / 8 would wrap to the
  // empty payload.
  AppendVarint(&bytes, ~uint64_t{0});
  AppendVarint(&bytes, 0);
  auto result = DeserializeRelation(bytes.data(), bytes.size());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("count / 8"), std::string::npos)
      << result.status().ToString();
}

// A tile must lie inside the documents: row_begin + row_count would wrap
// here and pass a naive bound check.
TEST(SerializeTest, WrappingTileRowRangeRejected) {
  auto file = [](uint64_t row_begin, uint64_t row_count) {
    std::vector<uint8_t> bytes = RelationHeader();
    AppendVarint(&bytes, 0);  // documents
    AppendVarint(&bytes, 1);  // tiles
    AppendVarint(&bytes, row_begin);
    AppendVarint(&bytes, row_count);
    for (int i = 0; i < 4; i++) AppendVarint(&bytes, 0);  // outliers .. stats
    AppendVarint(&bytes, 1);  // bloom words
    AppendVarint(&bytes, 8);
    bytes.insert(bytes.end(), 8, 0);
    for (int i = 0; i < 5; i++) AppendVarint(&bytes, 0);  // relation stats
    return bytes;
  };
  const auto good = file(0, 0);
  ASSERT_TRUE(DeserializeRelation(good.data(), good.size()).ok());
  const auto bad = file(~uint64_t{0}, 1);
  auto result = DeserializeRelation(bad.data(), bad.size());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("row_begin <= num_rows - row_count"),
            std::string::npos)
      << result.status().ToString();
}

// Only the current version is read; version 1 and 2 files return
// Unsupported (version 2 still carried the extraction threshold as an f64).
TEST(SerializeTest, Version1FileUnsupported) {
  for (uint8_t version : {1, 2}) {
    auto bytes = TileFilePrefix();
    bytes[4] = version;  // version varint
    auto result = DeserializeRelation(bytes.data(), bytes.size());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
  }
}

void AppendSVarint(std::vector<uint8_t>* bytes, int64_t v) {
  AppendVarint(bytes, bit_util::ZigZagEncode(v));
}

void AppendBuffer(std::vector<uint8_t>* bytes, const std::vector<uint8_t>& b) {
  AppendVarint(bytes, b.size());
  bytes->insert(bytes->end(), b.begin(), b.end());
}

// A bitmap with every one of `rows` bits set.
void AppendFullBitmap(std::vector<uint8_t>* bytes, uint64_t rows) {
  AppendVarint(bytes, rows);
  std::vector<uint8_t> b(rows / 8 + (rows % 8 != 0 ? 1 : 0), 0xFF);
  if (rows % 8 != 0) b.back() = static_cast<uint8_t>((1u << (rows % 8)) - 1);
  AppendBuffer(bytes, b);
}

void AppendPacked(std::vector<uint8_t>* bytes, uint8_t width, int64_t base,
                  const std::vector<uint8_t>& deltas) {
  bytes->push_back(width);
  AppendSVarint(bytes, base);
  AppendBuffer(bytes, deltas);
}

// A kTiles file holding `docs` (as raw bytes) and one tile over all of them
// with one column: `payload` follows the column header. `tile_sketches` is
// the tile's sketch list (count included).
std::vector<uint8_t> OneColumnFile(const std::vector<std::string>& docs,
                                   json::JsonType source,
                                   tiles::ColumnType storage,
                                   const std::vector<uint8_t>& payload,
                                   const std::vector<uint8_t>& tile_sketches = {
                                       0}) {
  std::vector<uint8_t> bytes = RelationHeader();
  AppendVarint(&bytes, docs.size());
  for (const std::string& d : docs) {
    AppendBuffer(&bytes, std::vector<uint8_t>(d.begin(), d.end()));
  }
  AppendVarint(&bytes, 1);  // tiles
  AppendVarint(&bytes, 0);  // row_begin
  AppendVarint(&bytes, docs.size());
  AppendVarint(&bytes, 0);  // outliers
  AppendVarint(&bytes, 1);  // columns
  AppendVarint(&bytes, 1);
  bytes.push_back('a');
  bytes.push_back(static_cast<uint8_t>(source));
  bytes.push_back(static_cast<uint8_t>(storage));
  bytes.push_back(0);  // flags
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  AppendVarint(&bytes, 0);  // path frequencies
  bytes.insert(bytes.end(), tile_sketches.begin(), tile_sketches.end());
  AppendVarint(&bytes, 1);  // bloom words
  AppendVarint(&bytes, 8);
  bytes.insert(bytes.end(), 8, 0);
  for (int i = 0; i < 5; i++) AppendVarint(&bytes, 0);  // relation stats
  return bytes;
}

// Deserializing `file` fails with a message naming `check`.
void ExpectRejected(const std::vector<uint8_t>& file,
                    const std::string& check) {
  auto result = DeserializeRelation(file.data(), file.size());
  ASSERT_FALSE(result.ok()) << check;
  EXPECT_NE(result.status().message().find(check), std::string::npos)
      << result.status().ToString();
}

void ExpectOpens(const std::vector<uint8_t>& file) {
  auto result = DeserializeRelation(file.data(), file.size());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

// Three documents of 8, 2 and 10 bytes, which the string references below
// are sized to. They are JSONB (one JSON string each), since every mode but
// JSON text validates its documents on open.
std::vector<std::string> ThreeDocs() {
  std::vector<std::string> docs;
  for (const char* text : {R"("doc-zer")", R"("d")", R"("document-")"}) {
    auto jsonb = json::JsonbFromText(text).MoveValueOrDie();
    docs.emplace_back(jsonb.begin(), jsonb.end());
  }
  return docs;
}

const std::vector<std::string> kThreeDocs = ThreeDocs();

std::vector<uint8_t> IntColumn(uint8_t width, std::vector<uint8_t> deltas) {
  std::vector<uint8_t> payload;
  AppendFullBitmap(&payload, 3);
  AppendPacked(&payload, width, -7, deltas);
  return OneColumnFile(kThreeDocs, json::JsonType::kInt,
                       tiles::ColumnType::kInt64, payload);
}

TEST(SerializeTest, PackedWidthOutsideSetRejected) {
  ExpectOpens(IntColumn(2, std::vector<uint8_t>(6, 1)));
  for (uint8_t width : {3, 5, 9, 16, 255}) {
    ExpectRejected(IntColumn(width, std::vector<uint8_t>(3 * width, 1)),
                   "IsValidWidth(width)");
  }
}

// A column's JSON source type and storage type must be a pair extraction
// produces; the storage type decides which parts are read.
TEST(SerializeTest, ColumnTypePairRejected) {
  std::vector<uint8_t> payload;
  AppendFullBitmap(&payload, 3);
  AppendPacked(&payload, 0, 1, {});
  ExpectOpens(OneColumnFile(kThreeDocs, json::JsonType::kInt,
                            tiles::ColumnType::kInt64, payload));
  ExpectRejected(OneColumnFile(kThreeDocs, json::JsonType::kFloat,
                               tiles::ColumnType::kInt64, payload),
                 "StorageTypeFor(col.source_type)");
  ExpectRejected(OneColumnFile(kThreeDocs, json::JsonType::kNull,
                               tiles::ColumnType::kInt64, payload),
                 "source_type >= ");
  ExpectRejected(OneColumnFile(kThreeDocs, json::JsonType::kInt,
                               static_cast<tiles::ColumnType>(6), payload),
                 "storage_type <= ");
}

TEST(SerializeTest, PackedByteCountMismatchRejected) {
  ExpectOpens(IntColumn(0, {}));
  ExpectOpens(IntColumn(4, std::vector<uint8_t>(12, 0)));
  ExpectRejected(IntColumn(4, std::vector<uint8_t>(8, 0)), "n / width == rows");
  ExpectRejected(IntColumn(4, std::vector<uint8_t>(13, 0)), "n % width == 0");
  ExpectRejected(IntColumn(0, {1}), "n == 0");
  // A byte count of 2^64 - 1 wraps `pos + n`; it must not pass as in bounds.
  std::vector<uint8_t> payload;
  AppendFullBitmap(&payload, 3);
  payload.push_back(1);  // width
  AppendSVarint(&payload, 0);
  AppendVarint(&payload, ~uint64_t{0});
  ExpectRejected(OneColumnFile(kThreeDocs, json::JsonType::kInt,
                               tiles::ColumnType::kInt64, payload),
                 "r.Bytes(&p, &n)");
}

TEST(SerializeTest, BitmapCountMismatchRejected) {
  auto file = [](uint64_t count, std::vector<uint8_t> bits) {
    std::vector<uint8_t> payload;
    AppendVarint(&payload, count);
    AppendBuffer(&payload, bits);
    AppendPacked(&payload, 0, 5, {});
    return OneColumnFile(kThreeDocs, json::JsonType::kInt,
                         tiles::ColumnType::kInt64, payload);
  };
  ExpectOpens(file(3, {0x05}));
  ExpectRejected(file(2, {0x01}), "count == rows");
  ExpectRejected(file(3, {0x05, 0x00}), "count / 8");
  ExpectRejected(file(3, {}), "count / 8");
  ExpectRejected(file(3, {0x0D}), "out->back() >> (count % 64) == 0");
  // A bool column's value bitmap is held to the same rules.
  std::vector<uint8_t> payload;
  AppendFullBitmap(&payload, 3);
  AppendVarint(&payload, 3);
  AppendBuffer(&payload, {0x01, 0x00});
  ExpectRejected(OneColumnFile(kThreeDocs, json::JsonType::kBool,
                               tiles::ColumnType::kBool, payload),
                 "count / 8");
}

// A string reference must lie inside its own row's document.
TEST(SerializeTest, StringRefOutsideDocumentRejected) {
  // Rows reference (offset, length) = (base + delta) in each part.
  auto file = [](std::vector<uint8_t> offsets, std::vector<uint8_t> lens) {
    std::vector<uint8_t> payload;
    AppendFullBitmap(&payload, 3);
    AppendPacked(&payload, 1, 0, offsets);
    AppendPacked(&payload, 1, 0, lens);
    return OneColumnFile(kThreeDocs, json::JsonType::kString,
                         tiles::ColumnType::kString, payload);
  };
  ExpectOpens(file({0, 0, 0}, {8, 2, 10}));  // every document in full
  ExpectOpens(file({4, 2, 10}, {4, 0, 0}));  // empty at the end
  ExpectRejected(file({0, 1, 0}, {8, 2, 10}), "ValidStringRefs");
  ExpectRejected(file({0, 0, 0}, {8, 3, 10}), "ValidStringRefs");
  ExpectRejected(file({0, 3, 0}, {8, 0, 10}), "ValidStringRefs");
  // offset + len wraps to a small number: must still be rejected.
  std::vector<uint8_t> payload;
  AppendFullBitmap(&payload, 3);
  AppendPacked(&payload, 0, -1, {});  // every offset 2^64 - 1
  AppendPacked(&payload, 0, 1, {});   // every length 1
  ExpectRejected(OneColumnFile(kThreeDocs, json::JsonType::kString,
                               tiles::ColumnType::kString, payload),
                 "ValidStringRefs");
  // A null row's reference is not read.
  payload.clear();
  AppendVarint(&payload, 3);
  AppendBuffer(&payload, {0x05});  // row 1 null
  AppendPacked(&payload, 1, 0, {0, 200, 0});
  AppendPacked(&payload, 1, 0, {1, 200, 1});
  ExpectOpens(OneColumnFile(kThreeDocs, json::JsonType::kString,
                            tiles::ColumnType::kString, payload));
}

TEST(SerializeTest, NumericScaleAbove18Rejected) {
  auto file = [](std::vector<uint8_t> scales) {
    std::vector<uint8_t> payload;
    AppendFullBitmap(&payload, 3);
    AppendPacked(&payload, 1, 0, {1, 2, 3});
    AppendBuffer(&payload, scales);
    return OneColumnFile(kThreeDocs, json::JsonType::kNumericString,
                         tiles::ColumnType::kNumeric, payload);
  };
  ExpectOpens(file({18}));
  ExpectOpens(file({2, 18, 0}));
  ExpectRejected(file({19}), "scale <= Numeric::kMaxScale");
  ExpectRejected(file({2, 19, 0}), "scale <= Numeric::kMaxScale");
  ExpectRejected(file({2, 2}), "n == rows && rows > 1");
}

// Sparse sketches: (index delta, value) pairs in strictly increasing index
// order, indexes below 2^p, values in [1, 64 - p + 1].
TEST(SerializeTest, SparseSketchRulesEnforced) {
  auto file = [](uint64_t nonzero,
                 std::vector<std::pair<uint64_t, uint8_t>> pairs) {
    std::vector<uint8_t> sketches;
    AppendVarint(&sketches, 1);   // one sketch
    AppendVarint(&sketches, 4);   // precision: 16 registers
    AppendVarint(&sketches, nonzero);
    for (const auto& [delta, value] : pairs) {
      AppendVarint(&sketches, delta);
      sketches.push_back(value);
    }
    std::vector<uint8_t> payload;
    AppendFullBitmap(&payload, 3);
    AppendPacked(&payload, 0, 1, {});
    return OneColumnFile(kThreeDocs, json::JsonType::kInt,
                         tiles::ColumnType::kInt64, payload, sketches);
  };
  ExpectOpens(file(3, {{0, 1}, {7, 61}, {8, 3}}));  // indexes 0, 7, 15
  ExpectRejected(file(2, {{0, 1}, {16, 3}}), "delta < m - index");
  ExpectRejected(file(2, {{9, 1}, {7, 3}}), "delta < m - index");
  ExpectRejected(file(1, {{16, 1}}), "delta < m - index");
  ExpectRejected(file(2, {{3, 1}, {0, 3}}), "i == 0 || delta > 0");
  ExpectRejected(file(1, {{3, 0}}), "value >= 1");
  ExpectRejected(file(1, {{3, 62}}), "value <= 64 - precision + 1");
  ExpectRejected(file(17, {}), "nonzero <= m");
}

// Dense HLL registers are written sparsely and restored exactly.
TEST(SerializeTest, SketchesRoundTripSparse) {
  tiles::TileConfig config;
  config.tile_size = 128;
  Loader loader(StorageMode::kTiles, config);
  auto rel = loader.Load(MixedDocs(500), "sketch").MoveValueOrDie();
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SerializeRelation(*rel, &bytes).ok());
  auto back = DeserializeRelation(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  size_t sketches = 0;
  for (size_t t = 0; t < rel->tiles().size(); t++) {
    const auto& want = rel->tiles()[t].stats.column_sketches;
    const auto& got = back.ValueOrDie()->tiles()[t].stats.column_sketches;
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); i++, sketches++) {
      EXPECT_EQ(got[i].precision(), want[i].precision());
      EXPECT_EQ(got[i].registers(), want[i].registers());
    }
  }
  EXPECT_GT(sketches, 0u);
  const auto& want = rel->stats().sketches();
  const auto& got = back.ValueOrDie()->stats().sketches();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); i++) {
    EXPECT_EQ(got[i].hll.registers(), want[i].hll.registers());
  }
}

// Empty shards and the empty buffers of every tile column (an Int64
// column stores no floats, scales or string lengths) survive
// SaveSharded/OpenSharded.
TEST(SerializeTest, EmptyVectorsShardedRoundTrip) {
  const std::string name = "serialize_empty_vectors";
  ShardOptions options;
  options.shard_count = 4;
  auto sharded = ShardedRelation::Load({R"({"a":1})", R"({"a":2})"}, name,
                                       StorageMode::kTiles, {}, {}, options)
                     .MoveValueOrDie();
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(SaveSharded(*sharded, dir).ok());
  auto opened = OpenSharded(ShardManifestPath(dir, name));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(opened.ValueOrDie()->shard_count(), 4u);
  for (size_t s = 0; s < 4; s++) {
    std::remove((dir + "/" + name + ".shard-" + std::to_string(s) + ".jtrl")
                    .c_str());
    const Relation& saved = sharded->shard(s);
    const Relation& restored = opened.ValueOrDie()->shard(s);
    ASSERT_EQ(restored.num_rows(), saved.num_rows()) << "shard " << s;
    ASSERT_EQ(restored.tiles().size(), saved.tiles().size()) << "shard " << s;
    for (size_t t = 0; t < saved.tiles().size(); t++) {
      const auto& want = saved.tiles()[t].columns;
      const auto& got = restored.tiles()[t].columns;
      ASSERT_EQ(got.size(), want.size());
      for (size_t c = 0; c < want.size(); c++) {
        const tiles::Column::Parts& g = got[c].column.parts();
        const tiles::Column::Parts& w = want[c].column.parts();
        EXPECT_EQ(g.validity, w.validity);
        EXPECT_EQ(g.ints.base, w.ints.base);
        EXPECT_EQ(g.ints.width, w.ints.width);
        EXPECT_EQ(g.ints.deltas, w.ints.deltas);
        EXPECT_EQ(g.floats, w.floats);
        EXPECT_EQ(g.lens.deltas, w.lens.deltas);
      }
    }
  }
  std::remove(ShardManifestPath(dir, name).c_str());
  EXPECT_EQ(sharded->shard(2).num_rows(), 0u);
  const tiles::Column::Parts& parts =
      sharded->shard(0).tiles()[0].columns[0].column.parts();
  EXPECT_TRUE(parts.floats.empty());
  EXPECT_TRUE(parts.lens.deltas.empty());
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
}

// Serialize -> Deserialize -> Serialize reproduces the bytes exactly: a
// restored tile rebuilds only its column lookup and keeps the persisted
// header bloom filter (bits and insert count) as it was.
TEST(SerializeTest, RoundTripIsByteIdempotent) {
  tiles::TileConfig config;
  config.tile_size = 128;
  Loader loader(StorageMode::kTiles, config);
  auto rel = loader.Load(MixedDocs(1000), "mixed").MoveValueOrDie();
  std::vector<uint8_t> first;
  ASSERT_TRUE(SerializeRelation(*rel, &first).ok());
  std::vector<uint8_t> bytes = first;
  for (int round = 1; round <= 2; round++) {
    auto back = DeserializeRelation(bytes.data(), bytes.size());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    bytes.clear();
    ASSERT_TRUE(SerializeRelation(*back.ValueOrDie(), &bytes).ok());
    EXPECT_EQ(bytes.size(), first.size()) << "round " << round;
    EXPECT_TRUE(bytes == first) << "round " << round;
  }
  auto back = DeserializeRelation(first.data(), first.size());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.ValueOrDie()->tiles().size(), rel->tiles().size());
  for (size_t t = 0; t < rel->tiles().size(); t++) {
    EXPECT_EQ(back.ValueOrDie()->tiles()[t].seen_paths().num_inserted(),
              rel->tiles()[t].seen_paths().num_inserted())
        << "tile " << t;
  }
}

// The same for a sharded save: reopening and saving again writes the same
// manifest and shard files byte for byte.
TEST(SerializeTest, ShardedSaveIsByteIdempotent) {
  const std::string name = "serialize_idempotent";
  constexpr size_t kShards = 3;
  tiles::TileConfig config;
  config.tile_size = 128;
  ShardOptions options;
  options.shard_count = kShards;
  auto sharded = ShardedRelation::Load(MixedDocs(600), name,
                                       StorageMode::kTiles, config, {}, options)
                     .MoveValueOrDie();
  const std::string dir_a = ::testing::TempDir() + "/jtrl_idempotent_a";
  const std::string dir_b = ::testing::TempDir() + "/jtrl_idempotent_b";
  std::filesystem::create_directories(dir_a);
  std::filesystem::create_directories(dir_b);
  ASSERT_TRUE(SaveSharded(*sharded, dir_a).ok());
  auto opened = OpenSharded(ShardManifestPath(dir_a, name));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(SaveSharded(*opened.ValueOrDie(), dir_b).ok());

  std::vector<std::string> files = {std::filesystem::path(
      ShardManifestPath(dir_a, name)).filename().string()};
  for (size_t s = 0; s < kShards; s++) {
    files.push_back(name + ".shard-" + std::to_string(s) + ".jtrl");
  }
  for (const std::string& file : files) {
    const std::vector<uint8_t> a = ReadFileBytes(dir_a + "/" + file);
    EXPECT_FALSE(a.empty()) << file;
    EXPECT_TRUE(ReadFileBytes(dir_b + "/" + file) == a) << file;
  }
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

}  // namespace
}  // namespace jsontiles::storage
