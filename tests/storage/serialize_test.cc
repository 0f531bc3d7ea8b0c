#include "storage/serialize.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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
  load_options.array_min_avg_elements = 1.0;
  load_options.array_min_presence = 0.3;
  Loader loader(StorageMode::kTiles, {}, load_options);
  auto rel = loader.Load(docs, "tw").MoveValueOrDie();
  ASSERT_FALSE(rel->side_relations().empty());

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(SerializeRelation(*rel, &bytes).ok());
  auto back = DeserializeRelation(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie()->side_relations().size(),
            rel->side_relations().size());
  // The side query path still works on the restored relation.
  QueryContext ctx1, ctx2;
  auto a = workload::RunTwitterQuery(4, *rel, ctx1, true);
  auto b = workload::RunTwitterQuery(4, *back.ValueOrDie(), ctx2, true);
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

// The start of a hand-built JTRL file: a kTiles relation with no documents
// and one tile of no rows, up to its column count.
std::vector<uint8_t> TileFilePrefix() {
  std::vector<uint8_t> bytes = {'J', 'T', 'R', 'L'};
  AppendVarint(&bytes, 1);  // version
  bytes.push_back(static_cast<uint8_t>(StorageMode::kTiles));
  AppendVarint(&bytes, 1);
  bytes.push_back('t');         // name
  AppendVarint(&bytes, 1024);  // tile_size
  AppendVarint(&bytes, 8);     // partition_size
  const double threshold = 0.6;
  const auto* t = reinterpret_cast<const uint8_t*>(&threshold);
  bytes.insert(bytes.end(), t, t + 8);
  bytes.push_back(1);  // date extraction
  AppendVarint(&bytes, 0);  // documents
  AppendVarint(&bytes, 1);  // tiles
  for (int i = 0; i < 3; i++) AppendVarint(&bytes, 0);  // rows, outliers
  return bytes;
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
  for (int i = 0; i < 4; i++) bytes.push_back(0);  // types, flags, column type
  // Validity bitmap of 2^64 - 1 bits: (count + 7) / 8 would wrap to the
  // empty payload.
  AppendVarint(&bytes, ~uint64_t{0});
  AppendVarint(&bytes, 0);
  auto result = DeserializeRelation(bytes.data(), bytes.size());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("count / 8"), std::string::npos)
      << result.status().ToString();
}

// Empty shards and the empty vectors of every tile column (an Int64
// column stores no floats, scales or string offsets) survive
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
        EXPECT_EQ(got[c].column.i64_data(), want[c].column.i64_data());
        EXPECT_EQ(got[c].column.f64_data(), want[c].column.f64_data());
        EXPECT_EQ(got[c].column.starts_data(), want[c].column.starts_data());
      }
    }
  }
  std::remove(ShardManifestPath(dir, name).c_str());
  EXPECT_EQ(sharded->shard(2).num_rows(), 0u);
  EXPECT_TRUE(sharded->shard(0).tiles()[0].columns[0].column.f64_data().empty());
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
