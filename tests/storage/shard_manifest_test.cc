// Corrupt-manifest corpus: OpenSharded must return a clean Status — never
// crash, never read out of bounds (the CI ASan job runs this) — for every
// truncation prefix of the manifest, for single-bit flips, and for shard
// files that are missing, truncated or oversized.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/shard.h"
#include "util/byte_codec.h"
#include "util/random.h"

namespace jsontiles::storage {
namespace {

class ShardManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own process, concurrently, against the
    // same TempDir — the relation (and so the file) name must be unique per
    // test or the corpus files race.
    name_ = std::string("corpus_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::vector<std::string> docs;
    for (int i = 0; i < 90; i++) {
      docs.push_back(R"({"k":)" + std::to_string(i % 9) + R"(,"v":)" +
                     std::to_string(i) + "}");
    }
    ShardOptions options;
    options.shard_count = 3;
    options.routing = ShardRouting::kHashKey;
    options.routing_keys = {"k"};
    tiles::TileConfig config;
    config.tile_size = 16;
    auto sharded = ShardedRelation::Load(docs, name_, StorageMode::kTiles,
                                         config, {}, options)
                       .MoveValueOrDie();
    dir_ = ::testing::TempDir();
    ASSERT_TRUE(SaveSharded(*sharded, dir_).ok());
    manifest_path_ = ShardManifestPath(dir_, name_);
    manifest_ = ReadAll(manifest_path_);
    ASSERT_FALSE(manifest_.empty());
  }

  void TearDown() override {
    std::remove(manifest_path_.c_str());
    for (int s = 0; s < 3; s++) std::remove(ShardPath(s).c_str());
  }

  std::string ShardPath(int s) const {
    return dir_ + "/" + name_ + ".shard-" + std::to_string(s) + ".jtrl";
  }

  static std::vector<uint8_t> ReadAll(const std::string& path) {
    std::vector<uint8_t> bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return bytes;
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
      bytes.clear();
    }
    std::fclose(f);
    return bytes;
  }

  static void WriteAll(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    // fwrite's buffer must not be null, even for zero bytes.
    if (!bytes.empty()) {
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    }
    std::fclose(f);
  }

  void SaveShardOriginal(int s) {
    if (original_shards_[s].empty()) original_shards_[s] = ReadAll(ShardPath(s));
  }

  std::string name_;
  std::string dir_;
  std::string manifest_path_;
  std::vector<uint8_t> manifest_;
  std::vector<uint8_t> original_shards_[3];
};

TEST_F(ShardManifestTest, IntactManifestOpens) {
  auto opened = OpenSharded(manifest_path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.ValueOrDie()->num_rows(), 90u);
  EXPECT_EQ(opened.ValueOrDie()->shard_count(), 3u);
  EXPECT_EQ(opened.ValueOrDie()->routing_kind(), RoutingValueKind::kIntOnly);
}

TEST_F(ShardManifestTest, EveryTruncationPrefixFailsCleanly) {
  for (size_t cut = 0; cut < manifest_.size(); cut++) {
    std::vector<uint8_t> truncated(manifest_.begin(),
                                   manifest_.begin() + cut);
    WriteAll(manifest_path_, truncated);
    auto result = OpenSharded(manifest_path_);
    EXPECT_FALSE(result.ok()) << "prefix of " << cut << " bytes parsed";
  }
}

TEST_F(ShardManifestTest, SingleBitFlipsNeverCrash) {
  // Every bit of the manifest, flipped one at a time. Most flips must fail
  // (structure, counts, magic); flips inside name bytes may legally parse —
  // they then reference missing shard files and fail there, or reopen under
  // a garbled display name. Either way: a clean Status or a valid object.
  for (size_t byte = 0; byte < manifest_.size(); byte++) {
    for (int bit = 0; bit < 8; bit++) {
      auto flipped = manifest_;
      flipped[byte] ^= static_cast<uint8_t>(1 << bit);
      WriteAll(manifest_path_, flipped);
      auto result = OpenSharded(manifest_path_);
      if (result.ok()) {
        EXPECT_EQ(result.ValueOrDie()->num_rows(), 90u);
      }
    }
  }
}

TEST_F(ShardManifestTest, BadMagicAndVersionRejected) {
  {
    auto bad = manifest_;
    bad[0] = 'X';
    WriteAll(manifest_path_, bad);
    auto result = OpenSharded(manifest_path_);
    ASSERT_FALSE(result.ok());
  }
  {
    auto bad = manifest_;
    bad[4] = 99;  // version byte follows the 4-byte magic
    WriteAll(manifest_path_, bad);
    EXPECT_FALSE(OpenSharded(manifest_path_).ok());
  }
}

TEST_F(ShardManifestTest, TrailingGarbageRejected) {
  auto bad = manifest_;
  bad.push_back(0x7F);
  WriteAll(manifest_path_, bad);
  EXPECT_FALSE(OpenSharded(manifest_path_).ok());
}

TEST_F(ShardManifestTest, MissingShardFileNamedInError) {
  SaveShardOriginal(1);
  std::remove(ShardPath(1).c_str());
  auto result = OpenSharded(manifest_path_);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("shard 1"), std::string::npos)
      << result.status().ToString();
}

TEST_F(ShardManifestTest, TruncatedShardFileFails) {
  SaveShardOriginal(2);
  auto bytes = original_shards_[2];
  ASSERT_GT(bytes.size(), 10u);
  for (size_t cut : {size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    WriteAll(ShardPath(2), truncated);
    auto result = OpenSharded(manifest_path_);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("shard 2"), std::string::npos);
  }
}

TEST_F(ShardManifestTest, OversizedShardFileFails) {
  SaveShardOriginal(0);
  auto bytes = original_shards_[0];
  bytes.push_back(0);
  WriteAll(ShardPath(0), bytes);
  auto result = OpenSharded(manifest_path_);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("shard 0"), std::string::npos);
}

TEST_F(ShardManifestTest, ShardBitFlipsNeverCrash) {
  SaveShardOriginal(0);
  Random rng(23);
  for (int i = 0; i < 150; i++) {
    auto bytes = original_shards_[0];
    bytes[rng.Uniform(bytes.size())] ^=
        static_cast<uint8_t>(1 + rng.Uniform(255));
    WriteAll(ShardPath(0), bytes);
    auto result = OpenSharded(manifest_path_);
    // Flips in document payload bytes are data, not structure: success is
    // legal. Structural flips must fail cleanly. Never a crash.
    (void)result;
  }
}

TEST_F(ShardManifestTest, NonexistentManifest) {
  EXPECT_FALSE(OpenSharded("/nonexistent/dir/x.jtsm").ok());
}

// The string whose length SpecManifest replaces with a wrapping one.
enum class WrapAt { kNothing, kName, kShardFile };

// A one-shard JTSM v4 manifest, written from the DESIGN.md §10 grammar. With
// `wrap` set, that string's length is one that makes `pos + n` wrap to
// exactly zero, and the manifest ends there.
std::vector<uint8_t> SpecManifest(WrapAt wrap) {
  std::vector<uint8_t> out;
  ByteWriter w(&out);
  // Writes `s`, or the wrapping length and returns true.
  auto str = [&](std::string_view s, WrapAt at) {
    if (wrap != at) {
      w.Str(s);
      return false;
    }
    w.Varint(0 - static_cast<uint64_t>(out.size() + 10));  // a 10-byte varint
    return true;
  };
  w.Raw("JTSM", 4);
  w.Varint(4);
  if (str("spec", WrapAt::kName)) return out;
  w.U8(static_cast<uint8_t>(StorageMode::kTiles));
  w.U8(static_cast<uint8_t>(ShardRouting::kRoundRobin));
  w.Str("");  // routing path
  w.U8(static_cast<uint8_t>(RoutingValueKind::kNone));
  w.Varint(16);  // tile_size
  w.Varint(16);  // partition_size
  w.U8(1);       // date extraction
  w.Varint(1);   // shards
  if (str("spec.shard-0.jtrl", WrapAt::kShardFile)) return out;
  w.Varint(7);   // rows
  w.Varint(99);  // file size
  return out;
}

Result<ShardManifestInfo> ReadManifestBytes(const std::vector<uint8_t>& bytes,
                                            const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name + ".jtsm";
  Status st = WriteFile(path, bytes.data(), bytes.size());
  if (!st.ok()) return st;
  auto info = ReadShardManifest(path);
  std::remove(path.c_str());
  return info;
}

TEST(ShardManifestSpecTest, SpecManifestParses) {
  auto info = ReadManifestBytes(SpecManifest(WrapAt::kNothing), "spec_ok");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const ShardManifestInfo& i = info.ValueOrDie();
  EXPECT_EQ(i.version, 4u);
  EXPECT_EQ(i.name, "spec");
  EXPECT_EQ(i.config.tile_size, 16u);
  EXPECT_EQ(i.config.partition_size, 16u);
  EXPECT_TRUE(i.config.enable_date_extraction);
  ASSERT_EQ(i.shard_count(), 1u);
  EXPECT_EQ(i.filenames[0], "spec.shard-0.jtrl");
  EXPECT_EQ(i.num_rows[0], 7u);
  EXPECT_EQ(i.file_sizes[0], 99u);
}

// The manifest's own reader checked `pos + n > size`, which wraps: each of
// these lengths passed it and aborted the process in std::string::assign.
TEST(ShardManifestSpecTest, WrappingStringLengthsRejected) {
  const std::vector<uint8_t> name = SpecManifest(WrapAt::kName);
  // The name length follows the magic and version: 2^64 - 15.
  size_t pos = 5;
  uint64_t length;
  ASSERT_TRUE(ReadVarint(name.data(), name.size(), &pos, &length));
  EXPECT_EQ(length, 0 - uint64_t{15});
  for (WrapAt at : {WrapAt::kName, WrapAt::kShardFile}) {
    auto info = ReadManifestBytes(SpecManifest(at), "spec_wrap");
    ASSERT_FALSE(info.ok()) << static_cast<int>(at);
    EXPECT_EQ(info.status().code(), StatusCode::kParseError)
        << info.status().ToString();
  }
}

// A directory used to pass as a file of the huge size ftell reports for it,
// and the allocation aborted the process.
TEST(ShardManifestSpecTest, DirectoryRejected) {
  EXPECT_FALSE(ReadShardManifest(::testing::TempDir()).ok());
  EXPECT_FALSE(OpenSharded(::testing::TempDir()).ok());
}

}  // namespace
}  // namespace jsontiles::storage
