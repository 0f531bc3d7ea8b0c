// Seeded mutation fuzzing of relation files: byte flips, truncations and
// insertions over files of every storage mode and of a relation with side
// relations. Every mutated file either fails to decode with a Status or
// decodes into a relation whose every tile column can be read in full
// through the bulk reads, with every string inside its row's document.
// Most useful under the sanitizer build (-DJSONTILES_SANITIZE=ON).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "storage/loader.h"
#include "storage/serialize.h"
#include "util/random.h"
#include "workload/twitter.h"

namespace jsontiles::storage {
namespace {

std::vector<std::string> FuzzDocs(size_t n) {
  Random rng(23);
  std::vector<std::string> docs;
  for (size_t i = 0; i < n; i++) {
    docs.push_back(
        R"({"id":)" + std::to_string(i * 1000003) + R"(,"s":")" +
        rng.NextString(1, 12) + R"(","d":"2021-0)" + std::to_string(i % 9 + 1) +
        R"(-15","p":")" + std::to_string(i % 90 + 10) + "." +
        std::to_string(i % 7) + R"(","f":)" + std::to_string(0.25 * i) +
        R"(,"b":)" + (i % 3 ? "true" : "false") +
        (i % 5 == 0 ? R"(,"opt":"rare")" : "") + "}");
  }
  return docs;
}

// Read every column of every tile in full; returns a checksum so the reads
// cannot be optimized away.
uint64_t ReadAllColumns(const Relation& rel) {
  uint64_t sum = 0;
  for (const tiles::Tile& tile : rel.tiles()) {
    const size_t n = tile.row_count;
    std::vector<uint8_t> nulls(n), scales(n);
    std::vector<int64_t> ints(n);
    std::vector<double> floats(n);
    std::vector<std::string_view> strings(n);
    std::vector<const uint8_t*> docs(n);
    for (size_t k = 0; k < n; k++) {
      docs[k] = rel.Jsonb(tile.row_begin + k).data();
    }
    for (const tiles::ExtractedColumn& col : tile.columns) {
      const tiles::Column& c = col.column;
      EXPECT_EQ(c.size(), n);
      std::fill(ints.begin(), ints.end(), 0);
      std::fill(strings.begin(), strings.end(), std::string_view());
      c.ReadNulls(0, n, nulls.data());
      switch (col.storage_type) {
        case tiles::ColumnType::kBool:
          c.ReadBools(0, n, ints.data());
          break;
        case tiles::ColumnType::kInt64:
        case tiles::ColumnType::kTimestamp:
          c.ReadInts(0, n, ints.data());
          break;
        case tiles::ColumnType::kFloat64:
          c.ReadFloats(0, n, floats.data());
          break;
        case tiles::ColumnType::kNumeric:
          c.ReadNumerics(0, n, ints.data(), scales.data());
          for (size_t k = 0; k < n; k++) EXPECT_LE(scales[k], 18);
          break;
        case tiles::ColumnType::kString:
          c.ReadStrings(0, n, docs.data(), strings.data());
          for (size_t k = 0; k < n; k++) {
            // The view must lie inside the row's document.
            const auto begin = reinterpret_cast<uintptr_t>(docs[k]);
            const auto at = reinterpret_cast<uintptr_t>(strings[k].data());
            const size_t size = rel.DocSize(tile.row_begin + k);
            const bool inside = at >= begin && strings[k].size() <= size &&
                                at - begin <= size - strings[k].size();
            EXPECT_TRUE(inside) << "row " << k << " of a tile at "
                                << tile.row_begin;
            if (!inside) return sum;
            for (char ch : strings[k]) sum += static_cast<uint8_t>(ch);
          }
          break;
      }
      for (size_t k = 0; k < n; k++) {
        sum += nulls[k] + static_cast<uint64_t>(ints[k]);
        if (nulls[k] != 0) {
          EXPECT_EQ(ints[k], 0);
          EXPECT_TRUE(strings[k].empty());
        }
      }
    }
  }
  for (const auto& [path, side] : rel.side_relations()) {
    sum += ReadAllColumns(*side);
  }
  return sum;
}

std::vector<std::vector<uint8_t>> SeedFiles() {
  std::vector<std::vector<uint8_t>> files;
  tiles::TileConfig config;
  config.tile_size = 64;
  for (StorageMode mode : {StorageMode::kJsonText, StorageMode::kJsonb,
                           StorageMode::kSinew, StorageMode::kTiles}) {
    Loader loader(mode, config);
    auto rel = loader.Load(FuzzDocs(150), "fuzz").MoveValueOrDie();
    files.emplace_back();
    EXPECT_TRUE(SerializeRelation(*rel, &files.back()).ok());
  }
  workload::TwitterOptions twitter;
  twitter.num_tweets = 150;
  LoadOptions load_options;
  load_options.extract_arrays = true;
  Loader loader(StorageMode::kTiles, config, load_options);
  auto rel =
      loader.Load(workload::GenerateTwitter(twitter), "tw").MoveValueOrDie();
  EXPECT_FALSE(rel->side_relations().empty());
  files.emplace_back();
  EXPECT_TRUE(SerializeRelation(*rel, &files.back()).ok());
  return files;
}

TEST(SerializeFuzzTest, MutatedFilesFailCleanlyOrReadInBounds) {
  const auto files = SeedFiles();
  Random rng(2020);
  size_t decoded = 0;
  size_t rejected = 0;
  for (const auto& file : files) {
    ASSERT_TRUE(DeserializeRelation(file.data(), file.size()).ok());
    for (int i = 0; i < 1000; i++) {
      std::vector<uint8_t> bytes = file;
      const int mutations = 1 + static_cast<int>(rng.Uniform(3));
      for (int m = 0; m < mutations; m++) {
        const size_t pos = rng.Uniform(bytes.size());
        switch (rng.Uniform(3)) {
          case 0:
            bytes[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
            break;
          case 1:
            bytes.resize(pos);
            break;
          default:
            bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(pos),
                         static_cast<uint8_t>(rng.Uniform(256)));
            break;
        }
        if (bytes.empty()) break;
      }
      auto result = DeserializeRelation(bytes.data(), bytes.size());
      if (!result.ok()) {
        rejected++;
        continue;
      }
      decoded++;
      ReadAllColumns(*result.ValueOrDie());
    }
  }
  // Both outcomes occur: mutations of document bytes decode, structural
  // ones do not.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

// One container offset corrupted inside one document: opening the file must
// fail, since every document is validated as JSONB on open. Should the open
// succeed, rendering the documents reads past the corrupt one (a
// heap-buffer-overflow under the sanitizer build: a document of more than
// 64 KiB fills its arena block exactly).
TEST(SerializeFuzzTest, CorruptDocumentOffsetFailsOpen) {
  const std::string doc =
      R"({"big":")" + std::string(70000, 'a') + R"(","id":1,"tail":"z"})";
  for (StorageMode mode : {StorageMode::kJsonb, StorageMode::kTiles}) {
    Loader loader(mode, {});
    auto rel = loader.Load({doc}, "doc").MoveValueOrDie();
    std::vector<uint8_t> file;
    ASSERT_TRUE(SerializeRelation(*rel, &file).ok());
    const uint8_t* jsonb = rel->Jsonb(0).data();
    auto at = std::search(file.begin(), file.end(), jsonb,
                          jsonb + rel->DocSize(0));
    ASSERT_NE(at, file.end());
    // Root object: a header byte (tag 8, 4-byte offsets), a one-byte member
    // count, then one offset per member. Move the last one 24 bytes past the
    // end of the document.
    ASSERT_EQ(at[0], 0x82);
    ASSERT_EQ(at[1], 3);
    uint8_t* last = &*at + 2 + 2 * 4;
    uint32_t offset;
    std::memcpy(&offset, last, 4);
    offset += 24;
    std::memcpy(last, &offset, 4);

    auto opened = DeserializeRelation(file.data(), file.size());
    if (opened.ok()) {
      const Relation& bad = *opened.ValueOrDie();
      for (size_t row = 0; row < bad.num_rows(); row++) {
        EXPECT_FALSE(bad.Jsonb(row).ToJsonText().empty());
      }
    }
    ASSERT_FALSE(opened.ok()) << StorageModeName(mode);
    EXPECT_EQ(opened.status().code(), StatusCode::kParseError);
    EXPECT_NE(opened.status().message().find("row 0"), std::string::npos)
        << opened.status().ToString();
  }
}

}  // namespace
}  // namespace jsontiles::storage
