// Direct tile ingest differential: the scalar directory the emitter collects
// inline during direct emission must equal the reference directory derived
// from the finished JSONB (BuildIngestFromJsonb, the one JSONB leaf walk);
// the key-path interner must build the same items from either; and the
// columns it materializes through the recorded value offsets must hold what
// navigating each document (LookupPath) finds.
// Together with the loader's forced-fallback byte-identity tests in
// loader_ondemand_test.cc this pins every layer of tile ingest to the
// streaming parser.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/jsonb.h"
#include "json/ondemand.h"
#include "tiles/keypath.h"
#include "tiles/tile_builder.h"
#include "util/date.h"
#include "workload/twitter.h"
#include "workload/yelp.h"

namespace jsontiles::tiles {
namespace {

// One directory leaf: encoded path plus the leaf's JSON type.
struct CollectedPath {
  std::string path;
  json::JsonType type;

  friend bool operator==(const CollectedPath&, const CollectedPath&) = default;
};

// (path, type) pairs of a directory, with offsets sanity-checked against the
// document bytes.
std::vector<CollectedPath> DirectoryPaths(const json::OndemandIngest& dir,
                                          const std::vector<uint8_t>& doc) {
  std::vector<CollectedPath> out;
  for (const auto& leaf : dir.leaves) {
    EXPECT_LE(leaf.path_off + leaf.path_len, dir.paths.size());
    EXPECT_LT(leaf.value_off, doc.size());
    json::JsonbValue value(doc.data() + leaf.value_off);
    EXPECT_EQ(static_cast<uint8_t>(value.type()), leaf.type);
    out.push_back(CollectedPath{
        dir.paths.substr(leaf.path_off, leaf.path_len),
        static_cast<json::JsonType>(leaf.type)});
  }
  return out;
}

// Emit `text` with inline collection and check the directory against the
// JSONB-derived reference over the emitted document. Returns the directory's
// display paths.
std::vector<std::string> ExpectDirectoryParity(std::string_view text) {
  json::OndemandTransformer ondemand;
  std::vector<uint8_t> doc;
  json::OndemandIngest inline_dir;
  EXPECT_TRUE(ondemand.Transform(text, &doc, &inline_dir).ok()) << text;
  EXPECT_EQ(ondemand.docs_ondemand(), 1u) << text;  // direct path, no fallback
  if (doc.empty()) return {};

  json::OndemandIngest derived_dir;
  json::BuildIngestFromJsonb(json::JsonbValue(doc.data()), &derived_dir);
  const auto inline_paths = DirectoryPaths(inline_dir, doc);
  EXPECT_EQ(inline_paths, DirectoryPaths(derived_dir, doc)) << text;
  // Offsets too — both routes must point at the same value bytes.
  EXPECT_EQ(inline_dir.leaves.size(), derived_dir.leaves.size()) << text;
  for (size_t i = 0;
       i < std::min(inline_dir.leaves.size(), derived_dir.leaves.size());
       i++) {
    EXPECT_EQ(inline_dir.leaves[i].value_off, derived_dir.leaves[i].value_off)
        << text << " leaf " << i;
  }
  std::vector<std::string> display;
  for (const auto& p : inline_paths) {
    display.push_back(PathToDisplayString(p.path));
  }
  return display;
}

TEST(DirectIngestTest, HandWrittenDocuments) {
  const char* docs[] = {
      R"({"a":1,"b":"x","c":null,"d":true,"e":2.5,"f":"19.99"})",
      R"({})",
      R"([])",
      R"(7)",           // root scalar: one leaf with an empty path
      R"("s")",
      R"(null)",
      // Duplicate keys: dropped members' leaves must vanish with them.
      R"({"b":2,"a":1,"b":3})",
      R"({"k":{"x":1},"k":{"y":2}})",
      R"({"z":1,"y":{"d":1,"c":[1,2]},"x":0})",  // out-of-order keys
      // Arrays past the element cap and nesting past the depth cap.
      R"([1,2,3,4,5,6,7])",
      R"({"deep":{"deep":{"deep":{"deep":{"deep":{"deep":{"deep":{"deep":{"deep":1}}}}}}}}})",
      R"({"mixed":[{"a":1},[2,3],"s",null,9,10]})",
      // Escaped keys and values.
      "{\"k\\u0041\":\"v\\n\",\"k\\u0042\":[true,false]}",
  };
  for (const char* doc : docs) ExpectDirectoryParity(doc);
}

// Documents nested past kMaxPathDepth with arrays longer than
// kMaxArrayElements: both routes must drop the same leaves.
TEST(DirectIngestTest, DocumentsPastTheFixedCaps) {
  static_assert(kMaxPathDepth == 8 && kMaxArrayElements == 4);
  // Seven object levels, then an array of six: only its first four elements
  // are collected, and the nested array at level 8 contributes nothing.
  EXPECT_EQ(
      ExpectDirectoryParity(
          R"({"a":{"b":{"c":{"d":{"e":{"f":{"g":[1,[2],3,4,5,6]}}}}},"h":0}})"),
      (std::vector<std::string>{"a.b.c.d.e.f.g[0]", "a.b.c.d.e.f.g[2]",
                                "a.b.c.d.e.f.g[3]", "a.h"}));
  // Arrays of arrays: eight levels deep a scalar is still a leaf, nine is not.
  EXPECT_EQ(ExpectDirectoryParity(R"([[[[[[[[1,2,3,4,5]]]]]]],[6,7,8,9,10]])"),
            (std::vector<std::string>{"[0][0][0][0][0][0][0][0]",
                                      "[0][0][0][0][0][0][0][1]",
                                      "[0][0][0][0][0][0][0][2]",
                                      "[0][0][0][0][0][0][0][3]", "[1][0]",
                                      "[1][1]", "[1][2]", "[1][3]"}));
  EXPECT_EQ(ExpectDirectoryParity(R"([[[[[[[[[1]]]]]]]],{"k":[{"x":1}]}])"),
            (std::vector<std::string>{"[1].k[0].x"}));
}

TEST(DirectIngestTest, WorkloadCorpora) {
  workload::TwitterOptions twitter;
  twitter.num_tweets = 500;
  twitter.changing_schema = true;
  for (const auto& doc : workload::GenerateTwitter(twitter)) {
    ExpectDirectoryParity(doc);
  }
  workload::YelpOptions yelp;
  yelp.num_business = 30;
  for (const auto& doc : workload::GenerateYelp(yelp)) {
    ExpectDirectoryParity(doc);
  }
}

// One reused directory serves a whole load: the next document's leaves must
// replace the previous ones, never append to them.
TEST(DirectIngestTest, ReusedDirectoryHoldsOneDocument) {
  json::OndemandTransformer ondemand;
  json::OndemandIngest reused;
  const char* texts[] = {
      R"({"a":1,"b":[true,"x"],"c":{"d":null}})",
      R"([{"k":1},{"k":2},7])",
      R"("root scalar")",
      R"({})",
  };
  for (const char* text : texts) {
    std::vector<uint8_t> buf_a, buf_b;
    json::OndemandIngest fresh;
    ASSERT_TRUE(ondemand.Transform(text, &buf_a, &fresh).ok());
    ASSERT_TRUE(ondemand.Transform(text, &buf_b, &reused).ok());
    EXPECT_EQ(buf_a, buf_b) << text;
    EXPECT_EQ(DirectoryPaths(reused, buf_b), DirectoryPaths(fresh, buf_a))
        << text;
    EXPECT_EQ(reused.paths, fresh.paths) << text;
  }
}

// The interner must build the same items — dictionary, item ids, transactions,
// frequencies and value offsets — whether a document's leaves come from the
// emitter (bulk loads) or are derived from its JSONB (TileBuilder::Build, used
// by Sinew and the §4.7 recomputation). Mining and reordering depend on all
// of them. Ids follow first-seen order over the JSONB directory.
TEST(DirectIngestTest, InternerMatchesForEmitterAndJsonbLeaves) {
  workload::TwitterOptions twitter;
  twitter.num_tweets = 400;
  twitter.changing_schema = true;
  const auto texts = workload::GenerateTwitter(twitter);

  json::OndemandTransformer ondemand;
  json::OndemandIngest leaves;
  std::vector<std::vector<uint8_t>> docs;
  DocumentItems emitted;
  for (const auto& text : texts) {
    std::vector<uint8_t> buf;
    ASSERT_TRUE(ondemand.Transform(text, &buf, &leaves).ok());
    emitted.AddDocument(leaves);
    docs.push_back(std::move(buf));
  }
  ASSERT_EQ(ondemand.docs_fallback(), 0u);
  std::vector<json::JsonbValue> views;
  views.reserve(docs.size());
  for (const auto& b : docs) views.emplace_back(b.data());
  const DocumentItems derived = ItemsFromJsonb(views);

  EXPECT_EQ(emitted.dict, derived.dict);
  EXPECT_EQ(emitted.transactions, derived.transactions);
  EXPECT_EQ(emitted.item_counts, derived.item_counts);
  EXPECT_EQ(emitted.value_offsets, derived.value_offsets);
  EXPECT_EQ(emitted.value_begin, derived.value_begin);
  ASSERT_EQ(emitted.ids.size(), derived.ids.size());
  for (const auto& [key, id] : derived.ids) {
    auto it = emitted.ids.find(key);
    ASSERT_NE(it, emitted.ids.end()) << key;
    EXPECT_EQ(it->second, id) << key;
  }

  // Each transaction spells out its document's leaves, and ids are
  // assigned in first-seen order.
  std::vector<std::string> first_seen;
  json::OndemandIngest dir;
  for (size_t d = 0; d < views.size(); d++) {
    std::vector<std::string> keys, interned;
    json::BuildIngestFromJsonb(views[d], &dir);
    for (const auto& leaf : dir.leaves) {
      keys.push_back(MakeDictKey(
          std::string_view(dir.paths).substr(leaf.path_off, leaf.path_len),
          leaf.type));
    }
    for (mining::Item item : emitted.transactions[d]) {
      interned.push_back(emitted.dict[item]);
    }
    ASSERT_EQ(interned, keys) << "document " << d;
    for (auto& key : keys) {
      if (std::find(first_seen.begin(), first_seen.end(), key) ==
          first_seen.end()) {
        first_seen.push_back(std::move(key));
      }
    }
  }
  EXPECT_EQ(emitted.dict, first_seen);

  // A projection carries each chosen document's offsets along.
  std::vector<uint32_t> picked;
  for (uint32_t d = 0; d < views.size(); d += 3) picked.insert(picked.begin(), d);
  const DocumentItems projected = emitted.Project(picked);
  ASSERT_EQ(projected.transactions.size(), picked.size());
  for (size_t k = 0; k < picked.size(); k++) {
    const auto& tx = emitted.transactions[picked[k]];
    EXPECT_EQ(projected.transactions[k], tx);
    EXPECT_EQ(std::vector<uint32_t>(projected.ValueOffsets(k),
                                    projected.ValueOffsets(k) + tx.size()),
              std::vector<uint32_t>(emitted.ValueOffsets(picked[k]),
                                    emitted.ValueOffsets(picked[k]) + tx.size()));
  }
}

// The fields an interner's users read: dictionary, ids, transactions,
// frequencies and value offsets.
void ExpectSameItems(const DocumentItems& actual, const DocumentItems& expected,
                     const std::string& label) {
  EXPECT_EQ(actual.dict, expected.dict) << label;
  EXPECT_EQ(actual.transactions, expected.transactions) << label;
  EXPECT_EQ(actual.item_counts, expected.item_counts) << label;
  EXPECT_EQ(actual.value_begin, expected.value_begin) << label;
  EXPECT_EQ(actual.value_offsets, expected.value_offsets) << label;
  ASSERT_EQ(actual.ids.size(), expected.ids.size()) << label;
  for (const auto& [key, id] : expected.ids) {
    auto it = actual.ids.find(key);
    ASSERT_NE(it, actual.ids.end()) << label << " " << key;
    EXPECT_EQ(it->second, id) << label << " " << key;
  }
}

// A bulk load interns each chunk of a partition on its own and appends the
// chunks in order. That must give exactly the items of one AddDocument pass
// over the partition, for any chunk size, and the merged interner must keep
// interning as if it had seen every document itself.
TEST(DirectIngestTest, AppendedChunksMatchOnePass) {
  workload::TwitterOptions twitter;
  twitter.num_tweets = 2500;
  twitter.changing_schema = true;  // late documents bring new items
  const auto texts = workload::GenerateTwitter(twitter);

  json::OndemandTransformer ondemand;
  std::vector<json::OndemandIngest> leaves(texts.size());
  std::vector<std::vector<uint8_t>> docs(texts.size());
  for (size_t d = 0; d < texts.size(); d++) {
    ASSERT_TRUE(ondemand.Transform(texts[d], &docs[d], &leaves[d]).ok());
  }
  const size_t extra = 100;  // interned after the merge
  DocumentItems one_pass;
  for (size_t d = 0; d + extra < texts.size(); d++) {
    one_pass.AddDocument(leaves[d]);
  }
  DocumentItems all_docs = one_pass;
  for (size_t d = texts.size() - extra; d < texts.size(); d++) {
    all_docs.AddDocument(leaves[d]);
  }

  for (size_t chunk_docs : {1, 7, 1024}) {
    const std::string label = "chunks of " + std::to_string(chunk_docs);
    DocumentItems merged;
    for (size_t begin = 0; begin + extra < texts.size(); begin += chunk_docs) {
      DocumentItems chunk;
      const size_t end = std::min(begin + chunk_docs, texts.size() - extra);
      for (size_t d = begin; d < end; d++) chunk.AddDocument(leaves[d]);
      merged.Append(std::move(chunk));
    }
    ExpectSameItems(merged, one_pass, label);
    for (size_t d = texts.size() - extra; d < texts.size(); d++) {
      merged.AddDocument(leaves[d]);
    }
    ExpectSameItems(merged, all_docs, label + ", then AddDocument");
  }
}

// Columns are filled through the interner's value offsets, never by
// navigating the documents. Every cell must still hold what LookupPath finds
// at the column's path when that value has the column's source type, and be
// null otherwise.
TEST(DirectIngestTest, ColumnsMatchLookupPath) {
  workload::TwitterOptions twitter;
  twitter.num_tweets = 500;
  twitter.changing_schema = true;
  workload::YelpOptions yelp;
  yelp.num_business = 20;
  // Type outliers: `a` is an int in 7 of 10 documents (a column at 60%) and
  // a string or a bool in the rest, `b` a string with an int outlier.
  std::vector<std::string> outliers;
  for (int i = 0; i < 10; i++) {
    outliers.push_back(i < 7 ? R"({"a":)" + std::to_string(i) + R"(,"b":"x"})"
                       : i < 9 ? R"({"a":"s","b":"y"})"
                               : R"({"a":true,"b":1})");
  }
  for (const auto& texts :
       {workload::GenerateTwitter(twitter), workload::GenerateYelp(yelp),
        outliers}) {
    std::vector<std::vector<uint8_t>> docs;
    std::vector<json::JsonbValue> views;
    for (const auto& text : texts) {
      docs.push_back(json::JsonbFromText(text).MoveValueOrDie());
    }
    for (const auto& b : docs) views.emplace_back(b.data());
    const Tile tile = TileBuilder(TileConfig{}).Build(views, 0);
    ASSERT_FALSE(tile.columns.empty());
    for (const auto& col : tile.columns) {
      for (size_t d = 0; d < views.size(); d++) {
        const auto value = LookupPath(views[d], col.path);
        const bool present =
            value.has_value() && value->type() == col.source_type;
        Timestamp ts = 0;
        if (!present || (col.storage_type == ColumnType::kTimestamp &&
                         !ParseTimestamp(value->GetString(), &ts))) {
          EXPECT_TRUE(col.column.IsNull(d)) << PathToDisplayString(col.path);
          continue;
        }
        ASSERT_FALSE(col.column.IsNull(d)) << PathToDisplayString(col.path);
        switch (col.storage_type) {
          case ColumnType::kBool:
            EXPECT_EQ(col.column.GetBool(d), value->GetBool());
            break;
          case ColumnType::kInt64:
            EXPECT_EQ(col.column.GetInt(d), value->GetInt());
            break;
          case ColumnType::kFloat64:
            EXPECT_EQ(col.column.GetFloat(d), value->GetDouble());
            break;
          case ColumnType::kString:
            EXPECT_EQ(col.column.GetString(d, views[d].data()),
                      value->GetString());
            break;
          case ColumnType::kNumeric:
            EXPECT_EQ(col.column.GetNumeric(d), value->GetNumeric());
            break;
          case ColumnType::kTimestamp:
            EXPECT_EQ(col.column.GetTimestamp(d), ts);
            break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace jsontiles::tiles
