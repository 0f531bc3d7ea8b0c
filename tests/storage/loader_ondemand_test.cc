// The loader's one parse path: every bulk load parses with the on-demand
// parser, whose per-document fallback is the streaming JsonbBuilder. The
// streaming parser is the oracle here, two ways:
//   - kJsonb loads must equal a relation built document by document with
//     JsonbBuilder.
//   - With the `ondemand.force_fallback` failpoint armed Always, every
//     document takes the streaming parser (and the JSONB-derived key-path
//     directory). Every mode, sharded tiles included, must then load to the
//     same bytes as without it.
// Degraded-mode max_errors skips, the fail-fast contract and the global skip
// cap across shards are checked on the same path.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/jsonb.h"
#include "storage/loader.h"
#include "storage/relation.h"
#include "storage/serialize.h"
#include "storage/shard.h"
#include "util/failpoint.h"
#include "workload/twitter.h"
#include "workload/yelp.h"

namespace jsontiles::storage {
namespace {

// Docs with malformed records sprinkled at known positions (every 7th),
// including shapes that fail at different stages of the on-demand path:
// stage-1 (unterminated string), stage-2 (grammar), and plain truncation.
std::vector<std::string> MixedDocs(size_t n, size_t* bad_count) {
  std::vector<std::string> docs;
  *bad_count = 0;
  for (size_t i = 0; i < n; i++) {
    if (i % 7 == 3) {
      const char* bad[] = {R"({"id": )", R"({"id" 1})", "{\"s\": \"oops",
                           R"([1,,2])"};
      docs.push_back(bad[i % 4]);
      (*bad_count)++;
    } else {
      docs.push_back(R"({"id":)" + std::to_string(i) + R"(,"name":"user)" +
                     std::to_string(i % 13) + R"("})");
    }
  }
  return docs;
}

// Twitter with an evolving schema (arrays, delete records), Yelp (nested
// records, numeric strings), and a few malformed records.
std::vector<std::string> WorkloadDocs(size_t* bad_count) {
  workload::TwitterOptions twitter;
  twitter.num_tweets = 2000;
  twitter.changing_schema = true;
  std::vector<std::string> docs = workload::GenerateTwitter(twitter);
  workload::YelpOptions yelp;
  yelp.num_business = 20;
  for (auto& doc : workload::GenerateYelp(yelp)) docs.push_back(std::move(doc));
  auto mixed = MixedDocs(70, bad_count);
  docs.insert(docs.begin() + 500, mixed.begin(), mixed.end());
  return docs;
}

std::vector<uint8_t> Bytes(const Relation& relation) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(SerializeRelation(relation, &bytes).ok());
  return bytes;
}

// What the streaming parser makes of `docs`: every accepted document, in
// order, in a kJsonb relation shaped like the loader's.
std::unique_ptr<Relation> StreamingJsonb(const std::vector<std::string>& docs,
                                         size_t* rejected) {
  auto relation = std::make_unique<Relation>("t", StorageMode::kJsonb);
  json::JsonbBuilder builder;
  *rejected = 0;
  for (const auto& doc : docs) {
    std::vector<uint8_t> buf;
    if (builder.Transform(doc, &buf).ok()) {
      relation->AppendDoc(buf.data(), buf.size());
    } else {
      (*rejected)++;
    }
  }
  return relation;
}

TEST(LoaderOndemandTest, SkippedDocsParityInDegradedMode) {
  size_t bad_count = 0;
  const auto docs = WorkloadDocs(&bad_count);
  ASSERT_GT(bad_count, 0u);
  size_t rejected = 0;
  const auto expected = StreamingJsonb(docs, &rejected);
  EXPECT_EQ(rejected, bad_count);

  for (size_t num_threads : {1u, 4u}) {
    LoadOptions options;
    options.num_threads = num_threads;
    options.max_errors = 1000;  // skip them all
    LoadBreakdown bd;
    auto loaded = Loader(StorageMode::kJsonb, {}, options)
                      .Load(docs, "t", &bd)
                      .MoveValueOrDie();
    EXPECT_EQ(bd.skipped_docs, bad_count);
    EXPECT_EQ(bd.tuples, docs.size() - bad_count);
    EXPECT_EQ(Bytes(*loaded), Bytes(*expected)) << "threads=" << num_threads;
  }
}

TEST(LoaderOndemandTest, FailFastParityWithoutMaxErrors) {
  size_t bad_count = 0;
  const auto docs = MixedDocs(50, &bad_count);
  json::JsonbBuilder builder;
  std::vector<uint8_t> buf;
  const Status first_reject = builder.Transform(docs[3], &buf);
  ASSERT_FALSE(first_reject.ok());
  auto loaded = Loader(StorageMode::kJsonb, {}, {}).Load(docs, "t");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), first_reject.code());
}

TEST(LoaderOndemandTest, MaxErrorsCapParity) {
  size_t bad_count = 0;
  const auto docs = MixedDocs(100, &bad_count);
  ASSERT_GT(bad_count, 2u);
  for (StorageMode mode : {StorageMode::kJsonb, StorageMode::kTiles}) {
    LoadOptions opts;
    opts.max_errors = bad_count - 1;  // one too few: the load must fail
    EXPECT_FALSE(Loader(mode, {}, opts).Load(docs, "t").ok());
    opts.max_errors = bad_count;  // exactly enough
    LoadBreakdown bd;
    auto rel = Loader(mode, {}, opts).Load(docs, "t", &bd);
    ASSERT_TRUE(rel.ok()) << StorageModeName(mode);
    EXPECT_EQ(bd.skipped_docs, bad_count);
    EXPECT_EQ(rel.ValueOrDie()->num_rows(), docs.size() - bad_count);
  }
}

TEST(LoaderOndemandTest, ShardedSkipParityAndGlobalCap) {
  size_t bad_count = 0;
  const auto docs = MixedDocs(300, &bad_count);
  ShardOptions shard_options;
  shard_options.shard_count = 4;
  shard_options.routing = ShardRouting::kHashKey;
  shard_options.routing_keys = {"id"};

  LoadOptions options;
  options.num_threads = 4;
  options.max_errors = 1000;
  LoadBreakdown bd;
  auto sharded = ShardedRelation::Load(docs, "t", StorageMode::kJsonb, {},
                                       options, shard_options, &bd)
                     .MoveValueOrDie();
  EXPECT_EQ(bd.skipped_docs, bad_count);

  // The shards together hold exactly the streaming parser's documents.
  size_t rejected = 0;
  const auto expected = StreamingJsonb(docs, &rejected);
  auto doc_bytes = [](const Relation& rel, std::vector<std::string>* out) {
    for (size_t r = 0; r < rel.num_rows(); r++) {
      out->emplace_back(reinterpret_cast<const char*>(rel.Jsonb(r).data()),
                        rel.DocSize(r));
    }
  };
  std::vector<std::string> want, got;
  doc_bytes(*expected, &want);
  for (size_t s = 0; s < sharded->shard_count(); s++) {
    doc_bytes(sharded->shard(s), &got);
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);

  // The max_errors cap stays global across shards.
  options.max_errors = bad_count - 1;
  EXPECT_FALSE(ShardedRelation::Load(docs, "t", StorageMode::kJsonb, {},
                                     options, shard_options)
                   .ok());
}

// Whole-relation identity against the streaming parser: documents, tiles,
// columns, statistics and array side relations, in every binary mode.
TEST(LoaderOndemandTest, ForcedFallbackLoadsIdentically) {
  failpoint::DisableAll();
  size_t bad_count = 0;
  const auto docs = WorkloadDocs(&bad_count);
  for (auto mode : {StorageMode::kJsonb, StorageMode::kSinew,
                    StorageMode::kTiles}) {
    tiles::TileConfig config;
    config.tile_size = 256;
    config.partition_size = 4;
    LoadOptions options;
    options.num_threads = 2;
    options.max_errors = 1000;
    options.extract_arrays = true;
    LoadBreakdown normal_bd, forced_bd;
    auto normal = Loader(mode, config, options)
                      .Load(docs, "t", &normal_bd)
                      .MoveValueOrDie();
    failpoint::Enable("ondemand.force_fallback", failpoint::Spec::Always());
    auto forced = Loader(mode, config, options)
                      .Load(docs, "t", &forced_bd)
                      .MoveValueOrDie();
    failpoint::DisableAll();
    EXPECT_EQ(normal_bd.skipped_docs, bad_count) << StorageModeName(mode);
    EXPECT_EQ(forced_bd.skipped_docs, bad_count) << StorageModeName(mode);
    if (mode == StorageMode::kTiles) {
      EXPECT_FALSE(normal->tiles().empty());
      EXPECT_FALSE(normal->side_relations().empty());
    }
    EXPECT_EQ(Bytes(*normal), Bytes(*forced)) << StorageModeName(mode);
  }
}

TEST(LoaderOndemandTest, ForcedFallbackShardedTilesIdentical) {
  failpoint::DisableAll();
  size_t bad_count = 0;
  const auto docs = WorkloadDocs(&bad_count);
  tiles::TileConfig config;
  config.tile_size = 128;
  config.partition_size = 4;
  LoadOptions options;
  options.num_threads = 2;
  options.max_errors = 1000;
  ShardOptions shard_options;
  shard_options.shard_count = 3;
  shard_options.routing = ShardRouting::kHashKey;
  shard_options.routing_keys = {"id"};

  auto normal = ShardedRelation::Load(docs, "t", StorageMode::kTiles, config,
                                      options, shard_options)
                    .MoveValueOrDie();
  failpoint::Enable("ondemand.force_fallback", failpoint::Spec::Always());
  auto forced = ShardedRelation::Load(docs, "t", StorageMode::kTiles, config,
                                      options, shard_options)
                    .MoveValueOrDie();
  failpoint::DisableAll();

  EXPECT_EQ(normal->routing_kind(), forced->routing_kind());
  ASSERT_EQ(normal->shard_count(), forced->shard_count());
  for (size_t s = 0; s < normal->shard_count(); s++) {
    EXPECT_FALSE(normal->shard(s).tiles().empty()) << "shard " << s;
    EXPECT_EQ(Bytes(normal->shard(s)), Bytes(forced->shard(s))) << "shard " << s;
  }
}
}  // namespace
}  // namespace jsontiles::storage
