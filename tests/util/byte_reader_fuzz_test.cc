// Seeded mutation fuzzing of the length and count fields of every untrusted
// byte format: JTRL relation files, JTSM shard manifests and each dist wire
// message kind. At every offset where a varint starts, the varint is
// rewritten to 2^64-1, to 2^64-pos and to size-pos+1, pos being the
// decoder's position after it. A bounds check written as `pos + n > size`
// wraps on the first two and is off by one on the third. Fixed-width fields
// (the row codec's u16 widths and u32 string lengths among them) get a pass
// of their own: at every offset a u16 and a u32 are overwritten in place
// with their maximum and with the byte count after them + 1. Seeded byte
// flips and truncations ride along. Every mutant must decode or fail with a
// decode Status: never a crash, never a read out of bounds (run it under
// -DJSONTILES_SANITIZE=ON).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/wire.h"
#include "exec/agg_state.h"
#include "exec/expression.h"
#include "storage/loader.h"
#include "storage/serialize.h"
#include "storage/shard.h"
#include "util/byte_codec.h"
#include "util/random.h"
#include "workload/twitter.h"

namespace jsontiles {
namespace {

struct Target {
  std::string name;
  std::vector<uint8_t> bytes;
  size_t origin;  // offset in `bytes` where the decoder's reader starts
  std::function<Status(const std::vector<uint8_t>&)> decode;
};

// `bytes` with the varint in [at, end) replaced by `value`.
std::vector<uint8_t> WithVarint(const std::vector<uint8_t>& bytes, size_t at,
                                size_t end, uint64_t value) {
  std::vector<uint8_t> out(bytes.begin(), bytes.begin() + at);
  ByteWriter w(&out);
  w.Varint(value);
  out.insert(out.end(), bytes.begin() + end, bytes.end());
  return out;
}

void Fuzz(const Target& t, uint64_t seed) {
  const Status intact = t.decode(t.bytes);
  ASSERT_TRUE(intact.ok()) << t.name << ": " << intact.ToString();
  size_t rejected = 0;
  auto check = [&](const std::vector<uint8_t>& mutant, const char* how,
                   size_t at) {
    const Status st = t.decode(mutant);
    if (st.ok()) return;
    rejected++;
    EXPECT_TRUE(st.code() == StatusCode::kParseError ||
                st.code() == StatusCode::kUnsupported)
        << t.name << ", " << how << " at " << at << ": " << st.ToString();
  };
  for (size_t at = t.origin; at < t.bytes.size(); at++) {
    size_t end = at;
    uint64_t old;
    if (!ReadVarint(t.bytes.data(), t.bytes.size(), &end, &old)) continue;
    // A value of 2^63 or more takes 10 bytes; size - pos is the byte count
    // after the varint whatever its width.
    const uint64_t pos = at - t.origin + 10;
    const uint64_t rest = t.bytes.size() - end;
    for (uint64_t length : {UINT64_MAX, 0 - pos, rest + 1}) {
      check(WithVarint(t.bytes, at, end, length), "length", at);
    }
  }
  for (size_t at = t.origin; at < t.bytes.size(); at++) {
    for (size_t width : {size_t{2}, size_t{4}}) {
      if (at + width > t.bytes.size()) continue;
      const uint64_t rest = t.bytes.size() - at - width;
      for (uint64_t value : {(uint64_t{1} << (8 * width)) - 1, rest + 1}) {
        std::vector<uint8_t> mutant = t.bytes;
        std::memcpy(mutant.data() + at, &value, width);  // little-endian
        check(mutant, width == 2 ? "u16" : "u32", at);
      }
    }
  }
  Random rng(seed);
  for (int i = 0; i < 300; i++) {
    std::vector<uint8_t> mutant = t.bytes;
    const size_t at = rng.Uniform(mutant.size());
    if (i % 3 == 0) {
      mutant.resize(at);
      check(mutant, "truncation", at);
    } else {
      mutant[at] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
      check(mutant, "flip", at);
    }
  }
  EXPECT_GT(rejected, 0u) << t.name;
}

std::vector<std::string> Docs(size_t n) {
  std::vector<std::string> docs;
  for (size_t i = 0; i < n; i++) {
    docs.push_back(R"({"id":)" + std::to_string(i * 1000003) +
                   R"(,"s":"str)" + std::to_string(i) + R"(","d":"2021-0)" +
                   std::to_string(i % 9 + 1) + R"(-15","p":")" +
                   std::to_string(i % 90 + 10) + ".5" + R"(","f":)" +
                   std::to_string(0.25 * i) + R"(,"b":)" +
                   (i % 3 ? "true" : "false") + "}");
  }
  return docs;
}

storage::LoadOptions ArrayExtraction() {
  storage::LoadOptions options;
  options.extract_arrays = true;
  return options;
}

std::vector<std::string> Tweets(size_t n) {
  workload::TwitterOptions twitter;
  twitter.num_tweets = n;
  return workload::GenerateTwitter(twitter);
}

Status DecodeJtrl(const std::vector<uint8_t>& bytes) {
  return storage::DeserializeRelation(bytes.data(), bytes.size()).status();
}

Target JtrlTarget(const std::string& name, storage::StorageMode mode,
                  const std::vector<std::string>& docs,
                  storage::LoadOptions options = {}) {
  tiles::TileConfig config;
  config.tile_size = 8;
  storage::Loader loader(mode, config, options);
  auto rel = loader.Load(docs, name).MoveValueOrDie();
  Target t{"JTRL " + name, {}, 4, DecodeJtrl};  // the reader skips the magic
  EXPECT_TRUE(storage::SerializeRelation(*rel, &t.bytes).ok());
  return t;
}

TEST(ByteReaderFuzzTest, JtrlLengthFields) {
  Fuzz(JtrlTarget("text", storage::StorageMode::kJsonText, Docs(6)), 1);
  Fuzz(JtrlTarget("tiles", storage::StorageMode::kTiles, Docs(16)), 2);
  const Target sides = JtrlTarget("sides", storage::StorageMode::kTiles,
                                  Tweets(6), ArrayExtraction());
  Fuzz(sides, 3);
}

// The manifest's length and count fields: the name, the routing path, the
// shard count and each shard's file name, row count and file size.
TEST(ByteReaderFuzzTest, JtsmLengthFields) {
  const std::string dir = ::testing::TempDir();
  const std::string name = "byte_reader_fuzz";
  storage::ShardOptions shard_options;
  shard_options.shard_count = 2;
  shard_options.routing = storage::ShardRouting::kHashKey;
  shard_options.routing_keys = {"user", "id"};
  tiles::TileConfig config;
  config.tile_size = 8;
  auto sharded = storage::ShardedRelation::Load(
                     Tweets(12), name, storage::StorageMode::kTiles, config,
                     {}, shard_options)
                     .MoveValueOrDie();
  ASSERT_TRUE(storage::SaveSharded(*sharded, dir).ok());
  const std::string path = storage::ShardManifestPath(dir, name);
  auto manifest = ReadFile(path);
  ASSERT_TRUE(manifest.ok());
  Target t{"JTSM", manifest.MoveValueOrDie(), 0,
           [&](const std::vector<uint8_t>& bytes) {
             JSONTILES_RETURN_NOT_OK(WriteFile(path, bytes.data(),
                                               bytes.size()));
             return storage::ReadShardManifest(path).status();
           }};
  auto intact = storage::ReadShardManifest(path);
  ASSERT_TRUE(intact.ok());
  EXPECT_EQ(intact.ValueOrDie().version, 4u);
  EXPECT_FALSE(intact.ValueOrDie().routing_path.empty());  // fuzzed too
  Fuzz(t, 4);
  std::remove(path.c_str());
  for (size_t s = 0; s < sharded->shard_count(); s++) {
    std::remove((dir + "/" + name + ".shard-" + std::to_string(s) + ".jtrl")
                    .c_str());
  }
}

TEST(ByteReaderFuzzTest, WireMessageLengthFields) {
  using namespace jsontiles::dist;  // NOLINT
  using namespace jsontiles::exec;  // NOLINT
  std::vector<Target> targets;
  auto add = [&](const std::string& name, std::vector<uint8_t> bytes,
                 std::function<Status(const std::vector<uint8_t>&)> decode) {
    targets.push_back({name, std::move(bytes), 0, std::move(decode)});
  };
  std::vector<uint8_t> buf;

  EncodeHello(HelloMsg{kWireVersion, 4242}, &buf);
  add("Hello", buf, [](const std::vector<uint8_t>& b) {
    HelloMsg m;
    return DecodeHello(b, &m);
  });

  OpenMsg open;
  open.manifest_path = "/data/tpch.jtsm";
  open.shards = {0, 2, 5};
  open.num_threads = 4;
  buf.clear();
  EncodeOpen(open, &buf);
  add("Open", buf, [](const std::vector<uint8_t>& b) {
    OpenMsg m;
    return DecodeOpen(b, &m);
  });

  OpenOkMsg open_ok;
  open_ok.shard_rows = {100, 250, 3};
  buf.clear();
  EncodeOpenOk(open_ok, &buf);
  add("OpenOk", buf, [](const std::vector<uint8_t>& b) {
    OpenOkMsg m;
    return DecodeOpenOk(b, &m);
  });

  FragmentMsg frag;
  frag.fragment_id = 3;
  frag.epoch = 1;
  frag.shard_index = 1;
  frag.accesses = {Access("l", {"a"}, ValueType::kInt),
                   Access("l", {"b"}, ValueType::kString)};
  frag.filter = And(Gt(Access("l", {"a"}, ValueType::kInt), ConstInt(10)),
                    InList(Access("l", {"b"}, ValueType::kString),
                           {"x", "yy"}));
  frag.null_rejecting_paths = {"a"};
  RangePredicate rp;
  rp.path = "b";
  rp.access_type = ValueType::kString;
  rp.op = BinOp::kLe;
  rp.constant = Value::String("zzz");
  frag.range_predicates.push_back(rp);
  buf.clear();
  EncodeFragment(frag, &buf);
  auto decode_fragment = [](const std::vector<uint8_t>& b) {
    FragmentMsg m;
    return DecodeFragment(b, &m);
  };
  add("ScanFragment", buf, decode_fragment);

  const std::vector<ExprPtr> group_by = {Slot(0)};
  const std::vector<AggSpec> aggs = {AggSpec::CountStar(),
                                     AggSpec::Sum(Slot(1)),
                                     AggSpec::CountDistinct(Slot(1))};
  FragmentMsg agg;
  agg.fragment_id = 4;
  agg.accesses = {Access("s", {"text"}, ValueType::kString)};
  agg.group_by = group_by;
  agg.aggs = aggs;
  buf.clear();
  EncodeFragment(agg, &buf);
  add("AggFragment", buf, decode_fragment);

  RowSet rows;
  rows.push_back(Row{Value::String("a"), Value::Int(1), Value::Float(1.5)});
  rows.push_back(Row{Value::String(""), Value::Int(-2), Value::Null()});
  rows.push_back(Row{Value::String("b"), Value::Int(5), Value::Float(-0.25)});
  buf.clear();
  EncodeRowBatch(9, 2, rows, 0, rows.size(), &buf);
  add("RowBatch", buf, [](const std::vector<uint8_t>& b) {
    Arena arena;
    uint32_t id, epoch;
    RowSet out;
    return DecodeRowBatch(b, &arena, &id, &epoch, &out);
  });

  Arena arena;
  GroupTable groups(group_by.size(), aggs);
  AccumulateRows(rows, group_by, aggs, &arena, &groups);
  buf.clear();
  EncodeAggPartial(7, 2, groups, &buf);
  add("AggResult", buf, [&](const std::vector<uint8_t>& b) {
    Arena decode_arena;
    AggPartial out;
    return DecodeAggPartial(b, group_by.size(), aggs, &decode_arena, &out);
  });

  FragmentDoneMsg done;
  done.fragment_id = 2;
  done.rows_out = 12345;
  buf.clear();
  EncodeFragmentDone(done, &buf);
  add("FragmentDone", buf, [](const std::vector<uint8_t>& b) {
    FragmentDoneMsg m;
    return DecodeFragmentDone(b, &m);
  });

  buf.clear();
  EncodeStatus(Status::NotFound("shard 3 missing"), &buf);
  add("Error", buf, [](const std::vector<uint8_t>& b) {
    Status decoded;
    return DecodeStatus(b, &decoded);
  });

  FragmentErrorMsg error;
  error.fragment_id = 5;
  error.error = Status::InvalidArgument("bad access path");
  buf.clear();
  EncodeFragmentError(error, &buf);
  add("FragmentError", buf, [](const std::vector<uint8_t>& b) {
    FragmentErrorMsg m;
    return DecodeFragmentError(b, &m);
  });

  uint64_t seed = 10;
  for (const Target& t : targets) Fuzz(t, seed++);
}

}  // namespace
}  // namespace jsontiles
