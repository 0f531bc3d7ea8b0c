// Wire-format tests (DESIGN.md §13): every message codec round-trips
// losslessly, and the frame decoder survives a corpus of corrupted inputs —
// every truncation prefix and systematic bit flips of real encoded streams —
// without crashing (the CI sanitizer leg runs this under ASan) and without
// ever accepting a damaged frame as valid.

#include "dist/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/agg_state.h"
#include "exec/expression.h"
#include "util/arena.h"

namespace jsontiles::dist {
namespace {

using exec::AggSpec;
using exec::ExprPtr;
using exec::Row;
using exec::RowSet;
using exec::Value;

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

std::vector<uint8_t> Payload(size_t n, uint8_t seed) {
  std::vector<uint8_t> p(n);
  for (size_t i = 0; i < n; i++) p[i] = static_cast<uint8_t>(seed + i * 7);
  return p;
}

TEST(DistWireTest, FrameRoundTripRaw) {
  // The payload crosses the wire unchanged and decodes to the same bytes.
  std::vector<uint8_t> payload = Payload(300, 13);
  std::vector<uint8_t> stream;
  AppendFrame(FrameType::kRowBatch, payload, &stream);

  size_t consumed = 0;
  FrameType type;
  std::vector<uint8_t> decoded;
  ASSERT_TRUE(DecodeFrame(stream.data(), stream.size(), &consumed, &type,
                          &decoded)
                  .ok());
  EXPECT_EQ(consumed, stream.size());
  EXPECT_EQ(type, FrameType::kRowBatch);
  EXPECT_EQ(decoded, payload);
}

// A frame is a 13-byte header ([u8 type][u32 size][u64 checksum]) and the
// payload exactly as given, even when it is highly repetitive.
TEST(DistWireTest, FrameHeaderLayout) {
  std::vector<uint8_t> payload(64 * 1024, 0x42);
  std::vector<uint8_t> stream;
  AppendFrame(FrameType::kAggResult, payload, &stream);
  ASSERT_EQ(stream.size(), 13 + payload.size());
  EXPECT_EQ(stream[0], static_cast<uint8_t>(FrameType::kAggResult));
  uint32_t size = 0;
  for (int i = 0; i < 4; i++) size |= uint32_t{stream[1 + i]} << (8 * i);
  EXPECT_EQ(size, payload.size());
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), stream.begin() + 13));
}

TEST(DistWireTest, FrameRoundTripEmpty) {
  std::vector<uint8_t> stream;
  AppendFrame(FrameType::kShutdown, {}, &stream);
  size_t consumed = 0;
  FrameType type;
  std::vector<uint8_t> decoded;
  ASSERT_TRUE(DecodeFrame(stream.data(), stream.size(), &consumed, &type,
                          &decoded)
                  .ok());
  EXPECT_EQ(type, FrameType::kShutdown);
  EXPECT_TRUE(decoded.empty());
}

TEST(DistWireTest, BackToBackFrames) {
  std::vector<uint8_t> stream;
  AppendFrame(FrameType::kHello, Payload(10, 1), &stream);
  AppendFrame(FrameType::kError, Payload(20, 2), &stream);
  size_t consumed = 0;
  FrameType type;
  std::vector<uint8_t> decoded;
  ASSERT_TRUE(DecodeFrame(stream.data(), stream.size(), &consumed, &type,
                          &decoded)
                  .ok());
  EXPECT_EQ(type, FrameType::kHello);
  ASSERT_TRUE(DecodeFrame(stream.data() + consumed, stream.size() - consumed,
                          &consumed, &type, &decoded)
                  .ok());
  EXPECT_EQ(type, FrameType::kError);
  EXPECT_EQ(decoded, Payload(20, 2));
}

// ---------------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------------

TEST(DistWireTest, HelloOpenOpenOkRoundTrip) {
  std::vector<uint8_t> buf;
  EncodeHello(HelloMsg{kWireVersion, 4242}, &buf);
  HelloMsg hello;
  ASSERT_TRUE(DecodeHello(buf, &hello).ok());
  EXPECT_EQ(hello.version, kWireVersion);
  EXPECT_EQ(hello.pid, 4242);

  buf.clear();
  OpenMsg open;
  open.manifest_path = "/tmp/x.jtsm";
  open.shards = {0, 2, 5};
  open.num_threads = 4;
  EncodeOpen(open, &buf);
  OpenMsg open2;
  ASSERT_TRUE(DecodeOpen(buf, &open2).ok());
  EXPECT_EQ(open2.manifest_path, open.manifest_path);
  EXPECT_EQ(open2.shards, open.shards);
  EXPECT_EQ(open2.num_threads, 4u);

  buf.clear();
  OpenOkMsg ok;
  ok.shard_rows = {100, 250, 3};
  EncodeOpenOk(ok, &buf);
  OpenOkMsg ok2;
  ASSERT_TRUE(DecodeOpenOk(buf, &ok2).ok());
  EXPECT_EQ(ok2.shard_rows, ok.shard_rows);

  // Descending shard list: rejected (the protocol requires ascending).
  buf.clear();
  open.shards = {5, 2};
  EncodeOpen(open, &buf);
  EXPECT_FALSE(DecodeOpen(buf, &open2).ok());
}

std::vector<Value> SampleValues() {
  return {Value::Null(),
          Value::Bool(true),
          Value::Bool(false),
          Value::Int(0),
          Value::Int(-1),
          Value::Int(INT64_MAX),
          Value::Int(INT64_MIN),
          Value::Float(0.0),
          Value::Float(-0.0),
          Value::Float(2.5),
          Value::Float(-1.0 / 3.0),
          Value::String(""),
          Value::String("a"),
          Value::String("shipped via wire ✓")};
}

TEST(DistWireTest, ValueRoundTrip) {
  Arena arena;
  for (const Value& v : SampleValues()) {
    std::vector<uint8_t> buf;
    ByteWriter w(&buf);
    EncodeValue(v, &w);
    ByteReader r(buf.data(), buf.size());
    Value out;
    ASSERT_TRUE(DecodeValue(&r, &arena, &out));
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(out.is_null(), v.is_null());
    if (!v.is_null()) {
      EXPECT_EQ(out.ToString(), v.ToString());
    }
  }
}

std::vector<ExprPtr> SampleExprs() {
  using namespace jsontiles::exec;  // NOLINT
  std::vector<ExprPtr> exprs;
  exprs.push_back(ConstInt(7));
  exprs.push_back(ConstFloat(3.25));
  exprs.push_back(ConstString("text"));
  exprs.push_back(ConstNull());
  exprs.push_back(Slot(3));
  exprs.push_back(Access("l", {"a", "b"}, ValueType::kInt));
  exprs.push_back(Gt(Access("l", {"qty"}, ValueType::kInt), ConstInt(45)));
  exprs.push_back(And(IsNotNull(Slot(0)), Not(IsNull(Slot(1)))));
  exprs.push_back(Like(Access("l", {"c"}, ValueType::kString), "%x_y%"));
  exprs.push_back(Like(Access("l", {"c"}, ValueType::kString), "a%", true));
  exprs.push_back(InList(Slot(0), {"alpha", "beta", "gamma"}));
  exprs.push_back(InListInt(Slot(1), {1, 2, 3, 5, 8}));
  exprs.push_back(Between(Slot(0), ConstInt(1), ConstInt(9)));
  exprs.push_back(Case({Gt(Slot(0), ConstInt(0)), ConstInt(1), ConstInt(0)}));
  exprs.push_back(Substring(Slot(0), 2, 3));
  exprs.push_back(Year(Access("l", {"d"}, ValueType::kTimestamp)));
  exprs.push_back(CastTo(Slot(2), ValueType::kFloat));
  exprs.push_back(ArrayContains("b", {"categories"}, "name", "Bars"));
  exprs.push_back(Add(Mul(Slot(0), ConstInt(2)), Neg(Slot(1))));
  return exprs;
}

TEST(DistWireTest, ExprRoundTrip) {
  for (const ExprPtr& e : SampleExprs()) {
    std::vector<uint8_t> buf;
    ByteWriter w(&buf);
    EncodeExpr(*e, &w);
    ByteReader r(buf.data(), buf.size());
    ExprPtr out;
    ASSERT_TRUE(DecodeExpr(&r, 0, &out).ok());
    EXPECT_TRUE(r.AtEnd());
    ASSERT_NE(out, nullptr);
    EXPECT_TRUE(exec::ExprEquals(*e, *out));
  }
  // NOT IN and IN must not be conflated (negated travels on the wire).
  auto in = exec::InList(exec::Slot(0), {"x"});
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  EncodeExpr(*in, &w);
  ByteReader r(buf.data(), buf.size());
  ExprPtr out;
  ASSERT_TRUE(DecodeExpr(&r, 0, &out).ok());
  EXPECT_TRUE(exec::ExprEquals(*in, *out));
}

TEST(DistWireTest, FragmentRoundTrip) {
  using namespace jsontiles::exec;  // NOLINT
  FragmentMsg msg;
  msg.fragment_id = 3;
  msg.shard_index = 3;
  msg.enable_tile_skipping = false;
  msg.accesses = {Access("l", {"a"}, ValueType::kInt),
                  Access("l", {"b"}, ValueType::kString)};
  msg.filter = Gt(Access("l", {"a"}, ValueType::kInt), ConstInt(10));
  msg.null_rejecting_paths = {"a", "b"};
  RangePredicate rp;
  rp.path = "a";
  rp.access_type = ValueType::kInt;
  rp.op = BinOp::kGt;
  rp.constant = Value::Int(10);
  msg.range_predicates.push_back(rp);
  RangePredicate rp2;
  rp2.path = "b";
  rp2.access_type = ValueType::kString;
  rp2.op = BinOp::kLe;
  rp2.constant = Value::String("zzz");
  msg.range_predicates.push_back(rp2);
  msg.group_by = {Slot(1)};
  msg.aggs = {AggSpec::CountStar(), AggSpec::Sum(Slot(0)),
              AggSpec::CountDistinct(Slot(1))};

  std::vector<uint8_t> buf;
  EncodeFragment(msg, &buf);
  FragmentMsg out;
  ASSERT_TRUE(DecodeFragment(buf, &out).ok());
  EXPECT_EQ(out.fragment_id, 3u);
  EXPECT_EQ(out.shard_index, 3u);
  EXPECT_FALSE(out.enable_tile_skipping);
  ASSERT_EQ(out.accesses.size(), 2u);
  EXPECT_TRUE(ExprEquals(*msg.accesses[1], *out.accesses[1]));
  ASSERT_NE(out.filter, nullptr);
  EXPECT_TRUE(ExprEquals(*msg.filter, *out.filter));
  EXPECT_EQ(out.null_rejecting_paths, msg.null_rejecting_paths);
  ASSERT_EQ(out.range_predicates.size(), 2u);
  EXPECT_EQ(out.range_predicates[0].path, "a");
  EXPECT_EQ(out.range_predicates[0].op, BinOp::kGt);
  EXPECT_EQ(out.range_predicates[1].constant.ToString(), "zzz");
  ASSERT_EQ(out.group_by.size(), 1u);
  ASSERT_EQ(out.aggs.size(), 3u);
  EXPECT_EQ(out.aggs[1].kind, AggSpec::Kind::kSum);
  ASSERT_NE(out.aggs[1].arg, nullptr);
  EXPECT_TRUE(ExprEquals(*msg.aggs[1].arg, *out.aggs[1].arg));

  // The flags byte follows fragment id, epoch and shard index; only bit 1
  // (tile skipping) is defined.
  std::vector<uint8_t> bad_flags = buf;
  bad_flags[12] = 2;
  EXPECT_FALSE(DecodeFragment(bad_flags, &out).ok());
}

TEST(DistWireTest, RowBatchRoundTrip) {
  // A batch carries one flat row set, so every width round-trips as its own
  // batch — zero-width rows (a COUNT(*) scan with no accesses) included.
  const std::vector<RowSet> batches = {
      {Row{Value::Int(1), Value::String("one"), Value::Null()},
       Row{Value::Int(2), Value::String(""), Value::Float(0.5)}},
      {Row{}},  // zero-width row survives too
      {Row{Value::Bool(false)}},
  };
  Arena arena;
  uint32_t fragment_id = 0;
  uint32_t epoch = 0;
  for (const RowSet& rows : batches) {
    std::vector<uint8_t> buf;
    EncodeRowBatch(9, /*epoch=*/3, rows, 0, rows.size(), &buf);
    RowSet out;
    ASSERT_TRUE(DecodeRowBatch(buf, &arena, &fragment_id, &epoch, &out).ok());
    EXPECT_EQ(fragment_id, 9u);
    EXPECT_EQ(epoch, 3u);
    ASSERT_EQ(out.size(), rows.size());
    for (size_t i = 0; i < rows.size(); i++) {
      ASSERT_EQ(out[i].size(), rows[i].size()) << "row " << i;
      for (size_t j = 0; j < rows[i].size(); j++) {
        EXPECT_EQ(out[i][j].is_null(), rows[i][j].is_null());
        if (!rows[i][j].is_null()) {
          EXPECT_EQ(out[i][j].ToString(), rows[i][j].ToString());
        }
      }
    }
  }

  // Sub-range encoding: rows [1, 3).
  RowSet rows = {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)},
                 {Value::Int(4)}};
  std::vector<uint8_t> buf;
  EncodeRowBatch(9, /*epoch=*/1, rows, 1, 3, &buf);
  RowSet out;
  ASSERT_TRUE(DecodeRowBatch(buf, &arena, &fragment_id, &epoch, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(out[0][0].ToString(), "2");
  EXPECT_EQ(out[1][0].ToString(), "3");
}

TEST(DistWireTest, RowBatchWithMixedWidthsIsCorrupt) {
  // The encoder never mixes widths in a batch (it encodes one RowSet); a
  // frame that does is rejected instead of decoded into a ragged set.
  std::vector<uint8_t> wide, narrow;
  EncodeRowBatch(9, 1, RowSet{{Value::Int(1), Value::Int(2)}}, 0, 1, &wide);
  EncodeRowBatch(9, 1, RowSet{{Value::Int(3)}}, 0, 1, &narrow);
  constexpr size_t kHeader = 12;  // fragment id, epoch, row count
  std::vector<uint8_t> mixed = wide;
  mixed[8] = 2;  // two rows: the wide one, then the narrow one
  mixed.insert(mixed.end(), narrow.begin() + kHeader, narrow.end());
  Arena arena;
  uint32_t fragment_id = 0;
  uint32_t epoch = 0;
  RowSet out;
  EXPECT_FALSE(DecodeRowBatch(mixed, &arena, &fragment_id, &epoch, &out).ok());
}

TEST(DistWireTest, AggPartialRoundTrip) {
  using namespace jsontiles::exec;  // NOLINT
  // Build a real group table the way a worker does: accumulate rows.
  RowSet rows;
  rows.push_back(Row{Value::String("a"), Value::Int(1), Value::Float(1.5)});
  rows.push_back(Row{Value::String("a"), Value::Int(2), Value::Float(-0.25)});
  rows.push_back(Row{Value::String("b"), Value::Int(5), Value::Null()});
  // Group "c" sums floats of far-apart magnitudes: every one stays its own
  // partial, so the float summer outgrows its inline buffer.
  for (int i = 0; i < 8; i++) {
    rows.push_back(Row{Value::String("c"), Value::Int(i % 3),
                       Value::Float(std::ldexp(1.0, 60 * i - 200))});
  }
  std::vector<ExprPtr> group_by = {Slot(0)};
  std::vector<AggSpec> aggs = {AggSpec::CountStar(), AggSpec::Sum(Slot(1)),
                               AggSpec::Sum(Slot(2)), AggSpec::Min(Slot(1)),
                               AggSpec::CountDistinct(Slot(1)),
                               AggSpec::Avg(Slot(2))};
  Arena arena;
  GroupTable groups(group_by.size(), aggs);
  AccumulateRows(rows, group_by, aggs, &arena, &groups);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_TRUE(groups.accs(2)[2].sum_f.on_heap());
  EXPECT_EQ(groups.accs(2)[4].distinct_count(), 3u);

  std::vector<uint8_t> buf;
  EncodeAggPartial(7, /*epoch=*/2, groups, &buf);
  Arena decode_arena;
  AggPartial partial;
  ASSERT_TRUE(DecodeAggPartial(buf, group_by.size(), aggs, &decode_arena,
                               &partial)
                  .ok());
  EXPECT_EQ(partial.fragment_id, 7u);
  EXPECT_EQ(partial.epoch, 2u);
  ASSERT_EQ(partial.groups.size(), 3u);
  EXPECT_TRUE(partial.groups.accs(2)[2].sum_f.on_heap());
  EXPECT_EQ(partial.groups.accs(2)[4].distinct_count(), 3u);
  for (uint32_t g = 0; g < 3; g++) {
    EXPECT_EQ(partial.groups.hash(g), groups.hash(g));
  }

  // Merging the decoded partial into an empty table and finalizing gives the
  // same rows, bit for bit and in the same group order, as finalizing the
  // original — the distributed merge contract.
  GroupTable merged(group_by.size(), aggs);
  merged.MergeFrom(partial.groups);
  RowSet a, b;
  groups.Finalize(&a);
  merged.Finalize(&b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); r++) {
    for (size_t c = 0; c < a.width(); c++) {
      EXPECT_EQ(TotalValueOrder(a[r][c], b[r][c]), 0) << r << "," << c;
    }
  }

  // A frame from a request with another key count is corrupt.
  AggPartial wrong_keys;
  EXPECT_FALSE(
      DecodeAggPartial(buf, 2, aggs, &decode_arena, &wrong_keys).ok());
}

TEST(DistWireTest, FragmentDoneAndStatusRoundTrip) {
  std::vector<uint8_t> buf;
  FragmentDoneMsg done;
  done.fragment_id = 2;
  done.epoch = 4;
  done.rows_out = 12345;
  done.tiles_scanned = 10;
  done.tiles_skipped = 7;
  done.wall_nanos = 999;
  EncodeFragmentDone(done, &buf);
  FragmentDoneMsg done2;
  ASSERT_TRUE(DecodeFragmentDone(buf, &done2).ok());
  EXPECT_EQ(done2.fragment_id, 2u);
  EXPECT_EQ(done2.epoch, 4u);
  EXPECT_EQ(done2.rows_out, 12345u);
  EXPECT_EQ(done2.tiles_scanned, 10u);
  EXPECT_EQ(done2.tiles_skipped, 7u);
  EXPECT_EQ(done2.wall_nanos, 999u);

  buf.clear();
  EncodeStatus(Status::NotFound("shard 3 missing"), &buf);
  Status decoded;
  ASSERT_TRUE(DecodeStatus(buf, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kNotFound);
  EXPECT_NE(decoded.ToString().find("shard 3 missing"), std::string::npos);
}

// Regression: every StatusCode — including kCancelled and kResourceExhausted,
// which workers report from admission/spill paths — must survive the wire.
// The decoder once bounded codes at kInternal, turning a clean per-query
// cancellation into a malformed-frame protocol failure at the coordinator.
TEST(DistWireTest, AllStatusCodesRoundTrip) {
  for (uint8_t code = 1; code <= static_cast<uint8_t>(kMaxStatusCode);
       ++code) {
    const Status original(static_cast<StatusCode>(code), "msg");
    std::vector<uint8_t> buf;
    EncodeStatus(original, &buf);
    Status decoded;
    ASSERT_TRUE(DecodeStatus(buf, &decoded).ok())
        << "code " << static_cast<int>(code) << " rejected by DecodeStatus";
    EXPECT_EQ(decoded.code(), original.code());

    FragmentErrorMsg msg;
    msg.fragment_id = 1;
    msg.epoch = 1;
    msg.error = original;
    buf.clear();
    EncodeFragmentError(msg, &buf);
    FragmentErrorMsg out;
    ASSERT_TRUE(DecodeFragmentError(buf, &out).ok())
        << "code " << static_cast<int>(code)
        << " rejected by DecodeFragmentError";
    EXPECT_EQ(out.error.code(), original.code());
  }

  // One past the last valid code is still rejected.
  std::vector<uint8_t> buf;
  EncodeStatus(Status(static_cast<StatusCode>(
                          static_cast<uint8_t>(kMaxStatusCode) + 1),
                      "bad"),
               &buf);
  Status decoded;
  EXPECT_FALSE(DecodeStatus(buf, &decoded).ok());
}

TEST(DistWireTest, FragmentErrorRoundTrip) {
  std::vector<uint8_t> buf;
  FragmentErrorMsg msg;
  msg.fragment_id = 5;
  msg.epoch = 2;
  msg.error = Status::InvalidArgument("bad access path");
  EncodeFragmentError(msg, &buf);
  FragmentErrorMsg out;
  ASSERT_TRUE(DecodeFragmentError(buf, &out).ok());
  EXPECT_EQ(out.fragment_id, 5u);
  EXPECT_EQ(out.epoch, 2u);
  EXPECT_EQ(out.error.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out.error.message().find("bad access path"), std::string::npos);

  // Truncated payload is rejected, not misread.
  std::vector<uint8_t> cut(buf.begin(), buf.begin() + buf.size() / 2);
  EXPECT_FALSE(DecodeFragmentError(cut, &out).ok());
}

// ---------------------------------------------------------------------------
// Corrupt-frame corpus
// ---------------------------------------------------------------------------

/// A realistic stream: hello, open, fragment, row batch, agg partial, done,
/// error — every codec's bytes appear in frame payloads.
std::vector<uint8_t> RealStream() {
  using namespace jsontiles::exec;  // NOLINT
  std::vector<uint8_t> stream, buf;

  EncodeHello(HelloMsg{kWireVersion, 77}, &buf);
  AppendFrame(FrameType::kHello, buf, &stream);

  buf.clear();
  OpenMsg open;
  open.manifest_path = "/tmp/tpch.jtsm";
  open.shards = {0, 1, 2};
  EncodeOpen(open, &buf);
  AppendFrame(FrameType::kOpen, buf, &stream);

  buf.clear();
  FragmentMsg frag;
  frag.fragment_id = 1;
  frag.shard_index = 1;
  frag.accesses = {Access("l", {"k"}, ValueType::kInt)};
  frag.filter = Gt(Access("l", {"k"}, ValueType::kInt), ConstInt(3));
  frag.group_by = {Slot(0)};
  frag.aggs = {AggSpec::CountStar()};
  EncodeFragment(frag, &buf);
  AppendFrame(FrameType::kAggFragment, buf, &stream);

  buf.clear();
  RowSet rows;
  rows.push_back(Row{Value::Int(4), Value::String("wire")});
  rows.push_back(Row{Value::Null(), Value::Float(1.25)});
  EncodeRowBatch(1, /*epoch=*/1, rows, 0, rows.size(), &buf);
  AppendFrame(FrameType::kRowBatch, buf, &stream);

  buf.clear();
  Arena arena;
  GroupTable groups(1, {AggSpec::CountStar()});
  AccumulateRows(rows, {Slot(0)}, {AggSpec::CountStar()}, &arena, &groups);
  EncodeAggPartial(1, /*epoch=*/1, groups, &buf);
  AppendFrame(FrameType::kAggResult, buf, &stream);

  buf.clear();
  FragmentDoneMsg done;
  done.fragment_id = 1;
  done.epoch = 1;
  done.rows_out = 2;
  done.tiles_scanned = 1;
  done.tiles_skipped = 0;
  done.wall_nanos = 5;
  EncodeFragmentDone(done, &buf);
  AppendFrame(FrameType::kFragmentDone, buf, &stream);

  buf.clear();
  FragmentErrorMsg ferr;
  ferr.fragment_id = 1;
  ferr.epoch = 1;
  ferr.error = Status::NotFound("tile 9 missing");
  EncodeFragmentError(ferr, &buf);
  AppendFrame(FrameType::kFragmentError, buf, &stream);

  buf.clear();
  EncodeStatus(Status::Internal("boom"), &buf);
  AppendFrame(FrameType::kError, buf, &stream);
  return stream;
}

/// Decode frames (and their payloads, per type) until error or exhaustion.
/// Must never crash — ASan is the assertion.
void DrainStream(const uint8_t* data, size_t size) {
  size_t off = 0;
  int guard = 0;
  while (off < size && guard++ < 1000) {
    size_t consumed = 0;
    FrameType type;
    std::vector<uint8_t> payload;
    if (!DecodeFrame(data + off, size - off, &consumed, &type, &payload)
             .ok()) {
      return;
    }
    // Feed the payload to its message decoder too (corruption may leave the
    // frame checksum... only if the flip hit a part the checksum does not
    // cover — which cannot happen — so this mostly runs on intact frames
    // ahead of the damaged one; still worth exercising).
    Arena arena;
    switch (type) {
      case FrameType::kHello: {
        HelloMsg m;
        (void)DecodeHello(payload, &m);
        break;
      }
      case FrameType::kOpen: {
        OpenMsg m;
        (void)DecodeOpen(payload, &m);
        break;
      }
      case FrameType::kOpenOk: {
        OpenOkMsg m;
        (void)DecodeOpenOk(payload, &m);
        break;
      }
      case FrameType::kScanFragment:
      case FrameType::kAggFragment: {
        FragmentMsg m;
        (void)DecodeFragment(payload, &m);
        break;
      }
      case FrameType::kRowBatch: {
        uint32_t id;
        uint32_t epoch;
        RowSet rows;
        (void)DecodeRowBatch(payload, &arena, &id, &epoch, &rows);
        break;
      }
      case FrameType::kAggResult: {
        AggPartial m;
        (void)DecodeAggPartial(payload, 1, {AggSpec::CountStar()}, &arena,
                               &m);
        break;
      }
      case FrameType::kFragmentDone: {
        FragmentDoneMsg m;
        (void)DecodeFragmentDone(payload, &m);
        break;
      }
      case FrameType::kFragmentError: {
        FragmentErrorMsg m;
        (void)DecodeFragmentError(payload, &m);
        break;
      }
      case FrameType::kError: {
        Status st;
        (void)DecodeStatus(payload, &st);
        break;
      }
      default:
        break;
    }
    off += consumed;
  }
}

// Every truncation prefix of the stream: the decoder must reject the cut
// frame (or stop cleanly at a frame boundary) and never read past the end.
TEST(DistWireTest, CorpusTruncations) {
  const std::vector<uint8_t> stream = RealStream();
  for (size_t n = 0; n < stream.size(); n++) {
    DrainStream(stream.data(), n);
  }
}

// Bit flips: every bit of the first frames and a stride over the rest. A
// flipped frame must be caught (checksum/bounds) — and whatever happens, no
// crash, no over-read, no unbounded allocation.
TEST(DistWireTest, CorpusBitFlips) {
  const std::vector<uint8_t> stream = RealStream();
  std::vector<uint8_t> mutated = stream;
  for (size_t byte = 0; byte < stream.size(); byte++) {
    // All 8 bits for the first 256 bytes (headers + small frames), one bit
    // per byte beyond that to bound the corpus.
    const int bits = byte < 256 ? 8 : 1;
    for (int bit = 0; bit < bits; bit++) {
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
      DrainStream(mutated.data(), mutated.size());
      mutated[byte] ^= static_cast<uint8_t>(1u << bit);
    }
  }
  EXPECT_EQ(mutated, stream);
}

// A flipped payload bit must never decode as a valid frame (checksum).
TEST(DistWireTest, PayloadCorruptionDetected) {
  std::vector<uint8_t> payload = Payload(100, 5);
  std::vector<uint8_t> stream;
  AppendFrame(FrameType::kRowBatch, payload, &stream);
  // Flip one payload byte (header is 13 bytes).
  for (size_t pos : {size_t{13}, stream.size() - 1}) {
    std::vector<uint8_t> bad = stream;
    bad[pos] ^= 0x10;
    size_t consumed = 0;
    FrameType type;
    std::vector<uint8_t> decoded;
    EXPECT_FALSE(
        DecodeFrame(bad.data(), bad.size(), &consumed, &type, &decoded).ok())
        << "flip at " << pos;
  }
}

// Corrupt length fields are rejected before any allocation: a raw_size far
// beyond the cap must fail cleanly even though the buffer is tiny.
TEST(DistWireTest, AbsurdLengthRejected) {
  std::vector<uint8_t> stream;
  AppendFrame(FrameType::kHello, Payload(8, 3), &stream);
  // raw_size lives at bytes [1, 5).
  std::vector<uint8_t> bad = stream;
  bad[1] = 0xFF;
  bad[2] = 0xFF;
  bad[3] = 0xFF;
  bad[4] = 0x7F;
  size_t consumed = 0;
  FrameType type;
  std::vector<uint8_t> decoded;
  EXPECT_FALSE(
      DecodeFrame(bad.data(), bad.size(), &consumed, &type, &decoded).ok());
}

// ---------------------------------------------------------------------------
// Socket deadlines
// ---------------------------------------------------------------------------

/// A quiet peer is bounded by the idle deadline: no bytes at all must fail
/// in ~idle_timeout_ms, not hang on the (much larger) frame budget.
TEST(DistWireTest, ReadFrameIdleTimeout) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const auto t0 = std::chrono::steady_clock::now();
  FrameType type;
  std::vector<uint8_t> payload;
  Status st = ReadFrame(fds[0], /*idle_timeout_ms=*/100,
                        /*frame_timeout_ms=*/60000, &type, &payload, nullptr);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("idle"), std::string::npos) << st.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  ::close(fds[0]);
  ::close(fds[1]);
}

/// Regression: a peer that opens a frame header and then stalls must be cut
/// off by the frame deadline — it must NOT get to ride the idle budget once
/// the first byte has arrived.
TEST(DistWireTest, ReadFrameStalledPeerTimesOutOnFrameDeadline) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // 5 bytes of a 13-byte frame header, then silence.
  std::vector<uint8_t> stream;
  AppendFrame(FrameType::kRowBatch, Payload(64, 9), &stream);
  ASSERT_EQ(::write(fds[1], stream.data(), 5), 5);

  const auto t0 = std::chrono::steady_clock::now();
  FrameType type;
  std::vector<uint8_t> payload;
  // Generous idle budget, tight frame budget: the stall must hit the frame
  // deadline, so the whole call returns in ~200ms, not ~60s.
  Status st = ReadFrame(fds[0], /*idle_timeout_ms=*/60000,
                        /*frame_timeout_ms=*/200, &type, &payload, nullptr);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("recv"), std::string::npos) << st.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(30));
  ::close(fds[0]);
  ::close(fds[1]);
}

/// A slow-but-progressing peer inside the frame budget still succeeds: the
/// frame deadline bounds the whole frame, not each byte.
TEST(DistWireTest, ReadFrameSlowPeerWithinBudgetSucceeds) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<uint8_t> stream;
  const std::vector<uint8_t> payload_in = Payload(64, 7);
  AppendFrame(FrameType::kHello, payload_in, &stream);

  std::thread writer([&] {
    const size_t half = stream.size() / 2;
    (void)!::write(fds[1], stream.data(), half);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    (void)!::write(fds[1], stream.data() + half, stream.size() - half);
  });
  FrameType type;
  std::vector<uint8_t> payload;
  Status st = ReadFrame(fds[0], /*idle_timeout_ms=*/10000,
                        /*frame_timeout_ms=*/10000, &type, &payload, nullptr);
  writer.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(type, FrameType::kHello);
  EXPECT_EQ(payload, payload_in);
  ::close(fds[0]);
  ::close(fds[1]);
}

/// Writes `bytes` into one end of a socketpair and closes it, then reads
/// frames from the other end until a read fails. Returns every status, so
/// the last one is the failure.
std::vector<Status> ReadFramesFromPeer(const std::vector<uint8_t>& bytes,
                                       std::vector<uint8_t>* first_payload) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_EQ(::write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);
  std::vector<Status> statuses;
  do {
    FrameType type;
    std::vector<uint8_t> payload;
    statuses.push_back(ReadFrame(fds[0], /*timeout_ms=*/5000, &type, &payload,
                                 nullptr));
    if (statuses.size() == 1) *first_payload = std::move(payload);
  } while (statuses.back().ok());
  ::close(fds[0]);
  return statuses;
}

/// A peer that lies in its header or stops early gets a failed read, never
/// a crash, a hang or a misparsed frame (the CI sanitizer leg runs this
/// under ASan).
TEST(DistWireTest, ReadFrameHostilePeer) {
  const std::vector<uint8_t> payload = Payload(64, 21);
  std::vector<uint8_t> frame;
  AppendFrame(FrameType::kRowBatch, payload, &frame);
  const auto set_size = [](std::vector<uint8_t>* f, uint32_t size) {
    for (int i = 0; i < 4; i++) {
      (*f)[1 + i] = static_cast<uint8_t>(size >> (8 * i));
    }
  };
  std::vector<uint8_t> first;

  // A size past kMaxFramePayload fails on the header, before any payload
  // buffer is sized from it.
  std::vector<uint8_t> huge(frame.begin(), frame.begin() + 13);
  set_size(&huge, static_cast<uint32_t>(kMaxFramePayload) + 1);
  std::vector<Status> st = ReadFramesFromPeer(huge, &first);
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].code(), StatusCode::kParseError) << st[0].ToString();

  // A valid header, then the peer closes mid-payload.
  std::vector<uint8_t> cut(frame.begin(), frame.begin() + 13 + 20);
  st = ReadFramesFromPeer(cut, &first);
  ASSERT_EQ(st.size(), 1u);
  EXPECT_NE(st[0].message().find("mid-frame"), std::string::npos)
      << st[0].ToString();

  // A size that undercounts the payload: the short frame fails its checksum,
  // whose seed folds in the size.
  std::vector<uint8_t> short_size = frame;
  set_size(&short_size, 32);
  st = ReadFramesFromPeer(short_size, &first);
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].code(), StatusCode::kParseError) << st[0].ToString();

  // The same lie with a checksum that matches the short frame: that frame
  // reads back as sent, and the read of the bytes that follow must fail
  // rather than end cleanly or misparse.
  const std::vector<uint8_t> head(payload.begin(), payload.begin() + 32);
  std::vector<uint8_t> resealed;
  AppendFrame(FrameType::kRowBatch, head, &resealed);
  resealed.insert(resealed.end(), payload.begin() + 32, payload.end());
  st = ReadFramesFromPeer(resealed, &first);
  ASSERT_EQ(st.size(), 2u);
  EXPECT_TRUE(st[0].ok()) << st[0].ToString();
  EXPECT_EQ(first, head);
  EXPECT_NE(st[1].code(), StatusCode::kOutOfRange) << st[1].ToString();

  // A wrong checksum.
  std::vector<uint8_t> bad_sum = frame;
  bad_sum[5] ^= 0x01;
  st = ReadFramesFromPeer(bad_sum, &first);
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].code(), StatusCode::kParseError) << st[0].ToString();
}

TEST(DistWireTest, UnknownFrameTypeRejected) {
  std::vector<uint8_t> stream;
  AppendFrame(FrameType::kHello, Payload(8, 3), &stream);
  std::vector<uint8_t> bad = stream;
  bad[0] = 0;  // below the valid range
  size_t consumed = 0;
  FrameType type;
  std::vector<uint8_t> decoded;
  EXPECT_FALSE(
      DecodeFrame(bad.data(), bad.size(), &consumed, &type, &decoded).ok());
  bad[0] = kMaxFrameType + 1;
  EXPECT_FALSE(
      DecodeFrame(bad.data(), bad.size(), &consumed, &type, &decoded).ok());
}

}  // namespace
}  // namespace jsontiles::dist
