// Byte-level pins of the two users of the one row codec (exec/row_codec.h):
// the dist wire row batch and the spill run format. The spill records were
// captured from the row-per-vector RowSet implementation; the flat RowSet
// must encode the same rows byte for byte and decode them back to equal
// rows, and a spilled record must carry its row exactly as a row batch does.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dist/wire.h"
#include "exec/row_set.h"
#include "exec/spill.h"
#include "util/arena.h"

namespace jsontiles::exec {
namespace {

// clang-format off
// Wire row batch, version 6: [u32 fragment][u32 epoch][u32 rows], then each
// row as exec/row_codec.h writes it.
const std::vector<uint8_t> kWireMixed = {
    0x07, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x05, 0x00, 0x02, 0x00, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0xbf, 0x06, 0x02,
    0x39, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x05, 0x00,
    0x00, 0x00, 0x68, 0x65, 0x6c, 0x6c, 0x6f, 0x01, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, 0x06, 0x00, 0xf9, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05,
    0x00, 0x00, 0x40, 0x1e, 0x18, 0x24, 0x0a, 0x06, 0x00, 0x05, 0x00, 0x02,
    0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00,
    0x00, 0x04, 0x00, 0x0b, 0x00, 0x00, 0x00, 0x63, 0x61, 0x66, 0xc3, 0xa9,
    0x20, 0x74, 0x69, 0x6c, 0x65, 0x73, 0x00, 0x00,
};
const std::vector<uint8_t> kWireZeroWidth = {
    0x07, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
};
// Spill runs: one block, [u32 size] and the records. Each fixture is the
// block header's size and lz4::Decompress of the payload of the fixture it
// replaces (the LZ4-framed run, 152 and 30 raw bytes), so the record bytes
// are unchanged since spill stopped compressing.
const std::vector<uint8_t> kSpillMixed = {
    0x98, 0x00, 0x00, 0x00, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,
    0x05, 0x00, 0x02, 0x00, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0xbf, 0x06, 0x02,
    0x39, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x05, 0x00,
    0x00, 0x00, 0x68, 0x65, 0x6c, 0x6c, 0x6f, 0x01, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45,
    0x23, 0x05, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xd0, 0x3f, 0x06, 0x00, 0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x40, 0x1e,
    0x18, 0x24, 0x0a, 0x06, 0x00, 0x0f, 0x0f, 0xf0, 0xcd, 0xab, 0x89, 0x67,
    0x45, 0x05, 0x00, 0x02, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x0b, 0x00, 0x00, 0x00, 0x63,
    0x61, 0x66, 0xc3, 0xa9, 0x20, 0x74, 0x69, 0x6c, 0x65, 0x73, 0x00, 0x00,
};
const std::vector<uint8_t> kSpillZeroWidth = {
    0x1e, 0x00, 0x00, 0x00, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,
    0x00, 0x00, 0xf8, 0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x00, 0x00,
    0x0f, 0x0f, 0xf0, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x00, 0x00,
};
// clang-format on

// Ints, floats, numerics, nulls, empty and non-empty strings, a bool and a
// timestamp.
RowSet Mixed() {
  return {
      {Value::Int(42), Value::Float(-1.5), Value::Num(Numeric{12345, 2}),
       Value::String("hello"), Value::Bool(true)},
      {Value::Null(), Value::Float(0.25), Value::Num(Numeric{-7, 0}),
       Value::String(""), Value::Ts(1700000000000000)},
      {Value::Int(-1), Value::Null(), Value::Null(),
       Value::String("caf\xc3\xa9 tiles"), Value::Null()},
  };
}

// Three rows of no columns (COUNT(*) with no accesses).
RowSet ZeroWidth() { return {{}, {}, {}}; }

// Exact identity: type tag, numeric scale and payload bits.
void ExpectSameRows(const RowSet& expected, const RowSet& actual) {
  ASSERT_EQ(actual.size(), expected.size());
  ASSERT_EQ(actual.width(), expected.width());
  for (size_t r = 0; r < expected.size(); r++) {
    for (size_t c = 0; c < expected.width(); c++) {
      const Value& a = actual[r][c];
      const Value& e = expected[r][c];
      EXPECT_EQ(a.type, e.type) << r << "," << c;
      EXPECT_EQ(a.scale, e.scale) << r << "," << c;
      if (e.type == ValueType::kString) {
        EXPECT_EQ(a.s(), e.s()) << r << "," << c;
      } else if (e.type != ValueType::kNull) {
        EXPECT_EQ(a.i, e.i) << r << "," << c;
      }
    }
  }
}

void CheckWire(const RowSet& rows, const std::vector<uint8_t>& golden) {
  std::vector<uint8_t> buf;
  dist::EncodeRowBatch(7, 2, rows, 0, rows.size(), &buf);
  EXPECT_EQ(buf, golden);
  Arena arena;
  uint32_t fragment_id = 0;
  uint32_t epoch = 0;
  RowSet back;
  ASSERT_TRUE(
      dist::DecodeRowBatch(golden, &arena, &fragment_id, &epoch, &back).ok());
  EXPECT_EQ(fragment_id, 7u);
  EXPECT_EQ(epoch, 2u);
  ExpectSameRows(rows, back);
}

// Spill records carry a 64-bit hash each: a fixed sequence here.
std::vector<uint64_t> Hashes(size_t n) {
  std::vector<uint64_t> hashes;
  for (uint64_t h = 0x0123456789abcdefull; hashes.size() < n; h = h * 31 + 7) {
    hashes.push_back(h);
  }
  return hashes;
}

void FillSpill(const RowSet& rows, SpillFile* file) {
  const std::vector<uint64_t> hashes = Hashes(rows.size());
  for (size_t i = 0; i < rows.size(); i++) {
    ASSERT_TRUE(file->Add(hashes[i], rows[i]).ok());
  }
  ASSERT_TRUE(file->Finish().ok());
}

std::vector<uint8_t> RunBytes(const SpillFile& file) {
  std::vector<uint8_t> bytes(file.file().size());
  EXPECT_TRUE(file.file().ReadAt(0, bytes.data(), bytes.size()).ok());
  return bytes;
}

void CheckSpill(const RowSet& rows, const std::vector<uint8_t>& golden) {
  SpillFile file({}, nullptr);
  FillSpill(rows, &file);
  const std::vector<uint64_t> hashes = Hashes(rows.size());
  EXPECT_EQ(RunBytes(file), golden);

  Arena arena;
  RowSet back;
  ASSERT_TRUE(file.ReadAll(&arena, &back).ok());
  ExpectSameRows(rows, back);
  size_t i = 0;
  ASSERT_TRUE(file.ForEach(&arena, [&](uint64_t hash, RowView) {
                    EXPECT_EQ(hash, hashes[i++]);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(i, rows.size());
}

TEST(RowCodecGoldenTest, WireRowBatchMixed) { CheckWire(Mixed(), kWireMixed); }

TEST(RowCodecGoldenTest, WireRowBatchZeroWidth) {
  CheckWire(ZeroWidth(), kWireZeroWidth);
}

TEST(RowCodecGoldenTest, SpillRunMixed) { CheckSpill(Mixed(), kSpillMixed); }

TEST(RowCodecGoldenTest, SpillRunZeroWidth) {
  CheckSpill(ZeroWidth(), kSpillZeroWidth);
}

// One codec: after the block's [u32 size], each spill record is its u64 hash
// followed by exactly the bytes its row has inside a wire row batch (the
// batch's 12-byte [fragment][epoch][rows] header aside).
TEST(RowCodecGoldenTest, SpillRecordIsWireRowAfterItsHash) {
  for (const RowSet& rows : {Mixed(), ZeroWidth()}) {
    SpillFile file({}, nullptr);
    FillSpill(rows, &file);
    const std::vector<uint64_t> hashes = Hashes(rows.size());
    std::vector<uint8_t> records;
    for (size_t i = 0; i < rows.size(); i++) {
      const auto* h = reinterpret_cast<const uint8_t*>(&hashes[i]);
      records.insert(records.end(), h, h + sizeof(uint64_t));
      std::vector<uint8_t> batch;
      dist::EncodeRowBatch(0, 0, rows, i, i + 1, &batch);
      records.insert(records.end(), batch.begin() + 12, batch.end());
    }
    const std::vector<uint8_t> run = RunBytes(file);
    EXPECT_EQ(std::vector<uint8_t>(run.begin() + 4, run.end()), records);
  }
}

}  // namespace
}  // namespace jsontiles::exec
