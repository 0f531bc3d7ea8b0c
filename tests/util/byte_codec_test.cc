// The shared byte codec: every ByteReader getter fails cleanly at every
// truncation, varints are bounded at 10 bytes, a length can never wrap the
// bounds check, and the file helpers reject what is not a regular file and
// report a failing close.

#include "util/byte_codec.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace jsontiles {
namespace {

struct Field {
  const char* name;
  std::function<void(ByteWriter&)> write;
  std::function<bool(ByteReader&)> read;
};

std::vector<Field> Fields() {
  return {
      {"U8", [](ByteWriter& w) { w.U8(0xAB); },
       [](ByteReader& r) {
         uint8_t v;
         return r.U8(&v) && v == 0xAB;
       }},
      {"U16", [](ByteWriter& w) { w.U16(0xBEEF); },
       [](ByteReader& r) {
         uint16_t v;
         return r.U16(&v) && v == 0xBEEF;
       }},
      {"U32", [](ByteWriter& w) { w.U32(0xDEADBEEF); },
       [](ByteReader& r) {
         uint32_t v;
         return r.U32(&v) && v == 0xDEADBEEF;
       }},
      {"U64", [](ByteWriter& w) { w.U64(0x0123456789ABCDEF); },
       [](ByteReader& r) {
         uint64_t v;
         return r.U64(&v) && v == 0x0123456789ABCDEF;
       }},
      {"I64", [](ByteWriter& w) { w.I64(-42); },
       [](ByteReader& r) {
         int64_t v;
         return r.I64(&v) && v == -42;
       }},
      {"F64", [](ByteWriter& w) { w.F64(-2.5); },
       [](ByteReader& r) {
         double v;
         return r.F64(&v) && v == -2.5;
       }},
      {"Varint", [](ByteWriter& w) { w.Varint(UINT64_MAX); },
       [](ByteReader& r) {
         uint64_t v;
         return r.Varint(&v) && v == UINT64_MAX;
       }},
      {"SVarint", [](ByteWriter& w) { w.SVarint(INT64_MIN); },
       [](ByteReader& r) {
         int64_t v;
         return r.SVarint(&v) && v == INT64_MIN;
       }},
      {"Raw", [](ByteWriter& w) { w.Raw("abc", 3); },
       [](ByteReader& r) {
         const uint8_t* p;
         return r.Raw(3, &p) && std::string(p, p + 3) == "abc";
       }},
      {"Bytes", [](ByteWriter& w) { w.Bytes("xyz", 3); },
       [](ByteReader& r) {
         const uint8_t* p;
         size_t n;
         return r.Bytes(&p, &n) && std::string(p, p + n) == "xyz";
       }},
      {"Str", [](ByteWriter& w) { w.Str(std::string(200, 's')); },
       [](ByteReader& r) {
         std::string s;
         return r.Str(&s) && s == std::string(200, 's');
       }},
      {"StrView", [](ByteWriter& w) { w.Str("view"); },
       [](ByteReader& r) {
         std::string_view s;
         return r.StrView(&s) && s == "view";
       }},
  };
}

TEST(ByteReaderTest, EveryGetterFailsAtEveryTruncation) {
  for (const Field& field : Fields()) {
    std::vector<uint8_t> buf;
    ByteWriter w(&buf);
    field.write(w);
    {
      ByteReader r(buf.data(), buf.size());
      EXPECT_TRUE(field.read(r)) << field.name;
      EXPECT_TRUE(r.AtEnd()) << field.name;
    }
    for (size_t cut = 0; cut < buf.size(); cut++) {
      // A copy of exactly `cut` bytes: ASan sees any read past it.
      std::vector<uint8_t> prefix(buf.begin(), buf.begin() + cut);
      ByteReader r(prefix.data(), prefix.size());
      EXPECT_FALSE(field.read(r)) << field.name << " cut at " << cut;
    }
  }
}

TEST(ByteReaderTest, SequenceFailsAtEveryTruncation) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  const std::vector<Field> fields = Fields();
  for (const Field& field : fields) field.write(w);
  for (size_t cut = 0; cut <= buf.size(); cut++) {
    std::vector<uint8_t> prefix(buf.begin(), buf.begin() + cut);
    ByteReader r(prefix.data(), prefix.size());
    size_t read = 0;
    while (read < fields.size() && fields[read].read(r)) read++;
    EXPECT_EQ(read == fields.size(), cut == buf.size()) << "cut at " << cut;
  }
}

TEST(ByteReaderTest, FixedWidthIsLittleEndian) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.U16(0x0102);
  w.U32(0x03040506);
  EXPECT_EQ(buf, (std::vector<uint8_t>{0x02, 0x01, 0x06, 0x05, 0x04, 0x03}));
}

TEST(ByteReaderTest, TenByteVarintAccepted) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.Varint(UINT64_MAX);
  ASSERT_EQ(buf.size(), 10u);
  ByteReader r(buf.data(), buf.size());
  uint64_t v = 0;
  EXPECT_TRUE(r.Varint(&v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteReaderTest, ElevenByteVarintRejected) {
  // Ten continuation bytes, then a terminator: one byte too many.
  std::vector<uint8_t> buf(10, 0x80);
  buf.push_back(0x01);
  ByteReader r(buf.data(), buf.size());
  uint64_t v;
  EXPECT_FALSE(r.Varint(&v));
  size_t pos = 0;
  EXPECT_FALSE(ReadVarint(buf.data(), buf.size(), &pos, &v));
  EXPECT_LE(pos, 10u);
}

TEST(ByteReaderTest, ReadVarintStopsAtSize) {
  const uint8_t buf[] = {0x80, 0x80, 0x01};
  size_t pos = 0;
  uint64_t v;
  EXPECT_FALSE(ReadVarint(buf, 2, &pos, &v));
  EXPECT_EQ(pos, 2u);
  pos = 0;
  EXPECT_TRUE(ReadVarint(buf, 3, &pos, &v));
  EXPECT_EQ(v, uint64_t{1} << 14);
  EXPECT_EQ(pos, 3u);
}

// `prefix` filler bytes, the varint `length`, then `tail` bytes.
std::vector<uint8_t> LengthThen(size_t prefix, uint64_t length,
                                size_t tail) {
  std::vector<uint8_t> buf(prefix, 'p');
  ByteWriter w(&buf);
  w.Varint(length);
  buf.resize(buf.size() + tail, 't');
  return buf;
}

TEST(ByteReaderTest, LengthsThatWouldWrapAreRejected) {
  for (size_t prefix : {size_t{0}, size_t{1}, size_t{7}, size_t{20}}) {
    // Every length near 2^64 takes a 10-byte varint.
    const uint64_t after = prefix + 10;
    const size_t tail = 5;
    const uint64_t lengths[] = {
        UINT64_MAX,
        0 - after,          // pos + n wraps to exactly 0
        0 - after + 3,      // pos + n wraps to 3 <= size
        uint64_t{tail} + 1  // one byte past the end
    };
    for (uint64_t length : lengths) {
      const std::vector<uint8_t> buf = LengthThen(prefix, length, tail);
      ByteReader r(buf.data(), buf.size());
      const uint8_t* skip;
      ASSERT_TRUE(r.Raw(prefix, &skip));
      ByteReader bytes = r, str = r, view = r;
      const uint8_t* p;
      size_t n;
      std::string s;
      std::string_view sv;
      EXPECT_FALSE(bytes.Bytes(&p, &n)) << length;
      EXPECT_FALSE(str.Str(&s)) << length;
      EXPECT_FALSE(view.StrView(&sv)) << length;
    }
    // The exact length is accepted and consumes everything.
    const std::vector<uint8_t> buf = LengthThen(prefix, tail, tail);
    ByteReader r(buf.data(), buf.size());
    const uint8_t* p;
    size_t n;
    ASSERT_TRUE(r.Raw(prefix, &p));
    EXPECT_TRUE(r.Bytes(&p, &n));
    EXPECT_EQ(n, tail);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(ByteReaderTest, RawRejectsHugeCounts) {
  const uint8_t buf[4] = {1, 2, 3, 4};
  ByteReader r(buf, sizeof(buf));
  const uint8_t* p;
  ASSERT_TRUE(r.Raw(1, &p));
  EXPECT_FALSE(r.Raw(UINT64_MAX, &p));
  EXPECT_FALSE(r.Raw(uint64_t{1} << 63, &p));
  EXPECT_FALSE(r.Raw(4, &p));
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_TRUE(r.Raw(3, &p));
  EXPECT_TRUE(r.AtEnd());
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/byte_codec_" + name;
}

TEST(ByteFileTest, RoundTrip) {
  const std::string path = TempPath("round_trip");
  const std::vector<uint8_t> bytes = {0, 1, 2, 255};
  ASSERT_TRUE(WriteFile(path, bytes.data(), bytes.size()).ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.ValueOrDie(), bytes);
  ASSERT_TRUE(WriteFile(path, nullptr, 0).ok());
  read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.ValueOrDie().empty());
  std::remove(path.c_str());
}

TEST(ByteFileTest, MissingFileIsNotFound) {
  auto read = ReadFile(TempPath("does_not_exist"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(ByteFileTest, DirectoryRejected) {
  EXPECT_FALSE(ReadFile(::testing::TempDir()).ok());
  EXPECT_FALSE(ReadFile("/").ok());
  const uint8_t byte = 0;
  EXPECT_FALSE(WriteFile(::testing::TempDir(), &byte, 1).ok());
}

TEST(ByteFileTest, DeviceRejectedOnRead) {
  EXPECT_FALSE(ReadFile("/dev/null").ok());
}

TEST(ByteFileTest, FullDeviceFailsWrite) {
  // /dev/full accepts the open and the buffered write; the error arrives
  // when the buffer is flushed at close.
  const uint8_t byte = 0;
  EXPECT_FALSE(WriteFile("/dev/full", &byte, 1).ok());
  const std::vector<uint8_t> big(1 << 20, 7);
  EXPECT_FALSE(WriteFile("/dev/full", big.data(), big.size()).ok());
}

}  // namespace
}  // namespace jsontiles
