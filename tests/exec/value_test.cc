// The 16-byte Value (its size is a static_assert in value.h): string
// payloads at the edges (empty, embedded NULs, 64 KiB) through hashing,
// comparison, grouping and formatting, and their byte-identical round trip
// through both users of the row codec (exec/row_codec.h): spill runs and
// wire row batches.

#include "exec/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dist/wire.h"
#include "exec/row_set.h"
#include "exec/spill.h"
#include "util/arena.h"
#include "util/hash.h"

namespace jsontiles::exec {
namespace {

// The string payloads under test: empty, embedded NULs, and 64 KiB. Kept
// alive for the whole run, since Values only view them.
const std::vector<std::string>& EdgeStrings() {
  static const std::vector<std::string>* strs = [] {
    std::string big(64 << 10, 'x');
    for (size_t i = 0; i < big.size(); i += 97) {
      big[i] = static_cast<char>('a' + i % 26);
    }
    return new std::vector<std::string>{
        std::string(), std::string("a\0b", 3), std::string(3, '\0'),
        std::string("a\0c", 3), big};
  }();
  return *strs;
}

TEST(ValueTest, DefaultIsNullWithEmptyString) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_TRUE(v.s().empty());
  EXPECT_EQ(v.s(), std::string_view());
  EXPECT_TRUE(Value::Null().s().empty());
  EXPECT_EQ(v.ToString(), "null");
}

TEST(ValueTest, StringKeepsPointerAndLength) {
  for (const std::string& str : EdgeStrings()) {
    const Value v = Value::String(str);
    EXPECT_EQ(v.type, ValueType::kString);
    EXPECT_EQ(v.s().data(), str.data());
    EXPECT_EQ(v.s().size(), str.size());
    EXPECT_EQ(v.string_value(), std::string_view(str));
    Value w = Value::Int(7);
    w.type = ValueType::kString;
    w.set_s(str);
    EXPECT_EQ(w.s(), std::string_view(str));
  }
}

TEST(ValueTest, EdgeStringsHashCompareGroupAndFormat) {
  const std::vector<std::string>& strs = EdgeStrings();
  for (size_t a = 0; a < strs.size(); a++) {
    const Value va = Value::String(strs[a]);
    EXPECT_EQ(va.Hash(), HashString(strs[a])) << a;
    EXPECT_EQ(va.ToString(), strs[a]) << a;
    for (size_t b = 0; b < strs.size(); b++) {
      // Equal content in a different buffer: same hash, equal, compare 0.
      const std::string copy = strs[b];
      const Value vb = Value::String(copy);
      const int expect = strs[a].compare(strs[b]);
      EXPECT_EQ(va.Compare(vb), expect < 0 ? -1 : expect > 0 ? 1 : 0)
          << a << "," << b;
      EXPECT_EQ(va.EqualsForGrouping(vb), strs[a] == strs[b]) << a << "," << b;
      if (strs[a] == strs[b]) {
        EXPECT_EQ(va.Hash(), vb.Hash()) << a;
      }
    }
    // Strings never group with or hash like numbers or nulls.
    EXPECT_FALSE(va.EqualsForGrouping(Value::Int(0)));
    EXPECT_FALSE(va.EqualsForGrouping(Value::Null()));
    EXPECT_EQ(va.Compare(Value::Null()), 1);
  }
}

RowSet EdgeRows() {
  RowSet rows(3);
  int64_t i = 0;
  for (const std::string& str : EdgeStrings()) {
    rows.push_back(Row{Value::Int(i++), Value::String(str),
                       Value::Num(Numeric{-125, 2})});
  }
  return rows;
}

void ExpectSameStrings(const RowSet& expected, const RowSet& actual) {
  ASSERT_EQ(actual.size(), expected.size());
  ASSERT_EQ(actual.width(), expected.width());
  for (size_t r = 0; r < expected.size(); r++) {
    EXPECT_EQ(actual[r][0].int_value(), expected[r][0].int_value());
    EXPECT_EQ(actual[r][1].type, ValueType::kString);
    EXPECT_EQ(actual[r][1].s(), expected[r][1].s()) << r;
    EXPECT_EQ(actual[r][2].numeric_value().unscaled, -125);
    EXPECT_EQ(actual[r][2].scale, 2);
  }
}

TEST(ValueTest, EdgeStringsRoundTripTheWireRowCodec) {
  const RowSet rows = EdgeRows();
  std::vector<uint8_t> bytes;
  dist::EncodeRowBatch(3, 1, rows, 0, rows.size(), &bytes);
  Arena arena;
  uint32_t fragment_id = 0;
  uint32_t epoch = 0;
  RowSet back;
  ASSERT_TRUE(
      dist::DecodeRowBatch(bytes, &arena, &fragment_id, &epoch, &back).ok());
  ExpectSameStrings(rows, back);
  std::vector<uint8_t> again;
  dist::EncodeRowBatch(3, 1, back, 0, back.size(), &again);
  EXPECT_EQ(again, bytes);
}

std::vector<uint8_t> SpillBytes(const RowSet& rows) {
  SpillFile file({}, nullptr);
  for (const auto& row : rows) EXPECT_TRUE(file.Add(row[0].Hash(), row).ok());
  EXPECT_TRUE(file.Finish().ok());
  std::vector<uint8_t> bytes(file.file().size());
  EXPECT_TRUE(file.file().ReadAt(0, bytes.data(), bytes.size()).ok());
  return bytes;
}

TEST(ValueTest, EdgeStringsRoundTripTheSpillCodec) {
  const RowSet rows = EdgeRows();
  SpillFile file({}, nullptr);
  for (const auto& row : rows) ASSERT_TRUE(file.Add(row[0].Hash(), row).ok());
  ASSERT_TRUE(file.Finish().ok());
  Arena arena;
  RowSet back;
  ASSERT_TRUE(file.ReadAll(&arena, &back).ok());
  ExpectSameStrings(rows, back);
  EXPECT_EQ(SpillBytes(back), SpillBytes(rows));
}

}  // namespace
}  // namespace jsontiles::exec
