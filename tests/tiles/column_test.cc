#include "tiles/column.h"

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace jsontiles::tiles {
namespace {

const uint8_t* Bytes(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

// The view of `needle` inside `doc` (string columns reference their values
// inside the row's document).
std::string_view Find(const std::string& doc, std::string_view needle) {
  const size_t pos = doc.find(needle);
  EXPECT_NE(pos, std::string::npos) << needle;
  return std::string_view(doc).substr(pos, needle.size());
}

std::vector<int64_t> ReadAllInts(const Column& col) {
  std::vector<int64_t> out(col.size());
  col.ReadInts(0, col.size(), out.data());
  return out;
}

TEST(ColumnTest, IntAppendAndGet) {
  Column col(ColumnType::kInt64);
  col.AppendInt(5);
  col.AppendNull();
  col.AppendInt(-7);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.GetInt(0), 5);
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(2));
  EXPECT_EQ(col.GetInt(2), -7);
  EXPECT_EQ(col.null_count(), 1u);
}

TEST(ColumnTest, FloatColumn) {
  Column col(ColumnType::kFloat64);
  col.AppendFloat(1.5);
  col.AppendNull();
  EXPECT_DOUBLE_EQ(col.GetFloat(0), 1.5);
  EXPECT_TRUE(col.IsNull(1));
}

TEST(ColumnTest, BoolColumn) {
  Column col(ColumnType::kBool);
  col.AppendBool(true);
  col.AppendBool(false);
  EXPECT_TRUE(col.GetBool(0));
  EXPECT_FALSE(col.GetBool(1));
}

// Bools are one bit each in words; bulk reads cross word boundaries.
TEST(ColumnTest, BoolsArePackedBits) {
  Column col(ColumnType::kBool);
  for (size_t r = 0; r < 130; r++) {
    if (r % 7 == 3) {
      col.AppendNull();
    } else {
      col.AppendBool(r % 3 == 0);
    }
  }
  EXPECT_EQ(col.parts().bools.size(), 3u);
  EXPECT_EQ(col.parts().validity.size(), 3u);
  std::vector<int64_t> out(100, -1);
  std::vector<uint8_t> nulls(100, 9);
  col.ReadBools(20, 100, out.data());
  col.ReadNulls(20, 100, nulls.data());
  for (size_t k = 0; k < 100; k++) {
    const size_t r = 20 + k;
    EXPECT_EQ(nulls[k], r % 7 == 3 ? 1 : 0) << r;
    EXPECT_EQ(out[k], r % 7 != 3 && r % 3 == 0 ? 1 : 0) << r;
    EXPECT_EQ(col.GetBool(r), out[k] == 1) << r;
  }
}

TEST(ColumnTest, StringColumnReferencesDocuments) {
  const std::string doc0 = "..hello..";
  const std::string doc1 = "x";
  const std::string doc2 = "{}";
  const std::string doc3 = "a document with the word world in it";
  Column col(ColumnType::kString);
  col.AppendString(Bytes(doc0), Find(doc0, "hello"));
  col.AppendString(Bytes(doc1), std::string_view(doc1).substr(1));  // empty
  col.AppendNull();
  col.AppendString(Bytes(doc3), Find(doc3, "world"));
  EXPECT_EQ(col.GetString(0, Bytes(doc0)), "hello");
  EXPECT_EQ(col.GetString(1, Bytes(doc1)), "");
  EXPECT_TRUE(col.IsNull(2));
  EXPECT_EQ(col.GetString(3, Bytes(doc3)), "world");
  // The values are not copied: reads point into the documents.
  EXPECT_EQ(col.GetString(0, Bytes(doc0)).data(), doc0.data() + 2);
  EXPECT_EQ(col.GetString(3, Bytes(doc3)).data(), doc3.data() + 25);

  const uint8_t* docs[] = {Bytes(doc0), Bytes(doc1), Bytes(doc2), Bytes(doc3)};
  std::string_view out[4];
  col.ReadStrings(0, 4, docs, out);
  EXPECT_EQ(out[0], "hello");
  EXPECT_EQ(out[1], "");
  EXPECT_EQ(out[2], "");  // null lane: empty
  EXPECT_EQ(out[3], "world");

  const size_t sizes[] = {doc0.size(), doc1.size(), doc2.size(), doc3.size()};
  EXPECT_TRUE(col.ValidStringRefs(sizes));
  const size_t short_doc3[] = {doc0.size(), doc1.size(), doc2.size(), 29};
  EXPECT_FALSE(col.ValidStringRefs(short_doc3));
}

TEST(ColumnTest, NumericColumnKeepsScale) {
  Column col(ColumnType::kNumeric);
  col.AppendNumeric(Numeric{1999, 2});
  col.AppendNumeric(Numeric{-5, 1});
  EXPECT_EQ(col.GetNumeric(0).ToString(), "19.99");
  EXPECT_EQ(col.GetNumeric(1).ToString(), "-0.5");
}

TEST(ColumnTest, NumericSharedScaleIsStoredOnce) {
  Column col(ColumnType::kNumeric);
  col.AppendNull();
  for (int64_t v = 0; v < 100; v++) col.AppendNumeric(Numeric{1000 + v, 2});
  col.AppendNull();
  EXPECT_EQ(col.parts().scales.size(), 1u);
  EXPECT_EQ(col.parts().scales[0], 2);
  std::vector<int64_t> unscaled(col.size());
  std::vector<uint8_t> scales(col.size());
  col.ReadNumerics(0, col.size(), unscaled.data(), scales.data());
  EXPECT_EQ(unscaled[0], 0);  // null lanes: 0 with scale 0
  EXPECT_EQ(scales[0], 0);
  EXPECT_EQ(unscaled[101], 0);
  EXPECT_EQ(scales[101], 0);
  for (int64_t v = 0; v < 100; v++) {
    EXPECT_EQ(unscaled[v + 1], 1000 + v);
    EXPECT_EQ(scales[v + 1], 2);
  }
}

TEST(ColumnTest, NumericMixedScalesStoredPerRow) {
  Column col(ColumnType::kNumeric);
  col.AppendNumeric(Numeric{1999, 2});
  col.AppendNull();
  col.AppendNumeric(Numeric{1999, 2});
  col.AppendNumeric(Numeric{-5, 1});
  col.AppendNumeric(Numeric{7, 0});
  ASSERT_EQ(col.parts().scales.size(), col.size());
  std::vector<int64_t> unscaled(5);
  std::vector<uint8_t> scales(5);
  col.ReadNumerics(0, 5, unscaled.data(), scales.data());
  EXPECT_EQ(unscaled, (std::vector<int64_t>{1999, 0, 1999, -5, 7}));
  EXPECT_EQ(scales, (std::vector<uint8_t>{2, 0, 2, 1, 0}));
  EXPECT_EQ(col.GetNumeric(3).ToString(), "-0.5");
  // An update to a third scale keeps every other row.
  col.SetNumeric(1, Numeric{12345, 3});
  EXPECT_EQ(col.GetNumeric(1).ToString(), "12.345");
  EXPECT_EQ(col.GetNumeric(0).ToString(), "19.99");
  EXPECT_EQ(col.GetNumeric(4).ToString(), "7");
}

TEST(ColumnTest, TimestampColumn) {
  Column col(ColumnType::kTimestamp);
  Timestamp ts = MakeTimestamp(2020, 6, 1, 12, 0, 0);
  col.AppendTimestamp(ts);
  EXPECT_EQ(col.GetTimestamp(0), ts);
}

// Integers pack at the tile's minimal width for their range.
TEST(ColumnTest, EveryIntWidth) {
  struct Case {
    std::vector<int64_t> values;
    uint8_t width;
  };
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<Case> cases = {
      {{42, 42, 42}, 0},
      {{-100, 0, 155}, 1},
      {{1000, 1000 + 65535, 1001}, 2},
      {{-1, 4294967294}, 4},
      {{kMin + 5, kMin, kMin + 255}, 1},
      {{kMax, kMax - 65535}, 2},
      {{0, 4294967296}, 8},
      {{kMin, kMax, 0, -1, 1}, 8},
  };
  for (const Case& c : cases) {
    Column col(ColumnType::kInt64);
    for (int64_t v : c.values) col.AppendInt(v);
    EXPECT_EQ(col.parts().ints.width, c.width) << c.values[0];
    EXPECT_EQ(col.parts().ints.deltas.size(), c.values.size() * c.width);
    EXPECT_EQ(ReadAllInts(col), c.values);
    for (size_t r = 0; r < c.values.size(); r++) {
      EXPECT_EQ(col.GetInt(r), c.values[r]);
    }
  }
}

// Rising and falling runs keep the minimal width, and bulk reads at any
// offset agree with the per-row getter.
TEST(ColumnTest, RunsKeepMinimalWidth) {
  for (int64_t step : {1, -1, 3, -257}) {
    Column col(ColumnType::kTimestamp);
    std::vector<int64_t> want;
    for (int64_t i = 0; i < 1024; i++) {
      want.push_back(1'600'000'000 + i * step);
      col.AppendTimestamp(want.back());
    }
    const uint64_t range = static_cast<uint64_t>(1023 * std::abs(step));
    EXPECT_EQ(col.parts().ints.width, PackedInts::WidthFor(range)) << step;
    EXPECT_EQ(ReadAllInts(col), want);
    std::vector<int64_t> part(300);
    col.ReadInts(517, 300, part.data());
    for (size_t k = 0; k < 300; k++) EXPECT_EQ(part[k], col.GetInt(517 + k));
  }
}

TEST(ColumnTest, AllNullColumns) {
  for (ColumnType type :
       {ColumnType::kBool, ColumnType::kInt64, ColumnType::kFloat64,
        ColumnType::kString, ColumnType::kTimestamp, ColumnType::kNumeric}) {
    Column col(type);
    for (int i = 0; i < 70; i++) col.AppendNull();
    EXPECT_EQ(col.null_count(), 70u) << ColumnTypeName(type);
    EXPECT_EQ(col.parts().ints.width, 0);
    EXPECT_EQ(col.parts().lens.width, 0);
    std::vector<uint8_t> nulls(70);
    col.ReadNulls(0, 70, nulls.data());
    for (uint8_t n : nulls) EXPECT_EQ(n, 1);
    std::vector<int64_t> ints(70, -1);
    std::vector<uint8_t> scales(70, 9);
    switch (type) {
      case ColumnType::kBool:
        col.ReadBools(0, 70, ints.data());
        break;
      case ColumnType::kInt64:
      case ColumnType::kTimestamp:
        col.ReadInts(0, 70, ints.data());
        break;
      case ColumnType::kNumeric:
        col.ReadNumerics(0, 70, ints.data(), scales.data());
        for (uint8_t s : scales) EXPECT_EQ(s, 0);
        break;
      case ColumnType::kFloat64: {
        std::vector<double> floats(70, -1);
        col.ReadFloats(0, 70, floats.data());
        for (double f : floats) EXPECT_EQ(f, 0);
        std::fill(ints.begin(), ints.end(), 0);
        break;
      }
      case ColumnType::kString: {
        const std::string doc = "{}";
        std::vector<const uint8_t*> docs(70, Bytes(doc));
        std::vector<std::string_view> out(70, "x");
        col.ReadStrings(0, 70, docs.data(), out.data());
        for (std::string_view s : out) EXPECT_TRUE(s.empty());
        std::fill(ints.begin(), ints.end(), 0);
        break;
      }
    }
    for (int64_t v : ints) EXPECT_EQ(v, 0) << ColumnTypeName(type);
  }
}

// Null lanes between values read as 0 / empty in every bulk read.
TEST(ColumnTest, NullLanesReadAsZeroOrEmpty) {
  const std::string doc = R"({"k":"value"})";
  Column ints(ColumnType::kInt64);
  Column strings(ColumnType::kString);
  Column floats(ColumnType::kFloat64);
  for (size_t r = 0; r < 200; r++) {
    if (r % 5 == 1) {
      ints.AppendNull();
      strings.AppendNull();
      floats.AppendNull();
    } else {
      ints.AppendInt(1'000'000 + static_cast<int64_t>(r));
      strings.AppendString(Bytes(doc), Find(doc, "value"));
      floats.AppendFloat(0.5);
    }
  }
  // Turning values into nulls keeps the zero payload too.
  ints.SetNull(10);
  strings.SetNull(10);
  floats.SetNull(10);
  std::vector<int64_t> iv(150);
  std::vector<double> fv(150);
  std::vector<std::string_view> sv(150);
  std::vector<const uint8_t*> docs(150, Bytes(doc));
  ints.ReadInts(3, 150, iv.data());
  floats.ReadFloats(3, 150, fv.data());
  strings.ReadStrings(3, 150, docs.data(), sv.data());
  for (size_t k = 0; k < 150; k++) {
    const size_t r = 3 + k;
    const bool null = r % 5 == 1 || r == 10;
    EXPECT_EQ(iv[k], null ? 0 : 1'000'000 + static_cast<int64_t>(r)) << r;
    EXPECT_EQ(fv[k], null ? 0.0 : 0.5) << r;
    EXPECT_EQ(sv[k], null ? "" : "value") << r;
    EXPECT_EQ(ints.GetInt(r), iv[k]);
  }
}

TEST(ColumnTest, InPlaceUpdates) {
  Column col(ColumnType::kInt64);
  col.AppendInt(1);
  col.AppendNull();
  col.SetInt(1, 42);  // null -> value
  EXPECT_FALSE(col.IsNull(1));
  EXPECT_EQ(col.GetInt(1), 42);
  EXPECT_EQ(col.null_count(), 0u);
  col.SetNull(0);  // value -> null
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_EQ(col.null_count(), 1u);
  col.SetNull(0);  // idempotent
  EXPECT_EQ(col.null_count(), 1u);
}

// §4.7: a value outside the tile's frame re-packs the column wider and
// keeps every other row.
TEST(ColumnTest, SetIntOutsideRangeRepacksWider) {
  Column col(ColumnType::kInt64);
  std::vector<int64_t> want;
  for (int64_t i = 0; i < 300; i++) {
    if (i % 4 == 0) {
      col.AppendNull();
      want.push_back(0);
    } else {
      col.AppendInt(i % 200);
      want.push_back(i % 200);
    }
  }
  ASSERT_EQ(col.parts().ints.width, 1);
  col.SetInt(7, -5'000'000'000);
  want[7] = -5'000'000'000;
  EXPECT_EQ(col.parts().ints.width, 8);
  col.SetInt(8, 70'000);  // null -> value, inside the new frame
  want[8] = 70'000;
  EXPECT_EQ(ReadAllInts(col), want);
  EXPECT_EQ(col.null_count(), 74u);
}

// §4.7: an updated string re-points into the row's new document; the other
// rows keep referencing theirs.
TEST(ColumnTest, SetStringRepointsIntoNewDocument) {
  const std::string doc0 = R"({"t":"aaa"})";
  const std::string doc1 = R"({"t":"bbb"})";
  Column col(ColumnType::kString);
  col.AppendString(Bytes(doc0), Find(doc0, "aaa"));
  col.AppendString(Bytes(doc1), Find(doc1, "bbb"));
  const std::string replacement =
      std::string(300, ' ') + R"({"t":"a-much-longer-replacement"})";
  col.SetString(0, Bytes(replacement),
                Find(replacement, "a-much-longer-replacement"));
  EXPECT_EQ(col.GetString(0, Bytes(replacement)), "a-much-longer-replacement");
  EXPECT_EQ(col.GetString(1, Bytes(doc1)), "bbb");  // untouched
  EXPECT_EQ(col.parts().ints.width, 2);  // offset 306 needs two bytes
}

// MemoryBytes counts exactly the bytes of the column's buffers.
TEST(ColumnTest, MemoryAccounting) {
  const std::string doc(40, 'x');
  Column strings(ColumnType::kString);
  for (int i = 0; i < 100; i++) {
    strings.AppendString(Bytes(doc), std::string_view(doc).substr(i % 30, 10));
  }
  // 2 validity words; offsets 0..29 in one byte; all lengths 10 in none.
  EXPECT_EQ(strings.MemoryBytes(), 2 * 8 + 100 * 1 + 0u);

  Column ints(ColumnType::kInt64);
  for (int i = 0; i < 1000; i++) ints.AppendInt(i * 60);
  EXPECT_EQ(ints.MemoryBytes(), 16 * 8 + 1000 * 2u);

  Column bools(ColumnType::kBool);
  for (int i = 0; i < 65; i++) bools.AppendBool(i % 2 == 0);
  EXPECT_EQ(bools.MemoryBytes(), 2 * 8 + 2 * 8u);

  Column floats(ColumnType::kFloat64);
  for (int i = 0; i < 10; i++) floats.AppendFloat(i);
  EXPECT_EQ(floats.MemoryBytes(), 8 + 10 * 8u);

  Column shared(ColumnType::kNumeric);
  for (int i = 0; i < 10; i++) shared.AppendNumeric(Numeric{i, 2});
  EXPECT_EQ(shared.MemoryBytes(), 8 + 10 * 1 + 1u);
  shared.AppendNumeric(Numeric{10, 3});
  EXPECT_EQ(shared.MemoryBytes(), 8 + 11 * 1 + 11u);
}

// Random appends, updates and nulls: bulk reads at random offsets agree
// with the values written.
TEST(ColumnTest, RandomAppendsAndUpdatesRoundTrip) {
  Random rng(20);
  for (int round = 0; round < 20; round++) {
    Column col(ColumnType::kInt64);
    std::vector<int64_t> want;
    const int64_t spread = int64_t{1} << rng.Uniform(63);
    for (int i = 0; i < 500; i++) {
      if (rng.Uniform(6) == 0) {
        col.AppendNull();
        want.push_back(0);
      } else {
        want.push_back(static_cast<int64_t>(rng.Uniform(spread)) - spread / 2);
        col.AppendInt(want.back());
      }
    }
    for (int i = 0; i < 50; i++) {
      const size_t r = rng.Uniform(want.size());
      if (rng.Uniform(3) == 0) {
        col.SetNull(r);
        want[r] = 0;
      } else {
        want[r] = static_cast<int64_t>(rng.Next());
        col.SetInt(r, want[r]);
      }
    }
    EXPECT_EQ(ReadAllInts(col), want) << round;
    const size_t begin = rng.Uniform(want.size());
    std::vector<int64_t> part(want.size() - begin);
    col.ReadInts(begin, part.size(), part.data());
    for (size_t k = 0; k < part.size(); k++) {
      EXPECT_EQ(part[k], want[begin + k]);
    }
  }
}

}  // namespace
}  // namespace jsontiles::tiles
