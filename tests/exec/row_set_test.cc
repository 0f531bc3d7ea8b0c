// Flat RowSet container: widths, views, appends and in-place edits.

#include "exec/row_set.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace jsontiles::exec {
namespace {

std::vector<int64_t> Ints(RowView row) {
  std::vector<int64_t> out;
  for (const Value& v : row) out.push_back(v.int_value());
  return out;
}

using Ints2 = std::vector<std::vector<int64_t>>;

Ints2 AllInts(const RowSet& rows) {
  Ints2 out;
  for (const auto& row : rows) out.push_back(Ints(row));
  return out;
}

TEST(RowSetTest, ZeroWidthRowsKeepTheirCount) {
  RowSet rows(0);
  for (int i = 0; i < 5; i++) rows.AppendRow(0);
  rows.push_back(Row{});
  EXPECT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows.width(), 0u);
  EXPECT_TRUE(rows.values().empty());
  size_t seen = 0;
  for (const auto& row : rows) {
    EXPECT_EQ(row.size(), 0u);
    seen++;
  }
  EXPECT_EQ(seen, 6u);
  rows.resize(2);
  EXPECT_EQ(rows.size(), 2u);
}

TEST(RowSetTest, InitializerListConstruction) {
  RowSet rows = {{Value::Int(1), Value::Int(2)},
                 {Value::Int(3), Value::Int(4)},
                 {Value::Int(5), Value::Int(6)}};
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.width(), 2u);
  EXPECT_EQ(rows.values().size(), 6u);
  EXPECT_EQ(AllInts(rows), (Ints2{{1, 2}, {3, 4}, {5, 6}}));
  EXPECT_EQ(rows[1].data(), rows.values().data() + 2);  // one flat array

  RowSet empty = {};
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.width(), 0u);
}

TEST(RowSetTest, AppendViewFromAnotherRowSet) {
  const RowSet src = {{Value::Int(1), Value::Int(2)},
                      {Value::Int(3), Value::Int(4)}};
  RowSet dst;
  dst.push_back(src[1]);
  dst.push_back(src[0]);
  dst.push_back({Value::Int(7), Value::Int(8)});
  EXPECT_EQ(AllInts(dst), (Ints2{{3, 4}, {1, 2}, {7, 8}}));
  // A copy, not an alias.
  EXPECT_NE(dst[0].data(), src[1].data());

  RowSet bulk;
  bulk.Append(src);
  bulk.Append(dst);
  EXPECT_EQ(AllInts(bulk), (Ints2{{1, 2}, {3, 4}, {3, 4}, {1, 2}, {7, 8}}));
}

TEST(RowSetTest, ConcatenatesTwoViewsIntoOneRow) {
  const RowSet probe = {{Value::Int(1)}, {Value::Int(2)}};
  const RowSet build = {{Value::Int(10), Value::Int(11)}};
  RowSet out;
  out.AppendConcat(probe[0], build[0]);
  out.AppendConcat(probe[1], build[0]);
  out.AppendPadded(probe[1], build.width());
  ASSERT_EQ(out.width(), 3u);
  EXPECT_EQ(AllInts(out), (Ints2{{1, 10, 11}, {2, 10, 11}, {2, 0, 0}}));
  EXPECT_TRUE(out[2][1].is_null());
  EXPECT_TRUE(out[2][2].is_null());
}

TEST(RowSetTest, ReverseIteration) {
  RowSet rows = {{Value::String("first")}, {Value::String("second")},
                 {Value::String("third")}};
  std::vector<std::string_view> seen;
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    seen.push_back((*it)[0].string_value());
  }
  EXPECT_EQ(seen, (std::vector<std::string_view>{"third", "second", "first"}));
  const RowSet& crows = rows;
  EXPECT_EQ((*crows.rbegin())[0].string_value(), "third");
}

TEST(RowSetTest, InPlaceFilterCompaction) {
  RowSet rows;
  for (int64_t i = 0; i < 10; i++) {
    rows.push_back({Value::Int(i), Value::Int(-i)});
  }
  size_t kept = 0;
  for (size_t r = 0; r < rows.size(); r++) {
    if (rows[r][0].int_value() % 3 == 0) rows.CopyRow(kept++, r);
  }
  rows.resize(kept);
  EXPECT_EQ(AllInts(rows), (Ints2{{0, 0}, {3, -3}, {6, -6}, {9, -9}}));
  EXPECT_EQ(rows.values().size(), 8u);
}

TEST(RowSetTest, LimitTruncates) {
  RowSet rows = {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(3)}};
  rows.resize(2);
  EXPECT_EQ(AllInts(rows), (Ints2{{1}, {2}}));
  rows.resize(0);
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(rows.width(), 1u);  // the width outlives the rows
}

TEST(RowSetTest, BatchGrowthAndTailCompaction) {
  // The scan's write pattern: grow once for a batch, fill the new rows in
  // place, then compact away the rejected ones behind the earlier rows.
  RowSet rows(2);
  rows.push_back({Value::Int(1), Value::Int(-1)});
  const size_t first = rows.size();
  rows.resize(first + 5);
  EXPECT_TRUE(rows[first][0].is_null());  // grown rows start out null
  for (size_t k = 0; k < 5; k++) {
    RowRef row = rows[first + k];
    row[0] = Value::Int(static_cast<int64_t>(10 + k));
    row[1] = Value::Int(-static_cast<int64_t>(10 + k));
  }
  // Reject the batch's first, middle and last rows.
  size_t kept = first;
  for (size_t r = first; r < rows.size(); r++) {
    const int64_t v = rows[r][0].int_value();
    if (v != 10 && v != 12 && v != 14) rows.CopyRow(kept++, r);
  }
  rows.resize(kept);
  EXPECT_EQ(AllInts(rows), (Ints2{{1, -1}, {11, -11}, {13, -13}}));
  EXPECT_EQ(rows.values().size(), 6u);
  for (RowRef r : rows) r[1] = Value::Int(60);
  EXPECT_EQ(rows[2][1].int_value(), 60);
}

TEST(RowSetTest, MovedFromIsEmptyAndWidthless) {
  RowSet src = {{Value::Int(1), Value::Int(2)}};
  RowSet dst = std::move(src);
  EXPECT_EQ(AllInts(dst), (Ints2{{1, 2}}));
  EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(src.width(), 0u);
  EXPECT_TRUE(src.values().empty());
  // Usable again, adopting a new width.
  src.push_back({Value::Int(9)});
  EXPECT_EQ(AllInts(src), (Ints2{{9}}));

  RowSet assigned;
  assigned = std::move(dst);
  EXPECT_EQ(assigned.size(), 1u);
  EXPECT_TRUE(dst.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(RowSetTest, AppendAllKeepsPartOrder) {
  std::vector<RowSet> parts(4, RowSet(1));
  parts[0].push_back({Value::Int(1)});
  parts[2].push_back({Value::Int(2)});
  parts[2].push_back({Value::Int(3)});
  parts[3].push_back({Value::Int(4)});
  RowSet out;
  out.AppendAll(std::move(parts));
  EXPECT_EQ(AllInts(out), (Ints2{{1}, {2}, {3}, {4}}));

  // A single non-empty part is taken over, not copied.
  std::vector<RowSet> one(3);
  one[1].push_back({Value::Int(8)});
  const Value* data = one[1].values().data();
  RowSet moved;
  moved.AppendAll(std::move(one));
  EXPECT_EQ(moved.values().data(), data);
  EXPECT_EQ(AllInts(moved), (Ints2{{8}}));
}

TEST(RowSetDeathTest, WidthMismatchIsFatal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RowSet rows = {{Value::Int(1), Value::Int(2)}};
  EXPECT_DEATH(rows.push_back({Value::Int(3)}), "width == width_");
  RowSet fixed(3);
  EXPECT_DEATH(fixed.AppendRow(2), "width == width_");
}

}  // namespace
}  // namespace jsontiles::exec
