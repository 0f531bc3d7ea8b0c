// Row-subset scans (ScanSpec::row_subset): in every storage mode, at 1 and 4
// threads, a subset scan returns exactly the rows of the full scan whose row
// id is listed, in the same order, and reads no unlisted document.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/scan.h"
#include "obs/metrics.h"
#include "storage/loader.h"

namespace jsontiles::exec {
namespace {

using storage::Loader;
using storage::Relation;
using storage::StorageMode;

constexpr int kDocs = 3000;

// Blocks of 300 documents with an "a" path alternate with blocks of 300
// without it, so tiles mode gets tiles the null-rejecting skip removes.
std::vector<std::string> SubsetDocs() {
  std::vector<std::string> docs;
  for (int i = 0; i < kDocs; i++) {
    if ((i / 300) % 2 == 1) {
      docs.push_back(R"({"b":)" + std::to_string(i) + R"(,"s":"other"})");
      continue;
    }
    docs.push_back(R"({"a":)" + std::to_string(i) + R"(,"s":"str)" +
                   std::to_string(i % 13) + R"(","n":{"x":)" +
                   std::to_string(i % 7) + R"(},"tags":["t)" +
                   std::to_string(i % 3) + R"(","u"]})");
  }
  return docs;
}

std::unique_ptr<Relation> Load(StorageMode mode) {
  tiles::TileConfig config;
  config.tile_size = 128;
  config.partition_size = 4;
  return Loader(mode, config).Load(SubsetDocs(), "t").MoveValueOrDie();
}

// Row id, integer and string columns, an integer read as text (a column
// cast), a nested path and an array containment (binary-JSON reads), a
// compiled filter and the null-rejecting "a" path.
ScanSpec Spec(const Relation& rel) {
  ScanSpec spec;
  spec.relation = &rel;
  spec.table_alias = "t";
  spec.accesses = {RowId("t"),
                   Access("t", {"a"}, ValueType::kInt),
                   Access("t", {"s"}, ValueType::kString),
                   Access("t", {"a"}, ValueType::kString),
                   Access("t", {"n", "x"}, ValueType::kInt),
                   ArrayContains("t", {"tags"}, "", "t1")};
  spec.filter = And(Gt(Slot(1), ConstInt(100)), Ne(Slot(2), ConstString("str5")));
  spec.null_rejecting_paths = {spec.accesses[1]->path};
  return spec;
}

std::vector<std::string> Rendered(const RowSet& rows) {
  std::vector<std::string> out;
  for (const auto& row : rows) {
    std::string line;
    for (const auto& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  return out;
}

struct NamedSubset {
  std::string name;
  std::vector<size_t> rows;
};

// Row ids of the documents without an "a" path.
std::vector<size_t> RowsWithoutA(const Relation& rel) {
  ScanSpec spec;
  spec.relation = &rel;
  spec.accesses = {RowId("t"), Access("t", {"a"}, ValueType::kInt)};
  spec.filter = IsNull(Slot(1));
  QueryContext ctx;
  std::vector<size_t> rows;
  for (const auto& row : ScanExec(spec, ctx)) {
    rows.push_back(static_cast<size_t>(row[0].int_value()));
  }
  return rows;
}

std::vector<NamedSubset> Subsets(const Relation& rel) {
  const size_t n = rel.num_rows();
  std::vector<NamedSubset> out;
  out.push_back({"empty", {}});
  NamedSubset all{"all", {}};
  for (size_t r = 0; r < n; r++) all.rows.push_back(r);
  out.push_back(std::move(all));
  NamedSubset stride{"stride7", {}};
  for (size_t r = 0; r < n; r += 7) stride.rows.push_back(r);
  out.push_back(std::move(stride));
  NamedSubset last{"last_tile", {}};
  NamedSubset skipped{"skipped_tiles", {}};
  const std::string a_path = Access("t", {"a"}, ValueType::kInt)->path;
  if (rel.mode() == StorageMode::kTiles || rel.mode() == StorageMode::kSinew) {
    const tiles::Tile& tile = rel.tiles().back();
    for (size_t r = 0; r < tile.row_count; r++) {
      last.rows.push_back(tile.row_begin + r);
    }
    for (const tiles::Tile& t : rel.tiles()) {
      if (t.MayContainPath(a_path)) continue;
      for (size_t r = 0; r < t.row_count; r++) {
        skipped.rows.push_back(t.row_begin + r);
      }
    }
  } else {
    // Untiled relations: the last 128 rows stand in for the last tile.
    for (size_t r = n - 128; r < n; r++) last.rows.push_back(r);
  }
  if (rel.mode() == StorageMode::kTiles) {
    EXPECT_FALSE(skipped.rows.empty());
  } else if (skipped.rows.empty()) {
    // No tile can be skipped here (Sinew keeps one tile without path
    // statistics): list the documents a skip would have removed.
    skipped.rows = RowsWithoutA(rel);
  }
  out.push_back(std::move(last));
  out.push_back(std::move(skipped));
  return out;
}

TEST(ScanSubsetTest, EqualsFullScanFilteredToListedRows) {
  for (StorageMode mode : {StorageMode::kJsonText, StorageMode::kJsonb,
                           StorageMode::kSinew, StorageMode::kTiles}) {
    auto rel = Load(mode);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ExecOptions options;
      options.num_threads = threads;
      QueryContext ctx(options);
      const ScanSpec full_spec = Spec(*rel);
      const RowSet full_rows = ScanExec(full_spec, ctx);
      ASSERT_TRUE(ctx.ConsumeStatus().ok());
      const std::vector<std::string> full = Rendered(full_rows);
      ASSERT_FALSE(full.empty());

      for (const NamedSubset& subset : Subsets(*rel)) {
        SCOPED_TRACE(std::string(storage::StorageModeName(mode)) + " " +
                     subset.name + " threads=" + std::to_string(threads));
        RowSubset listed(rel->num_rows());
        std::vector<bool> is_listed(rel->num_rows(), false);
        for (size_t r : subset.rows) {
          listed.Add(r);
          is_listed[r] = true;
        }
        std::vector<std::string> expected;
        for (size_t i = 0; i < full_rows.size(); i++) {
          if (is_listed[static_cast<size_t>(full_rows[i][0].int_value())]) {
            expected.push_back(full[i]);
          }
        }
        ScanSpec spec = full_spec;
        spec.row_subset = &listed;
        EXPECT_EQ(Rendered(ScanExec(spec, ctx)), expected);
        ASSERT_TRUE(ctx.ConsumeStatus().ok());
        if (subset.name == "skipped_tiles" || subset.name == "empty") {
          EXPECT_TRUE(expected.empty());
        }
        if (subset.name == "all") {
          EXPECT_EQ(expected, full);
        }
      }
    }
  }
}

TEST(ScanSubsetTest, JsonTextTransformsOnlyListedRows) {
  auto rel = Load(StorageMode::kJsonText);
  obs::Counter* transforms =
      obs::MetricsRegistry::Default().GetCounter("jsonb.transform.docs");
  RowSubset listed(rel->num_rows());
  int64_t count = 0;
  for (size_t r = 3; r < rel->num_rows(); r += 7) {
    listed.Add(r);
    count++;
  }
  ScanSpec spec = Spec(*rel);
  spec.row_subset = &listed;
  QueryContext ctx;
  const int64_t before = transforms->Value();
  RowSet rows = ScanExec(spec, ctx);
  EXPECT_EQ(transforms->Value() - before, count);
  EXPECT_FALSE(rows.empty());
}

TEST(ScanSubsetTest, ListedLanesOfABatch) {
  RowSubset subset(200);
  for (size_t r : {0, 63, 64, 65, 130, 199}) subset.Add(r);
  uint16_t lanes[kVectorSize];
  ASSERT_EQ(subset.Lanes(60, 80, lanes), 4u);
  EXPECT_EQ(lanes[0], 3);
  EXPECT_EQ(lanes[1], 4);
  EXPECT_EQ(lanes[2], 5);
  EXPECT_EQ(lanes[3], 70);
  EXPECT_EQ(subset.Lanes(0, 200, lanes), 6u);
  EXPECT_EQ(subset.Lanes(1, 62, lanes), 0u);
  EXPECT_TRUE(subset.Any(199, 1));
  EXPECT_FALSE(subset.Any(131, 68));
  EXPECT_FALSE(subset.Any(1, 62));
}

}  // namespace
}  // namespace jsontiles::exec
