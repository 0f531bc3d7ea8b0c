// Lifetime regression tests for string_view-into-scratch-buffer patterns
// (the JsonbBuilder unescape-buffer bug family). These tests are most
// valuable under the sanitizer build: before the fixes they read freed
// storage, which ASan reports even when the test assertions happen to pass.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/jsonb.h"
#include "json/ondemand.h"
#include "tiles/column.h"
#include "tiles/keypath.h"

namespace jsontiles::tiles {
namespace {

// Copying a string value from one row of a column into another passes
// GetString's view back into AppendString/SetString while the column's
// buffers grow and re-pack. String columns reference the document, so the
// views must stay valid through every reallocation of the column.
TEST(LifetimeTest, ColumnSelfCopySurvivesHeapReallocation) {
  // Large enough that the offsets below need wider and wider frames.
  const std::string doc = std::string(70000, ' ') + std::string(1000, 'x');
  const auto* base = reinterpret_cast<const uint8_t*>(doc.data());
  const std::string_view big = std::string_view(doc).substr(70000);
  Column col(ColumnType::kString);
  col.AppendString(base, std::string_view(doc).substr(0, 1));
  col.AppendString(base, big);
  for (int i = 0; i < 64; i++) {
    col.AppendString(base, col.GetString(col.size() - 1, base));
  }
  for (size_t r = 1; r < col.size(); r++) {
    ASSERT_EQ(col.GetString(r, base), big) << "row " << r;
  }
}

TEST(LifetimeTest, ColumnSelfSetStringSurvivesHeapReallocation) {
  const std::string doc =
      std::string(300, ' ') + "seed-value-long-enough-to-matter other";
  const auto* base = reinterpret_cast<const uint8_t*>(doc.data());
  Column col(ColumnType::kString);
  col.AppendString(base, std::string_view(doc).substr(300, 32));
  col.AppendString(base, std::string_view(doc).substr(333));
  for (int i = 0; i < 200; i++) {
    // §4.7 in-place update where the new value aliases the old one.
    col.SetString(1, base, col.GetString(0, base));
    ASSERT_EQ(col.GetString(1, base), "seed-value-long-enough-to-matter");
  }
  ASSERT_EQ(col.GetString(0, base), "seed-value-long-enough-to-matter");
}

// DecodePathSteps hands out key views into the encoded path; the documented
// contract is that they stay valid exactly as long as that storage. Cache
// steps against stable storage and use them after every transient involved
// in building the path is gone.
TEST(LifetimeTest, DecodedPathStepsViewStablePathStorage) {
  std::string stable_path;
  {
    // Build the encoded path from transients that die with this scope.
    std::string key1 = "user";
    std::string key2 = "geo";
    std::vector<PathSegment> segs = {PathSegment::Key(key1),
                                     PathSegment::Key(key2),
                                     PathSegment::Index(1)};
    stable_path = EncodePath(segs);
  }
  std::vector<json::PathStep> steps = DecodePathSteps(stable_path);
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].key, "user");
  EXPECT_EQ(steps[1].key, "geo");
  EXPECT_TRUE(steps[2].is_index);

  auto doc = json::JsonbFromText(R"({"user": {"geo": [10, 20]}})");
  ASSERT_TRUE(doc.ok());
  std::vector<uint8_t> buf = doc.MoveValueOrDie();
  auto v = json::LookupSteps(json::JsonbValue(buf.data()), steps.data(),
                             steps.size());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->GetInt(), 20);
}

// The JSONB leaf walk (json::BuildIngestFromJsonb) builds each path in a
// shared prefix buffer that is cut back after every leaf; the directory must
// hold copies. This pins that rule (bloom insert in Tile::AddSeenPath and the
// interner read the directory after the walk returns).
TEST(LifetimeTest, CollectedPathsOwnTheirBytes) {
  auto doc = json::JsonbFromText(R"({"a": {"b": 1, "c": [2, 3]}, "d": "x"})");
  ASSERT_TRUE(doc.ok());
  std::vector<uint8_t> buf = doc.MoveValueOrDie();
  json::OndemandIngest dir;
  json::BuildIngestFromJsonb(json::JsonbValue(buf.data()), &dir);
  ASSERT_EQ(dir.leaves.size(), 4u);
  // The collected strings must be self-contained copies: round-trip each
  // through the decoder after the walker's prefix buffer is long gone.
  std::vector<std::string> display;
  for (const auto& leaf : dir.leaves) {
    display.push_back(
        PathToDisplayString(dir.paths.substr(leaf.path_off, leaf.path_len)));
  }
  EXPECT_EQ(display,
            (std::vector<std::string>{"a.b", "a.c[0]", "a.c[1]", "d"}));
}

}  // namespace
}  // namespace jsontiles::tiles
