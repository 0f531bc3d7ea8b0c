#include "tiles/keypath.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/jsonb.h"
#include "json/ondemand.h"

namespace jsontiles::tiles {
namespace {

using json::JsonbFromText;
using json::JsonbValue;
using json::JsonType;

TEST(KeyPathTest, EncodeDecodeRoundTrip) {
  std::vector<PathSegment> segments = {
      PathSegment::Key("user"), PathSegment::Key("geo"),
      PathSegment::Index(3), PathSegment::Key("lat")};
  std::string encoded = EncodePath(segments);
  EXPECT_EQ(DecodePath(encoded), segments);
}

TEST(KeyPathTest, KeysMayContainAnyBytes) {
  std::vector<PathSegment> segments = {PathSegment::Key("we.ird[0]key"),
                                       PathSegment::Key("")};
  EXPECT_EQ(DecodePath(EncodePath(segments)), segments);
}

TEST(KeyPathTest, DisplayString) {
  std::string p = EncodePath({PathSegment::Key("geo"), PathSegment::Key("lat")});
  EXPECT_EQ(PathToDisplayString(p), "geo.lat");
  std::string q = EncodePath({PathSegment::Key("tags"), PathSegment::Index(0),
                              PathSegment::Key("text")});
  EXPECT_EQ(PathToDisplayString(q), "tags[0].text");
}

TEST(KeyPathTest, Depth) {
  EXPECT_EQ(PathDepth(EncodePath({PathSegment::Key("a")})), 1);
  EXPECT_EQ(PathDepth(EncodePath({PathSegment::Key("a"), PathSegment::Index(2),
                                  PathSegment::Key("b")})),
            3);
  EXPECT_EQ(PathDepth(""), 0);
}

TEST(KeyPathTest, LookupPath) {
  auto buf = JsonbFromText(R"({"user":{"geo":{"lat":1.5}},"tags":[{"t":"x"}]})")
                 .MoveValueOrDie();
  JsonbValue root(buf.data());
  auto lat = LookupPath(root, EncodePath({PathSegment::Key("user"),
                                          PathSegment::Key("geo"),
                                          PathSegment::Key("lat")}));
  ASSERT_TRUE(lat.has_value());
  EXPECT_DOUBLE_EQ(lat->GetDouble(), 1.5);
  auto t = LookupPath(root, EncodePath({PathSegment::Key("tags"),
                                        PathSegment::Index(0),
                                        PathSegment::Key("t")}));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->GetString(), "x");
  // Missing key, index out of range, traversal through scalar.
  EXPECT_FALSE(LookupPath(root, EncodePath({PathSegment::Key("nope")})));
  EXPECT_FALSE(LookupPath(root, EncodePath({PathSegment::Key("tags"),
                                            PathSegment::Index(5)})));
  EXPECT_FALSE(LookupPath(root, EncodePath({PathSegment::Key("user"),
                                            PathSegment::Key("geo"),
                                            PathSegment::Key("lat"),
                                            PathSegment::Key("deeper")})));
}

// One collected leaf of json::BuildIngestFromJsonb: encoded path plus type.
struct Leaf {
  std::string path;
  JsonType type;
};

std::vector<Leaf> CollectLeaves(std::string_view text) {
  auto buf = JsonbFromText(text).MoveValueOrDie();
  json::OndemandIngest dir;
  json::BuildIngestFromJsonb(JsonbValue(buf.data()), &dir);
  std::vector<Leaf> out;
  for (const auto& leaf : dir.leaves) {
    out.push_back(Leaf{dir.paths.substr(leaf.path_off, leaf.path_len),
                       static_cast<JsonType>(leaf.type)});
  }
  return out;
}

// `levels` nested objects {"k0":{"k1":...1}}: a leaf at path depth `levels`.
std::string NestedObjects(int levels) {
  std::string text;
  for (int i = 0; i < levels; i++) text += "{\"k" + std::to_string(i) + "\":";
  text += "1";
  text.append(static_cast<size_t>(levels), '}');
  return text;
}

TEST(KeyPathTest, CollectScalarLeaves) {
  auto paths =
      CollectLeaves(R"({"id":5,"user":{"id":1,"name":"a"},"flag":true,"x":null})");
  ASSERT_EQ(paths.size(), 5u);
  // JSONB sorts keys: flag, id, user.id, user.name, x.
  EXPECT_EQ(PathToDisplayString(paths[0].path), "flag");
  EXPECT_EQ(paths[0].type, JsonType::kBool);
  EXPECT_EQ(PathToDisplayString(paths[1].path), "id");
  EXPECT_EQ(paths[1].type, JsonType::kInt);
  EXPECT_EQ(PathToDisplayString(paths[2].path), "user.id");
  EXPECT_EQ(PathToDisplayString(paths[3].path), "user.name");
  EXPECT_EQ(paths[3].type, JsonType::kString);
  EXPECT_EQ(PathToDisplayString(paths[4].path), "x");
  EXPECT_EQ(paths[4].type, JsonType::kNull);
}

TEST(KeyPathTest, ArrayLeadingElementsOnly) {
  static_assert(kMaxArrayElements == 4);
  auto paths = CollectLeaves(R"({"a":[1,2,3,4,5,6,7,8],"b":[1,2,3]})");
  ASSERT_EQ(paths.size(), 7u);
  EXPECT_EQ(PathToDisplayString(paths[0].path), "a[0]");
  EXPECT_EQ(PathToDisplayString(paths[3].path), "a[3]");
  EXPECT_EQ(PathToDisplayString(paths[4].path), "b[0]");
  EXPECT_EQ(PathToDisplayString(paths[6].path), "b[2]");
}

TEST(KeyPathTest, DepthLimit) {
  static_assert(kMaxPathDepth == 8);
  // A leaf kMaxPathDepth levels down is collected; one level deeper is not.
  auto paths = CollectLeaves(NestedObjects(kMaxPathDepth));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(PathToDisplayString(paths[0].path), "k0.k1.k2.k3.k4.k5.k6.k7");
  EXPECT_TRUE(CollectLeaves(NestedObjects(kMaxPathDepth + 1)).empty());
  // Array levels count like object levels.
  paths = CollectLeaves(R"({"a":[[[[[[[1,[2]]]]]]]]})");
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(PathToDisplayString(paths[0].path), "a[0][0][0][0][0][0][0]");
}

TEST(KeyPathTest, EmptyContainersYieldNoLeaves) {
  EXPECT_TRUE(CollectLeaves(R"({"a":{},"b":[]})").empty());
}

TEST(KeyPathTest, NumericStringLeafType) {
  auto paths = CollectLeaves(R"({"price":"19.99"})");
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].type, JsonType::kNumericString);
}

}  // namespace
}  // namespace jsontiles::tiles
