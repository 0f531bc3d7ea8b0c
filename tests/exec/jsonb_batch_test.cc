// Differential tests of the batched binary-JSON accessor
// (exec::ExtractJsonbPathBatch) against the scalar fallback it replaces
// (exec::EvalAccessOnJsonb). Every lane must be bit-identical for every
// requested type over documents with missing keys, mixed value types,
// nested paths, array indices, containers and numeric strings — including
// sparse lane sets and more docs than one vector width.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/scan.h"
#include "exec/vector_batch.h"
#include "json/jsonb.h"
#include "tiles/keypath.h"
#include "util/arena.h"
#include "util/random.h"

namespace jsontiles::exec {
namespace {

std::vector<uint8_t> Build(std::string_view text) {
  auto r = json::JsonbFromText(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << text;
  return r.MoveValueOrDie();
}

bool BitIdentical(const Value& a, const Value& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case ValueType::kNull:
      return true;
    case ValueType::kFloat: {
      uint64_t x, y;
      std::memcpy(&x, &a.d, sizeof(x));
      std::memcpy(&y, &b.d, sizeof(y));
      return x == y;
    }
    case ValueType::kString:
      return a.s() == b.s();
    case ValueType::kNumeric:
      return a.i == b.i && a.scale == b.scale;
    default:
      return a.i == b.i;
  }
}

// Documents chosen so that each tested path hits, across the set: exact-type
// matches, cross-type casts, numeric strings, containers, explicit nulls and
// missing keys.
const char* kDocs[] = {
    R"({"a": 1, "b": {"c": 2.5, "d": "hello"}, "arr": [10, 20, {"x": true}], "s": "42"})",
    R"({"a": "not-an-int", "b": {"c": "2.75"}, "arr": []})",
    R"({"a": null, "b": 7})",
    R"({"other": 1})",
    R"({"a": true, "b": {"c": false, "d": 3}, "arr": [1.5]})",
    R"({"a": 9223372036854775807, "b": {"c": -1}, "s": "xyz"})",
    R"({"a": {"nested": "obj"}, "b": {"c": [1, 2]}, "arr": [[7]]})",
    R"({"a": 3.25, "s": "1998-09-02", "b": {"d": false}})",
};

class JsonbBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Cycle the corpus past one vector width so batching is exercised with
    // every alignment.
    const size_t kTotal = 1000;
    for (size_t i = 0; i < kTotal && i < kVectorSize; i++) {
      storage_.push_back(Build(kDocs[i % (sizeof(kDocs) / sizeof(kDocs[0]))]));
      docs_.push_back(storage_.back().data());
    }
  }

  std::string Path(std::initializer_list<tiles::PathSegment> segs) {
    return tiles::EncodePath(std::vector<tiles::PathSegment>(segs));
  }

  // Run the batched accessor over `lanes` and compare every lane against the
  // scalar fallback.
  void CheckPath(const std::string& encoded, ValueType requested,
                 const std::vector<uint16_t>& lanes) {
    const std::vector<json::PathStep> steps = tiles::DecodePathSteps(encoded);
    Arena arena;
    ColumnVector vec;
    vec.Reset(requested);
    ExtractJsonbPathBatch(docs_.data(), lanes.data(), lanes.size(),
                          steps.data(), steps.size(), requested, &arena, &vec);
    for (uint16_t r : lanes) {
      Value expected = EvalAccessOnJsonb(json::JsonbValue(docs_[r]), encoded,
                                         requested, &arena);
      Value actual = vec.GetValue(r);
      ASSERT_TRUE(BitIdentical(expected, actual))
          << "path=" << tiles::PathToDisplayString(encoded)
          << " requested=" << ValueTypeName(requested) << " lane " << r
          << ": scalar=" << expected.ToString()
          << " batched=" << actual.ToString();
    }
  }

  std::vector<std::vector<uint8_t>> storage_;
  std::vector<const uint8_t*> docs_;
};

const ValueType kRequestedTypes[] = {ValueType::kInt,    ValueType::kFloat,
                                     ValueType::kString, ValueType::kBool,
                                     ValueType::kTimestamp,
                                     ValueType::kNumeric};

TEST_F(JsonbBatchTest, DenseLanesMatchScalarAccessor) {
  std::vector<uint16_t> all(docs_.size());
  for (size_t i = 0; i < all.size(); i++) all[i] = static_cast<uint16_t>(i);
  using PS = tiles::PathSegment;
  const std::string paths[] = {
      Path({PS::Key("a")}),
      Path({PS::Key("b"), PS::Key("c")}),
      Path({PS::Key("b"), PS::Key("d")}),
      Path({PS::Key("s")}),
      Path({PS::Key("arr"), PS::Index(0)}),
      Path({PS::Key("arr"), PS::Index(2), PS::Key("x")}),
      Path({PS::Key("missing")}),
      Path({PS::Key("b"), PS::Key("missing"), PS::Key("deeper")}),
  };
  for (const std::string& p : paths) {
    for (ValueType t : kRequestedTypes) CheckPath(p, t, all);
  }
}

TEST_F(JsonbBatchTest, SparseLanesOnlyTouchSelectedDocs) {
  // Every third lane, plus first and last: untouched lanes must be ignorable
  // (the scan only reads lanes it asked for).
  std::vector<uint16_t> sparse;
  for (size_t i = 0; i < docs_.size(); i += 3) {
    sparse.push_back(static_cast<uint16_t>(i));
  }
  sparse.push_back(static_cast<uint16_t>(docs_.size() - 1));
  using PS = tiles::PathSegment;
  CheckPath(Path({PS::Key("a")}), ValueType::kInt, sparse);
  CheckPath(Path({PS::Key("b"), PS::Key("c")}), ValueType::kFloat, sparse);
  CheckPath(Path({PS::Key("s")}), ValueType::kString, sparse);
}

TEST_F(JsonbBatchTest, EmptyLaneSetIsANoOp) {
  using PS = tiles::PathSegment;
  const std::string p = Path({PS::Key("a")});
  const std::vector<json::PathStep> steps = tiles::DecodePathSteps(p);
  Arena arena;
  ColumnVector vec;
  vec.Reset(ValueType::kInt);
  std::vector<uint16_t> none;
  ExtractJsonbPathBatch(docs_.data(), none.data(), 0, steps.data(),
                        steps.size(), ValueType::kInt, &arena, &vec);
}

TEST_F(JsonbBatchTest, EmptyPathYieldsWholeDocumentSemantics) {
  // A zero-step path resolves to the root: scalar roots convert, container
  // roots follow the scalar accessor's container rules.
  std::vector<uint16_t> all(docs_.size());
  for (size_t i = 0; i < all.size(); i++) all[i] = static_cast<uint16_t>(i);
  for (ValueType t : kRequestedTypes) CheckPath(std::string(), t, all);
}

TEST_F(JsonbBatchTest, AlternatingShapeRunsMatchScalarAccessor) {
  // Runs of two key layouts, as in a tile that mixes two tables, where a
  // key sits at a different slot (or is absent) at every change of shape.
  storage_.clear();
  docs_.clear();
  Random rng(7);
  for (int run = 0; docs_.size() < kVectorSize; run++) {
    const int64_t len = rng.Range(1, 40);
    for (int64_t i = 0; i < len && docs_.size() < kVectorSize; i++) {
      const std::string n = std::to_string(docs_.size());
      storage_.push_back(Build(
          run % 2 == 0
              ? R"({"id": )" + n + R"(, "name": "a)" + n +
                    R"(", "user": {"id": )" + n + R"(, "name": "u"}})"
              : R"({"flag": true, "id": "s)" + n +
                    R"(", "text": "t", "user": {"handle": "h", "id": )" + n +
                    R"(.5, "z": null}, "zz": 1})"));
      docs_.push_back(storage_.back().data());
    }
  }
  using PS = tiles::PathSegment;
  const std::string paths[] = {
      Path({PS::Key("id")}),
      Path({PS::Key("user"), PS::Key("id")}),
      Path({PS::Key("name")}),
      Path({PS::Key("zz")}),
      Path({PS::Key("user"), PS::Key("handle")}),
  };
  for (const std::string& encoded : paths) {
    const std::vector<json::PathStep> steps = tiles::DecodePathSteps(encoded);
    for (ValueType requested : kRequestedTypes) {
      Arena arena;
      ColumnVector vec;
      vec.Reset(requested);
      // Several calls over consecutive lane ranges fill one vector.
      std::vector<uint16_t> lanes;
      for (size_t r = 0; r < docs_.size(); r++) {
        lanes.push_back(static_cast<uint16_t>(r));
        if (lanes.size() == 100 || r + 1 == docs_.size()) {
          ExtractJsonbPathBatch(docs_.data(), lanes.data(), lanes.size(),
                                steps.data(), steps.size(), requested, &arena,
                                &vec);
          lanes.clear();
        }
      }
      for (size_t r = 0; r < docs_.size(); r++) {
        Value expected = EvalAccessOnJsonb(json::JsonbValue(docs_[r]), encoded,
                                           requested, &arena);
        Value actual = vec.GetValue(r);
        ASSERT_TRUE(BitIdentical(expected, actual))
            << "path=" << tiles::PathToDisplayString(encoded)
            << " requested=" << ValueTypeName(requested) << " lane " << r
            << ": scalar=" << expected.ToString()
            << " batched=" << actual.ToString();
      }
    }
  }
}

TEST_F(JsonbBatchTest, LookupStepsMatchesLookupPath) {
  using PS = tiles::PathSegment;
  const std::string paths[] = {
      Path({PS::Key("a")}),
      Path({PS::Key("b"), PS::Key("c")}),
      Path({PS::Key("arr"), PS::Index(2), PS::Key("x")}),
      Path({PS::Key("arr"), PS::Index(9)}),
      Path({PS::Key("nope")}),
  };
  for (const std::string& p : paths) {
    const std::vector<json::PathStep> steps = tiles::DecodePathSteps(p);
    for (const uint8_t* doc : docs_) {
      auto via_path = tiles::LookupPath(json::JsonbValue(doc), p);
      auto via_steps =
          json::LookupSteps(json::JsonbValue(doc), steps.data(), steps.size());
      ASSERT_EQ(via_path.has_value(), via_steps.has_value())
          << tiles::PathToDisplayString(p);
      if (via_path.has_value()) {
        ASSERT_EQ(via_path->data(), via_steps->data())
            << tiles::PathToDisplayString(p);
      }
    }
  }
}

}  // namespace
}  // namespace jsontiles::exec
