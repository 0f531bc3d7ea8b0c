#include "json/jsonb.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/dom.h"
#include "util/random.h"

namespace jsontiles::json {
namespace {

std::vector<uint8_t> Build(std::string_view text) {
  auto r = JsonbFromText(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for " << text;
  return r.MoveValueOrDie();
}

TEST(JsonbTest, Scalars) {
  {
    auto buf = Build("null");
    EXPECT_EQ(JsonbValue(buf.data()).type(), JsonType::kNull);
    EXPECT_EQ(buf.size(), 1u);
  }
  {
    auto buf = Build("true");
    EXPECT_TRUE(JsonbValue(buf.data()).GetBool());
  }
  {
    auto buf = Build("7");
    JsonbValue v(buf.data());
    EXPECT_EQ(v.type(), JsonType::kInt);
    EXPECT_EQ(v.GetInt(), 7);
    EXPECT_EQ(buf.size(), 1u);  // small int fits in header
  }
  {
    auto buf = Build("-123456789");
    EXPECT_EQ(JsonbValue(buf.data()).GetInt(), -123456789);
  }
  {
    auto buf = Build("2.5");
    JsonbValue v(buf.data());
    EXPECT_EQ(v.type(), JsonType::kFloat);
    EXPECT_DOUBLE_EQ(v.GetDouble(), 2.5);
    EXPECT_EQ(buf.size(), 3u);  // 2.5 is lossless as half-float
  }
  {
    auto buf = Build("0.1");
    EXPECT_DOUBLE_EQ(JsonbValue(buf.data()).GetDouble(), 0.1);
    EXPECT_EQ(buf.size(), 9u);  // needs full double
  }
  {
    auto buf = Build("\"hello\"");
    EXPECT_EQ(JsonbValue(buf.data()).GetString(), "hello");
  }
}

TEST(JsonbTest, IntegerSizeOptimization) {
  EXPECT_EQ(Build("15").size(), 1u);
  EXPECT_EQ(Build("16").size(), 2u);
  EXPECT_EQ(Build("255").size(), 2u);
  EXPECT_EQ(Build("256").size(), 3u);
  EXPECT_EQ(Build("-1").size(), 2u);
  EXPECT_EQ(Build("9223372036854775807").size(), 9u);
}

TEST(JsonbTest, FloatPrecisionLevels) {
  EXPECT_EQ(Build("1.5").size(), 3u);        // half
  EXPECT_EQ(Build("100000.0").size(), 5u);   // single (exceeds half range)
  EXPECT_EQ(Build("3.141592653589793").size(), 9u);  // double
  // Precision is preserved through all levels.
  auto buf = Build("100000.0");
  EXPECT_DOUBLE_EQ(JsonbValue(buf.data()).GetDouble(), 100000.0);
}

TEST(JsonbTest, NumericStringDetection) {
  auto buf = Build(R"({"price":"19.99","label":"x19"})");
  JsonbValue root(buf.data());
  auto price = root.FindKey("price");
  ASSERT_TRUE(price.has_value());
  EXPECT_EQ(price->type(), JsonType::kNumericString);
  EXPECT_EQ(price->GetNumeric().ToString(), "19.99");
  EXPECT_DOUBLE_EQ(price->GetDouble(), 19.99);
  auto label = root.FindKey("label");
  EXPECT_EQ(label->type(), JsonType::kString);
}

TEST(JsonbTest, NumericStringRoundTripSafety) {
  for (const char* s : {"\"19.99\"", "\"0.001\"", "\"-12.50\"", "\"0\""}) {
    auto buf = Build(s);
    EXPECT_EQ(JsonbValue(buf.data()).ToJsonText(), s);
  }
}

TEST(JsonbTest, ObjectLookup) {
  auto buf = Build(R"({"id":1,"create":"x","text":"a","user":{"id":5}})");
  JsonbValue root(buf.data());
  EXPECT_EQ(root.Count(), 4u);
  EXPECT_EQ(root.FindKey("id")->GetInt(), 1);
  EXPECT_EQ(root.FindKey("text")->GetString(), "a");
  EXPECT_EQ(root.FindKey("user")->FindKey("id")->GetInt(), 5);
  EXPECT_FALSE(root.FindKey("missing").has_value());
  EXPECT_FALSE(root.FindKey("").has_value());
}

TEST(JsonbTest, KeysAreSorted) {
  auto buf = Build(R"({"z":1,"a":2,"m":3})");
  JsonbValue root(buf.data());
  EXPECT_EQ(root.MemberKey(0), "a");
  EXPECT_EQ(root.MemberKey(1), "m");
  EXPECT_EQ(root.MemberKey(2), "z");
  EXPECT_EQ(root.MemberValue(0).GetInt(), 2);
}

TEST(JsonbTest, DuplicateKeysKeepLast) {
  auto buf = Build(R"({"a":1,"a":2,"a":3})");
  JsonbValue root(buf.data());
  EXPECT_EQ(root.Count(), 1u);
  EXPECT_EQ(root.FindKey("a")->GetInt(), 3);
}

TEST(JsonbTest, ArrayAccess) {
  auto buf = Build("[10,20,[30,40],{\"k\":50}]");
  JsonbValue root(buf.data());
  EXPECT_EQ(root.Count(), 4u);
  EXPECT_EQ(root.ArrayElement(0).GetInt(), 10);
  EXPECT_EQ(root.ArrayElement(1).GetInt(), 20);
  EXPECT_EQ(root.ArrayElement(2).ArrayElement(1).GetInt(), 40);
  EXPECT_EQ(root.ArrayElement(3).FindKey("k")->GetInt(), 50);
}

TEST(JsonbTest, EmptyContainers) {
  auto obj = Build("{}");
  EXPECT_EQ(JsonbValue(obj.data()).Count(), 0u);
  EXPECT_EQ(JsonbValue(obj.data()).Size(), obj.size());
  auto arr = Build("[]");
  EXPECT_EQ(JsonbValue(arr.data()).Count(), 0u);
  EXPECT_EQ(JsonbValue(arr.data()).ToJsonText(), "[]");
}

TEST(JsonbTest, NestedValueIsSelfContainedSlice) {
  auto buf = Build(R"({"outer":{"inner":[1,2,3]}})");
  JsonbValue root(buf.data());
  JsonbValue outer = *root.FindKey("outer");
  // Copy out the nested value bytes; the slice must be a valid document.
  std::vector<uint8_t> slice(outer.data(), outer.data() + outer.Size());
  JsonbValue copy(slice.data());
  EXPECT_EQ(copy.FindKey("inner")->Count(), 3u);
  EXPECT_EQ(copy.ToJsonText(), R"({"inner":[1,2,3]})");
}

TEST(JsonbTest, SizeMatchesBufferForAllTypes) {
  for (const char* text :
       {"null", "true", "123", "-9999999", "3.5", "\"short\"",
        "\"a string that is longer than fifteen characters\"", "\"42.42\"",
        "{}", "[]", R"({"a":1})", "[1,2,3]",
        R"({"nested":{"deep":{"deeper":[1,[2,[3]]]}}})"}) {
    auto buf = Build(text);
    EXPECT_EQ(JsonbValue(buf.data()).Size(), buf.size()) << text;
  }
}

TEST(JsonbTest, WideObjectUsesLargerOffsets) {
  // Build an object whose slot area exceeds 255 bytes.
  std::string text = "{";
  for (int i = 0; i < 50; i++) {
    if (i) text += ",";
    text += "\"key_number_" + std::to_string(i) + "\":\"value_string_" +
            std::to_string(i) + "\"";
  }
  text += "}";
  auto buf = Build(text);
  JsonbValue root(buf.data());
  EXPECT_EQ(root.Count(), 50u);
  for (int i = 0; i < 50; i++) {
    auto v = root.FindKey("key_number_" + std::to_string(i));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->GetString(), "value_string_" + std::to_string(i));
  }
}

// FindKey must answer exactly as a scan over every member, over objects of
// every offset width whose keys are prefixes of each other, empty, longer
// than one 8-byte compare, or hold bytes >= 0x80 and NUL.
TEST(JsonbTest, FindKeyAgreesWithLinearScan) {
  Random rng(41);
  const char kAlphabet[] = {'a', 'b', '\0', '\x80', '\xff'};
  std::vector<std::vector<uint8_t>> values(3);
  values[1] = Build("\"" + std::string(1000, 'x') + "\"");   // 2-byte offsets
  values[2] = Build("\"" + std::string(70000, 'y') + "\"");  // 4-byte offsets
  bool width_seen[3] = {false, false, false};
  for (size_t count : {0, 1, 2, 3, 5, 8, 17, 40, 100, 300}) {
    for (size_t filler = 0; filler < 3; filler++) {
      std::set<std::string> key_set;
      if (rng.Chance(0.5)) key_set.insert("");
      while (key_set.size() < count) {
        // Half the keys share a 13-byte stem, so they differ only past the
        // first 8-byte compare.
        std::string key = rng.Chance(0.5) ? "" : "stem_of_key_\xc3";
        for (int64_t n = rng.Range(0, 5); n > 0; n--) {
          key.push_back(kAlphabet[rng.Uniform(sizeof(kAlphabet))]);
        }
        key_set.insert(key);
      }
      const std::vector<std::string> keys(key_set.begin(), key_set.end());
      std::vector<std::vector<uint8_t>> ints;
      for (size_t i = 0; i < count; i++) {
        ints.push_back(MakeJsonbInt(static_cast<int64_t>(i * 37)));
      }
      std::vector<AssembleMember> members;
      for (size_t i = 0; i < count; i++) {
        const std::vector<uint8_t>& v =
            i == 0 && filler > 0 ? values[filler] : ints[i];
        members.push_back({keys[i], v.data(), v.size()});
      }
      const std::vector<uint8_t> buf = AssembleObject(members);
      ASSERT_TRUE(ValidateJsonb(buf.data(), buf.size()).ok());
      const JsonbValue obj(buf.data());
      ASSERT_EQ(obj.Count(), count);
      width_seen[buf[0] & 0x0F] = true;

      // Present keys, and absent ones below the first, between neighbours
      // and past the last.
      std::vector<std::string> probes = keys;
      probes.push_back("");
      probes.push_back("a");
      for (const std::string& k : keys) {
        probes.push_back(k + '\0');
        probes.push_back(k + '\xff');
        if (!k.empty()) probes.push_back(k.substr(0, k.size() - 1));
      }
      for (const std::string& key : probes) {
        const uint8_t* expected = nullptr;
        for (size_t i = 0; i < count; i++) {
          if (obj.MemberKey(i) == key) expected = obj.MemberValue(i).data();
        }
        auto found = obj.FindKey(key);
        ASSERT_EQ(found.has_value() ? found->data() : nullptr, expected)
            << "count " << count << " key size " << key.size();
      }
    }
  }
  EXPECT_TRUE(width_seen[0] && width_seen[1] && width_seen[2]);
}

TEST(JsonbTest, EscapedStringsDecoded) {
  auto buf = Build(R"({"key":"va\nl"})");
  JsonbValue root(buf.data());
  EXPECT_EQ(root.FindKey("key")->GetString(), "va\nl");
}

TEST(JsonbTest, ToJsonTextNormalizesButPreservesValues) {
  auto buf = Build(R"({ "b" : 1 , "a" : [ true , null ] })");
  EXPECT_EQ(JsonbValue(buf.data()).ToJsonText(), R"({"a":[true,null],"b":1})");
}

TEST(JsonbTest, RejectsMalformed) {
  EXPECT_FALSE(JsonbFromText("{\"a\":}").ok());
  EXPECT_FALSE(JsonbFromText("[1,,2]").ok());
  EXPECT_FALSE(JsonbFromText("").ok());
}

// Property: text -> JSONB -> text -> DOM equals text -> DOM (semantic
// round-trip through the binary format).
class JsonbRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

JsonValue RandomDoc(Random& rng, int depth) {
  double roll = rng.NextDouble();
  if (depth >= 4 || roll < 0.45) {
    switch (rng.Uniform(6)) {
      case 0: return JsonValue::Null();
      case 1: return JsonValue::Bool(rng.Chance(0.5));
      case 2: return JsonValue::Int(rng.Range(-1000000, 1000000));
      case 3: return JsonValue::Float(rng.NextDouble() * 1000);
      case 4: return JsonValue::String(rng.NextString(0, 30));
      default:
        return JsonValue::String(std::to_string(rng.Range(0, 999)) + "." +
                                 std::to_string(rng.Range(10, 99)));
    }
  }
  if (roll < 0.75) {
    JsonValue obj = JsonValue::Object();
    int n = static_cast<int>(rng.Uniform(8));
    for (int i = 0; i < n; i++) {
      std::string key = rng.NextString(1, 10);
      if (obj.Find(key) != nullptr) continue;  // JSONB dedupes; keep unique
      obj.Add(std::move(key), RandomDoc(rng, depth + 1));
    }
    return obj;
  }
  JsonValue arr = JsonValue::Array();
  int n = static_cast<int>(rng.Uniform(8));
  for (int i = 0; i < n; i++) arr.Append(RandomDoc(rng, depth + 1));
  return arr;
}

// Compare two DOM values modulo object key order (JSONB sorts keys).
bool SemanticallyEqual(const JsonValue& a, const JsonValue& b) {
  // Numeric strings serialize back to identical strings, so compare as text.
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case JsonType::kNull: return true;
    case JsonType::kBool: return a.bool_value() == b.bool_value();
    case JsonType::kInt: return a.int_value() == b.int_value();
    case JsonType::kFloat: return a.double_value() == b.double_value();
    case JsonType::kString:
    case JsonType::kNumericString:
      return a.string_value() == b.string_value();
    case JsonType::kArray: {
      if (a.elements().size() != b.elements().size()) return false;
      for (size_t i = 0; i < a.elements().size(); i++) {
        if (!SemanticallyEqual(a.elements()[i], b.elements()[i])) return false;
      }
      return true;
    }
    case JsonType::kObject: {
      if (a.members().size() != b.members().size()) return false;
      for (const auto& [k, v] : a.members()) {
        const JsonValue* other = b.Find(k);
        if (other == nullptr || !SemanticallyEqual(v, *other)) return false;
      }
      return true;
    }
  }
  return false;
}

TEST_P(JsonbRoundTripTest, RandomDocumentsSurviveRoundTrip) {
  Random rng(GetParam());
  for (int iter = 0; iter < 50; iter++) {
    JsonValue doc = RandomDoc(rng, 0);
    std::string text = WriteJson(doc);
    auto jsonb = JsonbFromText(text);
    ASSERT_TRUE(jsonb.ok()) << text;
    std::string back = JsonbValue(jsonb.ValueOrDie().data()).ToJsonText();
    auto reparsed = ParseJson(back);
    ASSERT_TRUE(reparsed.ok()) << back;
    EXPECT_TRUE(SemanticallyEqual(doc, reparsed.ValueOrDie()))
        << "original: " << text << "\nround-trip: " << back;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonbRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(JsonbTest, BuilderIsReusable) {
  JsonbBuilder builder;
  std::vector<uint8_t> buf;
  ASSERT_TRUE(builder.Transform(R"({"a":1})", &buf).ok());
  EXPECT_EQ(JsonbValue(buf.data()).FindKey("a")->GetInt(), 1);
  ASSERT_TRUE(builder.Transform(R"({"b":"two"})", &buf).ok());
  EXPECT_EQ(JsonbValue(buf.data()).FindKey("b")->GetString(), "two");
  EXPECT_FALSE(builder.Transform("oops", &buf).ok());
  ASSERT_TRUE(builder.Transform("[3]", &buf).ok());
  EXPECT_EQ(JsonbValue(buf.data()).ArrayElement(0).GetInt(), 3);
}

TEST(JsonbTest, ManyEscapedStringsSurviveDecodeBufferGrowth) {
  // Regression: pass 1 hands out string_views into the unescape buffer; the
  // buffer must not relocate its strings as more escaped strings arrive
  // (SSO bytes move with the std::string object). Many short escaped strings
  // force repeated growth on a fresh builder.
  JsonbBuilder builder;
  std::string doc = "{";
  for (int i = 0; i < 64; i++) {
    if (i > 0) doc += ",";
    doc += "\"k\\u00e4" + std::to_string(i) + "\":\"v\\u00fc" +
           std::to_string(i) + "\"";
  }
  doc += "}";
  std::vector<uint8_t> buf;
  ASSERT_TRUE(builder.Transform(doc, &buf).ok());
  JsonbValue value(buf.data());
  for (int i = 0; i < 64; i++) {
    auto member = value.FindKey("k\xc3\xa4" + std::to_string(i));
    ASSERT_TRUE(member.has_value()) << i;
    EXPECT_EQ(member->GetString(), "v\xc3\xbc" + std::to_string(i)) << i;
  }
}

}  // namespace
}  // namespace jsontiles::json
