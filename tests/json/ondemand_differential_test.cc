// Parser differential: the on-demand path (structural index + lazy walker +
// fallback) must be observationally identical to the streaming parser — same
// accept/reject decision and byte-identical JSONB on accept — over the
// workload corpora, a library of adversarial edge documents, and a mutation
// fuzz corpus. The corpora and the fuzz corpus also hold the stage-1 scan to
// its scalar reference on every document; CI also runs this suite under
// ASan/UBSan.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/jsonb.h"
#include "json/ondemand.h"
#include "structural_index_reference.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "workload/simdjson_corpus.h"
#include "workload/tpch.h"
#include "workload/twitter.h"
#include "workload/yelp.h"

namespace jsontiles::json {
namespace {

// One shared checker: statuses must agree in outcome and code (fallback
// re-parses with the streaming parser, so an indexed-path acceptance of a
// document the baseline rejects shows up here as ok() disagreement), and
// accepted documents must serialize to identical bytes.
void ExpectParity(std::string_view doc) {
  JsonbBuilder baseline;
  OndemandTransformer ondemand;
  std::vector<uint8_t> expected, actual;
  const Status baseline_st = baseline.Transform(doc, &expected);
  const Status ondemand_st = ondemand.Transform(doc, &actual);
  ASSERT_EQ(baseline_st.ok(), ondemand_st.ok())
      << "doc: " << doc << "\nbaseline: " << baseline_st.ToString()
      << "\nondemand: " << ondemand_st.ToString();
  ASSERT_EQ(baseline_st.code(), ondemand_st.code()) << "doc: " << doc;
  if (baseline_st.ok()) {
    ASSERT_EQ(expected, actual) << "doc: " << doc;
  }
}

// ExpectParity, and the stage-1 index of the document against the scalar
// scan, so the walker's input is the scalar reference's too.
void ExpectParityAndScalarIndex(std::string_view doc) {
  ExpectParity(doc);
  ExpectMatchesScalarScan(doc);
}

TEST(OndemandDifferentialTest, WorkloadCorpora) {
  workload::TpchOptions tpch;
  tpch.scale_factor = 0.002;
  for (const auto& doc : workload::GenerateTpch(tpch).combined) {
    ExpectParityAndScalarIndex(doc);
  }
  workload::YelpOptions yelp;
  yelp.num_business = 40;
  for (const auto& doc : workload::GenerateYelp(yelp)) {
    ExpectParityAndScalarIndex(doc);
  }
  workload::TwitterOptions twitter;
  twitter.num_tweets = 1500;
  twitter.changing_schema = true;
  for (const auto& doc : workload::GenerateTwitter(twitter)) {
    ExpectParityAndScalarIndex(doc);
  }
  for (const auto& file : workload::GenerateSimdJsonCorpus()) {
    ExpectParityAndScalarIndex(file.json);
  }
}

TEST(OndemandDifferentialTest, EdgeDocuments) {
  const char* docs[] = {
      // Accepted shapes the walker must serialize identically.
      R"({})",
      R"([])",
      R"({"a":{}})",
      R"([[],[[]],{}])",
      R"({"b":2,"a":1,"b":3})",            // duplicate keys: last wins
      R"({"dup":1,"dup":2,"Dup":3,"dup":4})",  // case-sensitive dedup
      R"({"b":{"x":1,"x":2},"a":[{"k":1,"k":2}],"b":0})",  // nested dups
      R"({"":null})",                      // empty key
      R"({"":1,"":2})",                    // duplicate empty keys
      R"({"a":"19.99","b":"-0.001"})",     // numeric strings (§5.2)
      R"(["\u0041\u00e9\u6c34\ud83d\ude00"])",  // BMP + surrogate pair
      R"("\ud800")",                       // lone surrogate: lexer accepts
      R"("\udc00\ud800")",                 // lone surrogates, reversed order
      R"("\ud83d\ud83d\ude00")",           // lone high + real surrogate pair
      R"("\u0022\u005c\u002f")",           // escapes decoding to " \ / --
                                           // decoded bytes must not be
                                           // re-lexed as structure
      R"(["\u0041","\u0000z"])",         // overlong ASCII escape, escaped NUL
      R"("a\/b\\c\"d\b\f\n\r\t")",
      "\"caf\xc3\xa9 \xf0\x9f\x98\x80\"",  // raw UTF-8
      "\"\xff\xfe\x80\"",                  // invalid UTF-8: not validated
      R"( [ 1 , 2 ] )",
      "\t{\n\"a\"\r:\t1\n}\r",
      R"(0)", R"(-0)", R"(15)", R"(16)", R"(-1)",
      R"(9223372036854775807)", R"(-9223372036854775808)",
      R"(18446744073709551615)",           // int64 overflow -> float
      R"(1e308)", R"(1e309)", R"(-1e400)", // double overflow -> HUGE_VAL
      R"(1e-7)", R"(0.5)", R"(3.14159)", R"(2.5e+3)", R"(1E2)",
      R"(123456.789)",
      R"(true)", R"(false)", R"(null)",
      R"("")",
      // Rejected shapes: both paths must say no.
      "",
      "   ",
      R"({)",
      R"(})",
      R"(])",
      R"(,)",
      R"(:)",
      R"({,})",
      R"({"a"})",
      R"({"a":})",
      R"({"a":1,})",
      R"({"a" 1})",
      R"({1:2})",
      R"([1,])",
      R"([,1])",
      R"([1 2])",
      R"([1,,2])",
      R"(nul)",
      R"(nullx)",
      R"(truefalse)",
      R"(12x)",
      R"(1.2.3)",
      R"(01)",
      R"(1.)",
      R"(.5)",
      R"(+1)",
      R"(-)",
      R"(1e)",
      R"(1e+)",
      R"("abc)",
      "\"ab\nc\"",                          // unescaped control character
      "\"ab\x01\"",
      R"("\x41")",                          // invalid escape
      R"("\u12")",                          // truncated \u
      R"("\u12g4")",
      "\"abc\\",                            // dangling backslash
      R"(\n)",                              // escape outside a string
      R"(1 2)",
      R"({} {})",
      R"([1] extra)",
  };
  for (const char* doc : docs) ExpectParity(doc);
}

TEST(OndemandDifferentialTest, NestingDepths) {
  for (int depth : {1, 8, 255, 256, 257, 300, 500}) {
    std::string open, close;
    for (int i = 0; i < depth; i++) {
      open += '[';
      close += ']';
    }
    ExpectParity(open + "1" + close);
    ExpectParity(open);  // truncated
  }
}

TEST(OndemandDifferentialTest, LongStringsAndKeys) {
  ExpectParity("\"" + std::string(70000, 'x') + "\"");
  // Keys above the u16 limit are rejected by both paths.
  ExpectParity("{\"" + std::string(60000, 'k') + "\":1}");
  ExpectParity("{\"" + std::string(70000, 'k') + "\":1}");
  // Escape-heavy string (exercises the word-at-a-time validator).
  std::string heavy = "\"";
  for (int i = 0; i < 4000; i++) heavy += "ab\\\"c\\u00e9";
  heavy += "\"";
  ExpectParity(heavy);
}

class OndemandMutationFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// Mirrors parser_fuzz_test.cc's mutation engine, plus seeds aimed at the
// direct emitter's hard cases: deep nesting, documents sitting right at the
// kMaxNesting cap (one inserted bracket tips them over), duplicate keys at
// several levels (the object close-time sort/dedup), and strings of lone
// surrogates and overlong escapes (escape decoding and clean-range slicing);
// every mutated document goes through the differential checker.
TEST_P(OndemandMutationFuzzTest, MutatedTextStaysIdentical) {
  const std::string deep = "[[[[[[[[{\"a\":[1,2,{\"b\":null}]}]]]]]]]]";
  const std::string depth_cap =
      std::string(255, '[') + "0" + std::string(255, ']');
  const std::string seeds[] = {
      R"({"id":1,"user":{"name":"ada","tags":[1,2.5,"x",null,true]},"p":"19.99"})",
      R"([[[1,2],[3,4]],{"k":"v"},[],{}])",
      R"({"a":"é😀\n\t","b":-123456789012345,"c":1e-7})",
      deep,
      depth_cap,
      R"({"k":1,"k":"two","a":{"k":null,"k":[1,1]},"k":3,"b":0,"a":9})",
      R"(["\ud800","\udfff","\u0000z","\u0041\u0022","é\ud83d"])",
  };
  constexpr size_t kNumSeeds = sizeof(seeds) / sizeof(seeds[0]);
  Random rng(GetParam());
  for (int iter = 0; iter < 300; iter++) {
    std::string text = seeds[rng.Uniform(kNumSeeds)];
    int mutations = 1 + static_cast<int>(rng.Uniform(6));
    for (int m = 0; m < mutations && !text.empty(); m++) {
      switch (rng.Uniform(4)) {
        case 0:  // flip a byte
          text[rng.Uniform(text.size())] ^=
              static_cast<char>(1u << rng.Uniform(8));
          break;
        case 1:  // delete a byte
          text.erase(rng.Uniform(text.size()), 1);
          break;
        case 2: {  // insert a structural byte
          const char structural[] = "{}[],:\"0\\u";
          text.insert(text.begin() + rng.Uniform(text.size() + 1),
                      structural[rng.Uniform(sizeof(structural) - 1)]);
          break;
        }
        case 3:  // truncate
          text.resize(rng.Uniform(text.size() + 1));
          break;
      }
    }
    ExpectParityAndScalarIndex(text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OndemandMutationFuzzTest,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(OndemandDifferentialTest, ForcedFallbackStaysIdentical) {
  failpoint::DisableAll();
  failpoint::Enable("ondemand.force_fallback", failpoint::Spec::Always());
  OndemandTransformer ondemand;
  JsonbBuilder baseline;
  std::vector<uint8_t> expected, actual;
  const char* doc = R"({"a":[1,"two",3.5],"b":{"c":null}})";
  ASSERT_TRUE(baseline.Transform(doc, &expected).ok());
  ASSERT_TRUE(ondemand.Transform(doc, &actual).ok());
  EXPECT_EQ(expected, actual);
  EXPECT_EQ(ondemand.docs_fallback(), 1u);
  EXPECT_EQ(ondemand.docs_ondemand(), 0u);
  failpoint::DisableAll();
  ASSERT_TRUE(ondemand.Transform(doc, &actual).ok());
  EXPECT_EQ(expected, actual);
  EXPECT_EQ(ondemand.docs_ondemand(), 1u);
}

TEST(OndemandDifferentialTest, StatsCountBothPaths) {
  OndemandTransformer ondemand;
  std::vector<uint8_t> buf;
  ASSERT_TRUE(ondemand.Transform(R"({"a":1})", &buf).ok());
  EXPECT_FALSE(ondemand.Transform(R"({"a":)", &buf).ok());
  EXPECT_EQ(ondemand.docs_ondemand(), 1u);
  EXPECT_EQ(ondemand.docs_fallback(), 1u);
}

}  // namespace
}  // namespace jsontiles::json
