// Stage-1 structural index: hand-computed positions, escape and boundary
// behavior, and bit-identity between the scalar reference scan and
// BuildStructuralIndex, which is the AVX2 scan where the CPU has AVX2 (the
// differential tests in ondemand_differential_test.cc then hold the full
// pipeline to the streaming parser).

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/structural_index.h"
#include "structural_index_reference.h"
#include "util/random.h"
#include "workload/simdjson_corpus.h"
#include "workload/tpch.h"

namespace jsontiles::json {
namespace {

std::vector<uint32_t> Positions(std::string_view input) {
  StructuralIndex index;
  Status st = BuildStructuralIndex(input, &index);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return Slice(index);
}

TEST(StructuralIndexTest, HandComputedPositions) {
  EXPECT_EQ(Positions(R"({"a":1})"),
            (std::vector<uint32_t>{0, 1, 3, 4, 5, 6}));
  // `n` starts a scalar run; the later literal characters are not indexed.
  EXPECT_EQ(Positions("[null, 12]"), (std::vector<uint32_t>{0, 1, 5, 7, 9}));
  // A scalar after whitespace is a fresh run start.
  EXPECT_EQ(Positions("1 2"), (std::vector<uint32_t>{0, 2}));
  // Only the delimiter quotes of a string are indexed.
  EXPECT_EQ(Positions(R"("hello world {",)"),
            (std::vector<uint32_t>{0, 14, 15}));
  EXPECT_EQ(Positions(""), std::vector<uint32_t>{});
  EXPECT_EQ(Positions("   \t\n"), std::vector<uint32_t>{});
}

TEST(StructuralIndexTest, StructureInsideStringsIsNotIndexed) {
  EXPECT_EQ(Positions(R"("{[:,]}")"), (std::vector<uint32_t>{0, 7}));
  EXPECT_EQ(Positions(R"(["a,b", "c:d"])"),
            (std::vector<uint32_t>{0, 1, 5, 6, 8, 12, 13}));
}

TEST(StructuralIndexTest, EscapedQuotesDoNotToggleStrings) {
  // "a\"b" — the escaped quote stays inside the string.
  EXPECT_EQ(Positions("\"a\\\"b\""), (std::vector<uint32_t>{0, 5}));
  // "\\" — even backslash run, the final quote is real.
  EXPECT_EQ(Positions("\"\\\\\""), (std::vector<uint32_t>{0, 3}));
  // "\\\"" — odd run escapes the quote.
  EXPECT_EQ(Positions("\"\\\\\\\"\""), (std::vector<uint32_t>{0, 5}));
}

TEST(StructuralIndexTest, UnterminatedStringFails) {
  StructuralIndex index;
  EXPECT_FALSE(BuildStructuralIndex("\"abc", &index).ok());
  EXPECT_FALSE(BuildStructuralIndex("{\"a\": \"", &index).ok());
  // Trailing escaped quote keeps the string open.
  EXPECT_FALSE(BuildStructuralIndex("\"abc\\\"", &index).ok());
}

TEST(StructuralIndexTest, Utf8PassesThroughAsScalar) {
  // Multi-byte sequences (and even invalid bytes) classify as one scalar run.
  const std::string doc = "[\"caf\xc3\xa9\", \xf0\x9f\x98\x80]";
  EXPECT_EQ(Positions(doc),
            (std::vector<uint32_t>{0, 1, 7, 8, 10, 14}));
}

TEST(StructuralIndexTest, ReusedIndexIsCleared) {
  StructuralIndex index;
  ASSERT_TRUE(BuildStructuralIndex(R"({"a":1})", &index).ok());
  ASSERT_EQ(index.count, 6u);
  // The buffer is grow-only; only `count` resets between documents.
  ASSERT_TRUE(BuildStructuralIndex("7", &index).ok());
  EXPECT_EQ(Slice(index), std::vector<uint32_t>{0});
}

TEST(StructuralIndexTest, CleanStringsFlag) {
  StructuralIndex index;
  // No escapes, no control bytes inside strings: clean.
  ASSERT_TRUE(BuildStructuralIndex(R"({"a": "hello", "b": [1, "x"]})", &index)
                  .ok());
  EXPECT_TRUE(index.clean_strings);
  // Raw UTF-8 inside strings is still clean (bytes >= 0x80).
  ASSERT_TRUE(BuildStructuralIndex("\"caf\xc3\xa9\"", &index).ok());
  EXPECT_TRUE(index.clean_strings);
  // A backslash inside a string (value or key) clears the flag.
  ASSERT_TRUE(BuildStructuralIndex(R"("a\"b")", &index).ok());
  EXPECT_FALSE(index.clean_strings);
  ASSERT_TRUE(
      BuildStructuralIndex("{\"k\\u00e9\": 1}", &index).ok());
  EXPECT_FALSE(index.clean_strings);
  // A raw control byte inside a string clears it too (the walker must keep
  // validating so the document is rejected like the streaming parser does).
  ASSERT_TRUE(BuildStructuralIndex("\"a\tb\"", &index).ok());
  EXPECT_FALSE(index.clean_strings);
  // Control bytes and backslashes outside strings don't affect the flag; the
  // backslash surfaces as an indexed scalar the walker rejects.
  ASSERT_TRUE(BuildStructuralIndex("[1,\t2]", &index).ok());
  EXPECT_TRUE(index.clean_strings);
}

// --- Tier identity ---------------------------------------------------------
// The scalar loop defines the semantics; BuildStructuralIndex must agree bit
// for bit on every input, including ones crafted to straddle 64-byte blocks.

TEST(StructuralIndexTierTest, BlockBoundaryStrings) {
  // Escapes, quotes and backslash runs placed around the 64-byte block seam
  // (and the 16/32-byte lane seams inside it).
  for (size_t pad : {0u, 1u, 14u, 15u, 16u, 30u, 31u, 32u, 33u, 47u, 48u,
                     61u, 62u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    const std::string fill(pad, 'a');
    ExpectMatchesScalarScan("\"" + fill + "\\\"tail\"");
    ExpectMatchesScalarScan("\"" + fill + "\\\\\"");
    ExpectMatchesScalarScan("[\"" + fill + "\", " + fill + "]");
    ExpectMatchesScalarScan(fill + "\"unterminated");
    ExpectMatchesScalarScan("\"" + std::string(pad, '\\') + "x\"");
  }
}

// The avx2 nibble-LUT classifier folds bytes with | 0x20 before the table
// compare, which shadows ':' with 0x1A and ',' with 0x0C; the kernel must
// strip those (they are control bytes, scalar chars to the reference
// classifier) both inside and outside strings.
TEST(StructuralIndexTierTest, LutShadowBytesClassifyAsScalars) {
  for (const char shadow : {'\x1a', '\x0c'}) {
    const std::string s(1, shadow);
    ExpectMatchesScalarScan(s);
    ExpectMatchesScalarScan("[1" + s + "2]");
    // In a string: a problem bit, not a structural position.
    ExpectMatchesScalarScan("\"a" + s + "b\"");
    ExpectMatchesScalarScan("{\"k\"" + s + ":1}");
    ExpectMatchesScalarScan(std::string(63, ' ') + s + "7");  // block seam
  }
}

TEST(StructuralIndexTierTest, RandomBytes) {
  Random rng(20260808);
  // The literal splits after \x0c so the digits are not read as hex.
  const char alphabet[] = "{}[],:\"\\ \t\n\x1a\x0c" "0123456789aeu\xc3\xa9";
  for (int iter = 0; iter < 2000; iter++) {
    const size_t len = rng.Uniform(200);
    std::string input;
    input.reserve(len);
    for (size_t i = 0; i < len; i++) {
      input.push_back(alphabet[rng.Uniform(sizeof(alphabet) - 1)]);
    }
    ExpectMatchesScalarScan(input);
  }
}

TEST(StructuralIndexTierTest, WorkloadDocuments) {
  workload::TpchOptions tpch;
  tpch.scale_factor = 0.001;
  for (const auto& doc : workload::GenerateTpch(tpch).combined) {
    ExpectMatchesScalarScan(doc);
  }
  for (const auto& file : workload::GenerateSimdJsonCorpus()) {
    ExpectMatchesScalarScan(file.json);
  }
}

// --- Scratch reuse across shrinking documents ------------------------------
// `positions` and `problems` are grow-only buffers: a scan over a short
// document rewrites only their valid prefix and leaves earlier entries from a
// longer document in place. None of that remnant state may ever be observable
// — stale positions past `count`, stale problem bits inside the new
// document's word range (which would make the walker treat a clean lexeme as
// dirty, or worse), or a stale clean_strings verdict. Exercised on both scans
// because the scalar loop and the vector kernels reset the prefix
// differently.
void ExpectNoStaleStateAcrossShrinkingDocs(
    Status (*scan)(std::string_view, StructuralIndex*)) {
  // Escape-heavy opener: sets problem bits in every word it touches and
  // leaves a long positions prefix behind.
  std::string big = "[";
  for (int i = 0; i < 200; i++) big += "\"a\\n\\t\\u0041x\",";
  big += "\"\\\\\"]";
  // Strictly shrinking continuations: dirty, clean, tiny.
  const std::string docs[] = {
      big,
      R"({"k": "clean words only", "n": [1, 2.5, true, null]})",
      "\"a\\\"b\"",  // small dirty: one escape, bits must be exactly here
      R"({"a":1})",  // small clean: all valid problem words must be zero
      "7",
  };
  StructuralIndex reused;
  for (const std::string& doc : docs) {
    StructuralIndex fresh;
    ASSERT_TRUE(scan(doc, &reused).ok()) << doc;
    ASSERT_TRUE(scan(doc, &fresh).ok()) << doc;
    EXPECT_EQ(Slice(reused), Slice(fresh)) << doc;
    EXPECT_EQ(reused.clean_strings, fresh.clean_strings) << doc;
    const size_t words = (doc.size() + 63) / 64;
    ASSERT_GE(reused.problems.size(), words);
    for (size_t w = 0; w < words; w++) {
      EXPECT_EQ(reused.problems[w], fresh.problems[w]) << doc << " word " << w;
    }
  }
}

TEST(StructuralIndexTierTest, ShrinkingDocumentsCarryNoStaleState) {
  ExpectNoStaleStateAcrossShrinkingDocs(BuildStructuralIndexScalar);
  ExpectNoStaleStateAcrossShrinkingDocs(BuildStructuralIndex);
}

// BuildStructuralIndex runs the AVX2 scan exactly when the CPU has AVX2.
TEST(StructuralIndexTierTest, IsaMatchesCpu) {
#if defined(__x86_64__)
  const bool cpu_avx2 = __builtin_cpu_supports("avx2");
#else
  const bool cpu_avx2 = false;
#endif
  EXPECT_STREQ(StructuralIndexIsa(), cpu_avx2 ? "avx2" : "scalar");
}

}  // namespace
}  // namespace jsontiles::json
