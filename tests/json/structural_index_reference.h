// Test helper: holds BuildStructuralIndex to the scalar reference scan
// (BuildStructuralIndexScalar), which defines the stage-1 semantics. Shared
// by the stage-1 tests and the on-demand differential tests, so every
// document those feed through the parser also checks the AVX2 scan.

#ifndef JSONTILES_TESTS_JSON_STRUCTURAL_INDEX_REFERENCE_H_
#define JSONTILES_TESTS_JSON_STRUCTURAL_INDEX_REFERENCE_H_

#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "json/structural_index.h"

namespace jsontiles::json {

/// The valid prefix of the positions buffer.
inline std::vector<uint32_t> Slice(const StructuralIndex& index) {
  return std::vector<uint32_t>(index.positions.begin(),
                               index.positions.begin() +
                                   static_cast<long>(index.count));
}

/// BuildStructuralIndex and the scalar scan agree on `input`: status outcome,
/// count and positions, clean_strings, and every problem word the walker may
/// probe.
inline void ExpectMatchesScalarScan(std::string_view input) {
  StructuralIndex scalar, index;
  const Status scalar_st = BuildStructuralIndexScalar(input, &scalar);
  const Status st = BuildStructuralIndex(input, &index);
  EXPECT_EQ(scalar_st.ok(), st.ok()) << input;
  EXPECT_EQ(scalar.count, index.count) << input;
  EXPECT_EQ(Slice(scalar), Slice(index)) << input;
  EXPECT_EQ(scalar.clean_strings, index.clean_strings) << input;
  const size_t words = (input.size() + 63) / 64;
  for (size_t w = 0; w < words; w++) {
    EXPECT_EQ(scalar.problems[w], index.problems[w]) << input << " word " << w;
  }
}

}  // namespace jsontiles::json

#endif  // JSONTILES_TESTS_JSON_STRUCTURAL_INDEX_REFERENCE_H_
