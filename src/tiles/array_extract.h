// High-cardinality array extraction (paper §3.5, the "Tiles-*" variant of
// §6.3).
//
// Arrays with several elements per document (tweet hashtags, user mentions)
// materialize poorly with index paths: only leading elements frequent across
// all documents can become columns. Following Deutsch et al. [19], such an
// array is extracted into a separate relation: each element becomes its own
// document annotated with the parent row id, and the scan answers CONTAINS
// on the array from it (DESIGN.md §3 "CONTAINS routes").
//
// The rule is fixed, with no knobs: an array path qualifies when the
// documents that hold it average at least 1.0 elements and at least 30% of
// all documents hold it (kMinAvgElements and kMinPresence in
// array_extract.cc). The loader applies it to every loaded row, the rows the
// side relations are then exploded from, so an array that appears late in
// the input is seen. The rule does not ask whether the element count
// varies: the scan never answers CONTAINS from index-path columns, so a
// fixed-length array gains as much from a side relation as a varying one.

#ifndef JSONTILES_TILES_ARRAY_EXTRACT_H_
#define JSONTILES_TILES_ARRAY_EXTRACT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "json/jsonb.h"

namespace jsontiles::tiles {

/// The encoded key paths of the arrays in `docs` that meet the rule above,
/// sorted. Nested arrays inside a qualifying array are not reported
/// separately.
std::vector<std::string> DetectHighCardinalityArrays(
    const std::vector<json::JsonbValue>& docs);

/// The key under which the parent row id is stored in side-table documents.
inline constexpr const char* kParentRowIdKey = "_rowid";
/// Fallback key for non-object array elements.
inline constexpr const char* kScalarValueKey = "value";

/// Explode `array_path` of one document into side-table documents: each
/// element object gains a `_rowid` member carrying `parent_row_id`
/// (non-object elements are wrapped as {"value": element, "_rowid": ...}).
/// Appends to `out`; does nothing when the path is absent or not an array.
void ExplodeArray(json::JsonbValue doc, std::string_view encoded_array_path,
                  int64_t parent_row_id,
                  std::vector<std::vector<uint8_t>>* out);

}  // namespace jsontiles::tiles

#endif  // JSONTILES_TILES_ARRAY_EXTRACT_H_
