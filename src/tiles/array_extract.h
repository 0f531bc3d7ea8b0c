// High-cardinality array extraction (paper §3.5, the "Tiles-*" variant of
// §6.3).
//
// Arrays with several elements per document (tweet hashtags, user mentions)
// materialize poorly with index paths: only leading elements frequent across
// all documents can become columns. Following Deutsch et al. [19], an array
// whose average element count and presence reach a threshold is extracted
// into a separate relation: each element becomes its own document annotated
// with the parent row id, and the scan answers CONTAINS on the array from it
// (DESIGN.md §3 "CONTAINS routes").

#ifndef JSONTILES_TILES_ARRAY_EXTRACT_H_
#define JSONTILES_TILES_ARRAY_EXTRACT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "json/jsonb.h"
#include "tiles/tile_config.h"

namespace jsontiles::tiles {

struct HighCardArrayInfo {
  std::string path;  // encoded key path of the array
  double avg_elements = 0;
  double presence = 0;  // fraction of documents containing the array
};

/// Scan `docs` (typically a sample) for array-valued paths whose average
/// element count reaches `min_avg_elements` and whose presence reaches
/// `min_presence`. Nested arrays inside a detected array are not reported
/// separately.
std::vector<HighCardArrayInfo> DetectHighCardinalityArrays(
    const std::vector<json::JsonbValue>& docs, const TileConfig& config,
    double min_avg_elements, double min_presence);

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
