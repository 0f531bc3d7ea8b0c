// Relation persistence: write a loaded relation — documents, tiles (columns,
// headers, bloom filters, statistics), relation statistics and array side
// relations — to a single binary file and read it back without re-running
// extraction.
//
// Format (version 3, specified byte for byte in DESIGN.md §10): "JTRL"
// magic, version, then length-prefixed sections. All integers are LEB128
// varints; byte buffers are length-prefixed. Tile columns are written as the
// compact buffers they are in memory (tiles/column.h). Only the current
// version is read; others return Unsupported. Reads validate every field and
// fail with Status on corruption.

#ifndef JSONTILES_STORAGE_SERIALIZE_H_
#define JSONTILES_STORAGE_SERIALIZE_H_

#include <memory>
#include <string>

#include "storage/relation.h"
#include "tiles/tile_config.h"
#include "util/byte_codec.h"
#include "util/status.h"

namespace jsontiles::storage {

/// Serialize the relation into `out` (cleared first).
Status SerializeRelation(const Relation& relation, std::vector<uint8_t>* out);

/// Reconstruct a relation from serialized bytes.
Result<std::unique_ptr<Relation>> DeserializeRelation(const uint8_t* data,
                                                      size_t size);

/// The tile config as both JTRL and JTSM headers store it: tile_size and
/// partition_size as varints, then the date-extraction flag as a u8 (0/1).
/// ReadTileConfig returns false on a truncated field, a size outside
/// [1, 2^20] or a flag other than 0 or 1; each caller turns that into its
/// format's ParseError.
void WriteTileConfig(ByteWriter& w, const tiles::TileConfig& config);
bool ReadTileConfig(ByteReader& r, tiles::TileConfig* config);

/// File convenience wrappers.
Status SaveRelation(const Relation& relation, const std::string& path);
Result<std::unique_ptr<Relation>> LoadRelation(const std::string& path);

}  // namespace jsontiles::storage

#endif  // JSONTILES_STORAGE_SERIALIZE_H_
