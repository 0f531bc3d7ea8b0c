#include "storage/relation.h"

#include <algorithm>

#include "tiles/keypath.h"
#include "tiles/tile_builder.h"

namespace jsontiles::storage {

const char* StorageModeName(StorageMode mode) {
  switch (mode) {
    case StorageMode::kJsonText: return "JSON";
    case StorageMode::kJsonb: return "JSONB";
    case StorageMode::kSinew: return "Sinew";
    case StorageMode::kTiles: return "Tiles";
  }
  return "?";
}

size_t Relation::TileIndexForRow(size_t row) const {
  // Tiles cover consecutive row ranges from row 0, but not always tile_size
  // rows each: a partition that skipped a malformed document ends short. Rows
  // past the end map to the last tile.
  auto next = std::upper_bound(
      tiles_.begin(), tiles_.end(), row,
      [](size_t r, const tiles::Tile& tile) { return r < tile.row_begin; });
  return next == tiles_.begin()
             ? 0
             : static_cast<size_t>(next - tiles_.begin()) - 1;
}

const tiles::Tile* Relation::TileForRow(size_t row) const {
  if (tiles_.empty()) return nullptr;
  return &tiles_[TileIndexForRow(row)];
}

size_t Relation::TileBytes() const {
  size_t bytes = 0;
  for (const auto& tile : tiles_) bytes += tile.ColumnMemoryBytes();
  return bytes;
}

void Relation::ReplaceDoc(size_t row, const uint8_t* data, size_t size) {
  document_bytes_ = document_bytes_ - docs_[row].size + size;
  docs_[row] = DocRef{arena_.AllocateCopy(data, size), size};
}

Status Relation::UpdateRow(size_t row, std::string_view json_text) {
  if (row >= num_rows_) return Status::OutOfRange("row out of range");
  if (mode_ == StorageMode::kJsonText) {
    ReplaceDoc(row, reinterpret_cast<const uint8_t*>(json_text.data()),
               json_text.size());
    return Status::OK();
  }
  json::JsonbBuilder builder;
  std::vector<uint8_t> buf;
  JSONTILES_RETURN_NOT_OK(builder.Transform(json_text, &buf));

  // Tiles-* (§3.5): a side relation would still hold the old document's
  // elements and miss the new one's. Drop the side relation of every array
  // path either document holds; the scan then answers it from the documents.
  auto holds_array = [](json::JsonbValue doc, std::string_view path) {
    auto array = tiles::LookupPath(doc, path);
    return array.has_value() && array->type() == json::JsonType::kArray;
  };
  const json::JsonbValue new_doc(buf.data());
  for (auto it = side_relations_.begin(); it != side_relations_.end();) {
    if (holds_array(Jsonb(row), it->first) || holds_array(new_doc, it->first)) {
      it = side_relations_.erase(it);
    } else {
      ++it;
    }
  }
  ReplaceDoc(row, buf.data(), buf.size());

  if (mode_ == StorageMode::kSinew || mode_ == StorageMode::kTiles) {
    if (!tiles_.empty()) {
      tiles::Tile& tile = tiles_[TileIndexForRow(row)];
      tiles::UpdateTileRow(&tile, row - tile.row_begin, Jsonb(row));
      if (tile.NeedsRecompute()) {
        // §4.7: recompute the materialized tile once most tuples mismatch.
        std::vector<json::JsonbValue> docs;
        docs.reserve(tile.row_count);
        for (size_t r = tile.row_begin; r < tile.row_begin + tile.row_count; r++) {
          docs.push_back(Jsonb(r));
        }
        tiles::TileBuilder tile_builder(config_);
        tile = tile_builder.Build(docs, tile.row_begin);
      }
    }
  }
  return Status::OK();
}

}  // namespace jsontiles::storage
