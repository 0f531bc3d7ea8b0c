// A relation holding one JSON column under a selectable storage strategy.
//
// The paper's internal competitor set (§6) shares one engine and differs only
// in storage:
//   kJsonText — the document is stored as its raw text; every access parses.
//   kJsonb    — per-document binary JSON (§5); accesses are typed lookups.
//   kSinew    — Tahara et al. [57]: one *global* extraction over the whole
//               table at 60% table frequency, on top of JSONB. No per-tile
//               adaptation, no reordering, no date extraction, no optimizer
//               statistics.
//   kTiles    — JSON tiles: local extraction per tile, reordering,
//               statistics, date detection (this paper).

#ifndef JSONTILES_STORAGE_RELATION_H_
#define JSONTILES_STORAGE_RELATION_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "json/jsonb.h"
#include "tiles/stats.h"
#include "tiles/tile.h"
#include "tiles/tile_config.h"
#include "util/arena.h"
#include "util/status.h"

namespace jsontiles::storage {

enum class StorageMode { kJsonText, kJsonb, kSinew, kTiles };

const char* StorageModeName(StorageMode mode);

class Relation {
 public:
  Relation(std::string name, StorageMode mode, tiles::TileConfig config = {})
      : name_(std::move(name)), mode_(mode), config_(config) {}

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  /// Where one row's document is stored.
  struct DocRef {
    const uint8_t* data;
    size_t size;
  };

  const std::string& name() const { return name_; }
  StorageMode mode() const { return mode_; }
  const tiles::TileConfig& config() const { return config_; }
  size_t num_rows() const { return num_rows_; }

  /// Raw JSON text of a row (kJsonText only).
  std::string_view JsonText(size_t row) const {
    return {reinterpret_cast<const char*>(docs_[row].data), docs_[row].size};
  }

  /// Binary JSON document of a row (all modes except kJsonText).
  json::JsonbValue Jsonb(size_t row) const {
    return json::JsonbValue(docs_[row].data);
  }

  /// Byte size of the stored document (text or binary).
  size_t DocSize(size_t row) const { return docs_[row].size; }

  /// Materialized tiles (kSinew: exactly one covering the whole table).
  const std::vector<tiles::Tile>& tiles() const { return tiles_; }
  std::vector<tiles::Tile>& tiles() { return tiles_; }

  /// The tile whose row range holds `row` (the last tile for rows past the
  /// end; null without tiles).
  const tiles::Tile* TileForRow(size_t row) const;

  /// Relation-level optimizer statistics (kTiles only; Sinew has none, §6.1).
  const tiles::RelationStats& stats() const { return stats_; }
  tiles::RelationStats& stats() { return stats_; }
  bool has_stats() const { return mode_ == StorageMode::kTiles; }

  /// Side relations from high-cardinality array extraction (Tiles-*, §3.5):
  /// encoded array path -> relation of exploded elements (each carrying
  /// `_rowid`).
  const std::unordered_map<std::string, std::unique_ptr<Relation>>&
  side_relations() const {
    return side_relations_;
  }
  Relation* AddSideRelation(const std::string& array_path,
                            std::unique_ptr<Relation> relation) {
    auto [it, _] = side_relations_.emplace(array_path, std::move(relation));
    return it->second.get();
  }
  const Relation* FindSideRelation(std::string_view array_path) const {
    auto it = side_relations_.find(std::string(array_path));
    return it == side_relations_.end() ? nullptr : it->second.get();
  }

  /// §4.7: replace the document of `row` with new JSON text, updating the
  /// covering tile's columns in place. Triggers a tile recompute when the
  /// majority of the tile's tuples have become outliers. Drops the side
  /// relation of every array path the old or the new document holds.
  Status UpdateRow(size_t row, std::string_view json_text);

  /// Total bytes of stored documents.
  size_t DocumentBytes() const { return document_bytes_; }
  /// Total bytes of materialized tile columns + headers.
  size_t TileBytes() const;

  // Internal: used by the loader.
  void AppendDoc(const uint8_t* data, size_t size) {
    docs_.push_back(DocRef{arena_.AllocateCopy(data, size), size});
    document_bytes_ += size;
    num_rows_++;
  }
  /// Internal: used by the loader. Appends one row per ref, in order; the
  /// refs point into `block`, whose allocations the relation takes over.
  void AdoptDocs(Arena&& block, std::span<const DocRef> refs) {
    arena_.Absorb(std::move(block));
    docs_.insert(docs_.end(), refs.begin(), refs.end());
    for (const DocRef& ref : refs) document_bytes_ += ref.size;
    num_rows_ += refs.size();
  }

 private:

  size_t TileIndexForRow(size_t row) const;
  void ReplaceDoc(size_t row, const uint8_t* data, size_t size);

  std::string name_;
  StorageMode mode_;
  tiles::TileConfig config_;
  Arena arena_;
  std::vector<DocRef> docs_;
  std::vector<tiles::Tile> tiles_;
  tiles::RelationStats stats_;
  std::unordered_map<std::string, std::unique_ptr<Relation>> side_relations_;
  size_t num_rows_ = 0;
  size_t document_bytes_ = 0;
};

}  // namespace jsontiles::storage

#endif  // JSONTILES_STORAGE_RELATION_H_
