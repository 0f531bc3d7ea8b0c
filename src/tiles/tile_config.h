// Tuning knobs for JSON tile construction (paper §3, §6.5).
//
// The paper recommends tile size 2^10, partition size 8 and extraction
// threshold 60%; the tile-size benchmark (Figures 10-13) sweeps these.

#ifndef JSONTILES_TILES_TILE_CONFIG_H_
#define JSONTILES_TILES_TILE_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace jsontiles::tiles {

struct TileConfig {
  /// Number of tuples per tile (paper default 2^10).
  size_t tile_size = 1024;

  /// Number of neighboring tiles grouped for tuple reordering (§3.2);
  /// 1 disables reordering. Paper default 8.
  size_t partition_size = 8;

  /// Extraction threshold: a (key path, type) item is materialized when it
  /// appears in at least this fraction of a tile's tuples. Paper default 60%.
  double extraction_threshold = 0.6;

  /// Key-path collection bounds: maximum nesting depth and the number of
  /// leading array elements considered for materialization (§3.5).
  int max_path_depth = 8;
  uint32_t max_array_elements = 4;

  /// §4.9: detect date/time strings and extract them as SQL Timestamp.
  bool enable_date_extraction = true;

  /// Enable tuple reordering between the tiles of a partition (§3.2).
  bool enable_reordering = true;
};

}  // namespace jsontiles::tiles

#endif  // JSONTILES_TILES_TILE_CONFIG_H_
