// Tile construction settings (paper §3, §4.9, §6.5).
//
// The paper's evaluation sweeps only the tile size and the partition size
// (Figures 10-13) and the §4.9 date extraction (Figure 14); everything else
// is fixed. The extraction threshold is kExtractionThreshold below; the
// key-path bounds are kMaxPathDepth and kMaxArrayElements in keypath.h.
// Reordering is off exactly when partition_size is 1.

#ifndef JSONTILES_TILES_TILE_CONFIG_H_
#define JSONTILES_TILES_TILE_CONFIG_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace jsontiles::tiles {

/// A (key path, type) item is materialized when it appears in at least this
/// fraction of a tile's tuples (§3.1, paper value 60%).
inline constexpr double kExtractionThreshold = 0.6;

/// Minimum support, in tuples, for an item to be extracted from `n` tuples:
/// max(1, ceil(kExtractionThreshold * n)).
inline uint32_t ExtractionSupport(size_t n) {
  const auto support = static_cast<uint32_t>(
      std::ceil(kExtractionThreshold * static_cast<double>(n)));
  return support == 0 ? 1 : support;
}

struct TileConfig {
  /// Number of tuples per tile (paper default 2^10).
  size_t tile_size = 1024;

  /// Number of neighboring tiles grouped for tuple reordering (§3.2);
  /// 1 disables reordering. Paper default 8.
  size_t partition_size = 8;

  /// §4.9: detect date/time strings and extract them as SQL Timestamp.
  bool enable_date_extraction = true;
};

}  // namespace jsontiles::tiles

#endif  // JSONTILES_TILES_TILE_CONFIG_H_
