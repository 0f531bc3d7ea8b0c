// Sharded storage: route documents to N independent shards, each a full
// Relation (own tiles, bloom filters, statistics). All shards load in one
// loader call: the loader's task graph runs the partitions of every shard
// (the paper's partition pipeline, §3.2/Figures 16-17), so a sharded load
// parallelises like a plain one. Scans iterate shards and can skip whole
// shards using shard-level statistics before any tile-level work
// (DESIGN.md §10).
//
// Persistence: SaveSharded writes one JTRL file per shard plus a small
// "JTSM" manifest naming them; the manifest is written last (temp file +
// rename), so a crashed or failed save never leaves a readable manifest
// pointing at incomplete shards. OpenSharded validates the manifest and
// every shard file defensively, like DeserializeRelation.

#ifndef JSONTILES_STORAGE_SHARD_H_
#define JSONTILES_STORAGE_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/loader.h"
#include "storage/relation.h"
#include "util/bloom_filter.h"
#include "util/hash.h"
#include "util/status.h"

namespace jsontiles::storage {

enum class ShardRouting : uint8_t {
  /// Document i goes to shard i % N: balanced, key-oblivious.
  kRoundRobin = 0,
  /// Hash of the value under ShardOptions::routing_keys; equal keys land in
  /// the same shard, so a selective equality filter on the routing key can
  /// prune all shards but one. Documents whose routing value is missing or
  /// null fall back to round-robin (they cannot match an equality anyway).
  kHashKey = 1,
};

/// What value types the routing key actually held across all documents.
/// Equality pruning is only sound when every routed value hashed the same
/// way the predicate constant does (see ShardKeyHashInt/String): a shard may
/// only be skipped for `key = 5` when no document routed a string "5" (or any
/// other castable type) elsewhere.
enum class RoutingValueKind : uint8_t {
  kNone = 0,    // no non-null routing values seen (or round-robin)
  kIntOnly = 1,      // integers (including integral floats)
  kStringOnly = 2,   // strings
  kMixed = 3,        // anything else, or a mix — equality pruning disabled
};

struct ShardOptions {
  size_t shard_count = 1;
  ShardRouting routing = ShardRouting::kRoundRobin;
  /// Object-key path of the routing value (kHashKey), e.g. {"user", "id"}.
  std::vector<std::string> routing_keys;
};

/// Routing hashes over primitives. The exec layer re-derives the same hash
/// from a predicate constant to prune shards, so these are the contract
/// between routing and pruning. Integral floats hash as their integer value
/// (a document {"k": 5.0} must land with {"k": 5}).
inline uint64_t ShardKeyHashInt(int64_t v) {
  return HashInt(static_cast<uint64_t>(v));
}
inline uint64_t ShardKeyHashString(std::string_view s) { return HashString(s); }

/// Shard-level zone map for one key path: the union of the shard's tile
/// zone maps. `valid` only when every tile that may contain the path has a
/// trustworthy extracted column (min/max present, no type outliers, one
/// order-preserving storage class), so the range covers every non-null value
/// of the path in the shard.
struct ShardZoneEntry {
  tiles::ColumnType storage_type = tiles::ColumnType::kInt64;
  bool valid = true;
  bool any_values = false;
  int64_t min_i = 0, max_i = 0;  // Int64 / Timestamp
  double min_d = 0, max_d = 0;   // Float64
};

/// Per-shard statistics computed from the shard's tiles (never serialized;
/// rebuilt deterministically at load and at open). The bloom filter is the
/// union of the tile bloom filters, so MayContainPath is exactly "some tile
/// may contain it" — false means no tile-level scan could produce the path.
struct ShardStats {
  bool has_path_stats = false;
  BloomFilter paths{64};
  std::unordered_map<std::string, ShardZoneEntry, tiles::StringKeyHash,
                     std::equal_to<>>
      zones;

  bool MayContainPath(std::string_view path) const {
    return !has_path_stats || paths.MayContainString(path);
  }
  const ShardZoneEntry* FindZone(std::string_view path) const {
    auto it = zones.find(path);
    return it == zones.end() ? nullptr : &it->second;
  }
};

/// Compute shard-level statistics for one loaded shard (tiled modes only;
/// kJsonText/kJsonb shards have no tiles and report has_path_stats=false).
ShardStats ComputeShardStats(const Relation& shard);

/// A relation split into N independently-loaded shards. Query results over a
/// ShardedRelation are bit-identical to the same documents loaded unsharded
/// (DESIGN.md §10 spells out the determinism guarantee).
class ShardedRelation {
 public:
  /// Shard-local row r of shard s has the global virtual row id
  /// RowIdBase(s) + r (what `RowId(alias)` returns). The base depends only on
  /// the shard index, so each shard's ids are known before any shard loads.
  /// Array side relations do not use it: their `_rowid` is the shard-local
  /// row.
  static constexpr int kRowIdShardShift = 40;
  static int64_t RowIdBase(size_t shard) {
    return static_cast<int64_t>(shard) << kRowIdShardShift;
  }

  /// Route `docs` to shards, then load every shard in one Loader call: one
  /// task graph over all shards' partitions, on the loader's threads
  /// (num_threads helpers plus the caller; the caller alone when
  /// num_threads ≤ 1). Each shard is byte-identical to a plain load of the
  /// documents routed to it. LoadOptions::max_errors caps the skips across
  /// all shards; the breakdown sums per-phase CPU seconds over all shards
  /// while total_wall_secs is the wall clock of routing and load. A failing
  /// load names the shard: `shard <s> of '<name>': <cause>`.
  static Result<std::unique_ptr<ShardedRelation>> Load(
      const std::vector<std::string>& docs, const std::string& name,
      StorageMode mode, tiles::TileConfig config = {},
      LoadOptions load_options = {}, ShardOptions shard_options = {},
      LoadBreakdown* breakdown = nullptr);

  const std::string& name() const { return name_; }
  StorageMode mode() const { return mode_; }
  const tiles::TileConfig& config() const { return config_; }
  const ShardOptions& shard_options() const { return shard_options_; }

  size_t shard_count() const { return shards_.size(); }
  const Relation& shard(size_t i) const { return *shards_[i]; }
  const ShardStats& shard_stats(size_t i) const { return shard_stats_[i]; }
  /// Total rows across all shards.
  size_t num_rows() const { return num_rows_; }

  /// Encoded routing key path; empty unless routing == kHashKey.
  const std::string& routing_path() const { return routing_path_; }
  RoutingValueKind routing_kind() const { return routing_kind_; }

  // Internal: assemble from built shards (Load, OpenSharded).
  static std::unique_ptr<ShardedRelation> Assemble(
      std::string name, StorageMode mode, tiles::TileConfig config,
      ShardOptions shard_options, std::string routing_path,
      RoutingValueKind routing_kind,
      std::vector<std::unique_ptr<Relation>> shards);

  ShardedRelation(const ShardedRelation&) = delete;
  ShardedRelation& operator=(const ShardedRelation&) = delete;

 private:
  ShardedRelation() = default;

  std::string name_;
  StorageMode mode_ = StorageMode::kTiles;
  tiles::TileConfig config_;
  ShardOptions shard_options_;
  std::string routing_path_;
  RoutingValueKind routing_kind_ = RoutingValueKind::kNone;
  std::vector<std::unique_ptr<Relation>> shards_;
  std::vector<ShardStats> shard_stats_;
  size_t num_rows_ = 0;
};

/// Path of the manifest SaveSharded writes for `name` into `dir`.
std::string ShardManifestPath(const std::string& dir, const std::string& name);

/// Write `<dir>/<name>.shard-<i>.jtrl` for every shard, then the manifest
/// `<dir>/<name>.jtsm` via temp file + rename. On any failure (I/O or the
/// `shard.manifest_write` / shard-save failpoints) every file written so far
/// is removed — a manifest on disk always names complete shard files.
Status SaveSharded(const ShardedRelation& sharded, const std::string& dir);

/// Everything the manifest records: enough for a distributed coordinator to
/// plan fragment assignment (per-shard row counts and byte sizes) without
/// opening any shard file. Only manifest version 4 is read; a shard's side
/// relations live in its JTRL file, not in the manifest.
struct ShardManifestInfo {
  uint64_t version = 0;
  std::string name;
  StorageMode mode = StorageMode::kTiles;
  ShardOptions shard_options;
  std::string routing_path;
  RoutingValueKind routing_kind = RoutingValueKind::kNone;
  tiles::TileConfig config;
  /// Directory holding the manifest (and thus the shard files).
  std::string dir;
  // Parallel arrays, one entry per shard.
  std::vector<std::string> filenames;
  std::vector<uint64_t> num_rows;
  std::vector<uint64_t> file_sizes;

  size_t shard_count() const { return filenames.size(); }
};

/// Parse and validate a manifest written by SaveSharded without touching any
/// shard file.
Result<ShardManifestInfo> ReadShardManifest(const std::string& manifest_path);

/// Open the shard files at `shard_indices` (ascending, in-range, unique) of
/// a parsed manifest. Validates each file's exact size (truncated or
/// oversized files fail cleanly) and JTRL content against the manifest;
/// statuses name the failing shard file. This is the worker-process entry
/// point: a worker opens only its assigned shards.
Result<std::vector<std::unique_ptr<Relation>>> OpenShardSubset(
    const ShardManifestInfo& info, const std::vector<size_t>& shard_indices);

/// Open a manifest written by SaveSharded (ReadShardManifest + OpenShardSubset
/// over every shard); shard statistics are recomputed.
Result<std::unique_ptr<ShardedRelation>> OpenSharded(
    const std::string& manifest_path);

}  // namespace jsontiles::storage

#endif  // JSONTILES_STORAGE_SHARD_H_
