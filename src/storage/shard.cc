#include "storage/shard.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "json/jsonb.h"
#include "json/ondemand.h"
#include "obs/obs.h"
#include "storage/serialize.h"
#include "tiles/keypath.h"
#include "util/bit_util.h"
#include "util/byte_codec.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace jsontiles::storage {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Upper bound on the shard count, for ShardedRelation::Load and for
/// OpenSharded's validation: a corrupt manifest cannot make us allocate an
/// absurd shard vector.
constexpr uint64_t kMaxShardCount = 4096;

Status AnnotateShard(const Status& st, size_t shard, const std::string& name) {
  return Status(st.code(), "shard " + std::to_string(shard) + " of '" + name +
                               "': " + st.message());
}

/// Per-document routing decision. Returns the target shard and classifies
/// the routing value so ShardedRelation::routing_kind() can tell the exec
/// layer whether equality pruning is sound.
struct RouteFlags {
  bool has_int = false;
  bool has_string = false;
  bool has_other = false;
};

uint32_t RouteOne(std::string_view doc, size_t index, size_t shard_count,
                  const std::string& routing_path,
                  json::OndemandTransformer* parser,
                  std::vector<uint8_t>* scratch, RouteFlags* flags) {
  const uint32_t fallback = static_cast<uint32_t>(index % shard_count);
  scratch->clear();
  if (!parser->Transform(doc, scratch).ok()) {
    // Malformed: route by position; the load applies the max_errors
    // policy exactly as an unsharded load would.
    return fallback;
  }
  auto value =
      tiles::LookupPath(json::JsonbValue(scratch->data()), routing_path);
  if (!value.has_value()) return fallback;
  switch (value->type()) {
    case json::JsonType::kNull:
      // SQL NULL never matches an equality predicate, so position-routing
      // nulls keeps pruning sound without flagging kMixed.
      return fallback;
    case json::JsonType::kInt:
      flags->has_int = true;
      return static_cast<uint32_t>(ShardKeyHashInt(value->GetInt()) %
                                   shard_count);
    case json::JsonType::kFloat: {
      double d = value->GetDouble();
      int64_t integral = 0;
      if (std::floor(d) == d && bit_util::TruncToInt64(d, &integral)) {
        flags->has_int = true;
        return static_cast<uint32_t>(ShardKeyHashInt(integral) % shard_count);
      }
      flags->has_other = true;
      return fallback;
    }
    case json::JsonType::kString:
      flags->has_string = true;
      return static_cast<uint32_t>(ShardKeyHashString(value->GetString()) %
                                   shard_count);
    default:
      // Bools, numeric strings, objects, arrays: no pruning contract.
      flags->has_other = true;
      return fallback;
  }
}

RoutingValueKind KindFromFlags(const RouteFlags& f) {
  if (f.has_other || (f.has_int && f.has_string)) {
    return RoutingValueKind::kMixed;
  }
  if (f.has_int) return RoutingValueKind::kIntOnly;
  if (f.has_string) return RoutingValueKind::kStringOnly;
  return RoutingValueKind::kNone;
}

constexpr char kManifestMagic[4] = {'J', 'T', 'S', 'M'};
// The only version read or written. Versions 1 and 2 are rejected: their
// shard files hold side `_rowid`s in the global row-id space. Version 3 also
// stored the extraction threshold and the reorder flag.
constexpr uint32_t kManifestVersion = 4;

#define JTSM_READ(expr) \
  if (!(expr)) return Status::ParseError("corrupt shard manifest: " #expr)

std::string ShardFileName(const std::string& name, size_t shard) {
  return name + ".shard-" + std::to_string(shard) + ".jtrl";
}

}  // namespace

ShardStats ComputeShardStats(const Relation& shard) {
  ShardStats stats;
  if (shard.mode() != StorageMode::kTiles) return stats;

  // Bloom: the union of the tile blooms. Tile blooms cover every path
  // MayContainPath would say yes to (extracted-path prefixes plus seen
  // non-extracted paths), so the union is a sound shard-level filter. All
  // tiles are built with the same bloom geometry; bail out (no path stats)
  // if a restored relation ever disagrees.
  std::vector<uint64_t> words;
  size_t inserted = 0;
  bool geometry_ok = true;
  for (const auto& tile : shard.tiles()) {
    const auto& tw = tile.seen_paths().words();
    if (words.empty()) {
      words = tw;
    } else if (tw.size() != words.size()) {
      geometry_ok = false;
      break;
    } else {
      for (size_t i = 0; i < words.size(); i++) words[i] |= tw[i];
    }
    inserted += tile.seen_paths().num_inserted();
  }
  if (!geometry_ok) return stats;
  stats.has_path_stats = true;
  if (!words.empty()) {
    stats.paths = BloomFilter::Restore(std::move(words), inserted);
  }

  // Zone maps: for every path any tile extracted with a min/max, widen the
  // range across tiles. The entry is only valid when every tile that may
  // contain the path has a trustworthy extracted column of one
  // order-preserving storage class — otherwise values hide in binary JSON
  // (or in another class) outside the range.
  auto int_class = [](tiles::ColumnType t) {
    return t == tiles::ColumnType::kInt64 || t == tiles::ColumnType::kTimestamp;
  };
  for (const auto& tile : shard.tiles()) {
    for (const auto& col : tile.columns) {
      if (!col.has_minmax) continue;
      auto [it, fresh] = stats.zones.try_emplace(col.path);
      if (fresh) it->second.storage_type = col.storage_type;
    }
  }
  for (auto& [path, zone] : stats.zones) {
    for (const auto& tile : shard.tiles()) {
      if (!tile.MayContainPath(path)) continue;
      const tiles::ExtractedColumn* col = tile.FindColumn(path);
      if (col == nullptr || !col->has_minmax || col->has_type_outliers) {
        zone.valid = false;
        break;
      }
      bool same_class =
          (int_class(col->storage_type) && int_class(zone.storage_type)) ||
          (col->storage_type == tiles::ColumnType::kFloat64 &&
           zone.storage_type == tiles::ColumnType::kFloat64);
      if (!same_class) {
        zone.valid = false;
        break;
      }
      // Timestamp beats plain Int64 when both appear: scans compare
      // timestamps as int64 microseconds either way.
      if (!zone.any_values) {
        zone.min_i = col->min_i;
        zone.max_i = col->max_i;
        zone.min_d = col->min_d;
        zone.max_d = col->max_d;
        zone.any_values = true;
      } else {
        zone.min_i = std::min(zone.min_i, col->min_i);
        zone.max_i = std::max(zone.max_i, col->max_i);
        zone.min_d = std::min(zone.min_d, col->min_d);
        zone.max_d = std::max(zone.max_d, col->max_d);
      }
    }
    if (!zone.any_values) zone.valid = false;
  }
  // Drop invalid entries so FindZone misses are cheap and unambiguous.
  for (auto it = stats.zones.begin(); it != stats.zones.end();) {
    if (it->second.valid) {
      ++it;
    } else {
      it = stats.zones.erase(it);
    }
  }
  return stats;
}

Result<std::unique_ptr<ShardedRelation>> ShardedRelation::Load(
    const std::vector<std::string>& docs, const std::string& name,
    StorageMode mode, tiles::TileConfig config, LoadOptions load_options,
    ShardOptions shard_options, LoadBreakdown* breakdown) {
  JSONTILES_TRACE_SPAN("shard.load");
  if (shard_options.shard_count == 0 ||
      shard_options.shard_count > kMaxShardCount) {
    return Status::InvalidArgument("shard_count must be in [1, " +
                                   std::to_string(kMaxShardCount) + "]");
  }
  if (shard_options.routing == ShardRouting::kHashKey &&
      shard_options.routing_keys.empty()) {
    return Status::InvalidArgument("hash routing requires routing_keys");
  }
  auto wall0 = Clock::now();
  const size_t shard_count = shard_options.shard_count;

  std::string routing_path;
  if (shard_options.routing == ShardRouting::kHashKey) {
    for (const auto& key : shard_options.routing_keys) {
      tiles::AppendKeySegment(&routing_path, key);
    }
  }

  // Route every document to a shard. Hash routing parses each document once
  // to find the routing value; the per-doc work is independent, so it runs
  // on a pool of its own before the load.
  std::vector<uint32_t> target(docs.size(), 0);
  RoutingValueKind routing_kind = RoutingValueKind::kNone;
  if (shard_count > 1 || shard_options.routing == ShardRouting::kHashKey) {
    if (shard_options.routing == ShardRouting::kRoundRobin) {
      for (size_t i = 0; i < docs.size(); i++) {
        target[i] = static_cast<uint32_t>(i % shard_count);
      }
    } else {
      JSONTILES_TRACE_SPAN("shard.route");
      const size_t workers = std::max<size_t>(load_options.num_threads, 1);
      std::vector<RouteFlags> flags(workers + 1);
      if (workers > 1 && docs.size() > 1) {
        ThreadPool pool(workers);
        std::vector<json::OndemandTransformer> parsers(workers + 1);
        std::vector<std::vector<uint8_t>> scratch(workers + 1);
        pool.ParallelFor(
            docs.size(),
            [&](size_t i, size_t w) {
              target[i] = RouteOne(docs[i], i, shard_count, routing_path,
                                   &parsers[w], &scratch[w], &flags[w]);
            },
            /*chunk=*/256);
      } else {
        json::OndemandTransformer parser;
        std::vector<uint8_t> scratch;
        for (size_t i = 0; i < docs.size(); i++) {
          target[i] = RouteOne(docs[i], i, shard_count, routing_path, &parser,
                               &scratch, &flags[0]);
        }
      }
      RouteFlags merged;
      for (const auto& f : flags) {
        merged.has_int |= f.has_int;
        merged.has_string |= f.has_string;
        merged.has_other |= f.has_other;
      }
      routing_kind = KindFromFlags(merged);
    }
  }

  // One loader call over every shard's documents: its task graph runs the
  // partitions of all shards, and max_errors caps the skips across them.
  std::vector<std::vector<std::string>> shard_docs;
  std::vector<Loader::Input> inputs(shard_count);
  if (shard_count > 1) {
    shard_docs.resize(shard_count);
    std::vector<size_t> counts(shard_count, 0);
    for (uint32_t t : target) counts[t]++;
    for (size_t s = 0; s < shard_count; s++) shard_docs[s].reserve(counts[s]);
    for (size_t i = 0; i < docs.size(); i++) {
      shard_docs[target[i]].push_back(docs[i]);
    }
    for (size_t s = 0; s < shard_count; s++) inputs[s].text = &shard_docs[s];
  } else {
    inputs[0].text = &docs;
  }
  size_t failed_shard = 0;
  auto shards = Loader(mode, config, load_options)
                    .LoadDocs(inputs, name, breakdown, &failed_shard);
  if (!shards.ok()) return AnnotateShard(shards.status(), failed_shard, name);

  auto sharded = Assemble(name, mode, config, std::move(shard_options),
                          std::move(routing_path), routing_kind,
                          shards.MoveValueOrDie());
  JSONTILES_COUNTER_ADD("shard.loads", 1);
  JSONTILES_COUNTER_ADD("shard.shards_loaded", shard_count);
  if (breakdown != nullptr) {
    breakdown->total_wall_secs = Seconds(wall0, Clock::now());
  }
  return sharded;
}

std::unique_ptr<ShardedRelation> ShardedRelation::Assemble(
    std::string name, StorageMode mode, tiles::TileConfig config,
    ShardOptions shard_options, std::string routing_path,
    RoutingValueKind routing_kind,
    std::vector<std::unique_ptr<Relation>> shards) {
  auto sharded = std::unique_ptr<ShardedRelation>(new ShardedRelation());
  sharded->name_ = std::move(name);
  sharded->mode_ = mode;
  sharded->config_ = config;
  sharded->shard_options_ = std::move(shard_options);
  sharded->routing_path_ = std::move(routing_path);
  sharded->routing_kind_ = routing_kind;
  sharded->shards_ = std::move(shards);
  sharded->shard_stats_.reserve(sharded->shards_.size());
  for (const auto& shard : sharded->shards_) {
    sharded->shard_stats_.push_back(ComputeShardStats(*shard));
    sharded->num_rows_ += shard->num_rows();
  }
  return sharded;
}

std::string ShardManifestPath(const std::string& dir,
                              const std::string& name) {
  return dir + "/" + name + ".jtsm";
}

Status SaveSharded(const ShardedRelation& sharded, const std::string& dir) {
  JSONTILES_TRACE_SPAN("shard.save");
  std::vector<std::string> written;
  auto cleanup = [&]() {
    for (const auto& path : written) std::remove(path.c_str());
  };

  std::vector<size_t> file_sizes(sharded.shard_count(), 0);
  for (size_t s = 0; s < sharded.shard_count(); s++) {
    std::vector<uint8_t> bytes;
    Status st = SerializeRelation(sharded.shard(s), &bytes);
    if (st.ok()) {
      const std::string path = dir + "/" + ShardFileName(sharded.name(), s);
      written.push_back(path);
      file_sizes[s] = bytes.size();
      st = WriteFile(path, bytes.data(), bytes.size());
    }
    if (!st.ok()) {
      cleanup();
      return AnnotateShard(st, s, sharded.name());
    }
  }

  {
    Status st = JSONTILES_FAILPOINT_STATUS("shard.manifest_write");
    if (!st.ok()) {
      cleanup();
      return st;
    }
  }

  std::vector<uint8_t> manifest;
  ByteWriter w(&manifest);
  w.Raw(kManifestMagic, 4);
  w.Varint(kManifestVersion);
  w.Str(sharded.name());
  w.U8(static_cast<uint8_t>(sharded.mode()));
  w.U8(static_cast<uint8_t>(sharded.shard_options().routing));
  w.Str(sharded.routing_path());
  w.U8(static_cast<uint8_t>(sharded.routing_kind()));
  WriteTileConfig(w, sharded.config());
  w.Varint(sharded.shard_count());
  for (size_t s = 0; s < sharded.shard_count(); s++) {
    w.Str(ShardFileName(sharded.name(), s));
    w.Varint(sharded.shard(s).num_rows());
    w.Varint(file_sizes[s]);
  }

  // Manifest last, via temp file + rename: a reader either sees no manifest
  // or a manifest whose shard files are all complete.
  const std::string manifest_path = ShardManifestPath(dir, sharded.name());
  const std::string tmp_path = manifest_path + ".tmp";
  Status st = WriteFile(tmp_path, manifest.data(), manifest.size());
  if (st.ok() && std::rename(tmp_path.c_str(), manifest_path.c_str()) != 0) {
    st = Status::Internal("cannot rename " + tmp_path);
  }
  if (!st.ok()) {
    std::remove(tmp_path.c_str());
    cleanup();
    return st;
  }
  JSONTILES_COUNTER_ADD("shard.manifests_written", 1);
  return Status::OK();
}

namespace {

Status ValidateShardFileName(const std::string& filename) {
  if (filename.empty()) {
    return Status::ParseError("corrupt shard manifest: empty shard filename");
  }
  if (filename.find('/') != std::string::npos ||
      filename.find('\\') != std::string::npos ||
      filename.find('\0') != std::string::npos ||
      filename == "." || filename == "..") {
    return Status::ParseError(
        "corrupt shard manifest: shard filename must be a plain file name");
  }
  return Status::OK();
}

Status ParseManifest(const std::vector<uint8_t>& bytes,
                     ShardManifestInfo* info) {
  ByteReader r(bytes.data(), bytes.size());
  const uint8_t* magic;
  JTSM_READ(r.Raw(4, &magic) && std::memcmp(magic, kManifestMagic, 4) == 0);
  uint64_t version;
  JTSM_READ(r.Varint(&version));
  if (version != kManifestVersion) {
    return Status::Unsupported("unsupported shard manifest version " +
                               std::to_string(version));
  }
  info->version = version;
  JTSM_READ(r.Str(&info->name));
  JTSM_READ(!info->name.empty());
  uint8_t mode_raw, routing_raw, kind_raw;
  JTSM_READ(r.U8(&mode_raw));
  JTSM_READ(mode_raw <= static_cast<uint8_t>(StorageMode::kTiles));
  info->mode = static_cast<StorageMode>(mode_raw);
  JTSM_READ(r.U8(&routing_raw));
  JTSM_READ(routing_raw <= static_cast<uint8_t>(ShardRouting::kHashKey));
  info->shard_options.routing = static_cast<ShardRouting>(routing_raw);
  JTSM_READ(r.Str(&info->routing_path));
  JTSM_READ(r.U8(&kind_raw));
  JTSM_READ(kind_raw <= static_cast<uint8_t>(RoutingValueKind::kMixed));
  info->routing_kind = static_cast<RoutingValueKind>(kind_raw);
  JTSM_READ(ReadTileConfig(r, &info->config));
  uint64_t shard_count;
  JTSM_READ(r.Varint(&shard_count));
  JTSM_READ(shard_count >= 1 && shard_count <= kMaxShardCount);
  info->shard_options.shard_count = shard_count;
  for (uint64_t s = 0; s < shard_count; s++) {
    std::string filename;
    uint64_t rows, size;
    JTSM_READ(r.Str(&filename));
    JSONTILES_RETURN_NOT_OK(ValidateShardFileName(filename));
    JTSM_READ(r.Varint(&rows));
    JTSM_READ(r.Varint(&size));
    info->filenames.push_back(std::move(filename));
    info->num_rows.push_back(rows);
    info->file_sizes.push_back(size);
  }
  JTSM_READ(r.AtEnd());
  if (info->shard_options.routing == ShardRouting::kRoundRobin) {
    // Defensive: a round-robin manifest must not smuggle in pruning state.
    if (!info->routing_path.empty() ||
        info->routing_kind != RoutingValueKind::kNone) {
      return Status::ParseError(
          "corrupt shard manifest: round-robin with routing state");
    }
  }
  return Status::OK();
}

}  // namespace

Result<ShardManifestInfo> ReadShardManifest(const std::string& manifest_path) {
  JSONTILES_FAILPOINT_RETURN("shard.open");
  auto bytes = ReadFile(manifest_path);
  if (!bytes.ok()) return bytes.status();
  ShardManifestInfo info;
  JSONTILES_RETURN_NOT_OK(ParseManifest(bytes.ValueOrDie(), &info));
  info.dir = ".";
  if (auto slash = manifest_path.find_last_of('/');
      slash != std::string::npos) {
    info.dir = manifest_path.substr(0, slash);
  }
  return info;
}

Result<std::vector<std::unique_ptr<Relation>>> OpenShardSubset(
    const ShardManifestInfo& info, const std::vector<size_t>& shard_indices) {
  std::vector<std::unique_ptr<Relation>> shards;
  shards.reserve(shard_indices.size());
  for (size_t i = 0; i < shard_indices.size(); i++) {
    const size_t s = shard_indices[i];
    if (s >= info.shard_count() || (i > 0 && shard_indices[i - 1] >= s)) {
      return Status::InvalidArgument(
          "shard indices must be ascending, unique and in range");
    }
    const std::string path = info.dir + "/" + info.filenames[s];
    auto file = ReadFile(path);
    if (!file.ok()) return AnnotateShard(file.status(), s, info.name);
    // Exact-size check first: truncated or padded shard files fail with a
    // clear message even when the content happens to still deserialize.
    if (file.ValueOrDie().size() != info.file_sizes[s]) {
      return AnnotateShard(
          Status::ParseError("shard file " + info.filenames[s] + " has " +
                             std::to_string(file.ValueOrDie().size()) +
                             " bytes, manifest expects " +
                             std::to_string(info.file_sizes[s])),
          s, info.name);
    }
    auto relation = DeserializeRelation(file.ValueOrDie().data(),
                                        file.ValueOrDie().size());
    if (!relation.ok()) return AnnotateShard(relation.status(), s, info.name);
    std::unique_ptr<Relation> shard = relation.MoveValueOrDie();
    if (shard->mode() != info.mode) {
      return AnnotateShard(
          Status::ParseError("shard file mode disagrees with manifest"), s,
          info.name);
    }
    if (shard->num_rows() != info.num_rows[s]) {
      return AnnotateShard(
          Status::ParseError("shard file has " +
                             std::to_string(shard->num_rows()) +
                             " rows, manifest expects " +
                             std::to_string(info.num_rows[s])),
          s, info.name);
    }
    shards.push_back(std::move(shard));
  }
  return shards;
}

Result<std::unique_ptr<ShardedRelation>> OpenSharded(
    const std::string& manifest_path) {
  JSONTILES_TRACE_SPAN("shard.open");
  auto info = ReadShardManifest(manifest_path);
  if (!info.ok()) return info.status();

  std::vector<size_t> all(info.ValueOrDie().shard_count());
  for (size_t s = 0; s < all.size(); s++) all[s] = s;
  auto shards = OpenShardSubset(info.ValueOrDie(), all);
  if (!shards.ok()) return shards.status();
  JSONTILES_COUNTER_ADD("shard.manifests_opened", 1);
  ShardManifestInfo& i = info.ValueOrDie();
  return ShardedRelation::Assemble(std::move(i.name), i.mode, i.config,
                                   std::move(i.shard_options),
                                   std::move(i.routing_path), i.routing_kind,
                                   shards.MoveValueOrDie());
}

}  // namespace jsontiles::storage
