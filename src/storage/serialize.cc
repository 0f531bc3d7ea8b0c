#include "storage/serialize.h"

#include <cstring>
#include <string>

#include "json/jsonb.h"
#include "tiles/tile_builder.h"
#include "util/byte_codec.h"

namespace jsontiles::storage {

namespace {

constexpr char kMagic[4] = {'J', 'T', 'R', 'L'};
constexpr uint32_t kVersion = 3;

#define JT_READ(expr) \
  if (!(expr)) return Status::ParseError("corrupt relation file: " #expr)

template <typename T>
void WriteVec(ByteWriter& w, const std::vector<T>& v) {
  w.Varint(v.size());
  w.Bytes(v.data(), v.size() * sizeof(T));
}

template <typename T>
Status ReadVec(ByteReader& r, std::vector<T>* out) {
  uint64_t count;
  JT_READ(r.Varint(&count));
  const uint8_t* p;
  size_t n;
  JT_READ(r.Bytes(&p, &n));
  // Bound the count first: a corrupt one must not wrap count * sizeof(T).
  JT_READ(count <= n / sizeof(T) && n == count * sizeof(T));
  out->resize(count);
  if (n > 0) std::memcpy(out->data(), p, n);  // empty: data() may be null
  return Status::OK();
}

// Bitmap: bit count, then the ceil(count / 8) low bytes of the column's
// little-endian word buffer (bits past the count are zero).
void WriteBitmap(ByteWriter& w, const std::vector<uint64_t>& words,
                 size_t count) {
  w.Varint(count);
  w.Bytes(words.data(), count / 8 + (count % 8 != 0 ? 1 : 0));
}

Status ReadBitmap(ByteReader& r, uint64_t rows, std::vector<uint64_t>* out) {
  uint64_t count;
  JT_READ(r.Varint(&count));
  const uint8_t* p;
  size_t n;
  JT_READ(r.Bytes(&p, &n));
  JT_READ(n == count / 8 + (count % 8 != 0 ? 1 : 0));  // no count + 7 wrap
  JT_READ(count == rows);
  out->assign(count / 64 + (count % 64 != 0 ? 1 : 0), 0);
  if (n > 0) std::memcpy(out->data(), p, n);  // empty: data() may be null
  JT_READ(count % 64 == 0 || out->back() >> (count % 64) == 0);
  return Status::OK();
}

void WritePacked(ByteWriter& w, const tiles::PackedInts& p) {
  w.U8(p.width);
  w.SVarint(static_cast<int64_t>(p.base));
  w.Bytes(p.deltas.data(), p.deltas.size());
}

Status ReadPacked(ByteReader& r, uint64_t rows, tiles::PackedInts* out) {
  uint8_t width;
  int64_t base;
  const uint8_t* p;
  size_t n;
  JT_READ(r.U8(&width));
  JT_READ(tiles::PackedInts::IsValidWidth(width));
  JT_READ(r.SVarint(&base));
  JT_READ(r.Bytes(&p, &n));
  // Divide rather than multiply: rows * width must not wrap.
  JT_READ(width == 0 ? n == 0 : n % width == 0 && n / width == rows);
  out->width = width;
  out->base = static_cast<uint64_t>(base);
  out->deltas.assign(p, p + n);
  return Status::OK();
}

// The parts a column of each type stores, after its validity bitmap. What
// the parts mean is the column's business (tiles/column.h).
void WriteColumn(ByteWriter& w, const tiles::Column& col) {
  const tiles::Column::Parts& parts = col.parts();
  WriteBitmap(w, parts.validity, col.size());
  switch (col.type()) {
    case tiles::ColumnType::kBool:
      WriteBitmap(w, parts.bools, col.size());
      break;
    case tiles::ColumnType::kInt64:
    case tiles::ColumnType::kTimestamp:
      WritePacked(w, parts.ints);
      break;
    case tiles::ColumnType::kFloat64:
      w.Bytes(parts.floats.data(), parts.floats.size() * sizeof(double));
      break;
    case tiles::ColumnType::kNumeric:
      WritePacked(w, parts.ints);
      w.Bytes(parts.scales.data(), parts.scales.size());
      break;
    case tiles::ColumnType::kString:
      WritePacked(w, parts.ints);
      WritePacked(w, parts.lens);
      break;
  }
}

// `doc_sizes[r]` is the document size of the tile's row r.
Status ReadColumn(ByteReader& r, tiles::ColumnType type, uint64_t rows,
                  const size_t* doc_sizes, tiles::Column* out) {
  tiles::Column::Parts parts;
  JSONTILES_RETURN_NOT_OK(ReadBitmap(r, rows, &parts.validity));
  const uint8_t* p;
  size_t n;
  switch (type) {
    case tiles::ColumnType::kBool:
      JSONTILES_RETURN_NOT_OK(ReadBitmap(r, rows, &parts.bools));
      break;
    case tiles::ColumnType::kInt64:
    case tiles::ColumnType::kTimestamp:
      JSONTILES_RETURN_NOT_OK(ReadPacked(r, rows, &parts.ints));
      break;
    case tiles::ColumnType::kFloat64:
      JT_READ(r.Bytes(&p, &n));
      JT_READ(n % sizeof(double) == 0 && n / sizeof(double) == rows);
      parts.floats.resize(rows);
      if (n > 0) std::memcpy(parts.floats.data(), p, n);
      break;
    case tiles::ColumnType::kNumeric:
      JSONTILES_RETURN_NOT_OK(ReadPacked(r, rows, &parts.ints));
      JT_READ(r.Bytes(&p, &n));
      JT_READ(n == 1 || (n == rows && rows > 1));  // shared or per row
      parts.scales.assign(p, p + n);
      for (uint8_t scale : parts.scales) JT_READ(scale <= Numeric::kMaxScale);
      break;
    case tiles::ColumnType::kString:
      JSONTILES_RETURN_NOT_OK(ReadPacked(r, rows, &parts.ints));
      JSONTILES_RETURN_NOT_OK(ReadPacked(r, rows, &parts.lens));
      break;
  }
  *out = tiles::Column::Restore(type, rows, std::move(parts));
  JT_READ(out->ValidStringRefs(doc_sizes));
  return Status::OK();
}

// Sparse sketch: the nonzero registers as (index delta, value) pairs in
// index order; the first delta is the index itself.
void WriteHll(ByteWriter& w, const HyperLogLog& hll) {
  const std::vector<uint8_t>& registers = hll.registers();
  w.Varint(static_cast<uint64_t>(hll.precision()));
  size_t nonzero = 0;
  for (uint8_t reg : registers) nonzero += reg != 0 ? 1 : 0;
  w.Varint(nonzero);
  size_t prev = 0;
  for (size_t i = 0; i < registers.size(); i++) {
    if (registers[i] == 0) continue;
    w.Varint(i - prev);
    w.U8(registers[i]);
    prev = i;
  }
}

Status ReadHll(ByteReader& r, HyperLogLog* out) {
  uint64_t precision, nonzero;
  JT_READ(r.Varint(&precision));
  JT_READ(precision >= 4 && precision <= 16);
  const uint64_t m = uint64_t{1} << precision;
  JT_READ(r.Varint(&nonzero));
  JT_READ(nonzero <= m);
  std::vector<uint8_t> registers(m, 0);
  uint64_t index = 0;
  for (uint64_t i = 0; i < nonzero; i++) {
    uint64_t delta;
    uint8_t value;
    JT_READ(r.Varint(&delta));
    JT_READ(r.U8(&value));
    JT_READ(i == 0 || delta > 0);  // strictly increasing indexes
    JT_READ(delta < m - index);    // index < 2^p
    index += delta;
    JT_READ(value >= 1 && value <= 64 - precision + 1);
    registers[index] = value;
  }
  *out = HyperLogLog::Restore(static_cast<int>(precision), std::move(registers));
  return Status::OK();
}

void WriteTile(ByteWriter& w, const tiles::Tile& tile) {
  w.Varint(tile.row_begin);
  w.Varint(tile.row_count);
  w.Varint(tile.outlier_count);
  w.Varint(tile.columns.size());
  for (const auto& col : tile.columns) {
    w.Str(col.path);
    w.U8(static_cast<uint8_t>(col.source_type));
    w.U8(static_cast<uint8_t>(col.storage_type));
    w.U8(static_cast<uint8_t>((col.has_type_outliers ? 1 : 0) |
                              (col.nullable ? 2 : 0) |
                              (col.is_timestamp ? 4 : 0) |
                              (col.has_minmax ? 8 : 0)));
    if (col.has_minmax) {
      w.SVarint(col.min_i);
      w.SVarint(col.max_i);
      w.F64(col.min_d);
      w.F64(col.max_d);
    }
    WriteColumn(w, col.column);
  }
  // Stats.
  w.Varint(tile.stats.path_frequencies.size());
  for (const auto& [key, count] : tile.stats.path_frequencies) {
    w.Str(key);
    w.Varint(count);
  }
  w.Varint(tile.stats.column_sketches.size());
  for (const auto& hll : tile.stats.column_sketches) WriteHll(w, hll);
  // Bloom filter.
  WriteVec(w, tile.seen_paths().words());
  w.Varint(tile.seen_paths().num_inserted());
}

// `rel` holds the documents read so far; the tile must cover some of them.
Status ReadTile(ByteReader& r, const Relation& rel, tiles::Tile* tile) {
  uint64_t row_begin, row_count, outliers, num_columns;
  JT_READ(r.Varint(&row_begin));
  JT_READ(r.Varint(&row_count));
  const size_t num_rows = rel.num_rows();
  JT_READ(row_count <= num_rows && row_begin <= num_rows - row_count);
  JT_READ(r.Varint(&outliers));
  JT_READ(r.Varint(&num_columns));
  tile->row_begin = row_begin;
  tile->row_count = row_count;
  tile->outlier_count = outliers;
  std::vector<size_t> doc_sizes;  // of the tile's rows, for string columns
  for (uint64_t i = 0; i < num_columns; i++) {
    tiles::ExtractedColumn col;
    JT_READ(r.Str(&col.path));
    uint8_t source_type, storage_type, flags;
    JT_READ(r.U8(&source_type));
    JT_READ(r.U8(&storage_type));
    JT_READ(r.U8(&flags));
    JT_READ(source_type >= static_cast<uint8_t>(json::JsonType::kBool) &&
            source_type <=
                static_cast<uint8_t>(json::JsonType::kNumericString));
    JT_READ(storage_type <= static_cast<uint8_t>(tiles::ColumnType::kNumeric));
    col.source_type = static_cast<json::JsonType>(source_type);
    col.storage_type = static_cast<tiles::ColumnType>(storage_type);
    JT_READ(col.storage_type == tiles::StorageTypeFor(col.source_type) ||
            (col.source_type == json::JsonType::kString &&
             col.storage_type == tiles::ColumnType::kTimestamp));
    col.has_type_outliers = flags & 1;
    col.nullable = flags & 2;
    col.is_timestamp = flags & 4;
    col.has_minmax = flags & 8;
    if (col.has_minmax) {
      JT_READ(r.SVarint(&col.min_i));
      JT_READ(r.SVarint(&col.max_i));
      JT_READ(r.F64(&col.min_d));
      JT_READ(r.F64(&col.max_d));
    }
    if (col.storage_type == tiles::ColumnType::kString && doc_sizes.empty()) {
      doc_sizes.resize(row_count);
      for (size_t k = 0; k < row_count; k++) {
        doc_sizes[k] = rel.DocSize(row_begin + k);
      }
    }
    JSONTILES_RETURN_NOT_OK(ReadColumn(r, col.storage_type, row_count,
                                       doc_sizes.data(), &col.column));
    tile->columns.push_back(std::move(col));
  }
  uint64_t num_freqs;
  JT_READ(r.Varint(&num_freqs));
  for (uint64_t i = 0; i < num_freqs; i++) {
    std::string key;
    uint64_t count;
    JT_READ(r.Str(&key));
    JT_READ(r.Varint(&count));
    tile->stats.path_frequencies.emplace_back(std::move(key),
                                              static_cast<uint32_t>(count));
  }
  uint64_t num_sketches;
  JT_READ(r.Varint(&num_sketches));
  for (uint64_t i = 0; i < num_sketches; i++) {
    HyperLogLog hll;
    JSONTILES_RETURN_NOT_OK(ReadHll(r, &hll));
    tile->stats.column_sketches.push_back(std::move(hll));
  }
  std::vector<uint64_t> words;
  JSONTILES_RETURN_NOT_OK(ReadVec(r, &words));
  JT_READ(!words.empty() && (words.size() & (words.size() - 1)) == 0);
  uint64_t inserted;
  JT_READ(r.Varint(&inserted));
  // The restored bloom already holds the column prefixes: rebuilding only the
  // lookup keeps Serialize(Deserialize(x)) == x byte for byte.
  tile->RestoreSeenPaths(BloomFilter::Restore(std::move(words), inserted));
  tile->BuildColumnIndex();
  return Status::OK();
}

Status SerializeBody(const Relation& rel, ByteWriter& w) {
  w.U8(static_cast<uint8_t>(rel.mode()));
  w.Str(rel.name());
  WriteTileConfig(w, rel.config());
  // Documents.
  w.Varint(rel.num_rows());
  for (size_t row = 0; row < rel.num_rows(); row++) {
    if (rel.mode() == StorageMode::kJsonText) {
      w.Str(rel.JsonText(row));
    } else {
      w.Bytes(rel.Jsonb(row).data(), rel.DocSize(row));
    }
  }
  // Tiles.
  w.Varint(rel.tiles().size());
  for (const auto& tile : rel.tiles()) WriteTile(w, tile);
  // Relation stats.
  const auto& counters = rel.stats().counters();
  w.Varint(counters.size());
  for (const auto& c : counters) {
    w.Str(c.key);
    w.Varint(c.count);
    w.Varint(c.last_tile);
  }
  const auto& sketches = rel.stats().sketches();
  w.Varint(sketches.size());
  for (const auto& s : sketches) {
    w.Str(s.key);
    WriteHll(w, s.hll);
    w.Varint(s.last_tile);
    w.Varint(s.weight);
  }
  w.Varint(rel.stats().total_tuples());
  // Side relations.
  w.Varint(rel.side_relations().size());
  for (const auto& [path, side] : rel.side_relations()) {
    w.Str(path);
    JSONTILES_RETURN_NOT_OK(SerializeBody(*side, w));
  }
  return Status::OK();
}

Result<std::unique_ptr<Relation>> DeserializeBody(ByteReader& r) {
  uint8_t mode;
  std::string name;
  JT_READ(r.U8(&mode));
  JT_READ(mode <= static_cast<uint8_t>(StorageMode::kTiles));
  JT_READ(r.Str(&name));
  tiles::TileConfig config;
  JT_READ(ReadTileConfig(r, &config));

  auto rel = std::make_unique<Relation>(name, static_cast<StorageMode>(mode),
                                        config);
  uint64_t num_rows;
  JT_READ(r.Varint(&num_rows));
  // Every mode but JSON text stores JSONB documents, which the query paths
  // navigate without bounds checks: validate each before it is kept.
  const bool jsonb_docs = rel->mode() != StorageMode::kJsonText;
  for (uint64_t row = 0; row < num_rows; row++) {
    const uint8_t* p;
    size_t n;
    JT_READ(r.Bytes(&p, &n));
    // No document reaches 4 GiB, the bound of a string Value
    // (exec::kMaxStringBytes): a longer one is corrupt.
    if (n > 0xFFFFFFFFull) {
      return Status::ParseError("corrupt relation file: '" + name + "' row " +
                                std::to_string(row) +
                                ": document larger than 4 GiB");
    }
    if (jsonb_docs) {
      Status st = json::ValidateJsonb(p, n);
      if (!st.ok()) {
        return Status::ParseError("corrupt relation file: '" + name +
                                  "' row " + std::to_string(row) + ": " +
                                  st.message());
      }
    }
    rel->AppendDoc(p, n);
  }
  uint64_t num_tiles;
  JT_READ(r.Varint(&num_tiles));
  for (uint64_t t = 0; t < num_tiles; t++) {
    tiles::Tile tile;
    JSONTILES_RETURN_NOT_OK(ReadTile(r, *rel, &tile));
    rel->tiles().push_back(std::move(tile));
  }
  // Relation stats.
  uint64_t num_counters;
  JT_READ(r.Varint(&num_counters));
  std::vector<tiles::RelationStats::Counter> counters;
  for (uint64_t i = 0; i < num_counters; i++) {
    tiles::RelationStats::Counter c;
    uint64_t last_tile;
    JT_READ(r.Str(&c.key));
    JT_READ(r.Varint(&c.count));
    JT_READ(r.Varint(&last_tile));
    c.last_tile = static_cast<uint32_t>(last_tile);
    counters.push_back(std::move(c));
  }
  uint64_t num_sketches;
  JT_READ(r.Varint(&num_sketches));
  std::vector<tiles::RelationStats::Sketch> sketches;
  for (uint64_t i = 0; i < num_sketches; i++) {
    tiles::RelationStats::Sketch s;
    uint64_t last_tile;
    JT_READ(r.Str(&s.key));
    JSONTILES_RETURN_NOT_OK(ReadHll(r, &s.hll));
    JT_READ(r.Varint(&last_tile));
    JT_READ(r.Varint(&s.weight));
    s.last_tile = static_cast<uint32_t>(last_tile);
    sketches.push_back(std::move(s));
  }
  uint64_t total_tuples;
  JT_READ(r.Varint(&total_tuples));
  rel->stats().Restore(std::move(counters), std::move(sketches), total_tuples);
  // Side relations.
  uint64_t num_sides;
  JT_READ(r.Varint(&num_sides));
  for (uint64_t i = 0; i < num_sides; i++) {
    std::string path;
    JT_READ(r.Str(&path));
    auto side = DeserializeBody(r);
    if (!side.ok()) return side.status();
    rel->AddSideRelation(path, side.MoveValueOrDie());
  }
  return rel;
}

}  // namespace

void WriteTileConfig(ByteWriter& w, const tiles::TileConfig& config) {
  w.Varint(config.tile_size);
  w.Varint(config.partition_size);
  w.U8(config.enable_date_extraction ? 1 : 0);
}

bool ReadTileConfig(ByteReader& r, tiles::TileConfig* config) {
  constexpr uint64_t kMaxSize = uint64_t{1} << 20;
  uint64_t tile_size, partition_size;
  uint8_t date_extraction;
  if (!r.Varint(&tile_size) || !r.Varint(&partition_size) ||
      !r.U8(&date_extraction)) {
    return false;
  }
  if (tile_size < 1 || tile_size > kMaxSize || partition_size < 1 ||
      partition_size > kMaxSize || date_extraction > 1) {
    return false;
  }
  config->tile_size = tile_size;
  config->partition_size = partition_size;
  config->enable_date_extraction = date_extraction != 0;
  return true;
}

Status SerializeRelation(const Relation& relation, std::vector<uint8_t>* out) {
  out->clear();
  ByteWriter w(out);
  w.Raw(kMagic, 4);
  w.Varint(kVersion);
  return SerializeBody(relation, w);
}

Result<std::unique_ptr<Relation>> DeserializeRelation(const uint8_t* data,
                                                      size_t size) {
  if (size < 5 || std::memcmp(data, kMagic, 4) != 0) {
    return Status::ParseError("not a jsontiles relation file");
  }
  ByteReader r(data + 4, size - 4);
  uint64_t version;
  JT_READ(r.Varint(&version));
  if (version != kVersion) {
    return Status::Unsupported("unsupported relation file version");
  }
  auto rel = DeserializeBody(r);
  if (!rel.ok()) return rel.status();
  if (!r.AtEnd()) return Status::ParseError("trailing bytes in relation file");
  return rel;
}

Status SaveRelation(const Relation& relation, const std::string& path) {
  std::vector<uint8_t> bytes;
  JSONTILES_RETURN_NOT_OK(SerializeRelation(relation, &bytes));
  return WriteFile(path, bytes.data(), bytes.size());
}

Result<std::unique_ptr<Relation>> LoadRelation(const std::string& path) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return DeserializeRelation(bytes.ValueOrDie().data(),
                             bytes.ValueOrDie().size());
}

}  // namespace jsontiles::storage
