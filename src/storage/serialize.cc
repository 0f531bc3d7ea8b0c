#include "storage/serialize.h"

#include <cstdio>
#include <cstring>

#include "util/bit_util.h"

namespace jsontiles::storage {

namespace {

constexpr char kMagic[4] = {'J', 'T', 'R', 'L'};
constexpr uint32_t kVersion = 1;

class Writer {
 public:
  explicit Writer(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void Varint(uint64_t v) {
    uint8_t buf[10];
    int n = bit_util::EncodeVarint(buf, v);
    out_->insert(out_->end(), buf, buf + n);
  }
  void SVarint(int64_t v) { Varint(bit_util::ZigZagEncode(v)); }
  void F64(double v) {
    size_t pos = out_->size();
    out_->resize(pos + 8);
    std::memcpy(out_->data() + pos, &v, 8);
  }
  void Bytes(const void* data, size_t size) {
    Varint(size);
    const uint8_t* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + size);
  }
  void Str(std::string_view s) { Bytes(s.data(), s.size()); }

 private:
  std::vector<uint8_t>* out_;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool U8(uint8_t* v) {
    if (pos_ >= size_) return false;
    *v = data_[pos_++];
    return true;
  }
  bool Varint(uint64_t* v) {
    uint64_t result = 0;
    int shift = 0;
    while (pos_ < size_) {
      uint8_t b = data_[pos_++];
      result |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        *v = result;
        return true;
      }
      shift += 7;
      if (shift > 63) return false;
    }
    return false;
  }
  bool SVarint(int64_t* v) {
    uint64_t raw;
    if (!Varint(&raw)) return false;
    *v = bit_util::ZigZagDecode(raw);
    return true;
  }
  bool F64(double* v) {
    if (pos_ + 8 > size_) return false;
    std::memcpy(v, data_ + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool Bytes(const uint8_t** data, size_t* size) {
    uint64_t n;
    if (!Varint(&n) || pos_ + n > size_) return false;
    *data = data_ + pos_;
    *size = n;
    pos_ += n;
    return true;
  }
  bool Str(std::string* s) {
    const uint8_t* p;
    size_t n;
    if (!Bytes(&p, &n)) return false;
    s->assign(reinterpret_cast<const char*>(p), n);
    return true;
  }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

#define JT_READ(expr) \
  if (!(expr)) return Status::ParseError("corrupt relation file: " #expr)

template <typename T>
void WriteVec(Writer& w, const std::vector<T>& v) {
  w.Varint(v.size());
  w.Bytes(v.data(), v.size() * sizeof(T));
}

template <typename T>
Status ReadVec(Reader& r, std::vector<T>* out) {
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

void WriteBitVec(Writer& w, const std::vector<bool>& v) {
  w.Varint(v.size());
  std::vector<uint8_t> packed((v.size() + 7) / 8, 0);
  for (size_t i = 0; i < v.size(); i++) {
    if (v[i]) packed[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
  w.Bytes(packed.data(), packed.size());
}

Status ReadBitVec(Reader& r, std::vector<bool>* out) {
  uint64_t count;
  JT_READ(r.Varint(&count));
  const uint8_t* p;
  size_t n;
  JT_READ(r.Bytes(&p, &n));
  JT_READ(n == count / 8 + (count % 8 != 0 ? 1 : 0));  // no count + 7 wrap
  out->assign(count, false);
  for (size_t i = 0; i < count; i++) {
    if (p[i / 8] & (1u << (i % 8))) (*out)[i] = true;
  }
  return Status::OK();
}

void WriteColumn(Writer& w, const tiles::Column& col) {
  w.U8(static_cast<uint8_t>(col.type()));
  WriteBitVec(w, col.validity());
  WriteVec(w, col.i64_data());
  WriteVec(w, col.f64_data());
  WriteVec(w, col.scales_data());
  WriteVec(w, col.starts_data());
  WriteVec(w, col.lens_data());
  w.Str(col.string_heap());
}

Status ReadColumn(Reader& r, tiles::Column* out) {
  uint8_t type;
  JT_READ(r.U8(&type));
  JT_READ(type <= static_cast<uint8_t>(tiles::ColumnType::kNumeric));
  std::vector<bool> valid;
  JSONTILES_RETURN_NOT_OK(ReadBitVec(r, &valid));
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<uint8_t> scales;
  std::vector<uint32_t> starts, lens;
  std::string heap;
  JSONTILES_RETURN_NOT_OK(ReadVec(r, &i64));
  JSONTILES_RETURN_NOT_OK(ReadVec(r, &f64));
  JSONTILES_RETURN_NOT_OK(ReadVec(r, &scales));
  JSONTILES_RETURN_NOT_OK(ReadVec(r, &starts));
  JSONTILES_RETURN_NOT_OK(ReadVec(r, &lens));
  JT_READ(r.Str(&heap));
  *out = tiles::Column::Restore(static_cast<tiles::ColumnType>(type),
                                std::move(valid), std::move(i64), std::move(f64),
                                std::move(scales), std::move(starts),
                                std::move(lens), std::move(heap));
  return Status::OK();
}

void WriteHll(Writer& w, const HyperLogLog& hll) {
  w.Varint(static_cast<uint64_t>(hll.precision()));
  WriteVec(w, hll.registers());
}

Status ReadHll(Reader& r, HyperLogLog* out) {
  uint64_t precision;
  JT_READ(r.Varint(&precision));
  JT_READ(precision >= 4 && precision <= 16);
  std::vector<uint8_t> registers;
  JSONTILES_RETURN_NOT_OK(ReadVec(r, &registers));
  JT_READ(registers.size() == (size_t{1} << precision));
  *out = HyperLogLog::Restore(static_cast<int>(precision), std::move(registers));
  return Status::OK();
}

void WriteTile(Writer& w, const tiles::Tile& tile) {
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

Status ReadTile(Reader& r, tiles::Tile* tile) {
  uint64_t row_begin, row_count, outliers, num_columns;
  JT_READ(r.Varint(&row_begin));
  JT_READ(r.Varint(&row_count));
  JT_READ(r.Varint(&outliers));
  JT_READ(r.Varint(&num_columns));
  tile->row_begin = row_begin;
  tile->row_count = row_count;
  tile->outlier_count = outliers;
  for (uint64_t i = 0; i < num_columns; i++) {
    tiles::ExtractedColumn col;
    JT_READ(r.Str(&col.path));
    uint8_t source_type, storage_type, flags;
    JT_READ(r.U8(&source_type));
    JT_READ(r.U8(&storage_type));
    JT_READ(r.U8(&flags));
    col.source_type = static_cast<json::JsonType>(source_type);
    col.storage_type = static_cast<tiles::ColumnType>(storage_type);
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
    JSONTILES_RETURN_NOT_OK(ReadColumn(r, &col.column));
    JT_READ(col.column.size() == row_count);
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

Status SerializeInto(const Relation& rel, Writer& w);

Status SerializeBody(const Relation& rel, Writer& w) {
  w.U8(static_cast<uint8_t>(rel.mode()));
  w.Str(rel.name());
  const tiles::TileConfig& config = rel.config();
  w.Varint(config.tile_size);
  w.Varint(config.partition_size);
  w.F64(config.extraction_threshold);
  w.U8(config.enable_date_extraction ? 1 : 0);
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
    JSONTILES_RETURN_NOT_OK(SerializeInto(*side, w));
  }
  return Status::OK();
}

Status SerializeInto(const Relation& rel, Writer& w) {
  return SerializeBody(rel, w);
}

Result<std::unique_ptr<Relation>> DeserializeBody(Reader& r) {
  uint8_t mode;
  std::string name;
  JT_READ(r.U8(&mode));
  JT_READ(mode <= static_cast<uint8_t>(StorageMode::kTiles));
  JT_READ(r.Str(&name));
  tiles::TileConfig config;
  uint64_t tile_size, partition_size;
  double threshold;
  uint8_t date_extraction;
  JT_READ(r.Varint(&tile_size));
  JT_READ(r.Varint(&partition_size));
  JT_READ(r.F64(&threshold));
  JT_READ(r.U8(&date_extraction));
  config.tile_size = tile_size;
  config.partition_size = partition_size;
  config.extraction_threshold = threshold;
  config.enable_date_extraction = date_extraction != 0;

  auto rel = std::make_unique<Relation>(name, static_cast<StorageMode>(mode),
                                        config);
  uint64_t num_rows;
  JT_READ(r.Varint(&num_rows));
  for (uint64_t row = 0; row < num_rows; row++) {
    const uint8_t* p;
    size_t n;
    JT_READ(r.Bytes(&p, &n));
    rel->AppendDoc(p, n);
  }
  uint64_t num_tiles;
  JT_READ(r.Varint(&num_tiles));
  for (uint64_t t = 0; t < num_tiles; t++) {
    tiles::Tile tile;
    JSONTILES_RETURN_NOT_OK(ReadTile(r, &tile));
    JT_READ(tile.row_begin + tile.row_count <= num_rows);
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

Status SerializeRelation(const Relation& relation, std::vector<uint8_t>* out) {
  out->clear();
  out->insert(out->end(), kMagic, kMagic + 4);
  Writer w(out);
  w.Varint(kVersion);
  return SerializeBody(relation, w);
}

Result<std::unique_ptr<Relation>> DeserializeRelation(const uint8_t* data,
                                                      size_t size) {
  if (size < 5 || std::memcmp(data, kMagic, 4) != 0) {
    return Status::ParseError("not a jsontiles relation file");
  }
  Reader r(data + 4, size - 4);
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
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) return Status::Internal("short write to " + path);
  return Status::OK();
}

Result<std::unique_ptr<Relation>> LoadRelation(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (read != bytes.size()) return Status::Internal("short read from " + path);
  return DeserializeRelation(bytes.data(), bytes.size());
}

}  // namespace jsontiles::storage
