// Typed column chunks: the materialized relational storage inside a tile
// (paper §2.2 "Column Extraction").
//
// Each extracted key path becomes one Column with a validity bitmap. Nulls
// mean "key absent in this document or value of an outlier type"; accesses
// fall back to the binary JSON in that case (§3.4).
//
// Columns are compact, and the same buffers are what a relation file stores
// (DESIGN.md §10):
//   - integers (Int64, Timestamp, Numeric unscaled) are frame-of-reference
//     encoded at the tile's minimal width of 0, 1, 2, 4 or 8 bytes;
//   - strings are not copied: each row references its value inside the
//     row's own binary JSON document by (offset, length), both packed the
//     same way; reads take the document pointer;
//   - bools and validity are word bitmaps;
//   - a Numeric column whose values share one scale stores it once;
//   - floats stay 8 bytes (prices do not round-trip through float32).

#ifndef JSONTILES_TILES_COLUMN_H_
#define JSONTILES_TILES_COLUMN_H_

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "util/date.h"
#include "util/decimal.h"
#include "util/logging.h"

namespace jsontiles::tiles {

enum class ColumnType : uint8_t {
  kBool,
  kInt64,      // SQL BigInt
  kFloat64,    // SQL Float
  kString,     // SQL Text
  kTimestamp,  // SQL Timestamp (date/time extraction, §4.9)
  kNumeric,    // SQL Numeric (from numeric strings, §5.2)
};

const char* ColumnTypeName(ColumnType type);

/// Frame-of-reference integers: row r holds `base + delta_r` (mod 2^64),
/// each delta stored little-endian in `width` bytes. Width 0 stores nothing:
/// every row holds `base`. All arithmetic is unsigned, so any int64 range
/// (INT64_MIN..INT64_MAX included) packs without overflow.
struct PackedInts {
  uint64_t base = 0;
  uint8_t width = 0;            // 0, 1, 2, 4 or 8
  std::vector<uint8_t> deltas;  // rows * width bytes

  static bool IsValidWidth(uint64_t width) {
    return width == 0 || width == 1 || width == 2 || width == 4 || width == 8;
  }
  /// Largest delta a width can hold.
  static uint64_t MaxDelta(uint8_t width) {
    return width == 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * width)) - 1;
  }
  /// Minimal width holding deltas up to `range`.
  static uint8_t WidthFor(uint64_t range) {
    if (range == 0) return 0;
    if (range <= 0xFF) return 1;
    if (range <= 0xFFFF) return 2;
    if (range <= 0xFFFFFFFF) return 4;
    return 8;
  }

  bool Fits(int64_t v) const {
    return static_cast<uint64_t>(v) - base <= MaxDelta(width);
  }
  uint64_t Delta(size_t row) const {
    const uint8_t* p = deltas.data() + row * width;
    switch (width) {
      case 1: return p[0];
      case 2: return Load<uint16_t>(p);
      case 4: return Load<uint32_t>(p);
      case 8: return Load<uint64_t>(p);
      default: return 0;
    }
  }
  int64_t Get(size_t row) const {
    return static_cast<int64_t>(base + Delta(row));
  }
  void SetDelta(size_t row, uint64_t d) {
    uint8_t* p = deltas.data() + row * width;
    switch (width) {
      case 1: p[0] = static_cast<uint8_t>(d); break;
      case 2: Store(p, static_cast<uint16_t>(d)); break;
      case 4: Store(p, static_cast<uint32_t>(d)); break;
      case 8: Store(p, d); break;
      default: break;
    }
  }
  /// Decode `count` rows starting at `row`.
  void Decode(size_t row, size_t count, int64_t* out) const;

  template <typename T>
  static T Load(const uint8_t* p) {
    T v;  // deltas are little-endian, like the host (column.cc)
    std::memcpy(&v, p, sizeof(T));
    return v;
  }
  template <typename T>
  static void Store(uint8_t* p, T v) {
    std::memcpy(p, &v, sizeof(T));
  }
};

/// A fixed-length typed vector with a validity bitmap.
class Column {
 public:
  /// The column's buffers. A relation file stores them as they are
  /// (bitmaps up to their last used byte).
  struct Parts {
    std::vector<uint64_t> validity;  // bit r set: row r holds a value
    std::vector<uint64_t> bools;     // kBool values (null rows 0)
    PackedInts ints;    // Int64/Timestamp values, Numeric unscaled values,
                        // String value offsets inside the row's document
    PackedInts lens;    // String value lengths
    std::vector<double> floats;   // kFloat64 values (null rows 0)
    std::vector<uint8_t> scales;  // kNumeric: one shared scale, or one per row
  };

  explicit Column(ColumnType type);

  ColumnType type() const { return type_; }
  size_t size() const { return size_; }

  bool IsNull(size_t row) const { return !Bit(parts_.validity, row); }
  size_t null_count() const { return null_count_; }

  // Appending -------------------------------------------------------------
  void AppendNull();
  void AppendBool(bool v);
  void AppendInt(int64_t v);
  void AppendFloat(double v);
  void AppendTimestamp(Timestamp v) { AppendInt(v); }
  void AppendNumeric(Numeric v);
  /// `v` must view bytes inside the binary JSON document starting at `doc`
  /// (the row's document); the column stores only where it lies.
  void AppendString(const uint8_t* doc, std::string_view v);

  // Access (a null row reads as 0 / empty) -------------------------------
  bool GetBool(size_t row) const {
    return (Bit(parts_.bools, row) & Bit(parts_.validity, row)) != 0;
  }
  int64_t GetInt(size_t row) const {
    return IsNull(row) ? 0 : parts_.ints.Get(row);
  }
  double GetFloat(size_t row) const { return parts_.floats[row]; }
  Timestamp GetTimestamp(size_t row) const { return GetInt(row); }
  Numeric GetNumeric(size_t row) const {
    if (IsNull(row)) return Numeric{0, 0};
    return Numeric{parts_.ints.Get(row), Scale(row)};
  }
  /// `doc` is the row's binary JSON document.
  std::string_view GetString(size_t row, const uint8_t* doc) const {
    if (IsNull(row)) return {reinterpret_cast<const char*>(doc), 0};
    return {reinterpret_cast<const char*>(doc) + parts_.ints.Get(row),
            static_cast<size_t>(parts_.lens.Get(row))};
  }

  // Bulk typed reads (vectorized scan): decode `count` consecutive rows
  // starting at `row` into caller buffers. Null rows carry a zero/empty
  // placeholder payload — consult `nulls` (1 = null) before using values.
  void ReadNulls(size_t row, size_t count, uint8_t* nulls) const;
  void ReadInts(size_t row, size_t count, int64_t* out) const;
  /// Bools as 0/1 (Value::Bool stores exactly 0/1).
  void ReadBools(size_t row, size_t count, int64_t* out) const;
  void ReadFloats(size_t row, size_t count, double* out) const {
    std::memcpy(out, parts_.floats.data() + row, count * sizeof(double));
  }
  void ReadNumerics(size_t row, size_t count, int64_t* unscaled,
                    uint8_t* scales) const;
  /// `docs[k]` is the document of row `row + k`.
  void ReadStrings(size_t row, size_t count, const uint8_t* const* docs,
                   std::string_view* out) const;

  // In-place update (§4.7). Values outside the current frame re-pack the
  // column wider; a string re-points into the row's new document `doc`.
  void SetNull(size_t row);
  void SetBool(size_t row, bool v);
  void SetInt(size_t row, int64_t v);
  void SetFloat(size_t row, double v);
  void SetNumeric(size_t row, Numeric v);
  void SetString(size_t row, const uint8_t* doc, std::string_view v);

  /// Bytes held by the column's buffers (Table 6).
  size_t MemoryBytes() const;

  /// Serialization: the buffers as stored, and a column rebuilt from them.
  /// Restore expects parts shaped for `type` and `rows` (relation files
  /// validate them; see ValidStringRefs for the document bound).
  const Parts& parts() const { return parts_; }
  static Column Restore(ColumnType type, size_t rows, Parts parts);

  /// Whether every string reference lies inside its row's document, where
  /// `doc_sizes[r]` is the byte size of row r's document.
  bool ValidStringRefs(const size_t* doc_sizes) const;

 private:
  static bool Bit(const std::vector<uint64_t>& words, size_t row) {
    return (words[row >> 6] >> (row & 63)) & 1;
  }
  static void AssignBit(std::vector<uint64_t>& words, size_t row, bool v) {
    const uint64_t mask = uint64_t{1} << (row & 63);
    if (v) {
      words[row >> 6] |= mask;
    } else {
      words[row >> 6] &= ~mask;
    }
  }

  /// Add one row, holding a value or null, with a zero payload.
  void AppendRow(bool valid);
  void MarkValid(size_t row);
  uint8_t Scale(size_t row) const {
    return parts_.scales.size() == 1 ? parts_.scales[0] : parts_.scales[row];
  }
  /// Give `row` the scale `scale`; `only_value` when no other row holds a
  /// value (the shared scale may then change).
  void SetScale(size_t row, uint8_t scale, bool only_value);
  /// Store `v` at `row` of `p` (a row already marked valid), re-packing `p`
  /// first when `v` lies outside its frame.
  void Put(PackedInts& p, size_t row, int64_t v);
  void Repack(PackedInts& p, size_t row, int64_t v);
  /// Call `fn(k)` for each null row `row + k`, k < count.
  template <typename Fn>
  void ForEachNull(size_t row, size_t count, Fn fn) const;

  ColumnType type_;
  size_t size_ = 0;
  size_t null_count_ = 0;
  Parts parts_;
};

}  // namespace jsontiles::tiles

#endif  // JSONTILES_TILES_COLUMN_H_
