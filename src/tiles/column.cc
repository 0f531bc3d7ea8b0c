#include "tiles/column.h"

#include <algorithm>
#include <bit>

namespace jsontiles::tiles {

// Deltas and bitmap words are stored as the host lays them out, and relation
// files are little-endian.
static_assert(std::endian::native == std::endian::little);

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kBool: return "Bool";
    case ColumnType::kInt64: return "BigInt";
    case ColumnType::kFloat64: return "Float";
    case ColumnType::kString: return "Text";
    case ColumnType::kTimestamp: return "Timestamp";
    case ColumnType::kNumeric: return "Numeric";
  }
  return "?";
}

namespace {

template <typename T>
void DecodeAs(const uint8_t* p, uint64_t base, size_t count, int64_t* out) {
  for (size_t k = 0; k < count; k++) {
    const T delta = PackedInts::Load<T>(p + k * sizeof(T));
    out[k] = static_cast<int64_t>(base + delta);
  }
}

}  // namespace

void PackedInts::Decode(size_t row, size_t count, int64_t* out) const {
  const uint8_t* p = deltas.data() + row * width;
  switch (width) {
    case 0: std::fill(out, out + count, static_cast<int64_t>(base)); break;
    case 1: DecodeAs<uint8_t>(p, base, count, out); break;
    case 2: DecodeAs<uint16_t>(p, base, count, out); break;
    case 4: DecodeAs<uint32_t>(p, base, count, out); break;
    default: DecodeAs<uint64_t>(p, base, count, out); break;
  }
}

Column::Column(ColumnType type) : type_(type) {
  if (type_ == ColumnType::kNumeric) parts_.scales.push_back(0);
}

void Column::AppendRow(bool valid) {
  const size_t row = size_++;
  if ((row & 63) == 0) {
    parts_.validity.push_back(0);
    if (type_ == ColumnType::kBool) parts_.bools.push_back(0);
  }
  if (valid) {
    AssignBit(parts_.validity, row, true);
  } else {
    null_count_++;
  }
  switch (type_) {
    case ColumnType::kBool:
      break;
    case ColumnType::kFloat64:
      parts_.floats.push_back(0);
      break;
    case ColumnType::kNumeric:
      if (parts_.scales.size() > 1) parts_.scales.push_back(0);
      [[fallthrough]];
    case ColumnType::kInt64:
    case ColumnType::kTimestamp:
      parts_.ints.deltas.resize(size_ * parts_.ints.width);
      break;
    case ColumnType::kString:
      parts_.ints.deltas.resize(size_ * parts_.ints.width);
      parts_.lens.deltas.resize(size_ * parts_.lens.width);
      break;
  }
}

void Column::AppendNull() { AppendRow(false); }

void Column::AppendBool(bool v) {
  JSONTILES_DCHECK(type_ == ColumnType::kBool);
  AppendRow(true);
  AssignBit(parts_.bools, size_ - 1, v);
}

void Column::AppendInt(int64_t v) {
  JSONTILES_DCHECK(type_ == ColumnType::kInt64 ||
                   type_ == ColumnType::kTimestamp);
  AppendRow(true);
  Put(parts_.ints, size_ - 1, v);
}

void Column::AppendFloat(double v) {
  JSONTILES_DCHECK(type_ == ColumnType::kFloat64);
  AppendRow(true);
  parts_.floats.back() = v;
}

void Column::AppendNumeric(Numeric v) {
  JSONTILES_DCHECK(type_ == ColumnType::kNumeric);
  const bool first_value = null_count_ == size_;
  AppendRow(true);
  Put(parts_.ints, size_ - 1, v.unscaled);
  SetScale(size_ - 1, v.scale, first_value);
}

void Column::AppendString(const uint8_t* doc, std::string_view v) {
  JSONTILES_DCHECK(type_ == ColumnType::kString);
  AppendRow(true);
  Put(parts_.ints, size_ - 1, reinterpret_cast<const uint8_t*>(v.data()) - doc);
  Put(parts_.lens, size_ - 1, static_cast<int64_t>(v.size()));
}

void Column::SetScale(size_t row, uint8_t scale, bool only_value) {
  std::vector<uint8_t>& scales = parts_.scales;
  if (scales.size() == 1) {
    if (scales[0] == scale) return;
    if (only_value) {
      scales[0] = scale;
      return;
    }
    // A second scale: from here on every row keeps its own.
    scales.assign(size_, scales[0]);
  }
  scales[row] = scale;
}

void Column::Put(PackedInts& p, size_t row, int64_t v) {
  if (!p.Fits(v)) Repack(p, row, v);
  p.SetDelta(row, static_cast<uint64_t>(v) - p.base);
}

void Column::Repack(PackedInts& p, size_t row, int64_t v) {
  int64_t lo = v;
  int64_t hi = v;
  for (size_t r = 0; r < size_; r++) {
    if (r == row || IsNull(r)) continue;
    const int64_t x = p.Get(r);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  const uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  PackedInts q;
  q.width = PackedInts::WidthFor(range);
  // Centre the values in the new frame: a run of rising or falling values
  // then re-packs a few times per width, not once per value.
  const uint64_t spare = PackedInts::MaxDelta(q.width) - range;
  q.base = static_cast<uint64_t>(lo) - spare / 2;
  q.deltas.assign(size_ * q.width, 0);
  for (size_t r = 0; r < size_; r++) {
    if (r == row || IsNull(r)) continue;
    q.SetDelta(r, static_cast<uint64_t>(p.Get(r)) - q.base);
  }
  p = std::move(q);
}

void Column::MarkValid(size_t row) {
  if (IsNull(row)) {
    AssignBit(parts_.validity, row, true);
    null_count_--;
  }
}

void Column::SetNull(size_t row) {
  if (IsNull(row)) return;
  AssignBit(parts_.validity, row, false);
  null_count_++;
  // Null rows keep a zero payload.
  switch (type_) {
    case ColumnType::kBool:
      AssignBit(parts_.bools, row, false);
      break;
    case ColumnType::kFloat64:
      parts_.floats[row] = 0;
      break;
    case ColumnType::kNumeric:
      if (parts_.scales.size() > 1) parts_.scales[row] = 0;
      [[fallthrough]];
    case ColumnType::kInt64:
    case ColumnType::kTimestamp:
      parts_.ints.SetDelta(row, 0);
      break;
    case ColumnType::kString:
      parts_.ints.SetDelta(row, 0);
      parts_.lens.SetDelta(row, 0);
      break;
  }
}

void Column::SetBool(size_t row, bool v) {
  MarkValid(row);
  AssignBit(parts_.bools, row, v);
}

void Column::SetInt(size_t row, int64_t v) {
  MarkValid(row);
  Put(parts_.ints, row, v);
}

void Column::SetFloat(size_t row, double v) {
  MarkValid(row);
  parts_.floats[row] = v;
}

void Column::SetNumeric(size_t row, Numeric v) {
  const size_t other_values = size_ - null_count_ - (IsNull(row) ? 0 : 1);
  MarkValid(row);
  Put(parts_.ints, row, v.unscaled);
  SetScale(row, v.scale, other_values == 0);
}

void Column::SetString(size_t row, const uint8_t* doc, std::string_view v) {
  MarkValid(row);
  Put(parts_.ints, row, reinterpret_cast<const uint8_t*>(v.data()) - doc);
  Put(parts_.lens, row, static_cast<int64_t>(v.size()));
}

template <typename Fn>
void Column::ForEachNull(size_t row, size_t count, Fn fn) const {
  if (null_count_ == 0) return;
  size_t k = 0;
  while (k < count) {
    const size_t r = row + k;
    const size_t shift = r & 63;
    const size_t span = std::min<size_t>(64 - shift, count - k);
    uint64_t nulls = ~parts_.validity[r >> 6] >> shift;
    if (span < 64) nulls &= (uint64_t{1} << span) - 1;
    while (nulls != 0) {
      fn(k + static_cast<size_t>(std::countr_zero(nulls)));
      nulls &= nulls - 1;
    }
    k += span;
  }
}

void Column::ReadNulls(size_t row, size_t count, uint8_t* nulls) const {
  if (null_count_ == 0) {
    std::memset(nulls, 0, count);
    return;
  }
  for (size_t k = 0; k < count; k++) {
    nulls[k] = Bit(parts_.validity, row + k) ? 0 : 1;
  }
}

void Column::ReadInts(size_t row, size_t count, int64_t* out) const {
  parts_.ints.Decode(row, count, out);
  ForEachNull(row, count, [out](size_t k) { out[k] = 0; });
}

void Column::ReadBools(size_t row, size_t count, int64_t* out) const {
  for (size_t k = 0; k < count; k++) out[k] = GetBool(row + k) ? 1 : 0;
}

void Column::ReadNumerics(size_t row, size_t count, int64_t* unscaled,
                          uint8_t* scales) const {
  parts_.ints.Decode(row, count, unscaled);
  if (parts_.scales.size() == 1) {
    std::memset(scales, parts_.scales[0], count);
  } else {
    std::memcpy(scales, parts_.scales.data() + row, count);
  }
  ForEachNull(row, count, [unscaled, scales](size_t k) {
    unscaled[k] = 0;
    scales[k] = 0;
  });
}

void Column::ReadStrings(size_t row, size_t count, const uint8_t* const* docs,
                         std::string_view* out) const {
  constexpr size_t kStep = 256;
  int64_t offsets[kStep];
  int64_t lens[kStep];
  for (size_t k0 = 0; k0 < count; k0 += kStep) {
    const size_t n = std::min(kStep, count - k0);
    parts_.ints.Decode(row + k0, n, offsets);
    parts_.lens.Decode(row + k0, n, lens);
    // Null rows read as empty at the document start.
    ForEachNull(row + k0, n, [&offsets, &lens](size_t k) {
      offsets[k] = 0;
      lens[k] = 0;
    });
    for (size_t k = 0; k < n; k++) {
      out[k0 + k] = {reinterpret_cast<const char*>(docs[k0 + k]) + offsets[k],
                     static_cast<size_t>(lens[k])};
    }
  }
}

size_t Column::MemoryBytes() const {
  return (parts_.validity.size() + parts_.bools.size()) * sizeof(uint64_t) +
         parts_.ints.deltas.size() + parts_.lens.deltas.size() +
         parts_.floats.size() * sizeof(double) + parts_.scales.size();
}

Column Column::Restore(ColumnType type, size_t rows, Parts parts) {
  JSONTILES_DCHECK(parts.validity.size() == (rows + 63) / 64);
  Column col(type);
  col.size_ = rows;
  size_t valid = 0;
  for (uint64_t word : parts.validity) valid += std::popcount(word);
  col.null_count_ = rows - valid;
  col.parts_ = std::move(parts);
  return col;
}

bool Column::ValidStringRefs(const size_t* doc_sizes) const {
  if (type_ != ColumnType::kString) return true;
  for (size_t r = 0; r < size_; r++) {
    if (IsNull(r)) continue;
    const auto offset = static_cast<uint64_t>(parts_.ints.Get(r));
    const auto len = static_cast<uint64_t>(parts_.lens.Get(r));
    if (len > doc_sizes[r] || offset > doc_sizes[r] - len) return false;
  }
  return true;
}

}  // namespace jsontiles::tiles
