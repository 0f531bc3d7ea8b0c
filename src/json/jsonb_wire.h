// Internal JSONB wire-format helpers shared by the two serializers.
//
// The streaming builder (jsonb.cc, node tree + two-pass write) and the
// direct emitter (ondemand.cc, single-pass tape) must produce bit-identical
// bytes for every value — the parser-differential tests are the gate, but
// the encoders below are the mechanism: each leaf encoding and each size
// computation exists exactly once, so the two paths cannot drift. Every
// Encode* writes exactly the number of bytes the matching *Size reports.
//
// This header is internal to src/json (jsonb.h includes it only for its
// inline accessors); the public format documentation lives at the top of
// jsonb.h.

#ifndef JSONTILES_JSON_JSONB_WIRE_H_
#define JSONTILES_JSON_JSONB_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "json/float16.h"
#include "util/bit_util.h"
#include "util/decimal.h"

namespace jsontiles::json::wire {

constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagFalse = 1;
constexpr uint8_t kTagTrue = 2;
constexpr uint8_t kTagIntSmall = 3;
constexpr uint8_t kTagInt = 4;
constexpr uint8_t kTagFloat = 5;
constexpr uint8_t kTagString = 6;
constexpr uint8_t kTagNumeric = 7;
constexpr uint8_t kTagObject = 8;
constexpr uint8_t kTagArray = 9;

inline uint8_t Tag(const uint8_t* p) { return *p >> 4; }
inline uint8_t Imm(const uint8_t* p) { return *p & 0x0F; }

inline int OffsetWidth(uint8_t code) {
  return code == 0 ? 1 : code == 1 ? 2 : 4;
}
inline uint8_t OffsetWidthCode(int width) {
  return width == 1 ? 0 : width == 2 ? 1 : 2;
}
/// Narrowest offset width able to address `slots_size` bytes of slot area.
inline int OffsetWidthFor(uint64_t slots_size) {
  return slots_size <= 0xFF ? 1 : slots_size <= 0xFFFF ? 2 : 4;
}

// --- Leaf encodings --------------------------------------------------------

inline void EncodeNull(uint8_t* out) { *out = kTagNull << 4; }
inline void EncodeBool(uint8_t* out, bool v) {
  *out = static_cast<uint8_t>((v ? kTagTrue : kTagFalse) << 4);
}

inline uint64_t IntSize(int64_t v) {
  if (v >= 0 && v <= 15) return 1;
  uint64_t mag = v < 0 ? -static_cast<uint64_t>(v) : static_cast<uint64_t>(v);
  return 1 + static_cast<uint64_t>(bit_util::MinBytes(mag));
}
inline void EncodeInt(uint8_t* out, int64_t v) {
  if (v >= 0 && v <= 15) {
    *out = static_cast<uint8_t>(kTagIntSmall << 4 | v);
    return;
  }
  uint64_t mag = v < 0 ? -static_cast<uint64_t>(v) : static_cast<uint64_t>(v);
  int n = bit_util::MinBytes(mag);
  *out = static_cast<uint8_t>(kTagInt << 4 | (v < 0 ? 8 : 0) | (n - 1));
  bit_util::StoreLE(out + 1, mag, n);
}

/// Narrowest lossless storage width for a double: 2 (half), 4 or 8 bytes.
inline uint8_t FloatWidth(double d) {
  return IsLosslessHalf(d) ? 2 : IsLosslessSingle(d) ? 4 : 8;
}
inline void EncodeFloat(uint8_t* out, double d, uint8_t width) {
  *out = static_cast<uint8_t>(kTagFloat << 4 | width);
  switch (width) {
    case 2:
      bit_util::StoreU16(out + 1, FloatToHalf(static_cast<float>(d)));
      break;
    case 4:
      bit_util::StoreU32(out + 1, std::bit_cast<uint32_t>(static_cast<float>(d)));
      break;
    default:
      bit_util::StoreU64(out + 1, std::bit_cast<uint64_t>(d));
  }
}

inline uint64_t StringSize(size_t len) {
  if (len < 15) return 1 + static_cast<uint64_t>(len);
  return 1 + static_cast<uint64_t>(bit_util::VarintSize(len)) + len;
}
inline void EncodeString(uint8_t* out, std::string_view s) {
  const size_t len = s.size();
  if (len < 15) {
    *out = static_cast<uint8_t>(kTagString << 4 | len);
    std::memcpy(out + 1, s.data(), len);
    return;
  }
  *out = kTagString << 4 | 15;
  int n = bit_util::EncodeVarint(out + 1, len);
  std::memcpy(out + 1 + static_cast<size_t>(n), s.data(), len);
}

inline uint64_t NumericMagnitude(const Numeric& n) {
  return n.unscaled < 0 ? -static_cast<uint64_t>(n.unscaled)
                        : static_cast<uint64_t>(n.unscaled);
}
inline uint64_t NumericSize(const Numeric& n) {
  return 2 + static_cast<uint64_t>(bit_util::VarintSize(NumericMagnitude(n)));
}
inline void EncodeNumeric(uint8_t* out, const Numeric& n) {
  out[0] = kTagNumeric << 4;
  out[1] = static_cast<uint8_t>((n.unscaled < 0 ? 0x80 : 0) | n.scale);
  bit_util::EncodeVarint(out + 2, NumericMagnitude(n));
}

// --- Containers ------------------------------------------------------------

/// Bytes before the slot area: header byte, varint count, offset table.
inline uint64_t ContainerHeaderSize(uint32_t count, int ow) {
  return 1 + static_cast<uint64_t>(bit_util::VarintSize(count)) +
         static_cast<uint64_t>(count) * static_cast<uint64_t>(ow);
}
/// Writes header byte + varint count; returns the offset-table position.
inline uint8_t* EncodeContainerHeader(uint8_t* out, uint8_t tag, uint32_t count,
                                      int ow) {
  *out = static_cast<uint8_t>(tag << 4 | OffsetWidthCode(ow));
  return out + 1 + bit_util::EncodeVarint(out + 1, count);
}

}  // namespace jsontiles::json::wire

#endif  // JSONTILES_JSON_JSONB_WIRE_H_
