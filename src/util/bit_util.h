// Small bit-manipulation helpers shared across modules.

#ifndef JSONTILES_UTIL_BIT_UTIL_H_
#define JSONTILES_UTIL_BIT_UTIL_H_

#include <bit>
#include <cstdint>
#include <cstring>

namespace jsontiles::bit_util {

/// Number of bytes required to represent `v` (at least 1).
inline int MinBytes(uint64_t v) {
  if (v == 0) return 1;
  return (64 - std::countl_zero(v) + 7) / 8;
}

/// Round `v` up to the next power of two (v > 0).
inline uint64_t NextPow2(uint64_t v) {
  if (v <= 1) return 1;
  return uint64_t{1} << (64 - std::countl_zero(v - 1));
}

/// Store the low `n` bytes of `v` little-endian at `dst`.
inline void StoreLE(uint8_t* dst, uint64_t v, int n) {
  for (int i = 0; i < n; i++) dst[i] = static_cast<uint8_t>(v >> (8 * i));
}

/// Load `n` little-endian bytes from `src` into a uint64_t.
inline uint64_t LoadLE(const uint8_t* src, int n) {
  uint64_t v = 0;
  for (int i = 0; i < n; i++) v |= static_cast<uint64_t>(src[i]) << (8 * i);
  return v;
}

inline uint16_t LoadU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void StoreU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, sizeof(v)); }
inline void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
inline void StoreU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

/// Bytes needed for an unsigned LEB128 varint.
inline int VarintSize(uint64_t v) {
  int n = 1;
  while (v >= 0x80) {
    v >>= 7;
    n++;
  }
  return n;
}

/// Encode unsigned LEB128; returns bytes written.
inline int EncodeVarint(uint8_t* dst, uint64_t v) {
  int n = 0;
  while (v >= 0x80) {
    dst[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  dst[n++] = static_cast<uint8_t>(v);
  return n;
}

/// Decode unsigned LEB128; advances *pos.
inline uint64_t DecodeVarint(const uint8_t* src, size_t* pos) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    uint8_t b = src[(*pos)++];
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

/// Two's-complement wrapping int64 arithmetic: computed in uint64_t, where
/// overflow is defined, so an overflowing SQL integer expression wraps
/// instead of being undefined behaviour.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
/// a % b for b != 0, with a % -1 = 0 (INT64_MIN % -1 traps on x86).
inline int64_t WrapMod(int64_t a, int64_t b) { return b == -1 ? 0 : a % b; }

/// Truncate `d` toward zero into `*out`. False when the result is no int64
/// (NaN, ±inf or outside [-2^63, 2^63)), where a plain cast is undefined.
inline bool TruncToInt64(double d, int64_t* out) {
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
    return false;
  }
  *out = static_cast<int64_t>(d);
  return true;
}

/// ZigZag encoding maps signed to unsigned keeping small magnitudes small.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace jsontiles::bit_util

#endif  // JSONTILES_UTIL_BIT_UTIL_H_
