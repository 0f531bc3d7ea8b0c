#include "util/lz4.h"

#include <cstring>

#include "util/bit_util.h"

namespace jsontiles::lz4 {

namespace {

constexpr int kMinMatch = 4;
constexpr int kHashBits = 16;
constexpr size_t kLastLiterals = 5;  // spec: final bytes are always literals

inline uint32_t HashSeq(uint32_t v) { return (v * 2654435761u) >> (32 - kHashBits); }

inline void WriteLength(std::vector<uint8_t>& out, size_t len) {
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<uint8_t>(len));
}

}  // namespace

size_t MaxCompressedSize(size_t n) { return n + n / 255 + 16; }

std::vector<uint8_t> Compress(const uint8_t* src, size_t src_size) {
  std::vector<uint8_t> out;
  out.reserve(src_size / 2 + 64);
  if (src_size == 0) {
    out.push_back(0);  // single token: zero literals, no match
    return out;
  }

  std::vector<uint32_t> table(size_t{1} << kHashBits, 0);  // position + 1
  size_t anchor = 0;
  size_t pos = 0;
  const size_t match_limit =
      src_size > kLastLiterals + kMinMatch ? src_size - kLastLiterals - kMinMatch : 0;

  while (pos < match_limit) {
    uint32_t seq = bit_util::LoadU32(src + pos);
    uint32_t h = HashSeq(seq);
    uint32_t cand = table[h];
    table[h] = static_cast<uint32_t>(pos + 1);
    size_t cand_pos = cand == 0 ? 0 : cand - 1;
    if (cand != 0 && pos - cand_pos <= 0xFFFF &&
        bit_util::LoadU32(src + cand_pos) == seq) {
      // Extend the match forward.
      size_t match_len = kMinMatch;
      size_t max_len = src_size - kLastLiterals - pos;
      while (match_len < max_len && src[cand_pos + match_len] == src[pos + match_len]) {
        match_len++;
      }
      size_t literal_len = pos - anchor;
      uint8_t token = static_cast<uint8_t>(
          (literal_len >= 15 ? 15 : literal_len) << 4 |
          (match_len - kMinMatch >= 15 ? 15 : match_len - kMinMatch));
      out.push_back(token);
      if (literal_len >= 15) WriteLength(out, literal_len - 15);
      out.insert(out.end(), src + anchor, src + anchor + literal_len);
      uint16_t offset = static_cast<uint16_t>(pos - cand_pos);
      out.push_back(static_cast<uint8_t>(offset));
      out.push_back(static_cast<uint8_t>(offset >> 8));
      if (match_len - kMinMatch >= 15) WriteLength(out, match_len - kMinMatch - 15);
      pos += match_len;
      anchor = pos;
      // Index one position inside the match to help future matches.
      if (pos < match_limit) {
        table[HashSeq(bit_util::LoadU32(src + pos - 2))] =
            static_cast<uint32_t>(pos - 2 + 1);
      }
    } else {
      pos++;
    }
  }

  // Final literal run.
  size_t literal_len = src_size - anchor;
  out.push_back(static_cast<uint8_t>((literal_len >= 15 ? 15 : literal_len) << 4));
  if (literal_len >= 15) WriteLength(out, literal_len - 15);
  out.insert(out.end(), src + anchor, src + src_size);
  return out;
}

bool Decompress(const uint8_t* src, size_t src_size, uint8_t* dst,
                size_t decompressed_size) {
  size_t ip = 0;
  size_t op = 0;
  while (ip < src_size) {
    uint8_t token = src[ip++];
    // Literals.
    size_t literal_len = token >> 4;
    if (literal_len == 15) {
      uint8_t b;
      do {
        if (ip >= src_size) return false;
        b = src[ip++];
        literal_len += b;
      } while (b == 255);
    }
    if (ip + literal_len > src_size || op + literal_len > decompressed_size) {
      return false;
    }
    if (literal_len != 0) std::memcpy(dst + op, src + ip, literal_len);
    ip += literal_len;
    op += literal_len;
    if (ip >= src_size) break;  // last sequence has no match part
    // Match.
    if (ip + 2 > src_size) return false;
    size_t offset = src[ip] | (static_cast<size_t>(src[ip + 1]) << 8);
    ip += 2;
    if (offset == 0 || offset > op) return false;
    size_t match_len = (token & 0x0F);
    if (match_len == 15) {
      uint8_t b;
      do {
        if (ip >= src_size) return false;
        b = src[ip++];
        match_len += b;
      } while (b == 255);
    }
    match_len += kMinMatch;
    if (op + match_len > decompressed_size) return false;
    // Byte-wise copy: overlapping matches are the common RLE case.
    const uint8_t* match = dst + op - offset;
    for (size_t i = 0; i < match_len; i++) dst[op + i] = match[i];
    op += match_len;
  }
  return op == decompressed_size;
}

}  // namespace jsontiles::lz4
