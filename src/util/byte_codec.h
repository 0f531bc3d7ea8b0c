// The byte codec of every format that leaves the process: JTRL relation
// files, the JTSM shard manifest, dist wire messages and spill runs
// (DESIGN.md §10 "Byte primitives").
//
// Fixed-width fields are little-endian. A varint is unsigned LEB128 of at
// most 10 bytes; a signed varint is zigzag-encoded first. `Bytes` and `Str`
// are a varint length followed by that many bytes. ByteWriter appends to a
// caller-owned buffer. ByteReader never reads outside its buffer: every
// getter returns false on truncation, and a length is checked as
// `n > size - pos`, which cannot wrap (the reader keeps pos <= size).

#ifndef JSONTILES_UTIL_BYTE_CODEC_H_
#define JSONTILES_UTIL_BYTE_CODEC_H_

#include <sys/stat.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/bit_util.h"
#include "util/status.h"

namespace jsontiles {

static_assert(std::endian::native == std::endian::little,
              "the byte formats store fixed-width fields in host order");

/// Decodes the varint at data[*pos] and advances *pos past it. Returns false,
/// never reading at or past `size`, when the buffer ends inside the varint or
/// an 11th byte would be needed. The only bounded varint loop: ByteReader and
/// json::ValidateJsonb both decode through it.
inline bool ReadVarint(const uint8_t* data, size_t size, size_t* pos,
                       uint64_t* out) {
  if (*pos < size && data[*pos] < 0x80) {  // most lengths fit one byte
    *out = data[(*pos)++];
    return true;
  }
  uint64_t v = 0;
  for (int shift = 0; shift < 64 && *pos < size; shift += 7) {
    const uint8_t b = data[(*pos)++];
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U16(uint16_t v) { Fixed(v); }
  void U32(uint32_t v) { Fixed(v); }
  void U64(uint64_t v) { Fixed(v); }
  // Through U64: one growth path fewer for the compiler to weigh when
  // inlining into hot encoders.
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Varint(uint64_t v) {
    if (v < 0x80) {  // most lengths and counts: push_back's inline path
      U8(static_cast<uint8_t>(v));
      return;
    }
    uint8_t buf[10];
    Raw(buf, static_cast<size_t>(bit_util::EncodeVarint(buf, v)));
  }
  void SVarint(int64_t v) { Varint(bit_util::ZigZagEncode(v)); }
  /// `size` bytes without a length.
  void Raw(const void* data, size_t size) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + size);
  }
  void Bytes(const void* data, size_t size) {
    Varint(size);
    Raw(data, size);
  }
  void Str(std::string_view s) { Bytes(s.data(), s.size()); }

 private:
  template <typename T>
  void Fixed(T v) {
    const size_t at = out_->size();
    out_->resize(at + sizeof(T));
    std::memcpy(out_->data() + at, &v, sizeof(T));
  }

  std::vector<uint8_t>* out_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool U8(uint8_t* v) {
    if (pos_ == size_) return false;
    *v = data_[pos_++];
    return true;
  }
  bool U16(uint16_t* v) { return Fixed(v); }
  bool U32(uint32_t* v) { return Fixed(v); }
  bool U64(uint64_t* v) { return Fixed(v); }
  bool I64(int64_t* v) { return Fixed(v); }
  bool F64(double* v) { return Fixed(v); }
  bool Varint(uint64_t* v) { return ReadVarint(data_, size_, &pos_, v); }
  bool SVarint(int64_t* v) {
    uint64_t raw;
    if (!Varint(&raw)) return false;
    *v = bit_util::ZigZagDecode(raw);
    return true;
  }
  /// `n` bytes without a length, viewed in place.
  bool Raw(uint64_t n, const uint8_t** data) {
    if (n > size_ - pos_) return false;
    *data = data_ + pos_;
    pos_ += static_cast<size_t>(n);
    return true;
  }
  /// A length and that many bytes, viewed in place.
  bool Bytes(const uint8_t** data, size_t* size) {
    uint64_t n;
    if (!Varint(&n) || !Raw(n, data)) return false;
    *size = static_cast<size_t>(n);
    return true;
  }
  /// Valid only while the buffer lives.
  bool StrView(std::string_view* s) {
    const uint8_t* p;
    size_t n;
    if (!Bytes(&p, &n)) return false;
    *s = std::string_view(reinterpret_cast<const char*>(p), n);
    return true;
  }
  bool Str(std::string* s) {
    std::string_view view;
    if (!StrView(&view)) return false;
    s->assign(view);
    return true;
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  bool Fixed(T* v) {
    if (sizeof(T) > size_ - pos_) return false;
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Replaces `path` with `size` bytes. A failing close is a failed write: a
/// full device often reports only when the buffer is flushed.
inline Status WriteFile(const std::string& path, const void* data,
                        size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  const size_t written = size == 0 ? 0 : std::fwrite(data, 1, size, f);
  const bool closed = std::fclose(f) == 0;
  if (written != size || !closed) {
    return Status::Internal("short write to " + path);
  }
  return Status::OK();
}

/// The whole content of the regular file at `path`. Anything else (a
/// directory, a device) is rejected before its size is trusted.
inline Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  struct stat st;
  if (::fstat(fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
    std::fclose(f);
    return Status::InvalidArgument("not a regular file: " + path);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(st.st_size));
  const size_t read =
      bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (read != bytes.size() || !closed) {
    return Status::Internal("short read from " + path);
  }
  return bytes;
}

}  // namespace jsontiles

#endif  // JSONTILES_UTIL_BYTE_CODEC_H_
