#include "exec/spill.h"

#include <cstring>

#include "util/failpoint.h"
#include "util/logging.h"
#include "util/lz4.h"

namespace jsontiles::exec {

namespace {

// Blocks are sized so a fanout of 8 partitions per side keeps roughly one
// megabyte of write buffers alive, bounded regardless of input size.
constexpr size_t kSpillBlockSize = 64 * 1024;

void PutBytes(std::vector<uint8_t>& buf, const void* src, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(src);
  buf.insert(buf.end(), p, p + n);
}

template <typename T>
void PutScalar(std::vector<uint8_t>& buf, T v) {
  PutBytes(buf, &v, sizeof(T));
}

template <typename T>
T GetScalar(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

size_t ApproxRowBytes(const Row& row) {
  size_t bytes = sizeof(Row) + row.capacity() * sizeof(Value);
  for (const Value& v : row) {
    if (v.type == ValueType::kString) bytes += v.s.size();
  }
  return bytes;
}

Status SpillFile::Add(uint64_t hash, RowView row) {
  JSONTILES_DCHECK(!finished_);
  const size_t before = buf_.size();
  PutScalar<uint64_t>(buf_, hash);
  PutScalar<uint16_t>(buf_, static_cast<uint16_t>(row.size()));
  for (const Value& v : row) {
    buf_.push_back(static_cast<uint8_t>(v.type));
    buf_.push_back(v.scale);
    switch (v.type) {
      case ValueType::kNull:
        break;
      case ValueType::kString:
        PutScalar<uint32_t>(buf_, static_cast<uint32_t>(v.s.size()));
        PutBytes(buf_, v.s.data(), v.s.size());
        break;
      default:
        // All other types carry their payload in the 8-byte union.
        PutScalar<int64_t>(buf_, v.i);
        break;
    }
  }
  rows_++;
  raw_bytes_ += buf_.size() - before;
  if (buf_.size() >= kSpillBlockSize) return WriteBlock();
  return Status::OK();
}

Status SpillFile::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  if (!buf_.empty()) return WriteBlock();
  return Status::OK();
}

Status SpillFile::WriteBlock() {
  JSONTILES_FAILPOINT_RETURN("spill.write");
  if (!file_.valid()) {
    auto file = TempFile::Create(dir_);
    if (!file.ok()) return file.status();
    file_ = file.MoveValueOrDie();
    if (stats_ != nullptr) stats_->partitions++;
  }
  std::vector<uint8_t> comp = lz4::Compress(buf_.data(), buf_.size());
  const bool store_raw = comp.size() >= buf_.size();
  uint8_t header[8];
  const uint32_t raw_size = static_cast<uint32_t>(buf_.size());
  const uint32_t comp_size =
      store_raw ? 0 : static_cast<uint32_t>(comp.size());
  std::memcpy(header, &raw_size, 4);
  std::memcpy(header + 4, &comp_size, 4);
  const std::vector<uint8_t>& payload = store_raw ? buf_ : comp;
  const uint64_t framed = sizeof(header) + payload.size();
  if (disk_ != nullptr) {
    if (!disk_->TryReserve(framed)) {
      return Status::ResourceExhausted(
          "spill-disk budget exhausted (shared temp-disk governor)");
    }
    disk_held_ += framed;
  }
  JSONTILES_RETURN_NOT_OK(file_.Append(header, sizeof(header)));
  JSONTILES_RETURN_NOT_OK(file_.Append(payload.data(), payload.size()));
  if (stats_ != nullptr) stats_->spilled_bytes += framed;
  buf_.clear();
  return Status::OK();
}

Status SpillFile::ForEach(
    Arena* arena, const std::function<Status(uint64_t, RowView)>& cb) {
  JSONTILES_RETURN_NOT_OK(Finish());
  std::vector<uint8_t> comp;
  std::vector<uint8_t> raw;
  Row row;  // one decode buffer, reused for every record
  uint64_t off = 0;
  while (off < file_.size()) {
    JSONTILES_FAILPOINT_RETURN("spill.read");
    uint8_t header[8];
    JSONTILES_RETURN_NOT_OK(file_.ReadAt(off, header, sizeof(header)));
    off += sizeof(header);
    const uint32_t raw_size = GetScalar<uint32_t>(header);
    const uint32_t comp_size = GetScalar<uint32_t>(header + 4);
    raw.resize(raw_size);
    if (comp_size == 0) {
      JSONTILES_RETURN_NOT_OK(file_.ReadAt(off, raw.data(), raw_size));
      off += raw_size;
    } else {
      comp.resize(comp_size);
      JSONTILES_RETURN_NOT_OK(file_.ReadAt(off, comp.data(), comp_size));
      off += comp_size;
      if (!lz4::Decompress(comp.data(), comp.size(), raw.data(), raw_size)) {
        return Status::Internal("corrupt spill block (LZ4 decode failed)");
      }
    }
    size_t pos = 0;
    while (pos < raw.size()) {
      const uint64_t hash = GetScalar<uint64_t>(raw.data() + pos);
      pos += 8;
      const uint16_t num_values = GetScalar<uint16_t>(raw.data() + pos);
      pos += 2;
      row.resize(num_values);
      for (uint16_t i = 0; i < num_values; i++) {
        Value& v = row[i];
        v = Value();
        v.type = static_cast<ValueType>(raw[pos]);
        v.scale = raw[pos + 1];
        pos += 2;
        switch (v.type) {
          case ValueType::kNull:
            break;
          case ValueType::kString: {
            const uint32_t len = GetScalar<uint32_t>(raw.data() + pos);
            pos += 4;
            const char* src = reinterpret_cast<const char*>(raw.data() + pos);
            if (len == 0) {
              v.s = {};
            } else if (arena != nullptr) {
              uint8_t* copy = arena->AllocateCopy(src, len);
              v.s = std::string_view(reinterpret_cast<const char*>(copy), len);
            } else {
              v.s = std::string_view(src, len);  // valid during cb only
            }
            pos += len;
            break;
          }
          default:
            v.i = GetScalar<int64_t>(raw.data() + pos);
            pos += 8;
            break;
        }
      }
      JSONTILES_RETURN_NOT_OK(cb(hash, row));
    }
  }
  return Status::OK();
}

Status SpillFile::ReadAll(Arena* arena, RowSet* out) {
  const size_t total = out->size() + static_cast<size_t>(rows_);
  bool reserved = false;
  return ForEach(arena, [&](uint64_t, RowView row) {
    out->push_back(row);
    if (!reserved) {  // the width is known once the first row is in
      out->reserve(total);
      reserved = true;
    }
    return Status::OK();
  });
}

}  // namespace jsontiles::exec
