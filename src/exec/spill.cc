#include "exec/spill.h"

#include "util/byte_codec.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/lz4.h"

namespace jsontiles::exec {

namespace {

// Blocks are sized so a fanout of 8 partitions per side keeps roughly one
// megabyte of write buffers alive, bounded regardless of input size.
constexpr size_t kSpillBlockSize = 64 * 1024;

// A run is this process's own temp file, so a corrupt one is an internal
// fault; it still surfaces as a Status, never as a read out of bounds.
#define SPILL_READ(expr) \
  if (!(expr)) return Status::Internal("corrupt spill block: " #expr)

}  // namespace

Status SpillFile::Add(uint64_t hash, RowView row) {
  JSONTILES_DCHECK(!finished_);
  const size_t before = buf_.size();
  ByteWriter w(&buf_);
  w.U64(hash);
  w.U16(static_cast<uint16_t>(row.size()));
  for (const Value& v : row) {
    w.U8(static_cast<uint8_t>(v.type));
    w.U8(v.scale);
    switch (v.type) {
      case ValueType::kNull:
        break;
      case ValueType::kString:
        w.U32(static_cast<uint32_t>(v.s().size()));
        w.Raw(v.s().data(), v.s().size());
        break;
      default:
        // All other types carry their payload in the 8-byte union.
        w.I64(v.i);
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
  const std::vector<uint8_t>& payload = store_raw ? buf_ : comp;
  std::vector<uint8_t> header;
  ByteWriter w(&header);
  w.U32(static_cast<uint32_t>(buf_.size()));
  w.U32(store_raw ? 0 : static_cast<uint32_t>(comp.size()));
  const uint64_t framed = header.size() + payload.size();
  if (disk_ != nullptr) {
    if (!disk_->TryReserve(framed)) {
      return Status::ResourceExhausted(
          "spill-disk budget exhausted (shared temp-disk governor)");
    }
    disk_held_ += framed;
  }
  JSONTILES_RETURN_NOT_OK(file_.Append(header.data(), header.size()));
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
    ByteReader h(header, sizeof(header));
    uint32_t raw_size, comp_size;
    SPILL_READ(h.U32(&raw_size) && h.U32(&comp_size));
    SPILL_READ(raw_size <= raw_bytes_);  // no block outgrows its run
    raw.resize(raw_size);
    if (comp_size == 0) {
      JSONTILES_RETURN_NOT_OK(file_.ReadAt(off, raw.data(), raw_size));
      off += raw_size;
    } else {
      comp.resize(comp_size);
      JSONTILES_RETURN_NOT_OK(file_.ReadAt(off, comp.data(), comp_size));
      off += comp_size;
      SPILL_READ(lz4::Decompress(comp.data(), comp.size(), raw.data(),
                                 raw_size));
    }
    ByteReader r(raw.data(), raw.size());
    while (!r.AtEnd()) {
      uint64_t hash;
      uint16_t num_values;
      SPILL_READ(r.U64(&hash) && r.U16(&num_values));
      row.resize(num_values);
      for (Value& v : row) {
        uint8_t type;
        v = Value();
        SPILL_READ(r.U8(&type) && r.U8(&v.scale));
        SPILL_READ(type <= static_cast<uint8_t>(ValueType::kNumeric));
        v.type = static_cast<ValueType>(type);
        switch (v.type) {
          case ValueType::kNull:
            break;
          case ValueType::kString: {
            uint32_t len;
            const uint8_t* bytes;
            SPILL_READ(r.U32(&len) && r.Raw(len, &bytes));
            const std::string_view s(reinterpret_cast<const char*>(bytes),
                                     len);
            // Without an arena the view is valid during cb only.
            v.set_s(arena != nullptr ? arena->CopyString(s) : s);
            break;
          }
          default:
            SPILL_READ(r.I64(&v.i));
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
