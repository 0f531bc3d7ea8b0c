#include "exec/spill.h"

#include "exec/row_codec.h"
#include "util/byte_codec.h"
#include "util/failpoint.h"
#include "util/logging.h"

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
  EncodeRow(row, &w);
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
  const uint32_t size = static_cast<uint32_t>(buf_.size());
  const uint64_t framed = sizeof(size) + buf_.size();
  if (disk_ != nullptr) {
    if (!disk_->TryReserve(framed)) {
      return Status::ResourceExhausted(
          "spill-disk budget exhausted (shared temp-disk governor)");
    }
    disk_held_ += framed;
  }
  JSONTILES_RETURN_NOT_OK(file_.Append(&size, sizeof(size)));
  JSONTILES_RETURN_NOT_OK(file_.Append(buf_.data(), buf_.size()));
  if (stats_ != nullptr) stats_->spilled_bytes += framed;
  buf_.clear();
  return Status::OK();
}

Status SpillFile::ForEach(
    Arena* arena, const std::function<Status(uint64_t, RowView)>& cb) {
  JSONTILES_RETURN_NOT_OK(Finish());
  std::vector<uint8_t> block;
  Row row;  // one decode buffer, reused for every record
  uint64_t off = 0;
  while (off < file_.size()) {
    JSONTILES_FAILPOINT_RETURN("spill.read");
    uint32_t size;
    JSONTILES_RETURN_NOT_OK(file_.ReadAt(off, &size, sizeof(size)));
    off += sizeof(size);
    SPILL_READ(size <= file_.size() - off);  // no block outgrows its run
    block.resize(size);
    JSONTILES_RETURN_NOT_OK(file_.ReadAt(off, block.data(), size));
    off += size;
    ByteReader r(block.data(), block.size());
    while (!r.AtEnd()) {
      uint64_t hash;
      uint16_t width;
      SPILL_READ(r.U64(&hash) && r.U16(&width));
      row.resize(width);
      for (Value& v : row) {
        // Without an arena strings view the block, valid during cb only.
        SPILL_READ(DecodeValue(&r, arena, &v));
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
