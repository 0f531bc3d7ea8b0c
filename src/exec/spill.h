// Spill-to-disk row runs for memory-governed operators.
//
// When a hash join build side or an aggregation table would exceed the
// query's memory budget (util/resource_governor.h), the operator partitions
// its input by the already-computed key hash into SpillFile runs — blocks of
// records in unlinked temp files — and processes one partition at a time.
// Skewed partitions repartition recursively on a different range of hash
// bits per depth, so identical work always lands in one partition eventually
// (a depth cap forces in-memory processing for unsplittable key skew).
//
// Each row is serialized together with its 64-bit key hash, so repartitioning
// never re-evaluates key expressions: depth d routes on bits
// [61-3d, 64-3d) of the stored hash. The row after the hash is written by the
// executor's one row codec (exec/row_codec.h), the bytes a dist row batch
// carries. Values round-trip exactly (type, scale, payload), which keeps
// re-evaluated hashes and comparisons bit-identical to the in-memory path.

#ifndef JSONTILES_EXEC_SPILL_H_
#define JSONTILES_EXEC_SPILL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exec/row_set.h"
#include "exec/value.h"
#include "util/arena.h"
#include "util/resource_governor.h"
#include "util/status.h"
#include "util/temp_file.h"

namespace jsontiles::exec {

/// Counters one operator accumulates across all its spill activity; surfaced
/// as `spilled_bytes` / `spill_partitions` in EXPLAIN ANALYZE.
struct SpillStats {
  uint64_t spilled_bytes = 0;   // bytes written to temp files (with headers)
  uint64_t partitions = 0;      // partition files that reached disk
  uint64_t forced_inmem = 0;    // partitions processed in memory at depth cap
};

/// Partition fanout per recursion level (3 hash bits).
inline constexpr size_t kSpillFanout = 8;
/// Beyond this depth a partition is processed in memory regardless of the
/// budget: its keys are unsplittable (all hash bits exhausted or identical).
inline constexpr size_t kMaxSpillDepth = 12;

/// Partition index of `hash` at recursion depth `depth` (0 = first spill).
inline size_t SpillPartitionOf(uint64_t hash, size_t depth) {
  const int shift = 61 - 3 * static_cast<int>(depth);
  return static_cast<size_t>((shift >= 0 ? hash >> shift : hash) &
                             (kSpillFanout - 1));
}

/// One partition run: append (hash, row) records, then stream or materialize
/// them back. Records [u64 hash][row] fill 64 KiB blocks; each block is
/// written as it is behind a [u32 size] header to an unlinked temp file.
/// Not thread-safe.
class SpillFile {
 public:
  /// `dir` empty = $TMPDIR (else /tmp). `stats` (may be null) receives the
  /// bytes/partition counters as blocks reach disk. `disk` (may be null) is
  /// the shared temp-disk governor: every block reserves its framed size
  /// before the write and the reservation is returned when this run is
  /// destroyed (or replaced), so concurrent spilling queries share one cap.
  /// A refused reserve surfaces as ResourceExhausted from Add/Finish.
  SpillFile(std::string dir, SpillStats* stats, DiskBudget* disk = nullptr)
      : dir_(std::move(dir)), stats_(stats), disk_(disk) {}

  ~SpillFile() { ReleaseDisk(); }

  SpillFile(SpillFile&& other) noexcept { *this = std::move(other); }
  SpillFile& operator=(SpillFile&& other) noexcept {
    if (this != &other) {
      ReleaseDisk();
      dir_ = std::move(other.dir_);
      stats_ = std::exchange(other.stats_, nullptr);
      disk_ = std::exchange(other.disk_, nullptr);
      disk_held_ = std::exchange(other.disk_held_, 0);
      file_ = std::move(other.file_);
      buf_ = std::move(other.buf_);
      rows_ = std::exchange(other.rows_, 0);
      raw_bytes_ = std::exchange(other.raw_bytes_, 0);
      finished_ = std::exchange(other.finished_, false);
    }
    return *this;
  }
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Serialize one record; writes a block when the buffer fills.
  Status Add(uint64_t hash, RowView row);

  /// Write any buffered tail block. Required before ForEach/ReadAll.
  Status Finish();

  uint64_t rows() const { return rows_; }
  /// Serialized record bytes (block headers excluded) — the read-back memory
  /// estimate.
  uint64_t raw_bytes() const { return raw_bytes_; }

  /// Stream records back in insertion order. The row view (and, with a null
  /// arena, its string payloads, which then view the internal block buffer)
  /// is only valid during the callback — enough to re-serialize elsewhere.
  /// With an arena, string payloads are copied into it.
  Status ForEach(Arena* arena,
                 const std::function<Status(uint64_t hash, RowView row)>& cb);

  /// Materialize every record (strings into `arena`).
  Status ReadAll(Arena* arena, RowSet* out);

  /// The framed bytes written so far (valid once a block reached disk).
  const TempFile& file() const { return file_; }

 private:
  Status WriteBlock();
  void ReleaseDisk() {
    if (disk_ != nullptr && disk_held_ > 0) disk_->Release(disk_held_);
    disk_held_ = 0;
  }

  std::string dir_;
  SpillStats* stats_ = nullptr;
  DiskBudget* disk_ = nullptr;
  uint64_t disk_held_ = 0;  // reserved against disk_, returned on destruction
  TempFile file_;           // created lazily by the first WriteBlock
  std::vector<uint8_t> buf_;
  uint64_t rows_ = 0;
  uint64_t raw_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_SPILL_H_
