// Wire format of the distributed exchange (DESIGN.md §13).
//
// A connection carries a stream of frames. Each frame is length-prefixed and
// checksummed, and carries its payload as it is:
//
//   [u8 type][u32 size][u64 checksum][payload bytes]
//
// Frames cross a same-host AF_UNIX socket, where a byte costs one kernel
// memcpy, so nothing is compressed. The checksum covers the payload, seeded
// with the type and size, so neither payload corruption nor a header/payload
// mismatch goes undetected. Sizes are capped (kMaxFramePayload) before any
// allocation — a corrupt length cannot make the decoder allocate absurd
// buffers. Everything below the frame layer is bounds-checked via ByteReader:
// the corrupt-frame corpus test feeds truncations and bit flips of real
// streams through DecodeFrame under ASan.
//
// Message payloads (plan fragments, row batches, aggregate partials) are
// versioned implicitly by kWireVersion, exchanged in the Hello handshake:
// coordinator and workers come from the same build, so a mismatch is a
// deployment error, reported cleanly.

#ifndef JSONTILES_DIST_WIRE_H_
#define JSONTILES_DIST_WIRE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "exec/agg_state.h"
#include "exec/expression.h"
#include "exec/operators.h"
#include "exec/scan.h"
#include "util/arena.h"
#include "util/byte_codec.h"
#include "util/status.h"

namespace jsontiles::dist {

inline constexpr uint32_t kWireVersion = 5;
/// Hard cap on a frame's payload size. Batches are cut at ~256 KiB, so real
/// frames sit far below it; its job is bounding allocation when a length
/// field is corrupt.
inline constexpr size_t kMaxFramePayload = 256u << 20;

enum class FrameType : uint8_t {
  kHello = 1,         // worker -> coordinator: version, pid
  kOpen = 2,          // coordinator -> worker: manifest, assigned shards
  kOpenOk = 3,        // worker -> coordinator: per-shard row counts
  kScanFragment = 4,  // coordinator -> worker: scan one shard
  kAggFragment = 5,   // coordinator -> worker: scan + partial-aggregate
  kRowBatch = 6,      // worker -> coordinator: a batch of result rows
  kAggResult = 7,     // worker -> coordinator: partial aggregate groups
  kFragmentDone = 8,  // worker -> coordinator: fragment finished + stats
  kError = 9,          // worker -> coordinator: open/protocol failure
  kShutdown = 10,      // coordinator -> worker: exit cleanly
  kFragmentError = 11  // worker -> coordinator: one fragment failed
                       // deterministically (carries fragment id + epoch)
};
inline constexpr uint8_t kMaxFrameType = 11;

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

/// Frame `payload` (header + checksum + the payload unchanged) onto `stream`.
void AppendFrame(FrameType type, const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* stream);

/// AppendFrame + a full write to `fd` (EINTR/partial-write safe). Fault
/// site: `dist.frame_write`. `wire_bytes` (optional) accumulates the bytes
/// put on the wire.
Status WriteFrame(int fd, FrameType type, const std::vector<uint8_t>& payload,
                  uint64_t* wire_bytes);

/// Decode one frame from a memory buffer: validates header bounds and
/// checksum, then copies the payload out; `*consumed` is the frame's total
/// encoded size. This is the single decode path — ReadFrame layers socket
/// I/O on top, and the corrupt-frame corpus test drives it directly.
Status DecodeFrame(const uint8_t* data, size_t size, size_t* consumed,
                   FrameType* type, std::vector<uint8_t>* payload);

/// Read one frame from `fd` under two deadlines: `idle_timeout_ms` bounds
/// the wait for the frame's FIRST byte (how long a quiet peer may stay
/// silent), and once any byte has arrived `frame_timeout_ms` bounds the rest
/// of the frame — a peer that opens a header and stalls cannot ride the idle
/// budget. Returns kOutOfRange("connection closed") on clean EOF at a frame
/// boundary, kInternal on either timeout, ParseError on a corrupt frame.
/// `wire_bytes` (optional) accumulates bytes received.
Status ReadFrame(int fd, int idle_timeout_ms, int frame_timeout_ms,
                 FrameType* type, std::vector<uint8_t>* payload,
                 uint64_t* wire_bytes);

/// Single-deadline form: idle and frame share `timeout_ms`.
inline Status ReadFrame(int fd, int timeout_ms, FrameType* type,
                        std::vector<uint8_t>* payload, uint64_t* wire_bytes) {
  return ReadFrame(fd, timeout_ms, timeout_ms, type, payload, wire_bytes);
}

// ---------------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------------

struct HelloMsg {
  uint32_t version = kWireVersion;
  int64_t pid = 0;
};
void EncodeHello(const HelloMsg& msg, std::vector<uint8_t>* out);
Status DecodeHello(const std::vector<uint8_t>& payload, HelloMsg* msg);

struct OpenMsg {
  std::string manifest_path;
  std::vector<uint64_t> shards;  // assigned shard indices, ascending
  uint64_t num_threads = 1;      // per-fragment QueryContext threads
};
void EncodeOpen(const OpenMsg& msg, std::vector<uint8_t>* out);
Status DecodeOpen(const std::vector<uint8_t>& payload, OpenMsg* msg);

struct OpenOkMsg {
  std::vector<uint64_t> shard_rows;  // parallel to OpenMsg::shards
};
void EncodeOpenOk(const OpenOkMsg& msg, std::vector<uint8_t>* out);
Status DecodeOpenOk(const std::vector<uint8_t>& payload, OpenOkMsg* msg);

/// Scalar value codec (spill row idiom: type byte, scale byte, payload).
/// Decoded strings are copied into `arena`.
void EncodeValue(const exec::Value& v, ByteWriter* w);
bool DecodeValue(ByteReader* r, Arena* arena, exec::Value* v);

/// Expression tree codec. Decoded expressions own their string storage
/// (const_storage / in_storage / pattern, as the expression factories build
/// them); kLike recompiles its matcher from the pattern. Depth and arity are
/// capped so corrupt input cannot recurse or allocate unboundedly.
void EncodeExpr(const exec::Expr& e, ByteWriter* w);
Status DecodeExpr(ByteReader* r, size_t depth, exec::ExprPtr* out);

/// One plan fragment: scan one shard, with optional partial aggregation
/// (kAggFragment frames; group_by/aggs empty in kScanFragment frames).
/// `string_pool` backs decoded range-predicate constants — a deque so grown
/// entries never move.
struct FragmentMsg {
  uint32_t fragment_id = 0;
  /// Dispatch epoch: bumped by the coordinator on every (re-)dispatch of the
  /// fragment and echoed by the worker in every result frame, so a late
  /// frame from a superseded dispatch is rejected rather than merged.
  uint32_t epoch = 0;
  uint32_t shard_index = 0;
  bool enable_tile_skipping = true;
  std::vector<exec::ExprPtr> accesses;
  exec::ExprPtr filter;
  std::vector<std::string> null_rejecting_paths;
  std::vector<exec::RangePredicate> range_predicates;
  std::vector<exec::ExprPtr> group_by;
  std::vector<exec::AggSpec> aggs;
  std::deque<std::string> string_pool;
};
void EncodeFragment(const FragmentMsg& msg, std::vector<uint8_t>* out);
Status DecodeFragment(const std::vector<uint8_t>& payload, FragmentMsg* msg);

/// Row batches: worker results streamed back in fragment order. Decoded
/// strings go into `arena` (the coordinator's query arena) and rows are
/// appended to `out`'s flat array; a batch whose rows differ in width from
/// each other or from `out`'s rows is rejected as corrupt.
void EncodeRowBatch(uint32_t fragment_id, uint32_t epoch,
                    const exec::RowSet& rows, size_t row_begin,
                    size_t row_end, std::vector<uint8_t>* out);
Status DecodeRowBatch(const std::vector<uint8_t>& payload, Arena* arena,
                      uint32_t* fragment_id, uint32_t* epoch,
                      exec::RowSet* out);

/// Partial-aggregate result: every group of the worker's group table, in
/// group order, with its key hash (recorded, not recomputed, so the
/// coordinator merge chains the group exactly as the worker did). Decode
/// needs the key count and aggregates of the request; a frame whose groups
/// have another key count, or that repeats a group, is rejected as corrupt.
void EncodeAggPartial(uint32_t fragment_id, uint32_t epoch,
                      const exec::GroupTable& groups,
                      std::vector<uint8_t>* out);
struct AggPartial {
  uint32_t fragment_id = 0;
  uint32_t epoch = 0;
  exec::GroupTable groups;
};
Status DecodeAggPartial(const std::vector<uint8_t>& payload, size_t num_keys,
                        const std::vector<exec::AggSpec>& aggs, Arena* arena,
                        AggPartial* out);

struct FragmentDoneMsg {
  uint32_t fragment_id = 0;
  uint32_t epoch = 0;
  uint64_t rows_out = 0;
  uint64_t tiles_scanned = 0;
  uint64_t tiles_skipped = 0;
  uint64_t wall_nanos = 0;
};
void EncodeFragmentDone(const FragmentDoneMsg& msg, std::vector<uint8_t>* out);
Status DecodeFragmentDone(const std::vector<uint8_t>& payload,
                          FragmentDoneMsg* msg);

void EncodeStatus(const Status& st, std::vector<uint8_t>* out);
/// Returns the decoded (non-OK) status in *decoded; the return value reports
/// whether the payload itself parsed.
Status DecodeStatus(const std::vector<uint8_t>& payload, Status* decoded);

/// A deterministic per-fragment failure (kFragmentError): re-running the
/// fragment would fail again, so the coordinator fails the query cleanly
/// instead of retrying. Carries the fragment identity so stale reports from
/// a superseded dispatch can be rejected like any other late frame.
struct FragmentErrorMsg {
  uint32_t fragment_id = 0;
  uint32_t epoch = 0;
  Status error = Status::OK();
};
void EncodeFragmentError(const FragmentErrorMsg& msg,
                         std::vector<uint8_t>* out);
Status DecodeFragmentError(const std::vector<uint8_t>& payload,
                           FragmentErrorMsg* msg);

}  // namespace jsontiles::dist

#endif  // JSONTILES_DIST_WIRE_H_
