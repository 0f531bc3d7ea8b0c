// On-demand text -> JSONB transformation (the loader's fast parse path,
// "On-Demand JSON", Keiser & Lemire, arXiv 2312.17149).
//
// Stage 1 (structural_index.h) SIMD-scans the whole buffer once and records
// every structural position. Stage 2 (DirectEmitter) walks that index ONCE
// and emits serialized JSONB as it goes — no intermediate node tree, no
// second sizing pass. Container headers (offset width, varint count, offset
// table) depend on the serialized size of the children, which is unknown
// until the container closes, so children are emitted first onto a tape and
// the header is patched in front at close: arrays shift their slot area up
// by the header size, objects additionally reorder slots into sorted
// duplicate-free key order (last occurrence wins, as in the streaming
// parser). Leaf encodings are shared with the streaming parser via
// jsonb_wire.h, so an accepted document is bit-identical to
// JsonbBuilder::Transform's output by construction — and the parser
// differential tests hold the two paths to that contract over the workload
// corpora and a mutation fuzz corpus (with a dedicated ASan/UBSan CI leg).
//
// Tile ingest: the same walk can collect a per-document scalar directory
// (OndemandIngest) — every leaf's encoded key path, JSON type and offset in
// the emitted document, in exactly the order BuildIngestFromJsonb visits the
// leaves of the finished JSONB. The loader interns the directory into the
// mining transactions as soon as the document is emitted, and keeps only the
// value offsets to materialize tile columns without re-navigating the
// document per extracted path.
//
// Fallback contract: on ANY anomaly — stage-1 scan failure, an emitter
// rejection, or the `ondemand.force_fallback` failpoint — the transformer
// re-parses the document with the streaming parser and returns its result
// (deriving the ingest directory from the finished JSONB when requested).
// The streaming parser is therefore the arbiter of acceptance and of error
// statuses; the on-demand path can only ever change how fast an accepted
// document is transformed, never what the caller observes.

#ifndef JSONTILES_JSON_ONDEMAND_H_
#define JSONTILES_JSON_ONDEMAND_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "json/jsonb.h"
#include "json/structural_index.h"
#include "util/status.h"

namespace jsontiles::json {

/// Per-document scalar directory collected during direct emission (and, for
/// fallback documents, derived from the finished JSONB). Entries appear in
/// BuildIngestFromJsonb order over the emitted document: objects in sorted
/// deduplicated member order, arrays capped at tiles::kMaxArrayElements,
/// nesting capped at tiles::kMaxPathDepth.
struct OndemandIngest {
  struct Leaf {
    uint32_t path_off;   // into `paths`
    uint32_t path_len;   // encoded key-path length (tiles/keypath.h format)
    uint32_t value_off;  // offset of the value header within the document
    uint8_t type;        // JsonType of the leaf (post numeric-string detection)
  };
  /// Both vectors are cleared, not shrunk, per document: a bulk load reuses
  /// one directory, so steady-state collection allocates nothing.
  std::vector<Leaf> leaves;
  std::string paths;  // concatenated encoded key paths
};

/// Derive the scalar directory from a finished JSONB document: the one leaf
/// walk over JSONB (tiles/keypath.h bounds), the reference semantics the
/// emitter's inline collection must match (differential-tested), and the
/// path fallback documents, already-serialized input and tile updates take.
void BuildIngestFromJsonb(JsonbValue doc, OndemandIngest* out);

/// Single-pass JSONB emitter over a structural index. Reusable: the tape and
/// all per-frame scratch keep their capacity across calls. Any returned error
/// means "fall back to the streaming parser"; nothing observable is produced.
class DirectEmitter {
 public:
  /// On success `out` holds exactly one serialized document, bit-identical to
  /// JsonbBuilder::Transform's output. When `ingest` is non-null the walk also
  /// fills the scalar directory.
  Status Emit(std::string_view json_text, const StructuralIndex& index,
              std::vector<uint8_t>* out, OndemandIngest* ingest);

  /// Slot bytes moved by container-close header patching in the last
  /// successful Emit (the direct path's fixup cost; feeds the
  /// jsonb.ondemand.direct_moved_bytes counter).
  uint64_t moved_bytes() const { return moved_bytes_; }

 private:
  struct Cursor;  // read head over the structural index (ondemand.cc)

  // One emitted object member awaiting its parent's close: where its slot
  // (value + key bytes + u16 key length) lies on the tape, its decoded key,
  // and which ingest leaves its subtree produced.
  struct Member {
    uint64_t slot_off;
    uint64_t slot_len;
    std::string_view key;  // backed by the input text or decoded_keys_
    uint32_t leaf_begin;
    uint32_t leaf_end;
  };

  Status EmitValue(Cursor& cursor, int depth, bool collect, uint64_t* size_out);
  Status CloseObject(size_t member_base, uint64_t start, bool sorted_unique,
                     uint64_t* size_out);
  Status CloseArray(size_t ends_base, uint64_t start, uint32_t frame_leaf_begin,
                    uint64_t* size_out);

  uint8_t* Reserve(size_t n);
  uint64_t AppendString(std::string_view decoded, JsonType* leaf_type);
  bool RecordLeaf(JsonType type, uint64_t value_off);
  std::string_view DecodeKeyLexeme(std::string_view lexeme);

  // Tape: emitted bytes live in [0, tape_size_). The vector is kept at its
  // high-water size and never shrunk, so steady-state emission performs no
  // zero-initializing resizes.
  std::vector<uint8_t> tape_;
  uint64_t tape_size_ = 0;
  uint64_t moved_bytes_ = 0;

  // Per-frame scratch (stacks shared across the document).
  std::vector<Member> members_;      // object frames
  std::vector<uint64_t> child_ends_; // array frames: cumulative slot ends
  std::vector<uint32_t> sort_scratch_;
  std::vector<uint8_t> slot_scratch_;
  std::vector<OndemandIngest::Leaf> leaf_scratch_;

  // Decoded escaped member keys must stay stable until the enclosing object
  // closes; a deque never relocates elements (same trick as JsonbBuilder).
  std::deque<std::string> decoded_keys_;
  size_t decoded_keys_used_ = 0;
  std::string string_scratch_;  // escaped value strings (used immediately)

  // Ingest collection state (null when the caller wants JSONB only).
  OndemandIngest* ingest_ = nullptr;
  std::string prefix_;  // encoded key path of the value being emitted
};

/// The bulk loader's text -> JSONB parser (JsonbBuilder stays as its
/// per-document fallback and as the tests' oracle). Reusable: the structural
/// index and emitter scratch keep their capacity across calls.
class OndemandTransformer {
 public:
  /// Same contract as JsonbBuilder::Transform: on success `out` holds exactly
  /// one serialized document, bit-identical to the streaming parser's output.
  /// A non-null `ingest` is also filled with the document's scalar directory
  /// (inline on the direct path, derived from the finished JSONB on fallback
  /// — so it is always present when the Status is OK).
  Status Transform(std::string_view json_text, std::vector<uint8_t>* out,
                   OndemandIngest* ingest = nullptr);

  /// Documents served by the direct-emission path since construction.
  uint64_t docs_ondemand() const { return docs_ondemand_; }
  /// Documents that fell back to the streaming parser (including rejects).
  uint64_t docs_fallback() const { return docs_fallback_; }

 private:
  JsonbBuilder builder_;
  DirectEmitter emitter_;
  StructuralIndex index_;
  uint64_t docs_ondemand_ = 0;
  uint64_t docs_fallback_ = 0;
};

}  // namespace jsontiles::json

#endif  // JSONTILES_JSON_ONDEMAND_H_
