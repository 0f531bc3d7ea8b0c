// JSONB: the binary JSON format of paper §5.
//
// Design goals (paper §5.1): fast lookups in objects and arrays, typed
// values, few cache misses. Objects store their (sorted) keys with an offset
// table, giving O(log n) key lookup via binary search; arrays give O(1)
// element access. Nested values are stored inline within their parent, so
// a whole document — or any nested value — is one contiguous byte range and
// forward iteration never chases pointers. Construction from JSON text uses
// the two-pass algorithm of §5.3: pass 1 validates and computes the exact
// size of every node; pass 2 writes into a single exact-size allocation.
//
// Wire format. Every value starts with a header byte `(tag << 4) | imm`:
//
//   tag  0 Null            imm unused
//   tag  1 False / 2 True  imm unused
//   tag  3 IntSmall        imm = value in [0, 15], no payload
//   tag  4 Int             imm = (sign << 3) | (nbytes - 1); magnitude LE
//   tag  5 Float           imm = byte width 2 / 4 / 8 (lossless downgrades)
//   tag  6 String          imm = length if < 15 else 15 + varint length;
//                          decoded UTF-8 bytes follow
//   tag  7 NumericString   sign/scale byte + varint magnitude (§5.2)
//   tag  8 Object          imm = offset width code (0→1B, 1→2B, 2→4B);
//                          varint count; count offsets (end of each slot,
//                          relative to slot area); slots, where each slot is
//                          [value][key bytes][u16 key length] and keys are
//                          sorted bytewise (Figure 6)
//   tag  9 Array           like Object without keys
//
// Round-trip: ToJsonText() reconstructs an equivalent document; key order
// and whitespace are normalized (§5, as in PostgreSQL's jsonb).

#ifndef JSONTILES_JSON_JSONB_H_
#define JSONTILES_JSON_JSONB_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "json/json_type.h"
#include "json/jsonb_wire.h"
#include "json/lexer.h"
#include "util/bit_util.h"
#include "util/decimal.h"
#include "util/logging.h"
#include "util/status.h"

namespace jsontiles::json {

/// Read-only view of one JSONB value inside a buffer. Cheap to copy.
class JsonbValue {
 public:
  explicit JsonbValue(const uint8_t* data) : p_(data) {}

  JsonType type() const;

  /// Raw pointer to the start of this value.
  const uint8_t* data() const { return p_; }

  /// Serialized size in bytes; any value can be sliced out as a standalone
  /// document.
  size_t Size() const;

  bool GetBool() const;
  int64_t GetInt() const;
  /// Value as double (works for Int, Float and NumericString).
  double GetDouble() const;
  /// String contents; only valid for kString (points into the buffer).
  std::string_view GetString() const;
  Numeric GetNumeric() const;

  /// Number of members / elements; only valid for kObject / kArray.
  size_t Count() const;

  /// O(log n) member lookup by binary search over the sorted keys.
  std::optional<JsonbValue> FindKey(std::string_view key) const;

  /// O(1) array element access; `i` must be < Count().
  JsonbValue ArrayElement(size_t i) const;

  /// Key of the i-th member (sorted order).
  std::string_view MemberKey(size_t i) const;
  /// Value of the i-th member (sorted order).
  JsonbValue MemberValue(size_t i) const;

  /// Serialize back to JSON text (keys in sorted order).
  void ToJsonText(std::string* out) const;
  std::string ToJsonText() const;

 private:
  // Decode object/array shape: offset width, count, positions.
  struct ContainerInfo {
    int offset_width;
    size_t count;
    size_t offsets_pos;  // relative to p_
    size_t slots_pos;    // relative to p_
  };
  ContainerInfo DecodeContainer() const;
  size_t SlotStart(const ContainerInfo& info, size_t i) const;
  size_t SlotEnd(const ContainerInfo& info, size_t i) const;

  const uint8_t* p_;
};

// The accessors a scan calls per document are inline, so its batch loop
// runs without a call per lane.

inline JsonType JsonbValue::type() const {
  static constexpr JsonType kTypeOfTag[] = {
      JsonType::kNull,   JsonType::kBool,          JsonType::kBool,
      JsonType::kInt,    JsonType::kInt,           JsonType::kFloat,
      JsonType::kString, JsonType::kNumericString, JsonType::kObject,
      JsonType::kArray};
  const uint8_t tag = wire::Tag(p_);
  JSONTILES_CHECK(tag <= wire::kTagArray);
  return kTypeOfTag[tag];
}

inline bool JsonbValue::GetBool() const {
  return wire::Tag(p_) == wire::kTagTrue;
}

inline int64_t JsonbValue::GetInt() const {
  if (wire::Tag(p_) == wire::kTagIntSmall) return wire::Imm(p_);
  JSONTILES_DCHECK(wire::Tag(p_) == wire::kTagInt);
  const uint64_t mag = bit_util::LoadLE(p_ + 1, (wire::Imm(p_) & 7) + 1);
  // Negated as unsigned, so a magnitude of 2^63 gives INT64_MIN without UB.
  return static_cast<int64_t>((wire::Imm(p_) & 8) ? 0 - mag : mag);
}

inline std::string_view JsonbValue::GetString() const {
  JSONTILES_DCHECK(wire::Tag(p_) == wire::kTagString);
  const uint8_t imm = wire::Imm(p_);
  if (imm < 15) return {reinterpret_cast<const char*>(p_ + 1), imm};
  size_t pos = 1;
  const uint64_t len = bit_util::DecodeVarint(p_, &pos);
  return {reinterpret_cast<const char*>(p_ + pos), len};
}

// Always inlined: the scan's batch fallback calls it once per lane, and
// GCC's own heuristics leave it out of line there.
__attribute__((always_inline)) inline std::optional<JsonbValue>
JsonbValue::FindKey(std::string_view key) const {
  if (wire::Tag(p_) != wire::kTagObject) return std::nullopt;
  size_t pos = 1;
  const size_t count = bit_util::DecodeVarint(p_, &pos);
  // Offsets are 1 << imm bytes wide. Each is read as 4 bytes and masked: an
  // object slot holds at least 3 bytes (value, u16 key length), so the read
  // of a narrow table's last offset stays inside the first slot.
  const int shift = wire::Imm(p_);
  const uint32_t mask = shift == 0   ? 0xFFu
                        : shift == 1 ? 0xFFFFu
                                     : 0xFFFFFFFFu;
  const uint8_t* offsets = p_ + pos;
  const uint8_t* slots = offsets + (count << shift);
  auto slot_end = [&](size_t i) {
    return slots + (bit_util::LoadU32(offsets + (i << shift)) & mask);
  };
  // Order of slot i's key against `key`: negative, zero or positive. Eight
  // bytes at a time; a byte swap makes the first differing byte decide.
  auto compare = [&](size_t i) {
    const uint8_t* end = slot_end(i);
    const size_t len = bit_util::LoadU16(end - 2);
    const uint8_t* a = end - 2 - len;
    const uint8_t* b = reinterpret_cast<const uint8_t*>(key.data());
    const size_t n = std::min(len, key.size());
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const uint64_t x = bit_util::LoadU64(a + j);
      const uint64_t y = bit_util::LoadU64(b + j);
      if (x != y) {
        return __builtin_bswap64(x) < __builtin_bswap64(y) ? -1 : 1;
      }
    }
    for (; j < n; j++) {
      if (a[j] != b[j]) return a[j] < b[j] ? -1 : 1;
    }
    return len < key.size() ? -1 : len > key.size() ? 1 : 0;
  };
  size_t lo = 0;
  size_t hi = count;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const int c = compare(mid);
    if (c == 0) return JsonbValue(mid == 0 ? slots : slot_end(mid - 1));
    if (c < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return std::nullopt;
}

/// Transforms JSON text into JSONB. Strings that hold a SQL Numeric
/// ("19.99") are always stored as NumericString (§5.2). Reusable: internal
/// scratch buffers keep their capacity across Transform calls, which matters
/// during bulk loading.
class JsonbBuilder {
 public:
  /// Maximum container nesting depth accepted by the parser (and enforced by
  /// ValidateJsonb on untrusted buffers).
  static constexpr int kMaxNesting = 256;

  /// Two-pass transformation (§5.3). On success `out` holds exactly one
  /// serialized document.
  Status Transform(std::string_view json_text, std::vector<uint8_t>* out);

 private:
  static constexpr uint32_t kInvalid = 0xFFFFFFFF;

  struct Node {
    JsonType type;
    uint32_t first_child = kInvalid;
    uint32_t next_sibling = kInvalid;
    uint32_t count = 0;          // children (objects: after dedup)
    uint32_t sorted_begin = 0;   // objects: span into sorted_children_
    uint64_t size = 0;           // serialized size of this value
    int64_t int_val = 0;
    double dbl_val = 0;
    Numeric num_val;
    std::string_view str;  // decoded string value
    std::string_view key;  // decoded member key (when parent is an object)
    uint8_t float_width = 8;
    uint8_t offset_width = 1;
  };

  Status ParseValue(JsonLexer& lexer, Token token, uint32_t* index, int depth);
  std::string_view DecodeString(const JsonLexer& lexer);
  void WriteValue(uint32_t index, uint8_t* out, size_t pos) const;

  void SetNumberIntNode(uint32_t index, int64_t v);
  void SetNumberFloatNode(uint32_t index, double d);
  void SetStringNode(uint32_t index, std::string_view decoded);
  void FinalizeObject(uint32_t index, std::vector<uint32_t>& children,
                      size_t begin);
  void FinalizeArray(uint32_t index, uint32_t count, uint64_t slots_size);
  std::string_view DecodeStringLexeme(std::string_view lexeme,
                                      bool has_escape);

  std::vector<Node> nodes_;
  std::vector<uint32_t> sorted_children_;
  // Storage for unescaped strings. Nodes hold string_views into the elements,
  // so the container must never relocate them: a deque keeps existing
  // elements in place on push_back where a vector would move the std::string
  // objects (and with them any SSO-inlined bytes the views point at).
  std::deque<std::string> decoded_;
  size_t decoded_used_ = 0;
};

/// Convenience: one-shot transformation.
Result<std::vector<uint8_t>> JsonbFromText(std::string_view json_text);

/// Structural validation of an untrusted JSONB buffer. Every header, length,
/// offset and nested value is bounds-checked without reading past
/// `data + size`; container offsets must be strictly increasing, object keys
/// sorted, nesting bounded, and the root value must occupy exactly `size`
/// bytes (so no strict prefix of a valid document validates). The JsonbValue
/// accessors assume trusted input; run this first on bytes that arrive from
/// disk or the network.
Status ValidateJsonb(const uint8_t* data, size_t size);

// --- Batched navigation ----------------------------------------------------

/// One pre-decoded navigation step for LookupSteps. `key` is a view into the
/// caller's encoded-path storage, which must outlive the steps.
struct PathStep {
  bool is_index = false;
  std::string_view key;  // object member to FindKey (is_index == false)
  uint32_t index = 0;    // array slot (is_index == true)
};

/// Navigate `root` along pre-decoded steps. Returns nullopt when any step is
/// missing (PostgreSQL semantics: absent key => SQL NULL). Same traversal as
/// tiles::LookupPath, but the path is decoded once up front — batch accessors
/// extracting one path from many documents skip the per-document varint
/// decode entirely. Inline, so the scan's batch loop runs it without a call
/// per lane.
inline std::optional<JsonbValue> LookupSteps(JsonbValue root,
                                             const PathStep* steps,
                                             size_t count) {
  JsonbValue cur = root;
  for (size_t s = 0; s < count; s++) {
    const PathStep& step = steps[s];
    if (!step.is_index) {
      auto next = cur.FindKey(step.key);
      if (!next.has_value()) return std::nullopt;
      cur = *next;
    } else {
      if (cur.type() != JsonType::kArray || step.index >= cur.Count()) {
        return std::nullopt;
      }
      cur = cur.ArrayElement(step.index);
    }
  }
  return cur;
}

// --- Programmatic assembly -------------------------------------------------
// Because every JSONB value is a self-contained byte range, new documents can
// be assembled from existing slices without reparsing (used by
// high-cardinality array extraction, §3.5, to build side-table documents).

/// One member for AssembleObject: key plus serialized JSONB value bytes.
struct AssembleMember {
  std::string_view key;
  const uint8_t* value_data;
  size_t value_size;
};

/// Build an object from members (keys are sorted; duplicate keys must not be
/// passed).
std::vector<uint8_t> AssembleObject(std::vector<AssembleMember> members);

/// Serialize a standalone integer value.
std::vector<uint8_t> MakeJsonbInt(int64_t value);

}  // namespace jsontiles::json

#endif  // JSONTILES_JSON_JSONB_H_
