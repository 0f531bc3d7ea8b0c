// Stage 2 of the on-demand parse path: the direct JSONB emitter plus the
// OndemandTransformer facade.
//
// The emitter consumes the ascending positions of a StructuralIndex. Between
// two consecutive index entries there is never any structure: a string lexeme
// is one slice, a number or literal is lexed in place and the bytes up to the
// next entry must be whitespace (`12x` indexes only the `1`, so the `x` would
// otherwise be silently skipped — exactly the kind of divergence the
// differential tests exist to catch). Values are serialized as they are
// walked: children land on the tape first, and the container header — whose
// offset width, varint count and offset table depend on the children's total
// serialized size — is patched in front when the container closes. Arrays
// shift their slot area up by the header size; objects whose keys arrived
// already sorted and unique do the same, and the rest rebuild their slot area
// in sorted duplicate-free key order through a scratch buffer (stable sort,
// last duplicate wins — replicating JsonbBuilder::FinalizeObject exactly).
// Everything the emitter does not recognize is an error, and every error
// makes OndemandTransformer re-parse with the streaming parser, which owns
// the final Status.

#include "json/ondemand.h"

#include <algorithm>
#include <cstring>

#include "json/jsonb_wire.h"
#include "obs/obs.h"
// The ingest directory speaks the tile layer's encoded key-path format; the
// segment encoders and the key-path bounds live with that format's
// definition. This is the one json -> tiles dependency, confined to this
// translation unit (the build is a single static library, and
// tiles/keypath.h includes no json internals).
#include "tiles/keypath.h"
#include "util/bit_util.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace jsontiles::json {

namespace {

inline bool IsJsonWs(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

// True when [from, to) holds only JSON whitespace (vacuously for from >= to).
inline bool AllWhitespace(std::string_view text, size_t from, size_t to) {
  for (size_t i = from; i < to; i++) {
    if (!IsJsonWs(text[i])) return false;
  }
  return true;
}

inline int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Validates a raw string lexeme (the bytes between the two delimiter quotes)
// under exactly JsonLexer::LexString's rules: no unescaped control characters
// below 0x20, escapes restricted to the JSON set, \u followed by four hex
// digits. A lexeme cannot end in an unescaped backslash — that backslash
// would have escaped the closing quote and stage 1 would have kept scanning —
// but the bounds checks don't rely on it.
Status ValidateStringLexeme(std::string_view lexeme, bool* has_escape) {
  *has_escape = false;
  const char* p = lexeme.data();
  const size_t n = lexeme.size();
  size_t i = 0;
  while (i < n) {
    // Word-at-a-time fast path: skip eight clean bytes per iteration. A byte
    // needs attention when it is a backslash (exact zero-byte test on
    // w ^ 0x5C..) or below 0x20 (the hasless trick; bytes >= 0x80 have the
    // high bit set and can never be flagged, and a cross-byte borrow can only
    // cause a false positive next to a genuine control byte, which the
    // careful loop below then rejects anyway).
    while (i + 8 <= n) {
      uint64_t w;
      std::memcpy(&w, p + i, 8);
      constexpr uint64_t kOnes = 0x0101010101010101ULL;
      constexpr uint64_t kHighs = 0x8080808080808080ULL;
      const uint64_t bs = w ^ (kOnes * static_cast<uint8_t>('\\'));
      const uint64_t flagged = (((bs - kOnes) & ~bs) | ((w - kOnes * 0x20) & ~w)) & kHighs;
      if (flagged != 0) break;
      i += 8;
    }
    if (i >= n) break;
    const unsigned char c = static_cast<unsigned char>(p[i]);
    if (c == '\\') {
      *has_escape = true;
      if (i + 1 >= n) return Status::ParseError("unterminated escape");
      switch (p[i + 1]) {
        case '"':
        case '\\':
        case '/':
        case 'b':
        case 'f':
        case 'n':
        case 'r':
        case 't':
          i += 2;
          break;
        case 'u': {
          if (i + 6 > n) return Status::ParseError("truncated \\u escape");
          for (size_t k = i + 2; k < i + 6; k++) {
            if (HexValue(p[k]) < 0) {
              return Status::ParseError("invalid \\u escape");
            }
          }
          i += 6;
          break;
        }
        default:
          return Status::ParseError("invalid escape character");
      }
    } else if (c < 0x20) {
      return Status::ParseError("unescaped control character in string");
    } else {
      i++;
    }
  }
  return Status::OK();
}

struct NumberToken {
  bool is_int;
  int64_t int_value;
  double double_value;
  size_t length;  // bytes consumed from the start position
};

// Lexes the number starting at `p` with the streaming lexer itself, so the
// grammar (leading zeros, exponent shape) and the int64 / double conversion
// (including the overflow-to-HUGE_VAL fallback) cannot drift between paths.
Status LexNumberAt(std::string_view text, size_t p, NumberToken* out) {
  JsonLexer lexer(text.substr(p));
  Token token;
  JSONTILES_RETURN_NOT_OK(lexer.Next(&token));
  // The caller dispatched on '-' or a digit, so the token is a number.
  out->is_int = lexer.number_is_int();
  out->int_value = lexer.int_value();
  out->double_value = lexer.double_value();
  out->length = lexer.position();
  return Status::OK();
}

}  // namespace

// Read head over a StructuralIndex. `NextBound()` is where the current scalar
// run must end: the next structural position, or end of input.
struct DirectEmitter::Cursor {
  std::string_view text;
  const uint32_t* pos;
  size_t count;
  // Stage 1 proved no string holds a backslash or control byte: lexemes need
  // neither validation nor decoding.
  bool clean_strings;
  // Per-byte problem bitmap from stage 1 (bit set = backslash or control byte
  // inside a string): even when the document as a whole is not clean, any
  // individual lexeme whose bit range is clear can be taken as-is.
  const uint64_t* problems;
  size_t cur = 0;

  bool AtEnd() const { return cur >= count; }
  char Peek() const { return text[pos[cur]]; }
  size_t NextBound() const { return cur < count ? pos[cur] : text.size(); }

  // True when no problem bit is set in [a, b).
  bool CleanRange(size_t a, size_t b) const {
    if (a >= b) return true;
    const size_t wa = a / 64;
    const size_t wb = (b - 1) / 64;
    const uint64_t lo = ~0ULL << (a % 64);
    const uint64_t hi = ~0ULL >> (63 - (b - 1) % 64);
    if (wa == wb) return (problems[wa] & lo & hi) == 0;
    uint64_t acc = (problems[wa] & lo) | (problems[wb] & hi);
    for (size_t w = wa + 1; w < wb; w++) acc |= problems[w];
    return acc == 0;
  }
};

uint8_t* DirectEmitter::Reserve(size_t n) {
  if (tape_size_ + n > tape_.size()) {
    size_t target = std::max<size_t>(tape_size_ + n, tape_.size() * 2);
    tape_.resize(std::max<size_t>(target, 4096));
  }
  return tape_.data() + tape_size_;
}

std::string_view DirectEmitter::DecodeKeyLexeme(std::string_view lexeme) {
  if (decoded_keys_used_ == decoded_keys_.size()) decoded_keys_.emplace_back();
  std::string& slot = decoded_keys_[decoded_keys_used_++];
  JsonLexer::Unescape(lexeme, &slot);
  return slot;
}

uint64_t DirectEmitter::AppendString(std::string_view decoded,
                                     JsonType* leaf_type) {
  Numeric num;
  if (ParseNumeric(decoded, &num)) {
    *leaf_type = JsonType::kNumericString;
    const uint64_t size = wire::NumericSize(num);
    wire::EncodeNumeric(Reserve(size), num);
    tape_size_ += size;
    return size;
  }
  *leaf_type = JsonType::kString;
  const uint64_t size = wire::StringSize(decoded.size());
  wire::EncodeString(Reserve(size), decoded);
  tape_size_ += size;
  return size;
}

bool DirectEmitter::RecordLeaf(JsonType type, uint64_t value_off) {
  // Offsets and the path arena are uint32; both can only overflow on
  // documents in the multi-gigabyte range, where falling back (and letting
  // the streaming parser's 4 GiB check decide) is the right answer anyway.
  if (value_off > 0xFFFFFFFFull ||
      ingest_->paths.size() + prefix_.size() > 0xFFFFFFFFull) {
    return false;
  }
  ingest_->leaves.push_back(OndemandIngest::Leaf{
      static_cast<uint32_t>(ingest_->paths.size()),
      static_cast<uint32_t>(prefix_.size()), static_cast<uint32_t>(value_off),
      static_cast<uint8_t>(type)});
  ingest_->paths.append(prefix_);
  return true;
}

Status DirectEmitter::CloseObject(size_t member_base, uint64_t start,
                                  bool sorted_unique, uint64_t* size_out) {
  const size_t n = members_.size() - member_base;
  const uint64_t emitted_slots = tape_size_ - start;

  if (sorted_unique) {
    // Keys arrived strictly increasing (the common case for machine-written
    // JSON): the slot area is already final, only the header moves in front.
    const uint32_t count = static_cast<uint32_t>(n);
    const int ow = wire::OffsetWidthFor(emitted_slots);
    const uint64_t hdr = wire::ContainerHeaderSize(count, ow);
    if (start + hdr + emitted_slots > 0xFFFFFFFFull) {
      return Status::OutOfRange("document larger than 4 GiB");
    }
    Reserve(hdr);
    uint8_t* base = tape_.data() + start;
    std::memmove(base + hdr, base, emitted_slots);
    moved_bytes_ += emitted_slots;
    tape_size_ += hdr;
    uint8_t* off_p = wire::EncodeContainerHeader(base, wire::kTagObject, count, ow);
    uint64_t rel = 0;
    for (size_t i = 0; i < n; i++) {
      rel += members_[member_base + i].slot_len;
      bit_util::StoreLE(off_p + static_cast<size_t>(i) * ow, rel, ow);
    }
    if (ingest_ != nullptr && n > 0) {
      for (size_t k = members_[member_base].leaf_begin;
           k < ingest_->leaves.size(); k++) {
        ingest_->leaves[k].value_off += static_cast<uint32_t>(hdr);
      }
    }
    members_.resize(member_base);
    *size_out = hdr + emitted_slots;
    return Status::OK();
  }

  // Out-of-order and/or duplicate keys: rebuild the slot area in sorted
  // deduplicated order, replicating FinalizeObject exactly — stable sort
  // (insertion sort for small objects: std::stable_sort allocates a merge
  // buffer per call), keep the last occurrence of each duplicate key.
  sort_scratch_.clear();
  for (size_t i = 0; i < n; i++) {
    sort_scratch_.push_back(static_cast<uint32_t>(member_base + i));
  }
  const auto key_less = [this](uint32_t a, uint32_t b) {
    return members_[a].key < members_[b].key;
  };
  if (n <= 32) {
    for (size_t i = 1; i < n; i++) {
      const uint32_t v = sort_scratch_[i];
      size_t j = i;
      while (j > 0 && key_less(v, sort_scratch_[j - 1])) {
        sort_scratch_[j] = sort_scratch_[j - 1];
        j--;
      }
      sort_scratch_[j] = v;
    }
  } else {
    std::stable_sort(sort_scratch_.begin(), sort_scratch_.end(), key_less);
  }
  size_t w = 0;
  for (size_t i = 0; i < n; i++) {
    if (i + 1 < n &&
        members_[sort_scratch_[i]].key == members_[sort_scratch_[i + 1]].key) {
      continue;  // superseded by a later duplicate
    }
    sort_scratch_[w++] = sort_scratch_[i];
  }
  const uint32_t count = static_cast<uint32_t>(w);
  uint64_t slots_size = 0;
  for (size_t i = 0; i < w; i++) slots_size += members_[sort_scratch_[i]].slot_len;
  const int ow = wire::OffsetWidthFor(slots_size);
  const uint64_t hdr = wire::ContainerHeaderSize(count, ow);
  const uint64_t total = hdr + slots_size;
  if (start + total > 0xFFFFFFFFull) {
    return Status::OutOfRange("document larger than 4 GiB");
  }
  if (slot_scratch_.size() < total) slot_scratch_.resize(total);
  uint8_t* off_p = wire::EncodeContainerHeader(slot_scratch_.data(),
                                               wire::kTagObject, count, ow);
  uint8_t* slots = slot_scratch_.data() + hdr;
  if (ingest_ != nullptr) leaf_scratch_.clear();
  uint64_t rel = 0;
  for (size_t i = 0; i < w; i++) {
    const Member& m = members_[sort_scratch_[i]];
    std::memcpy(slots + rel, tape_.data() + m.slot_off, m.slot_len);
    if (ingest_ != nullptr) {
      // The member's subtree leaves move with its slot (dropped duplicates'
      // leaves are dropped with them, matching the finished document).
      const uint64_t new_slot_off = start + hdr + rel;
      for (uint32_t k = m.leaf_begin; k < m.leaf_end; k++) {
        OndemandIngest::Leaf leaf = ingest_->leaves[k];
        leaf.value_off = static_cast<uint32_t>(leaf.value_off - m.slot_off +
                                               new_slot_off);
        leaf_scratch_.push_back(leaf);
      }
    }
    rel += m.slot_len;
    bit_util::StoreLE(off_p + static_cast<size_t>(i) * ow, rel, ow);
  }
  moved_bytes_ += slots_size;
  tape_size_ = start;
  std::memcpy(Reserve(total), slot_scratch_.data(), total);
  tape_size_ += total;
  if (ingest_ != nullptr && n > 0) {
    ingest_->leaves.resize(members_[member_base].leaf_begin);
    ingest_->leaves.insert(ingest_->leaves.end(), leaf_scratch_.begin(),
                           leaf_scratch_.end());
  }
  members_.resize(member_base);
  *size_out = total;
  return Status::OK();
}

Status DirectEmitter::CloseArray(size_t ends_base, uint64_t start,
                                 uint32_t frame_leaf_begin,
                                 uint64_t* size_out) {
  const size_t n = child_ends_.size() - ends_base;
  const uint64_t slots_size = tape_size_ - start;
  const uint32_t count = static_cast<uint32_t>(n);
  const int ow = wire::OffsetWidthFor(slots_size);
  const uint64_t hdr = wire::ContainerHeaderSize(count, ow);
  if (start + hdr + slots_size > 0xFFFFFFFFull) {
    return Status::OutOfRange("document larger than 4 GiB");
  }
  Reserve(hdr);
  uint8_t* base = tape_.data() + start;
  std::memmove(base + hdr, base, slots_size);
  moved_bytes_ += slots_size;
  tape_size_ += hdr;
  uint8_t* off_p = wire::EncodeContainerHeader(base, wire::kTagArray, count, ow);
  for (size_t i = 0; i < n; i++) {
    bit_util::StoreLE(off_p + static_cast<size_t>(i) * ow,
                      child_ends_[ends_base + i], ow);
  }
  if (ingest_ != nullptr) {
    for (size_t k = frame_leaf_begin; k < ingest_->leaves.size(); k++) {
      ingest_->leaves[k].value_off += static_cast<uint32_t>(hdr);
    }
  }
  child_ends_.resize(ends_base);
  *size_out = hdr + slots_size;
  return Status::OK();
}

Status DirectEmitter::EmitValue(Cursor& cursor, int depth, bool collect,
                                uint64_t* size_out) {
  if (depth > JsonbBuilder::kMaxNesting) {
    return Status::ParseError("nesting too deep");
  }
  if (cursor.AtEnd()) return Status::ParseError("unexpected end of input");
  const size_t p = cursor.pos[cursor.cur++];
  const char ch = cursor.text[p];
  const uint64_t start = tape_size_;

  switch (ch) {
    case 'n':
    case 't':
    case 'f': {
      const std::string_view word =
          ch == 'n' ? "null" : (ch == 't' ? "true" : "false");
      // A matching literal has no structural character inside it, so the next
      // index entry — the scalar-run bound — lies at or past its end.
      if (cursor.text.compare(p, word.size(), word) != 0 ||
          !AllWhitespace(cursor.text, p + word.size(), cursor.NextBound())) {
        return Status::ParseError("invalid literal");
      }
      uint8_t* o = Reserve(1);
      if (ch == 'n') {
        wire::EncodeNull(o);
      } else {
        wire::EncodeBool(o, ch == 't');
      }
      tape_size_ += 1;
      if (ingest_ != nullptr && collect &&
          !RecordLeaf(ch == 'n' ? JsonType::kNull : JsonType::kBool, start)) {
        return Status::OutOfRange("ingest directory overflow");
      }
      *size_out = 1;
      return Status::OK();
    }

    case '"': {
      // Inside a string nothing is indexed, so the next entry is the closing
      // quote (stage 1 rejects unterminated strings).
      if (cursor.AtEnd()) return Status::Internal("index: missing close quote");
      const size_t q = cursor.pos[cursor.cur++];
      if (cursor.text[q] != '"') {
        return Status::Internal("index: missing close quote");
      }
      const std::string_view lexeme = cursor.text.substr(p + 1, q - p - 1);
      std::string_view decoded = lexeme;
      if (!cursor.clean_strings && !cursor.CleanRange(p + 1, q)) {
        bool has_escape;
        JSONTILES_RETURN_NOT_OK(ValidateStringLexeme(lexeme, &has_escape));
        if (has_escape) {
          JsonLexer::Unescape(lexeme, &string_scratch_);
          decoded = string_scratch_;
        }
      }
      JsonType leaf_type;
      *size_out = AppendString(decoded, &leaf_type);
      if (ingest_ != nullptr && collect && !RecordLeaf(leaf_type, start)) {
        return Status::OutOfRange("ingest directory overflow");
      }
      return Status::OK();
    }

    case '{': {
      const size_t member_base = members_.size();
      const bool expand = collect && depth < tiles::kMaxPathDepth;
      bool sorted_unique = true;
      if (cursor.AtEnd()) return Status::ParseError("unexpected end of input");
      if (cursor.Peek() == '}') {
        cursor.cur++;
      } else {
        while (true) {
          // Key.
          const size_t kp = cursor.pos[cursor.cur];
          if (cursor.text[kp] != '"') {
            return Status::ParseError("expected object key");
          }
          cursor.cur++;
          if (cursor.AtEnd()) {
            return Status::Internal("index: missing close quote");
          }
          const size_t kq = cursor.pos[cursor.cur++];
          if (cursor.text[kq] != '"') {
            return Status::Internal("index: missing close quote");
          }
          const std::string_view key_lexeme =
              cursor.text.substr(kp + 1, kq - kp - 1);
          std::string_view key = key_lexeme;
          if (!cursor.clean_strings && !cursor.CleanRange(kp + 1, kq)) {
            bool key_escape;
            JSONTILES_RETURN_NOT_OK(
                ValidateStringLexeme(key_lexeme, &key_escape));
            if (key_escape) key = DecodeKeyLexeme(key_lexeme);
          }
          if (key.size() > 0xFFFF) return Status::ParseError("key too long");
          // Colon.
          if (cursor.AtEnd() || cursor.Peek() != ':') {
            return Status::ParseError("expected ':'");
          }
          cursor.cur++;
          if (members_.size() > member_base &&
              !(members_.back().key < key)) {
            sorted_unique = false;
          }
          // Value: the slot is [value][key bytes][u16 key length].
          const uint64_t slot_off = tape_size_;
          const uint32_t leaf_begin =
              ingest_ != nullptr ? static_cast<uint32_t>(ingest_->leaves.size())
                                 : 0;
          size_t saved_prefix = 0;
          if (ingest_ != nullptr && expand) {
            saved_prefix = prefix_.size();
            tiles::AppendKeySegment(&prefix_, key);
          }
          uint64_t value_size = 0;
          JSONTILES_RETURN_NOT_OK(
              EmitValue(cursor, depth + 1, expand, &value_size));
          if (ingest_ != nullptr && expand) prefix_.resize(saved_prefix);
          uint8_t* o = Reserve(key.size() + 2);
          std::memcpy(o, key.data(), key.size());
          bit_util::StoreU16(o + key.size(), static_cast<uint16_t>(key.size()));
          tape_size_ += key.size() + 2;
          members_.push_back(Member{
              slot_off, value_size + key.size() + 2, key, leaf_begin,
              ingest_ != nullptr
                  ? static_cast<uint32_t>(ingest_->leaves.size())
                  : 0});
          // Separator.
          if (cursor.AtEnd()) return Status::ParseError("expected ',' or '}'");
          const char sep = cursor.Peek();
          if (sep == ',') {
            cursor.cur++;
            if (cursor.AtEnd()) {
              return Status::ParseError("unexpected end of input");
            }
            if (cursor.Peek() == '}') {
              return Status::ParseError("trailing comma");
            }
            continue;
          }
          if (sep != '}') return Status::ParseError("expected ',' or '}'");
          cursor.cur++;
          break;
        }
      }
      return CloseObject(member_base, start, sorted_unique, size_out);
    }

    case '[': {
      const size_t ends_base = child_ends_.size();
      const bool expand = collect && depth < tiles::kMaxPathDepth;
      const uint32_t frame_leaf_begin =
          ingest_ != nullptr ? static_cast<uint32_t>(ingest_->leaves.size())
                             : 0;
      uint32_t elem = 0;
      if (cursor.AtEnd()) return Status::ParseError("unexpected end of input");
      if (cursor.Peek() == ']') {
        cursor.cur++;
      } else {
        while (true) {
          const bool elem_collect = expand && elem < tiles::kMaxArrayElements;
          size_t saved_prefix = 0;
          if (ingest_ != nullptr && elem_collect) {
            saved_prefix = prefix_.size();
            tiles::AppendIndexSegment(&prefix_, elem);
          }
          uint64_t value_size = 0;
          JSONTILES_RETURN_NOT_OK(
              EmitValue(cursor, depth + 1, elem_collect, &value_size));
          if (ingest_ != nullptr && elem_collect) prefix_.resize(saved_prefix);
          child_ends_.push_back(tape_size_ - start);
          elem++;
          if (cursor.AtEnd()) return Status::ParseError("expected ',' or ']'");
          const char sep = cursor.Peek();
          if (sep == ',') {
            cursor.cur++;
            if (cursor.AtEnd()) {
              return Status::ParseError("unexpected end of input");
            }
            if (cursor.Peek() == ']') {
              return Status::ParseError("trailing comma");
            }
            continue;
          }
          if (sep != ']') return Status::ParseError("expected ',' or ']'");
          cursor.cur++;
          break;
        }
      }
      return CloseArray(ends_base, start, frame_leaf_begin, size_out);
    }

    case ':':
    case ',':
    case '}':
    case ']':
      return Status::ParseError("unexpected token");

    default: {
      if (ch == '-' || (ch >= '0' && ch <= '9')) {
        // Fast path for plain integers (the bulk of analytic workloads):
        // optional '-', up to 18 digits (always fits int64), no leading zero,
        // nothing but whitespace up to the next structural position. Anything
        // else — floats, exponents, 19+ digits, malformed input — re-lexes
        // through the streaming lexer so values and error statuses are its.
        const size_t bound = cursor.NextBound();
        size_t q = p + (ch == '-' ? 1 : 0);
        const size_t digits_begin = q;
        uint64_t magnitude = 0;
        while (q < bound && cursor.text[q] >= '0' && cursor.text[q] <= '9') {
          magnitude = magnitude * 10 + static_cast<uint64_t>(cursor.text[q] - '0');
          q++;
        }
        const size_t ndigits = q - digits_begin;
        const bool grammar_ok =
            ndigits >= 1 && !(ndigits > 1 && cursor.text[digits_begin] == '0');
        int64_t int_value = 0;
        bool is_int = false;
        double dbl_value = 0;
        bool is_double = false;
        if (grammar_ok && ndigits <= 18 &&
            AllWhitespace(cursor.text, q, bound)) {
          is_int = true;
          int_value = ch == '-' ? -static_cast<int64_t>(magnitude)
                                : static_cast<int64_t>(magnitude);
        } else if (grammar_ok && q < bound && cursor.text[q] == '.') {
          // Decimal fast path (Clinger): for w.f with at most 15 total digits
          // the scaled mantissa fits in 2^53 and the power of ten is exact,
          // so double(mantissa) / 10^frac performs one correctly-rounded
          // division of the exact decimal value — bit-identical to what
          // from_chars in the streaming lexer produces. Exponents and longer
          // numbers re-lex.
          static constexpr double kPow10[16] = {
              1e0, 1e1, 1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
              1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};
          size_t r = q + 1;
          while (r < bound && cursor.text[r] >= '0' && cursor.text[r] <= '9') {
            magnitude = magnitude * 10 + static_cast<uint64_t>(cursor.text[r] - '0');
            r++;
          }
          const size_t frac = r - (q + 1);
          if (frac >= 1 && ndigits + frac <= 15 &&
              AllWhitespace(cursor.text, r, bound)) {
            is_double = true;
            const double v = static_cast<double>(magnitude) / kPow10[frac];
            dbl_value = ch == '-' ? -v : v;
          }
        }
        if (!is_int && !is_double) {
          NumberToken num;
          JSONTILES_RETURN_NOT_OK(LexNumberAt(cursor.text, p, &num));
          // The lexer stops at the first non-number character; anything
          // between there and the next structural position must be
          // whitespace.
          if (!AllWhitespace(cursor.text, p + num.length, cursor.NextBound())) {
            return Status::ParseError("invalid number");
          }
          if (num.is_int) {
            is_int = true;
            int_value = num.int_value;
          } else {
            is_double = true;
            dbl_value = num.double_value;
          }
        }
        JsonType leaf_type;
        if (is_int) {
          leaf_type = JsonType::kInt;
          const uint64_t size = wire::IntSize(int_value);
          wire::EncodeInt(Reserve(size), int_value);
          tape_size_ += size;
          *size_out = size;
        } else {
          leaf_type = JsonType::kFloat;
          const uint8_t width = wire::FloatWidth(dbl_value);
          wire::EncodeFloat(Reserve(1 + width), dbl_value, width);
          tape_size_ += 1 + static_cast<uint64_t>(width);
          *size_out = 1 + static_cast<uint64_t>(width);
        }
        if (ingest_ != nullptr && collect && !RecordLeaf(leaf_type, start)) {
          return Status::OutOfRange("ingest directory overflow");
        }
        return Status::OK();
      }
      return Status::ParseError("unexpected character");
    }
  }
}

Status DirectEmitter::Emit(std::string_view json_text,
                           const StructuralIndex& index,
                           std::vector<uint8_t>* out,
                           OndemandIngest* ingest) {
  tape_size_ = 0;
  moved_bytes_ = 0;
  members_.clear();
  child_ends_.clear();
  decoded_keys_used_ = 0;
  ingest_ = ingest;
  if (ingest != nullptr) {
    ingest->leaves.clear();
    ingest->paths.clear();
    prefix_.clear();
  }

  if (index.count == 0) return Status::ParseError("empty input");
  Cursor cursor{json_text, index.positions.data(), index.count,
                index.clean_strings, index.problems.data()};
  uint64_t root_size = 0;
  JSONTILES_RETURN_NOT_OK(EmitValue(cursor, 0, ingest != nullptr, &root_size));
  if (!cursor.AtEnd()) return Status::ParseError("trailing content");
  if (root_size > 0xFFFFFFFFull) {
    return Status::OutOfRange("document larger than 4 GiB");
  }
  JSONTILES_DCHECK(root_size == tape_size_);
  out->assign(tape_.data(), tape_.data() + tape_size_);
  return Status::OK();
}

// Reference directory semantics: walk the finished JSONB's scalar leaves in
// sorted deduplicated member order under the key-path bounds, recording each
// leaf's offset within the document.
namespace {

void WalkIngest(const uint8_t* doc_base, JsonbValue value, std::string* prefix,
                int depth, OndemandIngest* out) {
  switch (value.type()) {
    case JsonType::kObject: {
      if (depth >= tiles::kMaxPathDepth) return;
      const size_t count = value.Count();
      for (size_t i = 0; i < count; i++) {
        const size_t saved = prefix->size();
        tiles::AppendKeySegment(prefix, value.MemberKey(i));
        WalkIngest(doc_base, value.MemberValue(i), prefix, depth + 1, out);
        prefix->resize(saved);
      }
      return;
    }
    case JsonType::kArray: {
      if (depth >= tiles::kMaxPathDepth) return;
      const size_t count = value.Count();
      const size_t limit =
          std::min<size_t>(count, tiles::kMaxArrayElements);
      for (size_t i = 0; i < limit; i++) {
        const size_t saved = prefix->size();
        tiles::AppendIndexSegment(prefix, static_cast<uint32_t>(i));
        WalkIngest(doc_base, value.ArrayElement(i), prefix, depth + 1, out);
        prefix->resize(saved);
      }
      return;
    }
    default: {
      JSONTILES_CHECK(out->paths.size() + prefix->size() <= 0xFFFFFFFFull);
      out->leaves.push_back(OndemandIngest::Leaf{
          static_cast<uint32_t>(out->paths.size()),
          static_cast<uint32_t>(prefix->size()),
          static_cast<uint32_t>(value.data() - doc_base),
          static_cast<uint8_t>(value.type())});
      out->paths.append(*prefix);
    }
  }
}

}  // namespace

void BuildIngestFromJsonb(JsonbValue doc, OndemandIngest* out) {
  out->leaves.clear();
  out->paths.clear();
  std::string prefix;
  WalkIngest(doc.data(), doc, &prefix, 0, out);
}

Status OndemandTransformer::Transform(std::string_view json_text,
                                      std::vector<uint8_t>* out,
                                      OndemandIngest* ingest) {
  if (!JSONTILES_FAILPOINT_FIRES("ondemand.force_fallback")) {
    obs::Stopwatch obs_watch;
    Status st = BuildStructuralIndex(json_text, &index_);
    JSONTILES_HIST_RECORD("jsonb.ondemand.stage1_micros",
                          obs_watch.Lap() * 1e6);
    if (st.ok()) {
      st = emitter_.Emit(json_text, index_, out, ingest);
      JSONTILES_HIST_RECORD("jsonb.ondemand.stage2_micros",
                            obs_watch.Lap() * 1e6);
      if (st.ok()) {
        docs_ondemand_++;
        JSONTILES_COUNTER_ADD("jsonb.ondemand.docs", 1);
        JSONTILES_COUNTER_ADD("jsonb.ondemand.bytes_in",
                              static_cast<int64_t>(json_text.size()));
        JSONTILES_COUNTER_ADD("jsonb.ondemand.bytes_out",
                              static_cast<int64_t>(out->size()));
        JSONTILES_COUNTER_ADD("jsonb.ondemand.direct_moved_bytes",
                              static_cast<int64_t>(emitter_.moved_bytes()));
        if (ingest != nullptr) {
          JSONTILES_COUNTER_ADD("jsonb.ondemand.direct_ingest_docs", 1);
          JSONTILES_COUNTER_ADD(
              "jsonb.ondemand.direct_leaves",
              static_cast<int64_t>(ingest->leaves.size()));
        }
        return st;
      }
    }
  }
  // Structural anomaly (or forced fallback): the streaming parser decides.
  // Re-parsing keeps the Status — and any accepted output — exactly what the
  // baseline would have produced, so rejected documents can never diverge.
  docs_fallback_++;
  JSONTILES_COUNTER_ADD("jsonb.ondemand.fallbacks", 1);
  Status st = builder_.Transform(json_text, out);
  if (st.ok() && ingest != nullptr) {
    BuildIngestFromJsonb(JsonbValue(out->data()), ingest);
  }
  return st;
}

}  // namespace jsontiles::json
