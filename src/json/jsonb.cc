#include "json/jsonb.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "json/dom.h"
#include "json/float16.h"
#include "json/jsonb_wire.h"
#include "obs/obs.h"
#include "util/bit_util.h"
#include "util/byte_codec.h"
#include "util/logging.h"

namespace jsontiles::json {

// Wire constants and leaf encoders are shared with the direct emitter
// (ondemand.cc) via jsonb_wire.h, so the two serializers cannot drift.
using namespace wire;  // NOLINT

namespace {

constexpr int kMaxNesting = JsonbBuilder::kMaxNesting;

// Validates one value within `avail` bytes and reports its serialized size.
Status ValidateValue(const uint8_t* v, size_t avail, int depth,
                     size_t* size_out) {
  if (depth > kMaxNesting) return Status::ParseError("jsonb: nesting too deep");
  if (avail == 0) return Status::ParseError("jsonb: truncated header");
  const uint8_t tag = Tag(v);
  const uint8_t imm = Imm(v);
  switch (tag) {
    case kTagNull:
    case kTagFalse:
    case kTagTrue:
      if (imm != 0) return Status::ParseError("jsonb: nonzero immediate");
      *size_out = 1;
      return Status::OK();
    case kTagIntSmall:
      *size_out = 1;
      return Status::OK();
    case kTagInt: {
      size_t n = static_cast<size_t>(imm & 7) + 1;
      if (1 + n > avail) return Status::ParseError("jsonb: truncated int");
      *size_out = 1 + n;
      return Status::OK();
    }
    case kTagFloat:
      if (imm != 2 && imm != 4 && imm != 8) {
        return Status::ParseError("jsonb: bad float width");
      }
      if (1 + static_cast<size_t>(imm) > avail) {
        return Status::ParseError("jsonb: truncated float");
      }
      *size_out = 1 + imm;
      return Status::OK();
    case kTagString: {
      if (imm < 15) {
        if (1 + static_cast<size_t>(imm) > avail) {
          return Status::ParseError("jsonb: truncated string");
        }
        *size_out = 1 + imm;
        return Status::OK();
      }
      size_t pos = 1;
      uint64_t len;
      if (!ReadVarint(v, avail, &pos, &len)) {
        return Status::ParseError("jsonb: bad string length");
      }
      if (len > avail - pos) return Status::ParseError("jsonb: truncated string");
      *size_out = pos + static_cast<size_t>(len);
      return Status::OK();
    }
    case kTagNumeric: {
      if (imm != 0) return Status::ParseError("jsonb: nonzero immediate");
      if (avail < 2) return Status::ParseError("jsonb: truncated numeric");
      size_t pos = 2;  // header + sign/scale byte
      uint64_t mag;
      if (!ReadVarint(v, avail, &pos, &mag)) {
        return Status::ParseError("jsonb: bad numeric magnitude");
      }
      if (mag > static_cast<uint64_t>(INT64_MAX)) {
        return Status::ParseError("jsonb: numeric magnitude overflow");
      }
      *size_out = pos;
      return Status::OK();
    }
    case kTagObject:
    case kTagArray: {
      if (imm > 2) return Status::ParseError("jsonb: bad offset width");
      const size_t ow = static_cast<size_t>(OffsetWidth(imm));
      size_t pos = 1;
      uint64_t count;
      if (!ReadVarint(v, avail, &pos, &count)) {
        return Status::ParseError("jsonb: bad container count");
      }
      if (count > (avail - pos) / ow) {
        return Status::ParseError("jsonb: truncated offset table");
      }
      const size_t slots_pos = pos + static_cast<size_t>(count) * ow;
      uint64_t prev = 0;
      std::string_view prev_key;
      for (uint64_t i = 0; i < count; i++) {
        uint64_t off = bit_util::LoadLE(
            v + pos + static_cast<size_t>(i) * ow, static_cast<int>(ow));
        if (off <= prev) {
          return Status::ParseError("jsonb: offsets not increasing");
        }
        if (off > avail - slots_pos) {
          return Status::ParseError("jsonb: slot out of bounds");
        }
        const size_t slot_start = slots_pos + static_cast<size_t>(prev);
        const size_t slot_len = static_cast<size_t>(off - prev);
        size_t value_len = slot_len;
        if (tag == kTagObject) {
          if (slot_len < 3) {  // 1-byte value + 0-byte key + u16 key length
            return Status::ParseError("jsonb: object slot too small");
          }
          uint16_t keylen = bit_util::LoadU16(v + slot_start + slot_len - 2);
          if (static_cast<size_t>(keylen) + 2 > slot_len) {
            return Status::ParseError("jsonb: key out of bounds");
          }
          value_len = slot_len - 2 - keylen;
          std::string_view key(
              reinterpret_cast<const char*>(v + slot_start + value_len), keylen);
          if (i > 0 && !(prev_key < key)) {
            return Status::ParseError("jsonb: keys not sorted");
          }
          prev_key = key;
        }
        size_t child_size = 0;
        JSONTILES_RETURN_NOT_OK(
            ValidateValue(v + slot_start, value_len, depth + 1, &child_size));
        if (child_size != value_len) {
          return Status::ParseError("jsonb: slot size mismatch");
        }
        prev = off;
      }
      *size_out = slots_pos + static_cast<size_t>(prev);
      return Status::OK();
    }
    default:
      return Status::ParseError("jsonb: unknown tag");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// JsonbValue accessors
// ---------------------------------------------------------------------------

JsonbValue::ContainerInfo JsonbValue::DecodeContainer() const {
  ContainerInfo info;
  info.offset_width = OffsetWidth(Imm(p_));
  size_t pos = 1;
  info.count = bit_util::DecodeVarint(p_, &pos);
  info.offsets_pos = pos;
  info.slots_pos = pos + info.count * static_cast<size_t>(info.offset_width);
  return info;
}

size_t JsonbValue::SlotEnd(const ContainerInfo& info, size_t i) const {
  return info.slots_pos +
         bit_util::LoadLE(p_ + info.offsets_pos +
                              i * static_cast<size_t>(info.offset_width),
                          info.offset_width);
}

size_t JsonbValue::SlotStart(const ContainerInfo& info, size_t i) const {
  return i == 0 ? info.slots_pos : SlotEnd(info, i - 1);
}

size_t JsonbValue::Size() const {
  switch (Tag(p_)) {
    case kTagNull:
    case kTagFalse:
    case kTagTrue:
    case kTagIntSmall:
      return 1;
    case kTagInt:
      return 1 + static_cast<size_t>(Imm(p_) & 7) + 1;
    case kTagFloat:
      return 1 + Imm(p_);
    case kTagString: {
      uint8_t imm = Imm(p_);
      if (imm < 15) return 1 + imm;
      size_t pos = 1;
      uint64_t len = bit_util::DecodeVarint(p_, &pos);
      return pos + len;
    }
    case kTagNumeric: {
      size_t pos = 2;  // header + sign/scale byte
      bit_util::DecodeVarint(p_, &pos);
      return pos;
    }
    case kTagObject:
    case kTagArray: {
      ContainerInfo info = DecodeContainer();
      if (info.count == 0) return info.slots_pos;
      return SlotEnd(info, info.count - 1);
    }
    default:
      JSONTILES_CHECK(false);
  }
}

double JsonbValue::GetDouble() const {
  switch (Tag(p_)) {
    case kTagIntSmall:
    case kTagInt:
      return static_cast<double>(GetInt());
    case kTagFloat:
      switch (Imm(p_)) {
        case 2: return HalfToFloat(bit_util::LoadU16(p_ + 1));
        case 4: return std::bit_cast<float>(bit_util::LoadU32(p_ + 1));
        default: return std::bit_cast<double>(bit_util::LoadU64(p_ + 1));
      }
    case kTagNumeric:
      return GetNumeric().ToDouble();
    default:
      JSONTILES_DCHECK(false);
      return 0;
  }
}

Numeric JsonbValue::GetNumeric() const {
  JSONTILES_DCHECK(Tag(p_) == kTagNumeric);
  Numeric n;
  uint8_t sign_scale = p_[1];
  n.scale = sign_scale & 0x7F;
  size_t pos = 2;
  uint64_t mag = bit_util::DecodeVarint(p_, &pos);
  n.unscaled = static_cast<int64_t>((sign_scale & 0x80) ? 0 - mag : mag);
  return n;
}

size_t JsonbValue::Count() const { return DecodeContainer().count; }

std::string_view JsonbValue::MemberKey(size_t i) const {
  ContainerInfo info = DecodeContainer();
  size_t end = SlotEnd(info, i);
  uint16_t keylen = bit_util::LoadU16(p_ + end - 2);
  return {reinterpret_cast<const char*>(p_ + end - 2 - keylen), keylen};
}

JsonbValue JsonbValue::MemberValue(size_t i) const {
  ContainerInfo info = DecodeContainer();
  return JsonbValue(p_ + SlotStart(info, i));
}

JsonbValue JsonbValue::ArrayElement(size_t i) const {
  ContainerInfo info = DecodeContainer();
  JSONTILES_DCHECK(i < info.count);
  return JsonbValue(p_ + SlotStart(info, i));
}

void JsonbValue::ToJsonText(std::string* out) const {
  switch (Tag(p_)) {
    case kTagNull: out->append("null"); return;
    case kTagFalse: out->append("false"); return;
    case kTagTrue: out->append("true"); return;
    case kTagIntSmall:
    case kTagInt:
      out->append(std::to_string(GetInt()));
      return;
    case kTagFloat:
      FormatDouble(GetDouble(), out);
      return;
    case kTagString:
      out->push_back('"');
      EscapeJsonString(GetString(), out);
      out->push_back('"');
      return;
    case kTagNumeric:
      out->push_back('"');
      out->append(GetNumeric().ToString());
      out->push_back('"');
      return;
    case kTagObject: {
      ContainerInfo info = DecodeContainer();
      out->push_back('{');
      for (size_t i = 0; i < info.count; i++) {
        if (i > 0) out->push_back(',');
        size_t end = SlotEnd(info, i);
        uint16_t keylen = bit_util::LoadU16(p_ + end - 2);
        std::string_view key(reinterpret_cast<const char*>(p_ + end - 2 - keylen),
                             keylen);
        out->push_back('"');
        EscapeJsonString(key, out);
        out->append("\":");
        JsonbValue(p_ + SlotStart(info, i)).ToJsonText(out);
      }
      out->push_back('}');
      return;
    }
    case kTagArray: {
      ContainerInfo info = DecodeContainer();
      out->push_back('[');
      for (size_t i = 0; i < info.count; i++) {
        if (i > 0) out->push_back(',');
        JsonbValue(p_ + SlotStart(info, i)).ToJsonText(out);
      }
      out->push_back(']');
      return;
    }
    default:
      JSONTILES_CHECK(false);
  }
}

std::string JsonbValue::ToJsonText() const {
  std::string out;
  ToJsonText(&out);
  return out;
}

// ---------------------------------------------------------------------------
// JsonbBuilder: pass 1 (parse + size), pass 2 (write)
// ---------------------------------------------------------------------------

std::string_view JsonbBuilder::DecodeStringLexeme(std::string_view lexeme,
                                                  bool has_escape) {
  if (!has_escape) return lexeme;
  if (decoded_used_ == decoded_.size()) decoded_.emplace_back();
  std::string& slot = decoded_[decoded_used_++];
  JsonLexer::Unescape(lexeme, &slot);
  return slot;
}

std::string_view JsonbBuilder::DecodeString(const JsonLexer& lexer) {
  return DecodeStringLexeme(lexer.string_lexeme(), lexer.string_has_escape());
}

void JsonbBuilder::SetNumberIntNode(uint32_t index, int64_t v) {
  Node& node = nodes_[index];
  node.type = JsonType::kInt;
  node.int_val = v;
  node.size = IntSize(v);
}

void JsonbBuilder::SetNumberFloatNode(uint32_t index, double d) {
  Node& node = nodes_[index];
  node.type = JsonType::kFloat;
  node.dbl_val = d;
  node.float_width = FloatWidth(d);
  node.size = 1 + node.float_width;
}

void JsonbBuilder::SetStringNode(uint32_t index, std::string_view decoded) {
  Node& node = nodes_[index];
  Numeric num;
  if (ParseNumeric(decoded, &num)) {
    node.type = JsonType::kNumericString;
    node.num_val = num;
    node.size = NumericSize(num);
  } else {
    node.type = JsonType::kString;
    node.str = decoded;
    node.size = StringSize(decoded.size());
  }
}

void JsonbBuilder::FinalizeObject(uint32_t index,
                                  std::vector<uint32_t>& children,
                                  size_t begin) {
  // Sort by key (stable: equal keys keep input order), then keep the last
  // occurrence of each duplicate key, as PostgreSQL's jsonb does. The dedup
  // compacts [begin, end) in place. Typical objects are small, so sort them
  // with a stable insertion sort: std::stable_sort allocates a merge buffer
  // per call, which dominates the profile on short-document workloads.
  const auto key_less = [this](uint32_t a, uint32_t b) {
    return nodes_[a].key < nodes_[b].key;
  };
  uint32_t* base = children.data() + begin;
  const size_t n = children.size() - begin;
  if (n <= 32) {
    for (size_t i = 1; i < n; i++) {
      const uint32_t v = base[i];
      size_t j = i;
      while (j > 0 && key_less(v, base[j - 1])) {
        base[j] = base[j - 1];
        j--;
      }
      base[j] = v;
    }
  } else {
    std::stable_sort(children.begin() + static_cast<long>(begin),
                     children.end(), key_less);
  }
  size_t w = begin;
  for (size_t i = begin; i < children.size(); i++) {
    if (i + 1 < children.size() &&
        nodes_[children[i]].key == nodes_[children[i + 1]].key) {
      continue;  // superseded by a later duplicate
    }
    children[w++] = children[i];
  }
  children.resize(w);
  Node& node = nodes_[index];
  node.sorted_begin = static_cast<uint32_t>(sorted_children_.size());
  node.count = static_cast<uint32_t>(w - begin);
  sorted_children_.insert(sorted_children_.end(),
                          children.begin() + static_cast<long>(begin),
                          children.end());
  uint64_t slots_size = 0;
  for (size_t i = begin; i < children.size(); i++) {
    const Node& child = nodes_[children[i]];
    slots_size += child.size + child.key.size() + 2;
  }
  int ow = OffsetWidthFor(slots_size);
  node.offset_width = static_cast<uint8_t>(ow);
  node.size = ContainerHeaderSize(node.count, ow) + slots_size;
}

void JsonbBuilder::FinalizeArray(uint32_t index, uint32_t count,
                                 uint64_t slots_size) {
  Node& node = nodes_[index];
  node.count = count;
  int ow = OffsetWidthFor(slots_size);
  node.offset_width = static_cast<uint8_t>(ow);
  node.size = ContainerHeaderSize(count, ow) + slots_size;
}

Status JsonbBuilder::ParseValue(JsonLexer& lexer, Token token, uint32_t* index,
                                int depth) {
  if (depth > kMaxNesting) return Status::ParseError("nesting too deep");
  uint32_t idx = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  *index = idx;
  switch (token) {
    case Token::kNull:
      nodes_[idx].type = JsonType::kNull;
      nodes_[idx].size = 1;
      return Status::OK();
    case Token::kTrue:
    case Token::kFalse:
      nodes_[idx].type = JsonType::kBool;
      nodes_[idx].int_val = token == Token::kTrue ? 1 : 0;
      nodes_[idx].size = 1;
      return Status::OK();
    case Token::kNumber:
      if (lexer.number_is_int()) {
        SetNumberIntNode(idx, lexer.int_value());
      } else {
        SetNumberFloatNode(idx, lexer.double_value());
      }
      return Status::OK();
    case Token::kString:
      SetStringNode(idx, DecodeString(lexer));
      return Status::OK();
    case Token::kObjectBegin: {
      nodes_[idx].type = JsonType::kObject;
      std::vector<uint32_t> children;
      Token t;
      JSONTILES_RETURN_NOT_OK(lexer.Next(&t));
      uint32_t prev = kInvalid;
      while (t != Token::kObjectEnd) {
        if (t != Token::kString) return Status::ParseError("expected object key");
        std::string_view key = DecodeString(lexer);
        if (key.size() > 0xFFFF) return Status::ParseError("key too long");
        JSONTILES_RETURN_NOT_OK(lexer.Next(&t));
        if (t != Token::kColon) return Status::ParseError("expected ':'");
        JSONTILES_RETURN_NOT_OK(lexer.Next(&t));
        uint32_t child;
        JSONTILES_RETURN_NOT_OK(ParseValue(lexer, t, &child, depth + 1));
        nodes_[child].key = key;
        if (prev == kInvalid) {
          nodes_[idx].first_child = child;
        } else {
          nodes_[prev].next_sibling = child;
        }
        prev = child;
        children.push_back(child);
        JSONTILES_RETURN_NOT_OK(lexer.Next(&t));
        if (t == Token::kComma) {
          JSONTILES_RETURN_NOT_OK(lexer.Next(&t));
          if (t == Token::kObjectEnd) return Status::ParseError("trailing comma");
        } else if (t != Token::kObjectEnd) {
          return Status::ParseError("expected ',' or '}'");
        }
      }
      FinalizeObject(idx, children, 0);
      return Status::OK();
    }
    case Token::kArrayBegin: {
      nodes_[idx].type = JsonType::kArray;
      Token t;
      JSONTILES_RETURN_NOT_OK(lexer.Next(&t));
      uint32_t prev = kInvalid;
      uint64_t slots_size = 0;
      uint32_t count = 0;
      while (t != Token::kArrayEnd) {
        uint32_t child;
        JSONTILES_RETURN_NOT_OK(ParseValue(lexer, t, &child, depth + 1));
        if (prev == kInvalid) {
          nodes_[idx].first_child = child;
        } else {
          nodes_[prev].next_sibling = child;
        }
        prev = child;
        slots_size += nodes_[child].size;
        count++;
        JSONTILES_RETURN_NOT_OK(lexer.Next(&t));
        if (t == Token::kComma) {
          JSONTILES_RETURN_NOT_OK(lexer.Next(&t));
          if (t == Token::kArrayEnd) return Status::ParseError("trailing comma");
        } else if (t != Token::kArrayEnd) {
          return Status::ParseError("expected ',' or ']'");
        }
      }
      FinalizeArray(idx, count, slots_size);
      return Status::OK();
    }
    default:
      return Status::ParseError("unexpected token");
  }
}

void JsonbBuilder::WriteValue(uint32_t index, uint8_t* out, size_t pos) const {
  const Node& node = nodes_[index];
  switch (node.type) {
    case JsonType::kNull:
      EncodeNull(out + pos);
      return;
    case JsonType::kBool:
      EncodeBool(out + pos, node.int_val != 0);
      return;
    case JsonType::kInt:
      EncodeInt(out + pos, node.int_val);
      return;
    case JsonType::kFloat:
      EncodeFloat(out + pos, node.dbl_val, node.float_width);
      return;
    case JsonType::kString:
      EncodeString(out + pos, node.str);
      return;
    case JsonType::kNumericString:
      EncodeNumeric(out + pos, node.num_val);
      return;
    case JsonType::kObject: {
      uint8_t* offsets = EncodeContainerHeader(out + pos, kTagObject,
                                               node.count, node.offset_width);
      size_t offsets_pos = static_cast<size_t>(offsets - out);
      size_t slots_pos =
          offsets_pos + static_cast<size_t>(node.count) * node.offset_width;
      uint64_t rel = 0;
      for (uint32_t i = 0; i < node.count; i++) {
        uint32_t child = sorted_children_[node.sorted_begin + i];
        size_t slot_start = slots_pos + rel;
        WriteValue(child, out, slot_start);
        size_t key_pos = slot_start + nodes_[child].size;
        std::memcpy(out + key_pos, nodes_[child].key.data(), nodes_[child].key.size());
        bit_util::StoreU16(out + key_pos + nodes_[child].key.size(),
                           static_cast<uint16_t>(nodes_[child].key.size()));
        rel += nodes_[child].size + nodes_[child].key.size() + 2;
        bit_util::StoreLE(out + offsets_pos + static_cast<size_t>(i) * node.offset_width,
                          rel, node.offset_width);
      }
      return;
    }
    case JsonType::kArray: {
      uint8_t* offsets = EncodeContainerHeader(out + pos, kTagArray,
                                               node.count, node.offset_width);
      size_t offsets_pos = static_cast<size_t>(offsets - out);
      size_t slots_pos =
          offsets_pos + static_cast<size_t>(node.count) * node.offset_width;
      uint64_t rel = 0;
      uint32_t child = node.first_child;
      for (uint32_t i = 0; i < node.count; i++) {
        WriteValue(child, out, slots_pos + rel);
        rel += nodes_[child].size;
        bit_util::StoreLE(out + offsets_pos + static_cast<size_t>(i) * node.offset_width,
                          rel, node.offset_width);
        child = nodes_[child].next_sibling;
      }
      return;
    }
  }
}

Status JsonbBuilder::Transform(std::string_view json_text,
                               std::vector<uint8_t>* out) {
  nodes_.clear();
  sorted_children_.clear();
  decoded_used_ = 0;

  // Documents (and so every string in them) stay below 4 GiB, the bound of
  // a string Value (exec::kMaxStringBytes).
  if (json_text.size() > 0xFFFFFFFFull) {
    return Status::OutOfRange("input larger than 4 GiB");
  }
  obs::Stopwatch obs_watch;
  JsonLexer lexer(json_text);
  Token token;
  JSONTILES_RETURN_NOT_OK(lexer.Next(&token));
  if (token == Token::kEnd) return Status::ParseError("empty input");
  uint32_t root;
  JSONTILES_RETURN_NOT_OK(ParseValue(lexer, token, &root, 0));
  JSONTILES_RETURN_NOT_OK(lexer.Next(&token));
  if (token != Token::kEnd) return Status::ParseError("trailing content");
  if (nodes_[root].size > 0xFFFFFFFFull) {
    return Status::OutOfRange("document larger than 4 GiB");
  }
  JSONTILES_HIST_RECORD("jsonb.transform.pass1_micros", obs_watch.Lap() * 1e6);

  out->resize(nodes_[root].size);
  WriteValue(root, out->data(), 0);
  JSONTILES_HIST_RECORD("jsonb.transform.pass2_micros", obs_watch.Lap() * 1e6);
  JSONTILES_COUNTER_ADD("jsonb.transform.docs", 1);
  JSONTILES_COUNTER_ADD("jsonb.transform.bytes_in",
                        static_cast<int64_t>(json_text.size()));
  JSONTILES_COUNTER_ADD("jsonb.transform.bytes_out",
                        static_cast<int64_t>(out->size()));
  return Status::OK();
}

Result<std::vector<uint8_t>> JsonbFromText(std::string_view json_text) {
  JsonbBuilder builder;
  std::vector<uint8_t> out;
  Status st = builder.Transform(json_text, &out);
  if (!st.ok()) return st;
  return out;
}

Status ValidateJsonb(const uint8_t* data, size_t size) {
  if (data == nullptr) return Status::ParseError("jsonb: null buffer");
  size_t root_size = 0;
  JSONTILES_RETURN_NOT_OK(ValidateValue(data, size, 0, &root_size));
  if (root_size != size) return Status::ParseError("jsonb: trailing bytes");
  return Status::OK();
}

std::vector<uint8_t> AssembleObject(std::vector<AssembleMember> members) {
  std::sort(members.begin(), members.end(),
            [](const AssembleMember& a, const AssembleMember& b) {
              return a.key < b.key;
            });
  uint64_t slots_size = 0;
  for (const auto& m : members) slots_size += m.value_size + m.key.size() + 2;
  int ow = slots_size <= 0xFF ? 1 : slots_size <= 0xFFFF ? 2 : 4;
  uint64_t count = members.size();
  size_t total = 1 + static_cast<size_t>(bit_util::VarintSize(count)) +
                 static_cast<size_t>(count) * static_cast<size_t>(ow) +
                 static_cast<size_t>(slots_size);
  std::vector<uint8_t> out(total);
  out[0] = static_cast<uint8_t>(kTagObject << 4 | OffsetWidthCode(ow));
  size_t p = 1;
  p += static_cast<size_t>(bit_util::EncodeVarint(out.data() + p, count));
  size_t offsets_pos = p;
  size_t slots_pos = p + static_cast<size_t>(count) * static_cast<size_t>(ow);
  uint64_t rel = 0;
  for (size_t i = 0; i < members.size(); i++) {
    const auto& m = members[i];
    size_t slot_start = slots_pos + rel;
    std::memcpy(out.data() + slot_start, m.value_data, m.value_size);
    std::memcpy(out.data() + slot_start + m.value_size, m.key.data(), m.key.size());
    bit_util::StoreU16(out.data() + slot_start + m.value_size + m.key.size(),
                       static_cast<uint16_t>(m.key.size()));
    rel += m.value_size + m.key.size() + 2;
    bit_util::StoreLE(out.data() + offsets_pos + i * static_cast<size_t>(ow), rel, ow);
  }
  return out;
}

std::vector<uint8_t> MakeJsonbInt(int64_t value) {
  std::vector<uint8_t> out;
  if (value >= 0 && value <= 15) {
    out.push_back(static_cast<uint8_t>(kTagIntSmall << 4 | value));
    return out;
  }
  uint64_t mag = value < 0 ? -static_cast<uint64_t>(value)
                           : static_cast<uint64_t>(value);
  int n = bit_util::MinBytes(mag);
  out.resize(1 + static_cast<size_t>(n));
  out[0] = static_cast<uint8_t>(kTagInt << 4 | (value < 0 ? 8 : 0) | (n - 1));
  bit_util::StoreLE(out.data() + 1, mag, n);
  return out;
}

}  // namespace jsontiles::json
