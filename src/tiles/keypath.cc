#include "tiles/keypath.h"

#include <algorithm>

#include "util/bit_util.h"
#include "util/logging.h"

namespace jsontiles::tiles {

void AppendKeySegment(std::string* encoded, std::string_view key) {
  encoded->push_back('k');
  uint8_t buf[10];
  int n = bit_util::EncodeVarint(buf, key.size());
  encoded->append(reinterpret_cast<char*>(buf), static_cast<size_t>(n));
  encoded->append(key);
}

void AppendIndexSegment(std::string* encoded, uint32_t index) {
  encoded->push_back('i');
  uint8_t buf[10];
  int n = bit_util::EncodeVarint(buf, index);
  encoded->append(reinterpret_cast<char*>(buf), static_cast<size_t>(n));
}

void AppendSegment(std::string* encoded, const PathSegment& segment) {
  if (segment.kind == PathSegment::Kind::kKey) {
    AppendKeySegment(encoded, segment.key);
  } else {
    AppendIndexSegment(encoded, segment.index);
  }
}

std::string EncodePath(const std::vector<PathSegment>& segments) {
  std::string encoded;
  for (const auto& s : segments) AppendSegment(&encoded, s);
  return encoded;
}

std::vector<PathSegment> DecodePath(std::string_view encoded) {
  std::vector<PathSegment> segments;
  const uint8_t* data = reinterpret_cast<const uint8_t*>(encoded.data());
  size_t pos = 0;
  while (pos < encoded.size()) {
    char kind = encoded[pos++];
    uint64_t v = bit_util::DecodeVarint(data, &pos);
    if (kind == 'k') {
      segments.push_back(PathSegment::Key(std::string(encoded.substr(pos, v))));
      pos += v;
    } else {
      JSONTILES_DCHECK(kind == 'i');
      segments.push_back(PathSegment::Index(static_cast<uint32_t>(v)));
    }
  }
  return segments;
}

std::string PathToDisplayString(std::string_view encoded) {
  std::string out;
  for (const auto& s : DecodePath(encoded)) {
    if (s.kind == PathSegment::Kind::kKey) {
      if (!out.empty()) out.push_back('.');
      out.append(s.key);
    } else {
      out.push_back('[');
      out.append(std::to_string(s.index));
      out.push_back(']');
    }
  }
  return out;
}

int PathDepth(std::string_view encoded) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(encoded.data());
  size_t pos = 0;
  int depth = 0;
  while (pos < encoded.size()) {
    char kind = encoded[pos++];
    uint64_t v = bit_util::DecodeVarint(data, &pos);
    if (kind == 'k') pos += v;
    depth++;
  }
  return depth;
}

void ForEachPathPrefix(std::string_view encoded,
                       const std::function<void(std::string_view)>& fn) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(encoded.data());
  size_t pos = 0;
  while (pos < encoded.size()) {
    char kind = encoded[pos++];
    uint64_t v = bit_util::DecodeVarint(data, &pos);
    if (kind == 'k') pos += v;
    fn(encoded.substr(0, pos));
  }
}

std::optional<json::JsonbValue> LookupPath(json::JsonbValue root,
                                           std::string_view encoded_path) {
  json::JsonbValue cur = root;
  const uint8_t* data = reinterpret_cast<const uint8_t*>(encoded_path.data());
  size_t pos = 0;
  while (pos < encoded_path.size()) {
    char kind = encoded_path[pos++];
    uint64_t v = bit_util::DecodeVarint(data, &pos);
    if (kind == 'k') {
      if (cur.type() != json::JsonType::kObject) return std::nullopt;
      auto next = cur.FindKey(encoded_path.substr(pos, v));
      pos += v;
      if (!next.has_value()) return std::nullopt;
      cur = *next;
    } else {
      if (cur.type() != json::JsonType::kArray || v >= cur.Count()) {
        return std::nullopt;
      }
      cur = cur.ArrayElement(static_cast<size_t>(v));
    }
  }
  return cur;
}

std::vector<json::PathStep> DecodePathSteps(std::string_view encoded) {
  std::vector<json::PathStep> steps;
  const uint8_t* data = reinterpret_cast<const uint8_t*>(encoded.data());
  size_t pos = 0;
  while (pos < encoded.size()) {
    char kind = encoded[pos++];
    uint64_t v = bit_util::DecodeVarint(data, &pos);
    json::PathStep step;
    if (kind == 'k') {
      step.key = encoded.substr(pos, v);
      pos += v;
    } else {
      JSONTILES_DCHECK(kind == 'i');
      step.is_index = true;
      step.index = static_cast<uint32_t>(v);
    }
    steps.push_back(step);
  }
  return steps;
}

}  // namespace jsontiles::tiles
