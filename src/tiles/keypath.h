// Key paths: the path of nested objects and arrays leading to a value
// (paper §3.1 step 1, §3.5).
//
// Nesting is encoded into the path so the extraction algorithm never has to
// distinguish nested from non-nested values. A path is stored in a compact
// self-delimiting byte encoding (segments are length-prefixed, so keys may
// contain any character). An itemset item is a (path, value type) pair
// (§3.4): two paths only match when their types match as well.

#ifndef JSONTILES_TILES_KEYPATH_H_
#define JSONTILES_TILES_KEYPATH_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "json/jsonb.h"

namespace jsontiles::tiles {

/// Key-path collection bounds (§3.5): leaves nested deeper than
/// kMaxPathDepth levels are not collected, and an array contributes only its
/// first kMaxArrayElements elements, each under an index segment. The JSONB
/// leaf walk (json::BuildIngestFromJsonb) and the on-demand emitter's inline
/// directory both apply them.
inline constexpr int kMaxPathDepth = 8;
inline constexpr uint32_t kMaxArrayElements = 4;

struct PathSegment {
  enum class Kind : uint8_t { kKey, kIndex };
  Kind kind = Kind::kKey;
  std::string key;     // object key (kKey)
  uint32_t index = 0;  // array slot (kIndex)

  static PathSegment Key(std::string k) {
    PathSegment s;
    s.kind = Kind::kKey;
    s.key = std::move(k);
    return s;
  }
  static PathSegment Index(uint32_t i) {
    PathSegment s;
    s.kind = Kind::kIndex;
    s.index = i;
    return s;
  }

  friend bool operator==(const PathSegment&, const PathSegment&) = default;
};

/// Append one segment to an encoded path (in place).
void AppendSegment(std::string* encoded, const PathSegment& segment);
void AppendKeySegment(std::string* encoded, std::string_view key);
void AppendIndexSegment(std::string* encoded, uint32_t index);

/// Encode a full path.
std::string EncodePath(const std::vector<PathSegment>& segments);

/// Decode an encoded path back into segments.
std::vector<PathSegment> DecodePath(std::string_view encoded);

/// Human-readable form, e.g. `user.geo.lat` or `tags[0].text`.
std::string PathToDisplayString(std::string_view encoded);

/// Number of segments (nesting levels) in an encoded path.
int PathDepth(std::string_view encoded);

/// Invoke `fn` for every prefix of the path (first k segments, k = 1..n,
/// including the full path). Prefixes are substrings of the encoding.
void ForEachPathPrefix(std::string_view encoded,
                       const std::function<void(std::string_view)>& fn);

/// Navigate a JSONB document along a path. Returns nullopt when any step is
/// missing (PostgreSQL semantics: absent key => SQL NULL).
std::optional<json::JsonbValue> LookupPath(json::JsonbValue root,
                                           std::string_view encoded_path);

/// Decode an encoded path into navigation steps for json::LookupSteps. The
/// key views point into `encoded`, which must outlive the returned steps —
/// callers caching steps must cache them against stable path storage (e.g.
/// the Expr that owns the encoded path).
std::vector<json::PathStep> DecodePathSteps(std::string_view encoded);

}  // namespace jsontiles::tiles

#endif  // JSONTILES_TILES_KEYPATH_H_
