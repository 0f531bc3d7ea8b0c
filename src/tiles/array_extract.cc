#include "tiles/array_extract.h"

#include <algorithm>
#include <unordered_map>

#include "tiles/keypath.h"

namespace jsontiles::tiles {

namespace {

// The Tiles-* rule (array_extract.h): average element count over the
// documents holding the array, and the share of all documents holding it.
constexpr double kMinAvgElements = 1.0;
constexpr double kMinPresence = 0.3;

struct ArrayStat {
  uint64_t docs_with = 0;
  uint64_t total_elements = 0;
};

void ScanArrays(json::JsonbValue value, std::string* prefix, int depth,
                std::unordered_map<std::string, ArrayStat>* stats) {
  if (depth >= kMaxPathDepth) return;
  switch (value.type()) {
    case json::JsonType::kObject: {
      size_t count = value.Count();
      for (size_t i = 0; i < count; i++) {
        size_t saved = prefix->size();
        AppendKeySegment(prefix, value.MemberKey(i));
        ScanArrays(value.MemberValue(i), prefix, depth + 1, stats);
        prefix->resize(saved);
      }
      return;
    }
    case json::JsonType::kArray: {
      ArrayStat& stat = (*stats)[*prefix];
      stat.docs_with++;
      stat.total_elements += value.Count();
      // Do not descend: nested arrays belong to this one's side relation.
      return;
    }
    default:
      return;
  }
}

}  // namespace

std::vector<std::string> DetectHighCardinalityArrays(
    const std::vector<json::JsonbValue>& docs) {
  std::unordered_map<std::string, ArrayStat> stats;
  std::string prefix;
  for (const auto& doc : docs) {
    ScanArrays(doc, &prefix, 0, &stats);
  }
  std::vector<std::string> out;
  for (const auto& [path, stat] : stats) {
    double presence =
        static_cast<double>(stat.docs_with) / static_cast<double>(docs.size());
    double avg = static_cast<double>(stat.total_elements) /
                 static_cast<double>(stat.docs_with);
    if (avg >= kMinAvgElements && presence >= kMinPresence) {
      out.push_back(path);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExplodeArray(json::JsonbValue doc, std::string_view encoded_array_path,
                  int64_t parent_row_id,
                  std::vector<std::vector<uint8_t>>* out) {
  auto array = LookupPath(doc, encoded_array_path);
  if (!array.has_value() || array->type() != json::JsonType::kArray) return;
  std::vector<uint8_t> rowid = json::MakeJsonbInt(parent_row_id);
  size_t count = array->Count();
  for (size_t i = 0; i < count; i++) {
    json::JsonbValue element = array->ArrayElement(i);
    std::vector<json::AssembleMember> members;
    if (element.type() == json::JsonType::kObject) {
      size_t members_count = element.Count();
      bool clash = false;
      for (size_t m = 0; m < members_count; m++) {
        if (element.MemberKey(m) == kParentRowIdKey) clash = true;
        json::JsonbValue v = element.MemberValue(m);
        members.push_back(
            json::AssembleMember{element.MemberKey(m), v.data(), v.Size()});
      }
      if (clash) {
        // Extremely unlikely; keep the element intact under "value" instead.
        members.clear();
        members.push_back(json::AssembleMember{kScalarValueKey, element.data(),
                                               element.Size()});
      }
    } else {
      members.push_back(
          json::AssembleMember{kScalarValueKey, element.data(), element.Size()});
    }
    members.push_back(
        json::AssembleMember{kParentRowIdKey, rowid.data(), rowid.size()});
    out->push_back(json::AssembleObject(std::move(members)));
  }
}

}  // namespace jsontiles::tiles
