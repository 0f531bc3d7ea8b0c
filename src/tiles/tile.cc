#include "tiles/tile.h"

#include <algorithm>

#include "json/ondemand.h"
#include "tiles/keypath.h"

namespace jsontiles::tiles {

const ExtractedColumn* Tile::FindColumn(std::string_view path) const {
  auto it = column_index_.find(path);
  if (it == column_index_.end()) return nullptr;
  return &columns[it->second];
}

ExtractedColumn* Tile::FindColumn(std::string_view path) {
  auto it = column_index_.find(path);
  if (it == column_index_.end()) return nullptr;
  return &columns[it->second];
}

bool Tile::MayContainPath(std::string_view path) const {
  if (FindColumn(path) != nullptr) return true;
  return seen_paths_.MayContainString(path);
}

void Tile::AddSeenPath(std::string_view path) {
  ForEachPathPrefix(path, [this](std::string_view prefix) {
    seen_paths_.InsertString(prefix);
  });
}

void Tile::BuildColumnIndex() {
  column_index_.clear();
  for (size_t i = 0; i < columns.size(); i++) {
    column_index_[columns[i].path] = i;
  }
}

void Tile::AddColumnPrefixesToSeenPaths() {
  for (const ExtractedColumn& col : columns) {
    ForEachPathPrefix(col.path, [this](std::string_view prefix) {
      seen_paths_.InsertString(prefix);
    });
  }
}

size_t Tile::ColumnMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& col : columns) {
    bytes += col.column.MemoryBytes();
    bytes += col.path.size() + sizeof(ExtractedColumn);
  }
  return bytes;
}

namespace {

// §4.7 updates must keep zone maps conservative: widen on new values.
void WidenMinMaxInt(ExtractedColumn* col, int64_t v) {
  if (!col->has_minmax) {
    col->min_i = col->max_i = v;
    col->has_minmax = true;
  } else {
    col->min_i = std::min(col->min_i, v);
    col->max_i = std::max(col->max_i, v);
  }
}

void WidenMinMaxFloat(ExtractedColumn* col, double v) {
  if (!col->has_minmax) {
    col->min_d = col->max_d = v;
    col->has_minmax = true;
  } else {
    col->min_d = std::min(col->min_d, v);
    col->max_d = std::max(col->max_d, v);
  }
}

}  // namespace

bool UpdateTileRow(Tile* tile, size_t row_in_tile, json::JsonbValue new_doc) {
  size_t overlap = 0;
  for (auto& col : tile->columns) {
    auto value = LookupPath(new_doc, col.path);
    Column& column = col.column;
    if (!value.has_value()) {
      column.SetNull(row_in_tile);
      col.nullable = true;
      continue;
    }
    bool matched = false;
    switch (col.storage_type) {
      case ColumnType::kBool:
        if (value->type() == json::JsonType::kBool) {
          column.SetBool(row_in_tile, value->GetBool());
          matched = true;
        }
        break;
      case ColumnType::kInt64:
        if (value->type() == json::JsonType::kInt) {
          column.SetInt(row_in_tile, value->GetInt());
          WidenMinMaxInt(&col, value->GetInt());
          matched = true;
        }
        break;
      case ColumnType::kFloat64:
        if (value->type() == json::JsonType::kFloat) {
          column.SetFloat(row_in_tile, value->GetDouble());
          WidenMinMaxFloat(&col, value->GetDouble());
          matched = true;
        }
        break;
      case ColumnType::kNumeric:
        if (value->type() == json::JsonType::kNumericString) {
          column.SetNumeric(row_in_tile, value->GetNumeric());
          matched = true;
        }
        break;
      case ColumnType::kString:
        if (value->type() == json::JsonType::kString) {
          column.SetString(row_in_tile, new_doc.data(), value->GetString());
          matched = true;
        }
        break;
      case ColumnType::kTimestamp:
        if (value->type() == json::JsonType::kString) {
          Timestamp ts;
          if (ParseTimestamp(value->GetString(), &ts)) {
            column.SetInt(row_in_tile, ts);
            WidenMinMaxInt(&col, ts);
            matched = true;
          }
        }
        break;
    }
    if (matched) {
      overlap++;
    } else {
      // Value exists with a non-matching type: answered from binary JSON.
      column.SetNull(row_in_tile);
      col.nullable = true;
      col.has_type_outliers = true;
    }
  }

  // New paths must reach the bloom filter; otherwise skipping would be wrong.
  json::OndemandIngest leaves;
  json::BuildIngestFromJsonb(new_doc, &leaves);
  for (const auto& leaf : leaves.leaves) {
    const std::string_view path(leaves.paths.data() + leaf.path_off,
                                leaf.path_len);
    if (tile->FindColumn(path) == nullptr) tile->AddSeenPath(path);
  }

  bool outlier = overlap == 0 && !tile->columns.empty();
  if (outlier) tile->outlier_count++;
  return outlier;
}

}  // namespace jsontiles::tiles
