#include "tiles/tile_builder.h"

#include <algorithm>
#include <bit>

#include "obs/obs.h"
#include "util/hash.h"
#include "util/logging.h"

namespace jsontiles::tiles {

ColumnType StorageTypeFor(json::JsonType type) {
  switch (type) {
    case json::JsonType::kBool: return ColumnType::kBool;
    case json::JsonType::kInt: return ColumnType::kInt64;
    case json::JsonType::kFloat: return ColumnType::kFloat64;
    case json::JsonType::kString: return ColumnType::kString;
    case json::JsonType::kNumericString: return ColumnType::kNumeric;
    default:
      JSONTILES_CHECK(false);  // containers and nulls are never materialized
  }
}

namespace {

bool DictKeyEquals(std::string_view dict_key, std::string_view path,
                   uint8_t type) {
  return dict_key.size() == path.size() + 1 && DictKeyType(dict_key) == type &&
         DictKeyPath(dict_key) == path;
}

}  // namespace

void DocumentItems::AddDocument(const json::OndemandIngest& leaves) {
  thread_local std::string key;  // reusable dict-key buffer (no allocation)
  // Documents of one chunk repeat a few layouts, so the item that followed
  // the previous leaf's item last time is the likely next one. Checking that
  // guess is a short memcmp instead of hashing the key and probing `ids`; a
  // match is the very id the probe would return, so ids stay in first-seen
  // order either way.
  if (successors.empty()) successors.push_back(kNoItem);
  size_t slot = 0;  // successors slot of the previous leaf's item
  mining::Transaction tx;
  tx.reserve(leaves.leaves.size());
  value_begin.push_back(value_offsets.size());
  for (const auto& leaf : leaves.leaves) {
    const std::string_view path(leaves.paths.data() + leaf.path_off,
                                leaf.path_len);
    mining::Item item = successors[slot];
    if (item == kNoItem || !DictKeyEquals(dict[item], path, leaf.type)) {
      key.assign(path);
      key.push_back(static_cast<char>(leaf.type));
      auto it = ids.find(std::string_view(key));
      if (it == ids.end()) {
        it = ids.emplace(key, static_cast<mining::Item>(dict.size())).first;
        dict.push_back(key);
        item_counts.push_back(0);
        successors.push_back(kNoItem);
      }
      item = it->second;
      successors[slot] = item;
    }
    slot = item + 1;
    tx.push_back(item);
    item_counts[item]++;
    value_offsets.push_back(leaf.value_off);
  }
  transactions.push_back(std::move(tx));
}

void DocumentItems::Append(DocumentItems&& chunk) {
  if (dict.empty() && transactions.empty()) {
    *this = std::move(chunk);
    return;
  }
  std::vector<mining::Item> remap(chunk.dict.size());
  for (size_t i = 0; i < chunk.dict.size(); i++) {
    auto it = ids.find(std::string_view(chunk.dict[i]));
    if (it == ids.end()) {
      it = ids.emplace(chunk.dict[i], static_cast<mining::Item>(dict.size()))
               .first;
      dict.push_back(std::move(chunk.dict[i]));
      item_counts.push_back(0);
    }
    remap[i] = it->second;
    item_counts[remap[i]] += chunk.item_counts[i];
  }
  successors.resize(dict.size() + 1, kNoItem);
  const size_t offset_base = value_offsets.size();
  for (size_t begin : chunk.value_begin) {
    value_begin.push_back(offset_base + begin);
  }
  value_offsets.insert(value_offsets.end(), chunk.value_offsets.begin(),
                       chunk.value_offsets.end());
  for (mining::Transaction& tx : chunk.transactions) {
    for (mining::Item& item : tx) item = remap[item];
    transactions.push_back(std::move(tx));
  }
}

DocumentItems DocumentItems::Project(
    const std::vector<uint32_t>& doc_indices) const {
  DocumentItems out;
  out.dict = dict;
  out.item_counts.assign(dict.size(), 0);
  out.transactions.reserve(doc_indices.size());
  out.value_begin.reserve(doc_indices.size());
  for (uint32_t i : doc_indices) {
    const mining::Transaction& tx = transactions[i];
    out.transactions.push_back(tx);
    out.value_begin.push_back(out.value_offsets.size());
    out.value_offsets.insert(out.value_offsets.end(), ValueOffsets(i),
                             ValueOffsets(i) + tx.size());
    for (mining::Item item : tx) out.item_counts[item]++;
  }
  return out;
}

DocumentItems ItemsFromJsonb(const std::vector<json::JsonbValue>& docs) {
  DocumentItems items;
  json::OndemandIngest leaves;
  for (const auto& doc : docs) {
    json::BuildIngestFromJsonb(doc, &leaves);
    items.AddDocument(leaves);
  }
  return items;
}

std::vector<mining::Itemset> TileBuilder::MineItemsets(
    const DocumentItems& items, uint32_t min_support) const {
  // Budget `u` on generated itemsets per tile (Eq. 1, §3.3).
  constexpr uint64_t kItemsetBudget = 4096;
  mining::FpGrowthMiner miner;
  mining::MinerOptions options;
  options.min_support = min_support;
  options.budget = kItemsetBudget;
  return miner.Mine(items.transactions, options);
}

Tile TileBuilder::Build(const std::vector<json::JsonbValue>& docs,
                        size_t row_begin) const {
  return BuildFromItems(docs, ItemsFromJsonb(docs), row_begin);
}

namespace {

uint64_t HashJsonbScalar(const json::JsonbValue& value) {
  switch (value.type()) {
    case json::JsonType::kBool: return HashInt(value.GetBool() ? 1 : 2);
    case json::JsonType::kInt: return HashInt(static_cast<uint64_t>(value.GetInt()));
    case json::JsonType::kFloat:
      return HashInt(std::bit_cast<uint64_t>(value.GetDouble()));
    case json::JsonType::kString: return HashString(value.GetString());
    case json::JsonType::kNumericString: {
      Numeric n = value.GetNumeric();
      return HashCombine(HashInt(static_cast<uint64_t>(n.unscaled)),
                         HashInt(n.scale));
    }
    default: return 0;
  }
}

}  // namespace

Tile TileBuilder::BuildFromItems(const std::vector<json::JsonbValue>& docs,
                                 const DocumentItems& items, size_t row_begin,
                                 const std::vector<mining::Itemset>* premined) const {
  JSONTILES_CHECK(items.transactions.size() == docs.size() &&
                  items.value_begin.size() == docs.size());
  Tile tile;
  tile.row_begin = row_begin;
  tile.row_count = docs.size();

  // Per-tile statistics: the mining dictionary with frequencies (§4.6).
  // Zero-count entries (projection artifacts) carry no information.
  tile.stats.path_frequencies.reserve(items.dict.size());
  for (size_t i = 0; i < items.dict.size(); i++) {
    if (items.item_counts[i] == 0) continue;
    tile.stats.path_frequencies.emplace_back(items.dict[i], items.item_counts[i]);
  }

  if (docs.empty()) return tile;

  // §3.1 step 2: frequent itemset mining.
  std::vector<mining::Itemset> itemsets =
      premined != nullptr ? *premined
                          : MineItemsets(items, ExtractionSupport(docs.size()));

  // §3.1 step 3: extract the union of the (maximal) itemsets. For each key
  // path, the most common frequent type wins (§3.4); the rest stay binary.
  std::vector<bool> in_union(items.dict.size(), false);
  for (const auto& set : itemsets) {
    for (mining::Item item : set.items) in_union[item] = true;
  }
  struct Choice {
    mining::Item item;
    uint32_t count;
  };
  std::unordered_map<std::string, Choice> chosen;  // path -> best item
  for (size_t i = 0; i < items.dict.size(); i++) {
    if (!in_union[i]) continue;
    auto type = static_cast<json::JsonType>(DictKeyType(items.dict[i]));
    if (type == json::JsonType::kNull) continue;  // null is never a column
    std::string path(DictKeyPath(items.dict[i]));
    auto it = chosen.find(path);
    if (it == chosen.end() || items.item_counts[i] > it->second.count) {
      chosen[path] = Choice{static_cast<mining::Item>(i), items.item_counts[i]};
    }
  }

  // Deterministic column order: by path.
  std::vector<std::pair<std::string, Choice>> ordered(chosen.begin(), chosen.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Which paths occur with more than one type (for the outlier flag)?
  std::unordered_map<std::string, int> types_per_path;
  for (size_t i = 0; i < items.dict.size(); i++) {
    types_per_path[std::string(DictKeyPath(items.dict[i]))]++;
  }

  // Resolve every (document, column) value offset in one pass over the
  // transactions instead of one tree descent per document per column. A slot
  // is filled exactly when the document carries the column's path at the
  // chosen type, i.e. when LookupPath would find a value of that type.
  constexpr uint32_t kNoSlot = 0xFFFFFFFF;
  const size_t ncols = ordered.size();
  std::vector<uint32_t> slots;
  if (ncols > 0) {
    std::vector<uint32_t> item_to_col(items.dict.size(), kNoSlot);
    for (size_t c = 0; c < ncols; c++) {
      item_to_col[ordered[c].second.item] = static_cast<uint32_t>(c);
    }
    slots.assign(docs.size() * ncols, kNoSlot);
    for (size_t d = 0; d < docs.size(); d++) {
      const mining::Transaction& tx = items.transactions[d];
      const uint32_t* offsets = items.ValueOffsets(d);
      for (size_t k = 0; k < tx.size(); k++) {
        const uint32_t c = item_to_col[tx[k]];
        if (c != kNoSlot) slots[d * ncols + c] = offsets[k];
      }
    }
  }

  for (size_t ci = 0; ci < ordered.size(); ci++) {
    auto& [path, choice] = ordered[ci];
    // The document's value for this column, of the chosen source type.
    const auto column_value =
        [&](size_t d) -> std::optional<json::JsonbValue> {
      const uint32_t off = slots[d * ncols + ci];
      if (off == kNoSlot) return std::nullopt;
      return json::JsonbValue(docs[d].data() + off);
    };
    auto source_type = static_cast<json::JsonType>(DictKeyType(items.dict[choice.item]));
    ExtractedColumn col;
    col.path = path;
    col.source_type = source_type;
    col.storage_type = StorageTypeFor(source_type);
    col.has_type_outliers = types_per_path[path] > 1;

    // §4.9: sample string values; extract as Timestamp when (nearly) all
    // parse as date/time.
    constexpr double kDateDetectionFraction = 0.95;
    if (source_type == json::JsonType::kString && config_.enable_date_extraction) {
      size_t present = 0;
      size_t parsed = 0;
      Timestamp ts;
      for (size_t d = 0; d < docs.size(); d++) {
        auto value = column_value(d);
        if (!value.has_value()) continue;
        present++;
        if (ParseTimestamp(value->GetString(), &ts)) parsed++;
      }
      if (present > 0 &&
          static_cast<double>(parsed) >=
              kDateDetectionFraction * static_cast<double>(present)) {
        col.storage_type = ColumnType::kTimestamp;
        col.is_timestamp = true;
      }
    }

    // Materialize the column; §4.6: sample values into a HLL sketch.
    col.column = Column(col.storage_type);
    HyperLogLog sketch;
    for (size_t d = 0; d < docs.size(); d++) {
      auto value = column_value(d);
      bool stored = false;
      if (value.has_value()) {
        switch (col.storage_type) {
          case ColumnType::kBool:
            col.column.AppendBool(value->GetBool());
            stored = true;
            break;
          case ColumnType::kInt64:
            col.column.AppendInt(value->GetInt());
            stored = true;
            break;
          case ColumnType::kFloat64:
            col.column.AppendFloat(value->GetDouble());
            stored = true;
            break;
          case ColumnType::kString:
            col.column.AppendString(docs[d].data(), value->GetString());
            stored = true;
            break;
          case ColumnType::kNumeric:
            col.column.AppendNumeric(value->GetNumeric());
            stored = true;
            break;
          case ColumnType::kTimestamp: {
            Timestamp ts;
            if (ParseTimestamp(value->GetString(), &ts)) {
              col.column.AppendTimestamp(ts);
              stored = true;
            }
            break;
          }
        }
      }
      if (stored) {
        sketch.Add(HashJsonbScalar(*value));
      } else {
        col.column.AppendNull();
      }
    }
    col.nullable = col.column.null_count() > 0;
    // Zone map over the materialized values (range skipping, §4.8 extension).
    if (col.storage_type == ColumnType::kInt64 ||
        col.storage_type == ColumnType::kTimestamp) {
      for (size_t r = 0; r < col.column.size(); r++) {
        if (col.column.IsNull(r)) continue;
        int64_t v = col.column.GetInt(r);
        if (!col.has_minmax) {
          col.min_i = col.max_i = v;
          col.has_minmax = true;
        } else {
          col.min_i = std::min(col.min_i, v);
          col.max_i = std::max(col.max_i, v);
        }
      }
    } else if (col.storage_type == ColumnType::kFloat64) {
      for (size_t r = 0; r < col.column.size(); r++) {
        if (col.column.IsNull(r)) continue;
        double v = col.column.GetFloat(r);
        if (!col.has_minmax) {
          col.min_d = col.max_d = v;
          col.has_minmax = true;
        } else {
          col.min_d = std::min(col.min_d, v);
          col.max_d = std::max(col.max_d, v);
        }
      }
    }
    tile.stats.column_sketches.push_back(std::move(sketch));
    tile.columns.push_back(std::move(col));
  }

  tile.BuildColumnIndex();
  tile.AddColumnPrefixesToSeenPaths();

  // §4.4: non-extracted key paths that actually occur in this tile go into
  // the header bloom filter. (The dictionary may be a projection of a whole
  // partition and can carry zero-count entries.)
  for (size_t i = 0; i < items.dict.size(); i++) {
    if (items.item_counts[i] == 0) continue;
    std::string_view path = DictKeyPath(items.dict[i]);
    if (tile.FindColumn(path) == nullptr) tile.AddSeenPath(path);
  }

  JSONTILES_COUNTER_ADD("tiles.built", 1);
  JSONTILES_COUNTER_ADD("tiles.columns_extracted",
                        static_cast<int64_t>(tile.columns.size()));
  if (!types_per_path.empty()) {
    JSONTILES_HIST_RECORD("tiles.materialized_path_pct",
                          100.0 * static_cast<double>(tile.columns.size()) /
                              static_cast<double>(types_per_path.size()));
  }
  return tile;
}

}  // namespace jsontiles::tiles
