// Schema explorer: surface what JSON tiles learned about a document
// collection — per-tile extraction schemas, relation-level key statistics
// (frequency counters + HyperLogLog distinct counts, §4.6), and how the
// optimizer would estimate a predicate.
//
//   build/examples/example_schema_explorer

#include <algorithm>
#include <cstdio>
#include <map>

#include "opt/cardinality.h"
#include "storage/loader.h"
#include "tiles/keypath.h"
#include "workload/yelp.h"

using namespace jsontiles;  // NOLINT: example brevity

int main() {
  workload::YelpOptions options;
  options.num_business = 200;
  auto docs = workload::GenerateYelp(options);
  storage::Loader loader(storage::StorageMode::kTiles, {});
  auto rel = loader.Load(docs, "yelp").MoveValueOrDie();

  std::printf("Loaded %zu Yelp documents into %zu tiles\n\n", rel->num_rows(),
              rel->tiles().size());

  // Aggregate the distinct extraction schemas across tiles.
  std::map<std::string, size_t> schemas;
  for (const auto& tile : rel->tiles()) {
    std::string schema;
    for (const auto& col : tile.columns) {
      if (!schema.empty()) schema += ", ";
      schema += tiles::PathToDisplayString(col.path);
      schema += ":";
      schema += tiles::ColumnTypeName(col.storage_type);
    }
    schemas[schema]++;
  }
  std::printf("Distinct tile schemas (%zu):\n", schemas.size());
  std::vector<std::pair<size_t, std::string>> ordered;
  for (auto& [schema, count] : schemas) ordered.push_back({count, schema});
  std::sort(ordered.rbegin(), ordered.rend());
  for (size_t i = 0; i < ordered.size() && i < 6; i++) {
    std::printf("  x%-3zu {%s}\n", ordered[i].first,
                ordered[i].second.substr(0, 110).c_str());
  }

  // Relation-level statistics: key cardinalities and distinct counts.
  std::printf("\nOptimizer statistics (key presence / distinct values):\n");
  auto show = [&](std::initializer_list<std::string_view> keys) {
    std::string path;
    for (auto k : keys) tiles::AppendKeySegment(&path, k);
    uint64_t presence = rel->stats().EstimateKeyCardinalityAnyType(path);
    auto distinct = rel->stats().EstimateDistinctAnyType(path);
    std::printf("  %-22s in ~%-7llu docs, ~%.0f distinct values\n",
                tiles::PathToDisplayString(path).c_str(),
                static_cast<unsigned long long>(presence),
                distinct.has_value() ? *distinct : 0.0);
  };
  show({"business_id"});
  show({"review_id"});
  show({"user_id"});
  show({"stars"});
  show({"city"});

  // What would the optimizer estimate for a filtered business scan?
  exec::ExprPtr filter =
      exec::Eq(exec::Access("b", {"city"}, exec::ValueType::kString),
               exec::ConstString("Toronto"));
  std::string is_open_path;
  tiles::AppendKeySegment(&is_open_path, "is_open");
  exec::ScanSpec scan;
  scan.relation = rel.get();
  scan.table_alias = "b";
  exec::CollectAccesses(filter, &scan.accesses);
  scan.filter = exec::RewriteAccessesToSlots(
      filter, [](const exec::Expr&) { return 0; });
  scan.null_rejecting_paths = {is_open_path};
  auto estimate = opt::EstimateScanCardinality(scan);
  if (!estimate.ok()) {
    std::fprintf(stderr, "estimate failed: %s\n",
                 estimate.status().ToString().c_str());
    return 1;
  }
  std::printf("\nEstimate for businesses in Toronto: ~%.0f rows (of %zu docs)\n",
              estimate.ValueOrDie(), rel->num_rows());
  return 0;
}
