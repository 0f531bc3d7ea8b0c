// Twitter analytics: the paper's running example end to end — evolving tweet
// schemas, structurally-different delete records, and high-cardinality
// entity arrays extracted into side relations (Tiles-*, §3.5) that answer
// the mention and hashtag queries' CONTAINS.
//
//   build/examples/example_twitter_analytics

#include <cstdio>

#include "storage/loader.h"
#include "tiles/keypath.h"
#include "workload/twitter.h"

using namespace jsontiles;  // NOLINT: example brevity

int main() {
  workload::TwitterOptions options;
  options.num_tweets = 30000;
  options.changing_schema = true;  // tweets span 2006-2020, fields accrue
  auto docs = workload::GenerateTwitter(options);

  storage::LoadOptions load_options;
  load_options.extract_arrays = true;  // Tiles-*: hashtags / mentions
  storage::Loader loader(storage::StorageMode::kTiles, {}, load_options);
  auto tweets = loader.Load(docs, "tweets").MoveValueOrDie();

  std::printf("Loaded %zu stream records, %zu tiles\n", tweets->num_rows(),
              tweets->tiles().size());
  for (const auto& [path, side] : tweets->side_relations()) {
    std::printf("extracted array relation %-28s -> %zu elements\n",
                tiles::PathToDisplayString(path).c_str(), side->num_rows());
  }

  // Show schema evolution: what do early vs late tiles extract?
  auto describe = [&](const tiles::Tile& tile, const char* label) {
    std::printf("%s (rows %zu..%zu):", label, tile.row_begin,
                tile.row_begin + tile.row_count - 1);
    for (const auto& col : tile.columns) {
      std::printf(" %s", tiles::PathToDisplayString(col.path).c_str());
    }
    std::printf("\n");
  };
  describe(tweets->tiles().front(), "early tile ");
  describe(tweets->tiles().back(), "recent tile");

  for (int q = 1; q <= 5; q++) {
    exec::QueryContext ctx;
    auto rows = workload::RunTwitterQuery(q, *tweets, ctx);
    std::printf("\n%s -> %zu rows (top 3):\n", workload::TwitterQueryName(q),
                rows.size());
    for (size_t r = 0; r < rows.size() && r < 3; r++) {
      std::printf("  ");
      for (const auto& v : rows[r]) std::printf("%s | ", v.ToString().c_str());
      std::printf("\n");
    }
  }
  return 0;
}
