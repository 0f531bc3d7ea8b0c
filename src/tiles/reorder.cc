#include "tiles/reorder.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <span>
#include <utility>

#include "mining/fpgrowth.h"
#include "obs/obs.h"

namespace jsontiles::tiles {

namespace {

uint64_t ItemIdSum(const std::vector<mining::Item>& items) {
  uint64_t sum = 0;
  for (mining::Item i : items) sum += i;
  return sum;
}

}  // namespace

ReorderResult ReorderPartition(const DocumentItems& items,
                               const TileConfig& config) {
  const size_t n = items.transactions.size();
  ReorderResult result;
  result.permutation.resize(n);
  std::iota(result.permutation.begin(), result.permutation.end(), 0);
  if (n == 0 || config.partition_size <= 1) return result;

  const size_t tile_size = config.tile_size;
  const size_t num_tiles = (n + tile_size - 1) / tile_size;
  if (num_tiles <= 1) return result;
  JSONTILES_TRACE_SPAN("tiles.reorder_partition");

  // Caps that keep reordering cheap: the itemset budget of the
  // reduced-threshold mining pass and the number of surviving itemsets
  // considered for tuple matching (most frequent first).
  constexpr uint64_t kReorderItemsetBudget = 512;
  constexpr size_t kMaxReorderItemsets = 32;

  // Step 1: mine each tile with the reduced threshold threshold/partition.
  const double reduced =
      kExtractionThreshold / static_cast<double>(config.partition_size);
  mining::FpGrowthMiner miner;
  std::map<std::vector<mining::Item>, uint64_t> aggregated;
  for (size_t t = 0; t < num_tiles; t++) {
    size_t begin = t * tile_size;
    size_t end = std::min(begin + tile_size, n);
    mining::MinerOptions options;
    options.min_support = static_cast<uint32_t>(
        std::ceil(reduced * static_cast<double>(end - begin)));
    if (options.min_support == 0) options.min_support = 1;
    options.budget = kReorderItemsetBudget;
    // Step 2 (first half): exchange the itemsets of all tiles.
    for (auto& set : miner.Mine(
             std::span(items.transactions).subspan(begin, end - begin),
             options)) {
      aggregated[set.items] += set.support;
    }
  }

  // Step 2 (second half): itemsets with partition-wide frequency above
  // threshold * tile_size survive.
  const double survive_limit =
      kExtractionThreshold * static_cast<double>(tile_size);
  std::vector<mining::Itemset> survivors;
  for (auto& [set_items, support] : aggregated) {
    if (static_cast<double>(support) > survive_limit) {
      survivors.push_back(
          mining::Itemset{set_items, static_cast<uint32_t>(support)});
    }
  }
  // Matching is O(tuples x survivors); keep only the most frequent (largest
  // first on ties) so reordering stays a small fraction of insertion time.
  if (survivors.size() > kMaxReorderItemsets) {
    std::sort(survivors.begin(), survivors.end(),
              [](const mining::Itemset& a, const mining::Itemset& b) {
                if (a.support != b.support) return a.support > b.support;
                if (a.items.size() != b.items.size()) {
                  return a.items.size() > b.items.size();
                }
                return a.items < b.items;
              });
    survivors.resize(kMaxReorderItemsets);
  }
  result.surviving_itemsets = survivors.size();
  if (survivors.empty()) return result;

  // Step 3: match every tuple to the itemset that describes it best — the
  // largest number of items in common, preferring the itemset with the
  // fewest items the tuple lacks (a tuple must not be clustered under a
  // schema whose extra columns it cannot fill); remaining ties are resolved
  // deterministically by the minimal sum of item ids so equal tuples always
  // match alike (§3.2 step 3). Survivors hold one to a few items and tuples
  // a few dozen, so each tuple counts its items once into an array indexed
  // by item id, and an itemset's overlap is the sum of those counts over its
  // own distinct items, each capped at how often the itemset holds it (the
  // size of the multiset intersection; 0 or 1 per item for distinct items).
  const int kUnmatched = -1;
  std::vector<int> best(n, kUnmatched);
  struct Survivor {
    std::vector<std::pair<mining::Item, uint32_t>> counts;  // distinct items
    size_t size;
    uint64_t idsum;
  };
  std::vector<Survivor> scored(survivors.size());
  for (size_t s = 0; s < survivors.size(); s++) {
    const std::vector<mining::Item>& set = survivors[s].items;  // sorted
    for (size_t k = 0; k < set.size(); k++) {
      if (k > 0 && set[k] == set[k - 1]) {
        scored[s].counts.back().second++;
      } else {
        scored[s].counts.emplace_back(set[k], 1);
      }
    }
    scored[s].size = set.size();
    scored[s].idsum = ItemIdSum(set);
  }
  std::vector<uint32_t> present(items.dict.size(), 0);
  for (size_t d = 0; d < n; d++) {
    const mining::Transaction& tx = items.transactions[d];
    for (mining::Item item : tx) present[item]++;
    size_t best_overlap = 0;
    size_t best_size = 0;
    uint64_t best_idsum = 0;
    for (size_t s = 0; s < scored.size(); s++) {
      const Survivor& survivor = scored[s];
      size_t overlap = 0;
      for (auto [item, count] : survivor.counts) {
        overlap += std::min(count, present[item]);
      }
      if (overlap == 0) continue;
      bool better = false;
      if (overlap > best_overlap) {
        better = true;
      } else if (overlap == best_overlap) {
        if (survivor.size < best_size) {
          better = true;
        } else if (survivor.size == best_size && survivor.idsum < best_idsum) {
          better = true;
        }
      }
      if (better) {
        best[d] = static_cast<int>(s);
        best_overlap = overlap;
        best_size = survivor.size;
        best_idsum = survivor.idsum;
      }
    }
    for (mining::Item item : tx) present[item] = 0;
  }

  // Step 4: aggregate cluster sizes and greedily map clusters to tiles so
  // each itemset's tuples land contiguously (largest clusters first).
  std::vector<std::vector<uint32_t>> clusters(survivors.size());
  std::vector<uint32_t> unmatched;
  for (size_t d = 0; d < n; d++) {
    if (best[d] == kUnmatched) {
      unmatched.push_back(static_cast<uint32_t>(d));
    } else {
      clusters[static_cast<size_t>(best[d])].push_back(static_cast<uint32_t>(d));
    }
  }
  std::vector<size_t> order(clusters.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (clusters[a].size() != clusters[b].size()) {
      return clusters[a].size() > clusters[b].size();
    }
    return a < b;
  });

  // Step 5: emit the new arrangement (equivalent to computing pairwise swap
  // positions; we physically reorder during bulk load).
  std::vector<uint32_t> arrangement;
  arrangement.reserve(n);
  for (size_t c : order) {
    arrangement.insert(arrangement.end(), clusters[c].begin(), clusters[c].end());
  }
  arrangement.insert(arrangement.end(), unmatched.begin(), unmatched.end());

  for (size_t pos = 0; pos < n; pos++) {
    if (arrangement[pos] / tile_size != pos / tile_size) result.moved_tuples++;
  }
  result.permutation = std::move(arrangement);
  JSONTILES_COUNTER_ADD("reorder.partitions", 1);
  JSONTILES_COUNTER_ADD("reorder.moved_tuples",
                        static_cast<int64_t>(result.moved_tuples));
  return result;
}

}  // namespace jsontiles::tiles
