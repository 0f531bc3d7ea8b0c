#include "tiles/reorder.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "mining/fpgrowth.h"
#include "obs/obs.h"

namespace jsontiles::tiles {

namespace {

// Number of common items between a sorted itemset and a sorted transaction.
size_t OverlapCount(const std::vector<mining::Item>& itemset,
                    const std::vector<mining::Item>& tx) {
  size_t i = 0, j = 0, common = 0;
  while (i < itemset.size() && j < tx.size()) {
    if (itemset[i] == tx[j]) {
      common++;
      i++;
      j++;
    } else if (itemset[i] < tx[j]) {
      i++;
    } else {
      j++;
    }
  }
  return common;
}

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
    std::vector<mining::Transaction> chunk(items.transactions.begin() + begin,
                                           items.transactions.begin() + end);
    mining::MinerOptions options;
    options.min_support = static_cast<uint32_t>(
        std::ceil(reduced * static_cast<double>(end - begin)));
    if (options.min_support == 0) options.min_support = 1;
    options.budget = kReorderItemsetBudget;
    // Step 2 (first half): exchange the itemsets of all tiles.
    for (auto& set : miner.Mine(chunk, options)) {
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
  // match alike (§3.2 step 3).
  const int kUnmatched = -1;
  std::vector<int> best(n, kUnmatched);
  std::vector<mining::Transaction> sorted_txs = items.transactions;
  for (auto& tx : sorted_txs) std::sort(tx.begin(), tx.end());
  for (size_t d = 0; d < n; d++) {
    size_t best_overlap = 0;
    size_t best_size = 0;
    uint64_t best_idsum = 0;
    for (size_t s = 0; s < survivors.size(); s++) {
      size_t overlap = OverlapCount(survivors[s].items, sorted_txs[d]);
      if (overlap == 0) continue;
      uint64_t idsum = ItemIdSum(survivors[s].items);
      bool better = false;
      if (overlap > best_overlap) {
        better = true;
      } else if (overlap == best_overlap) {
        if (survivors[s].items.size() < best_size) {
          better = true;
        } else if (survivors[s].items.size() == best_size && idsum < best_idsum) {
          better = true;
        }
      }
      if (better) {
        best[d] = static_cast<int>(s);
        best_overlap = overlap;
        best_size = survivors[s].items.size();
        best_idsum = idsum;
      }
    }
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
