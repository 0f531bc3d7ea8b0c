// FP-Growth frequent itemset mining (Han et al. [29]), the miner used for
// JSON tile construction (paper §3.3).
//
// Unlike Apriori, FP-Growth generates no candidate sets: it builds a prefix
// tree of frequency-ordered transactions and recursively mines conditional
// pattern trees. Because the number of frequent itemsets is exponential in
// the worst case, mining is budgeted (Eq. 1): given a budget `u` on the
// number of generated itemsets and `n` frequent items, the largest itemset
// size `k` is chosen such that sum_{i=1..k} C(n, i) <= u' <= u, and the
// recursion depth is bounded by `k`. Smaller itemsets are produced first, so
// precision degrades gracefully when the budget is hit.

#ifndef JSONTILES_MINING_FPGROWTH_H_
#define JSONTILES_MINING_FPGROWTH_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "mining/itemset.h"

namespace jsontiles::mining {

struct MinerOptions {
  /// Absolute support threshold (count of transactions).
  uint32_t min_support = 1;
  /// Upper bound `u` on the number of generated itemsets (Eq. 1).
  uint64_t budget = 4096;
};

/// Largest itemset size `k` such that sum_{i=1..k} C(n, i) <= budget
/// (Eq. 1 of the paper). Always at least 1 when n > 0.
int MaxItemsetSize(uint64_t n, uint64_t budget);

class FpGrowthMiner {
 public:
  /// Mine all frequent itemsets (up to the budget) from `transactions`.
  /// Items within a transaction must be distinct. The result is in
  /// ascending-size order per recursion branch; each itemset's `items` are
  /// sorted ascending.
  std::vector<Itemset> Mine(std::span<const Transaction> transactions,
                            const MinerOptions& options);
  std::vector<Itemset> Mine(std::initializer_list<Transaction> transactions,
                            const MinerOptions& options) {
    return Mine(std::span(transactions.begin(), transactions.size()), options);
  }

};

}  // namespace jsontiles::mining

#endif  // JSONTILES_MINING_FPGROWTH_H_
