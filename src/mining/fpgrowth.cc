#include "mining/fpgrowth.h"

#include <algorithm>
#include <unordered_map>

#include "obs/obs.h"
#include "util/logging.h"

namespace jsontiles::mining {

int MaxItemsetSize(uint64_t n, uint64_t budget) {
  if (n == 0) return 0;
  // Accumulate sum_{i=1..k} C(n, i) while it stays within the budget. The
  // result is at least 1 so single items are always considered.
  uint64_t total = 0;
  uint64_t binom = 1;  // C(n, 0)
  int k = 0;
  for (uint64_t i = 1; i <= n; i++) {
    // binom = C(n, i) = C(n, i-1) * (n - i + 1) / i. Since we stop as soon
    // as the sum exceeds the (modest) budget, the product cannot overflow.
    binom = binom * (n - i + 1) / i;
    if (binom > budget || total + binom > budget) break;
    total += binom;
    k = static_cast<int>(i);
  }
  return k < 1 ? 1 : k;
}

namespace {

constexpr uint32_t kNone = 0xFFFFFFFF;

// A weighted transaction: items ordered by global frequency rank.
struct WeightedTx {
  std::vector<Item> items;
  uint32_t count;
};

// One FP-tree: prefix tree of frequency-ordered transactions with per-item
// header chains.
class FpTree {
 public:
  struct Node {
    Item item;
    uint32_t count;
    uint32_t parent;
    uint32_t node_link;
    uint32_t first_child;
    uint32_t next_sibling;
  };

  // `item_support` maps item -> support within this projection; only items
  // with support >= min_support participate.
  FpTree(const std::vector<WeightedTx>& transactions,
         const std::unordered_map<Item, uint32_t>& item_support,
         uint32_t min_support) {
    // Frequency-descending order (ties: ascending id for determinism).
    for (const auto& [item, support] : item_support) {
      if (support >= min_support) frequent_.push_back(item);
    }
    std::sort(frequent_.begin(), frequent_.end(), [&](Item a, Item b) {
      uint32_t sa = item_support.at(a);
      uint32_t sb = item_support.at(b);
      if (sa != sb) return sa > sb;
      return a < b;
    });
    for (size_t i = 0; i < frequent_.size(); i++) {
      rank_[frequent_[i]] = static_cast<uint32_t>(i);
    }
    nodes_.push_back(Node{kNone, 0, kNone, kNone, kNone, kNone});  // root
    header_.assign(frequent_.size(), kNone);
    support_.assign(frequent_.size(), 0);

    std::vector<Item> filtered;
    for (const auto& tx : transactions) {
      filtered.clear();
      for (Item item : tx.items) {
        auto it = rank_.find(item);
        if (it != rank_.end()) filtered.push_back(it->second);
      }
      std::sort(filtered.begin(), filtered.end());
      Insert(filtered, tx.count);
    }
  }

  size_t num_frequent() const { return frequent_.size(); }
  size_t num_nodes() const { return nodes_.size(); }
  Item frequent_item(size_t rank) const { return frequent_[rank]; }
  uint32_t support(size_t rank) const { return support_[rank]; }

  // Conditional pattern base of the item at `rank`: prefix paths with counts,
  // expressed in original item ids, plus the per-item support of the base.
  void PatternBase(size_t rank, std::vector<WeightedTx>* base,
                   std::unordered_map<Item, uint32_t>* item_support) const {
    base->clear();
    item_support->clear();
    for (uint32_t node = header_[rank]; node != kNone;
         node = nodes_[node].node_link) {
      uint32_t count = nodes_[node].count;
      WeightedTx tx;
      tx.count = count;
      for (uint32_t cur = nodes_[node].parent; cur != 0 && cur != kNone;
           cur = nodes_[cur].parent) {
        Item original = frequent_[nodes_[cur].item];
        tx.items.push_back(original);
        (*item_support)[original] += count;
      }
      if (!tx.items.empty()) base->push_back(std::move(tx));
    }
  }

 private:
  void Insert(const std::vector<Item>& ranked_items, uint32_t count) {
    uint32_t cur = 0;  // root
    for (Item rank : ranked_items) {
      support_[rank] += count;
      uint32_t child = nodes_[cur].first_child;
      while (child != kNone && nodes_[child].item != rank) {
        child = nodes_[child].next_sibling;
      }
      if (child == kNone) {
        child = static_cast<uint32_t>(nodes_.size());
        nodes_.push_back(Node{rank, 0, cur, header_[rank],
                              kNone, nodes_[cur].first_child});
        nodes_[cur].first_child = child;
        header_[rank] = child;
      }
      nodes_[child].count += count;
      cur = child;
    }
  }

  std::vector<Node> nodes_;
  std::vector<Item> frequent_;                 // rank -> original item id
  std::unordered_map<Item, uint32_t> rank_;    // original item id -> rank
  std::vector<uint32_t> header_;               // rank -> first node
  std::vector<uint32_t> support_;              // rank -> support
};

// Recursive FP-Growth over conditional trees; respects max_size and budget.
void MineTree(const FpTree& tree, std::vector<Item>* suffix,
              const MinerOptions& options, int max_size, uint64_t* emitted,
              std::vector<Itemset>* out) {
  // Least-frequent first (classic order: bottom of the header table).
  for (size_t i = tree.num_frequent(); i-- > 0;) {
    if (*emitted >= options.budget) {
      JSONTILES_COUNTER_ADD("fpgrowth.budget_prunes", 1);
      return;
    }
    Item item = tree.frequent_item(i);
    Itemset set;
    set.items.reserve(suffix->size() + 1);
    set.items = *suffix;
    set.items.push_back(item);
    std::sort(set.items.begin(), set.items.end());
    set.support = tree.support(i);
    out->push_back(std::move(set));
    (*emitted)++;
    if (static_cast<int>(suffix->size()) + 1 >= max_size) continue;
    std::vector<WeightedTx> base;
    std::unordered_map<Item, uint32_t> item_support;
    tree.PatternBase(i, &base, &item_support);
    bool any_frequent = false;
    for (const auto& [it, support] : item_support) {
      (void)it;
      if (support >= options.min_support) {
        any_frequent = true;
        break;
      }
    }
    if (!any_frequent) {
      JSONTILES_COUNTER_ADD("fpgrowth.infrequent_prunes", 1);
      continue;
    }
    FpTree conditional(base, item_support, options.min_support);
    JSONTILES_COUNTER_ADD("fpgrowth.conditional_trees", 1);
    suffix->push_back(item);
    MineTree(conditional, suffix, options, max_size, emitted, out);
    suffix->pop_back();
  }
}

}  // namespace

std::vector<Itemset> FpGrowthMiner::Mine(
    std::span<const Transaction> transactions, const MinerOptions& options) {
  std::vector<Itemset> out;
  if (transactions.empty() || options.min_support == 0) return out;
  JSONTILES_TRACE_SPAN("mining.fpgrowth");
  JSONTILES_COUNTER_ADD("fpgrowth.runs", 1);
  JSONTILES_COUNTER_ADD("fpgrowth.transactions_mined",
                        static_cast<int64_t>(transactions.size()));

  std::unordered_map<Item, uint32_t> item_support;
  std::vector<WeightedTx> weighted;
  weighted.reserve(transactions.size());
  for (const auto& tx : transactions) {
    for (Item item : tx) item_support[item]++;
    weighted.push_back(WeightedTx{tx, 1});
  }
  uint64_t n = 0;
  for (const auto& [item, support] : item_support) {
    (void)item;
    if (support >= options.min_support) n++;
  }
  if (n == 0) return out;
  int max_size = MaxItemsetSize(n, options.budget);
  if (max_size < 1) max_size = 1;

  FpTree tree(weighted, item_support, options.min_support);
  JSONTILES_COUNTER_ADD("fpgrowth.tree_nodes",
                        static_cast<int64_t>(tree.num_nodes()));
  std::vector<Item> suffix;
  uint64_t emitted = 0;
  MineTree(tree, &suffix, options, max_size, &emitted, &out);
  JSONTILES_COUNTER_ADD("fpgrowth.itemsets_emitted",
                        static_cast<int64_t>(emitted));
  return out;
}

}  // namespace jsontiles::mining
