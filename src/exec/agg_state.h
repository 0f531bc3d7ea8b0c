// Shared aggregation state: the accumulator, the flat group table and the
// batched accumulate loop behind AggregateExec — exported so the distributed
// exchange builds *partial* aggregates in worker processes and merges them in
// the coordinator through exactly the same code. The accumulator is
// order-independent by construction (exact int64 sums, Shewchuk float sums,
// total-order MIN/MAX ties, hash-set distinct), so partials merge to
// bit-identical results no matter how rows were split across threads, shards,
// spill runs or worker processes (DESIGN.md §10, §13).
//
// GroupTable keeps every group in contiguous arrays — keys row-major, one
// hash and one chain link per group, accumulators row-major — behind a
// power-of-two chain directory, so creating a group allocates nothing beyond
// the arrays' amortized growth (DESIGN.md §8, "Flat group table"). Groups
// are numbered and emitted in order of first insertion.

#ifndef JSONTILES_EXEC_AGG_STATE_H_
#define JSONTILES_EXEC_AGG_STATE_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "exec/batched_exprs.h"
#include "exec/float_sum.h"
#include "exec/operators.h"

namespace jsontiles::exec {

/// Estimated hash-table cost per row beyond its Values: bucket entry, per-row
/// key vector header, map node slack. Used for memory-budget charges; the
/// flat join and group tables need less but are charged the same, so the
/// charge stays an upper bound.
inline constexpr size_t kPerRowTableOverhead = 64;

/// Budget charge per created group, fixed at what the former node-based group
/// table cost (with keys at the current Value size): a 48-byte group header,
/// 184 bytes per accumulator, one Value per key, the key strings' bytes and
/// kPerRowTableOverhead (see GroupCharge).
inline constexpr size_t kGroupHeaderCharge = 48;
inline constexpr size_t kAccumulatorCharge = 184;

/// The budget charge of one group with `num_keys` keys, `num_aggs`
/// aggregates and `key_string_bytes` bytes of string keys.
inline size_t GroupCharge(size_t num_keys, size_t num_aggs,
                          size_t key_string_bytes) {
  return kGroupHeaderCharge + num_aggs * kAccumulatorCharge +
         num_keys * sizeof(Value) + key_string_bytes + kPerRowTableOverhead;
}

/// A total order refining Value::Compare for values that compare equal:
/// type tag first, then exact bit pattern for floats (distinguishing -0.0
/// from 0.0 and NaN payloads), then numeric scale. Content-only, so it is
/// identical no matter what order rows arrived in. Nulls order last (the
/// sort operator's convention).
int TotalValueOrder(const Value& a, const Value& b);

/// Per-(group, aggregate) running state. Every operation commutes, so
/// AddValue/Merge in any interleaving finalizes to the same bits. Holds no
/// heap memory unless a float sum outgrows its inline partials or the
/// aggregate is COUNT(DISTINCT).
struct Accumulator {
  // Sum: integers accumulate exactly in sum_i; everything else goes through
  // the exact float summer. Both are order-independent, so SUM/AVG results
  // do not depend on how rows were partitioned across threads, shards or
  // spill runs (DESIGN.md §10).
  int64_t sum_i = 0;
  int64_t count = 0;  // non-null args (kCount, kSum, kAvg) or rows (kCountStar)
  bool sum_is_float = false;
  bool sum_seen = false;
  ExactFloatSum sum_f;
  Value min, max;
  /// Hashes of the distinct values (kCountDistinct only; created on first
  /// insert, so the other kinds never pay for a hash set).
  std::unique_ptr<std::unordered_set<uint64_t>> distinct;

  void AddValue(AggSpec::Kind kind, const Value& v);
  void Merge(AggSpec::Kind kind, const Accumulator& other);
  void AddDistinct(uint64_t hash);
  size_t distinct_count() const { return distinct ? distinct->size() : 0; }

  /// The exact integer part folded into the float summer: split into two
  /// halves that are each exactly representable as doubles, so the combined
  /// sum stays exact.
  double FloatTotal() const;

  Value Finalize(AggSpec::Kind kind) const;
};

/// Flat hash group table: group g's keys are keys(g)[0..num_keys), its
/// accumulators accs(g)[0..num_aggs), its chained key hash hash(g). Lookup
/// walks one chain of the power-of-two directory and tells groups apart by
/// EqualsForGrouping. Group ids are dense and follow first insertion, and
/// Finalize emits in that order.
class GroupTable {
 public:
  GroupTable() = default;
  GroupTable(size_t num_keys, const std::vector<AggSpec>& aggs);

  size_t num_keys() const { return num_keys_; }
  size_t num_aggs() const { return kinds_.size(); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The group of `keys` (num_keys() Values chained under `hash`), created
  /// with default accumulators when absent (*created reports which).
  uint32_t FindOrInsert(uint64_t hash, const Value* keys, bool* created);

  uint64_t hash(uint32_t g) const { return hashes_[g]; }
  const Value* keys(uint32_t g) const {
    return keys_.data() + size_t{g} * num_keys_;
  }
  Accumulator* accs(uint32_t g) { return accs_.data() + size_t{g} * num_aggs(); }
  const Accumulator* accs(uint32_t g) const {
    return accs_.data() + size_t{g} * num_aggs();
  }

  /// Fold one group's state (num_aggs() accumulators, moved from) into the
  /// group of `keys`.
  void MergeGroup(uint64_t hash, const Value* keys, Accumulator* accs);
  /// Fold every group of `other` in, in `other`'s group order.
  void MergeFrom(GroupTable& other);

  /// Append one row per group, [keys..., finalized aggregates...], in group
  /// id order.
  void Finalize(RowSet* out) const;

  /// Sum of GroupCharge over the groups created here: the bytes an
  /// aggregation charges its memory budget for this table.
  size_t charged_bytes() const { return charged_bytes_; }

 private:
  static constexpr uint32_t kChainEnd = UINT32_MAX;

  /// Double the capacity of every per-group array and relink the chains.
  void Grow();

  size_t num_keys_ = 0;
  std::vector<AggSpec::Kind> kinds_;
  // Per-group arrays, all sized to the capacity; groups [0, size_) are live.
  std::vector<Value> keys_;        // capacity x num_keys_, row-major
  std::vector<uint64_t> hashes_;   // key hash per group
  std::vector<uint32_t> next_;     // next group id in the same chain
  std::vector<Accumulator> accs_;  // capacity x num_aggs(), row-major
  std::vector<uint32_t> heads_;    // chain directory, twice the capacity
  uint64_t mask_ = 0;
  uint32_t size_ = 0;
  size_t charged_bytes_ = 0;
};

/// The per-row inputs of one aggregation over a RowSet — group keys, then
/// aggregate arguments — compiled once. AccumulateBatch evaluates them one
/// batch at a time, hashes the keys through BatchedExprs::HashKeys and folds
/// every row into a GroupTable. Copy one instance per worker, like
/// BatchedExprs.
class AggInput {
 public:
  AggInput(const RowSet& in, const std::vector<ExprPtr>& group_by,
           const std::vector<AggSpec>& aggs);

  /// Fold rows [begin, begin + n) of `in` (n <= kVectorSize) into `table`.
  void AccumulateBatch(const RowSet& in, size_t begin, size_t n, Arena* arena,
                       GroupTable* table);

 private:
  /// Fold aggregate `a` of the current batch straight from its compiled
  /// result `col` when the kind and type allow (COUNT; SUM/AVG of ints or
  /// floats); false leaves the lanes to Accumulator::AddValue.
  bool AccumulateTyped(AggSpec::Kind kind, const ColumnVector* col, size_t a,
                       size_t n, GroupTable* table);

  BatchedExprs batched_;
  size_t num_keys_;
  std::vector<AggSpec::Kind> kinds_;
  std::vector<int> arg_expr_;      // per agg: batched index, -1 = COUNT(*)
  std::vector<Value> lane_keys_;   // kVectorSize x num_keys_ scratch
  std::vector<uint64_t> lane_hash_;
  std::vector<uint32_t> lane_group_;
};

/// Fold every row of `in` into `table` through AggInput: the worker-side
/// path of the distributed partial-aggregate push-down, the same loop
/// AggregateExec runs (arena backs derived strings).
void AccumulateRows(const RowSet& in, const std::vector<ExprPtr>& group_by,
                    const std::vector<AggSpec>& aggs, Arena* arena,
                    GroupTable* table);

/// SQL semantics for a global aggregate of empty input: one row of
/// default-accumulator finalizations (COUNT = 0, SUM = null, ...).
Row EmptyGlobalAggRow(const std::vector<AggSpec>& aggs);

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_AGG_STATE_H_
