// Batch-at-a-time evaluation of a fixed expression list over a flat RowSet:
// the compiled kernels (exec/expr_compile.h) where the expressions compile,
// the interpreter where they do not. Shared by the operators above the scan
// and by the aggregation input loop (exec/agg_state.h). HashKeys is the one
// key hasher of hash joins, group-bys and spill partitioning.

#ifndef JSONTILES_EXEC_BATCHED_EXPRS_H_
#define JSONTILES_EXEC_BATCHED_EXPRS_H_

#include <cstdint>
#include <vector>

#include "exec/expr_compile.h"
#include "exec/expression.h"
#include "exec/row_set.h"
#include "exec/vector_batch.h"

namespace jsontiles::exec {

/// Seed of the group/join key hash chain (key hash = kKeyHashSeed combined
/// with each key Value's hash). Workers and coordinator must agree on it so a
/// group's hash is stable across processes.
inline constexpr uint64_t kKeyHashSeed = 0x2545F4914F6CDD1DULL;

/// Infer the static type of every slot in `slots` from a full pass over the
/// rows (an all-null slot stays kNull). Returns false — disabling compiled
/// evaluation — when a slot is out of range or holds mixed non-null types
/// (e.g. a SUM that came back Int for one group and Float for another).
bool InferSlotTypes(const RowSet& rows, const std::vector<int>& slots,
                    std::vector<ValueType>* types);

/// Compiled batch evaluation of a fixed expression list over a RowSet.
/// Construction infers slot types and compiles what it can; expressions that
/// do not compile are interpreted per row by Get(), and LoadBatch is a no-op
/// when nothing compiled, so callers always go through LoadBatch +
/// Get/Result. Copy instances per worker — LoadBatch/Get are not
/// thread-safe.
class BatchedExprs {
 public:
  BatchedExprs(const RowSet& rows, std::vector<const Expr*> exprs);

  /// Gather slots and run every compiled program over rows [begin, begin+n).
  void LoadBatch(const RowSet& rows, size_t begin, size_t n, Arena* arena);

  /// Value of expression e for batch lane k (row = the matching input row).
  Value Get(size_t e, size_t k, RowView row, Arena* arena) const {
    if (enabled_ && compiled_[e]) return results_[e]->GetValue(k);
    return EvalExpr(*exprs_[e], row.data(), arena);
  }

  /// Raw compiled result vector for expression e, or nullptr when e did not
  /// compile (callers must then go through Get). Valid until next LoadBatch.
  const ColumnVector* Result(size_t e) const {
    return enabled_ && compiled_[e] ? results_[e] : nullptr;
  }

  /// The keys of the loaded batch (rows [begin, begin + n) of `rows`), where
  /// expressions [0, nk) are the keys: lane k's key values go to
  /// keys[k * nk + j] and its chained hash — kKeyHashSeed combined with each
  /// key's Value::Hash — to hashes[k], in the same per-lane loop that reads
  /// the key.
  void HashKeys(size_t nk, const RowSet& rows, size_t begin, size_t n,
                Arena* arena, Value* keys, uint64_t* hashes) const;

 private:
  std::vector<const Expr*> exprs_;
  std::vector<CompiledExpr> programs_;
  std::vector<uint8_t> compiled_;
  std::vector<int> used_slots_;
  std::vector<ValueType> slot_types_;
  std::vector<ColumnVector> slot_vecs_;
  std::vector<const ColumnVector*> results_;
  SelectionVector sel_;
  bool enabled_ = false;
};

/// The raw pointers of an owning expression list (BatchedExprs' input).
std::vector<const Expr*> RawExprs(const std::vector<ExprPtr>& exprs);

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_BATCHED_EXPRS_H_
