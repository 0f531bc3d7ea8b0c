#include "exec/batched_exprs.h"

#include <algorithm>

#include "util/hash.h"

namespace jsontiles::exec {

bool InferSlotTypes(const RowSet& rows, const std::vector<int>& slots,
                    std::vector<ValueType>* types) {
  for (int s : slots) {
    if (s < 0 || static_cast<size_t>(s) >= types->size()) return false;
  }
  for (RowView row : rows) {
    for (int s : slots) {
      const Value& v = row[s];
      if (v.is_null()) continue;
      ValueType& t = (*types)[s];
      if (t == ValueType::kNull) {
        t = v.type;
      } else if (t != v.type) {
        return false;
      }
    }
  }
  return true;
}

BatchedExprs::BatchedExprs(const RowSet& rows, std::vector<const Expr*> exprs)
    : exprs_(std::move(exprs)) {
  if (rows.empty() || exprs_.empty()) return;
  const size_t num_slots = rows[0].size();
  slot_types_.assign(num_slots, ValueType::kNull);
  std::vector<int> all_slots;
  for (const Expr* e : exprs_) CollectSlotRefs(*e, &all_slots);
  if (!InferSlotTypes(rows, all_slots, &slot_types_)) return;
  programs_.resize(exprs_.size());
  compiled_.assign(exprs_.size(), 0);
  size_t num_compiled = 0;
  for (size_t i = 0; i < exprs_.size(); i++) {
    if (CompiledExpr::Compile(*exprs_[i], slot_types_, &programs_[i])) {
      compiled_[i] = 1;
      num_compiled++;
      for (int s : programs_[i].slots_used()) used_slots_.push_back(s);
    }
  }
  if (num_compiled == 0) return;
  std::sort(used_slots_.begin(), used_slots_.end());
  used_slots_.erase(std::unique(used_slots_.begin(), used_slots_.end()),
                    used_slots_.end());
  slot_vecs_.resize(num_slots);
  results_.resize(exprs_.size());
  enabled_ = true;
}

void BatchedExprs::LoadBatch(const RowSet& rows, size_t begin, size_t n,
                             Arena* arena) {
  if (!enabled_) return;
  sel_.SetAll(n);
  for (int s : used_slots_) {
    ColumnVector& vec = slot_vecs_[s];
    vec.Reset(slot_types_[s]);
    for (size_t k = 0; k < n; k++) vec.SetValue(k, rows[begin + k][s]);
  }
  for (size_t i = 0; i < exprs_.size(); i++) {
    if (compiled_[i]) {
      results_[i] = &programs_[i].Run(slot_vecs_.data(), sel_, arena);
    }
  }
}

void BatchedExprs::HashKeys(size_t nk, const RowSet& rows, size_t begin,
                            size_t n, Arena* arena, Value* keys,
                            uint64_t* hashes) const {
  std::fill_n(hashes, n, kKeyHashSeed);
  for (size_t j = 0; j < nk; j++) {
    const ColumnVector* col = Result(j);
    for (size_t k = 0; k < n; k++) {
      PrefetchStringLane(col, k + kStringPrefetchAhead, n);
      Value v = Get(j, k, rows[begin + k], arena);
      hashes[k] = HashCombine(hashes[k], v.Hash());
      keys[k * nk + j] = v;
    }
  }
}

std::vector<const Expr*> RawExprs(const std::vector<ExprPtr>& exprs) {
  std::vector<const Expr*> out;
  out.reserve(exprs.size());
  for (const auto& e : exprs) out.push_back(e.get());
  return out;
}

}  // namespace jsontiles::exec
