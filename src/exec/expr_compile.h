// One-time compilation of Expr trees into type-resolved post-order programs
// for batch-at-a-time evaluation.
//
// Compilation resolves every operator's input/output types statically from
// the slot types (the scan knows them: each pushed-down access produces its
// requested cast type or null) and picks a typed kernel per instruction.
// Anything the compiler cannot type — e.g. logic over non-boolean inputs,
// arithmetic over strings, CASE with mixed arm types — fails compilation and
// the caller falls back to the scalar interpreter, which stays the reference
// implementation. Kernels are written to be bit-identical to EvalExpr (the
// differential fuzz test enforces this).

#ifndef JSONTILES_EXEC_EXPR_COMPILE_H_
#define JSONTILES_EXEC_EXPR_COMPILE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "exec/expression.h"
#include "exec/row_set.h"
#include "exec/vector_batch.h"

namespace jsontiles::exec {

namespace vec {

enum class VecOp : uint8_t {
  kConst,    // broadcast a constant into the output register
  kSlot,     // alias an input slot vector
  kAllNull,  // statically-null result (e.g. comparison of incomparable types)
  kArith,    // +,-,*,/,% with typed operands
  kCompare,  // =,<>,<,<=,>,>= with typed operands
  kAnd,      // 3-valued AND over boolean registers
  kOr,       // 3-valued OR over boolean registers
  kNot,
  kIsNull,
  kIsNotNull,
  kNeg,
  kLike,
  kIn,    // hash-set membership probe
  kCase,  // [cond1, val1, ..., else] registers, all same-typed arms
  kSubstring,
  kExtractYear,
  kCast,
};

/// Precomputed hash set of an IN list; values point into the Expr's
/// in_list (the compiled program borrows the expression tree).
struct InSet {
  std::unordered_multimap<uint64_t, const Value*> by_hash;
};

struct Instr {
  VecOp op = VecOp::kAllNull;
  BinOp bin_op = BinOp::kAdd;
  ValueType out_type = ValueType::kNull;
  ValueType a_type = ValueType::kNull;
  ValueType b_type = ValueType::kNull;
  int out = -1;           // output register (== instruction index)
  int a = -1;             // input register, or slot index for kSlot
  int b = -1;
  std::vector<int> case_regs;  // kCase inputs
  const Expr* node = nullptr;  // source node (constants, LIKE, casts, IN)
  std::shared_ptr<const InSet> in_set;
};

/// Execute one instruction over the selected rows. `regs[i]` is the vector
/// of register i (slot registers alias the caller's slot vectors). Defined
/// in expr_kernels.cc.
void RunInstr(const Instr& instr, const ColumnVector* const* regs,
              ColumnVector* out, const SelectionVector& sel, Arena* arena);

}  // namespace vec

/// Append every slot index referenced by `e` (deduplicated, ascending).
void CollectSlotRefs(const Expr& e, std::vector<int>* slots);

/// A compiled expression program. Copyable; per-worker copies make Run
/// reentrant across threads (register storage is per-instance). The source
/// Expr tree and the slot vectors passed to Run must outlive the program.
class CompiledExpr {
 public:
  /// Flatten `e` into a program given the static slot types. Returns false
  /// (leaving *out unusable) when some node cannot be typed; callers then
  /// use the interpreter.
  static bool Compile(const Expr& e, const std::vector<ValueType>& slot_types,
                      CompiledExpr* out);

  ValueType out_type() const { return out_type_; }
  const std::vector<int>& slots_used() const { return slots_used_; }
  size_t num_instrs() const { return instrs_.size(); }

  /// Evaluate over the selected rows of a batch; `slots[i]` must be
  /// materialized for every i in slots_used(). The returned vector is owned
  /// by this program and valid until the next Run.
  const ColumnVector& Run(const ColumnVector* slots,
                          const SelectionVector& sel, Arena* arena);

 private:
  std::vector<vec::Instr> instrs_;
  std::vector<int> slots_used_;
  ValueType out_type_ = ValueType::kNull;
  int result_reg_ = -1;
  // Run-time state, lazily sized on first Run. Copying a program resets
  // nothing — copies stay independently runnable.
  std::vector<ColumnVector> regs_;
  std::vector<const ColumnVector*> reg_ptrs_;
  std::vector<uint8_t> filled_;  // constants/all-null registers filled once
};

/// A pushed-down filter compiled conjunct-by-conjunct. Top-level AND is
/// evaluated by selection-vector intersection: each compiled conjunct
/// shrinks the selection before the next one runs (short-circuit across the
/// batch). Conjuncts that fail to compile are kept as interpreter residuals,
/// which the caller checks per surviving row with ResidualsHold or
/// CompactResiduals.
class CompiledPredicate {
 public:
  struct Conjunct {
    CompiledExpr program;
    std::vector<int> slots;  // slots this conjunct reads
  };

  static CompiledPredicate Compile(const ExprPtr& filter,
                                   const std::vector<ValueType>& slot_types);
  /// Every conjunct of `filter` as a residual (for untyped slots).
  static CompiledPredicate Residuals(const ExprPtr& filter);

  std::vector<Conjunct>& conjuncts() { return conjuncts_; }
  const std::vector<Conjunct>& conjuncts() const { return conjuncts_; }
  bool any_compiled() const { return !conjuncts_.empty(); }

  /// True when every residual is true (not false, not null) on `row`.
  /// Inline: the scan calls it for every row it emits.
  bool ResidualsHold(const Value* row, Arena* arena) const {
    for (const ExprPtr& residual : residuals_) {
      Value v = EvalExpr(*residual, row, arena);
      if (v.is_null() || !v.bool_value()) return false;
    }
    return true;
  }

  /// Drop the rows of `rows` from `begin` on that a residual rejects: the
  /// kept rows move up in place (CopyRow) and `rows` shrinks to them.
  void CompactResiduals(RowSet* rows, size_t begin, Arena* arena) const {
    if (residuals_.empty()) return;
    size_t kept = begin;
    for (size_t r = begin; r < rows->size(); r++) {
      if (ResidualsHold((*rows)[r].data(), arena)) rows->CopyRow(kept++, r);
    }
    rows->resize(kept);
  }

 private:
  std::vector<Conjunct> conjuncts_;
  std::vector<ExprPtr> residuals_;
};

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_EXPR_COMPILE_H_
