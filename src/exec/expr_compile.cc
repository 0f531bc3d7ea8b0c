#include "exec/expr_compile.h"

#include <algorithm>

#include "util/logging.h"

namespace jsontiles::exec {

namespace {

void CollectSlotRefsImpl(const Expr& e, std::vector<int>* slots) {
  if (e.kind == ExprKind::kSlotRef) slots->push_back(e.slot);
  for (const auto& arg : e.args) CollectSlotRefsImpl(*arg, slots);
}

bool IsNumberType(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kFloat ||
         t == ValueType::kNumeric;
}

// Operand types EvalArithmetic handles without touching a string payload.
bool IsArithOperand(ValueType t) {
  return t == ValueType::kBool || t == ValueType::kInt ||
         t == ValueType::kFloat || t == ValueType::kTimestamp ||
         t == ValueType::kNumeric;
}

bool IsBoolish(ValueType t) {
  return t == ValueType::kBool || t == ValueType::kNull;
}

// Recursive-descent compiler; returns the result register or -1 when the
// (sub)tree cannot be typed.
class Compiler {
 public:
  Compiler(const std::vector<ValueType>& slot_types,
           std::vector<vec::Instr>* instrs)
      : slot_types_(slot_types), instrs_(instrs) {}

  int CompileNode(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kConst: {
        vec::Instr in;
        in.op = vec::VecOp::kConst;
        in.out_type = e.constant.type;
        in.node = &e;
        return Emit(std::move(in));
      }
      case ExprKind::kSlotRef: {
        if (e.slot < 0 || static_cast<size_t>(e.slot) >= slot_types_.size()) {
          return -1;
        }
        vec::Instr in;
        in.op = vec::VecOp::kSlot;
        in.out_type = slot_types_[e.slot];
        in.a = e.slot;
        return Emit(std::move(in));
      }
      case ExprKind::kAccess:
      case ExprKind::kArrayContains:
        return -1;  // must have been rewritten to slots by the planner
      case ExprKind::kBinary:
        return CompileBinary(e);
      case ExprKind::kUnary:
        return CompileUnary(e);
      case ExprKind::kLike: {
        int a = CompileNode(*e.args[0]);
        if (a < 0) return -1;
        ValueType ta = TypeOf(a);
        // The interpreter yields null for any non-string input.
        if (ta != ValueType::kString) return EmitAllNull();
        vec::Instr in;
        in.op = vec::VecOp::kLike;
        in.out_type = ValueType::kBool;
        in.a_type = ta;
        in.a = a;
        in.node = &e;
        return Emit(std::move(in));
      }
      case ExprKind::kIn: {
        int a = CompileNode(*e.args[0]);
        if (a < 0) return -1;
        ValueType ta = TypeOf(a);
        if (ta == ValueType::kNull) return EmitAllNull();
        auto set = std::make_shared<vec::InSet>();
        for (const Value& v : e.in_list) set->by_hash.insert({v.Hash(), &v});
        vec::Instr in;
        in.op = vec::VecOp::kIn;
        in.out_type = ValueType::kBool;
        in.a_type = ta;
        in.a = a;
        in.node = &e;
        in.in_set = std::move(set);
        return Emit(std::move(in));
      }
      case ExprKind::kCase:
        return CompileCase(e);
      case ExprKind::kSubstring: {
        int a = CompileNode(*e.args[0]);
        if (a < 0) return -1;
        if (TypeOf(a) != ValueType::kString) return EmitAllNull();
        vec::Instr in;
        in.op = vec::VecOp::kSubstring;
        in.out_type = ValueType::kString;
        in.a_type = ValueType::kString;
        in.a = a;
        in.node = &e;
        return Emit(std::move(in));
      }
      case ExprKind::kExtractYear: {
        int a = CompileNode(*e.args[0]);
        if (a < 0) return -1;
        ValueType ta = TypeOf(a);
        if (ta != ValueType::kString && ta != ValueType::kTimestamp) {
          return EmitAllNull();
        }
        vec::Instr in;
        in.op = vec::VecOp::kExtractYear;
        in.out_type = ValueType::kInt;
        in.a_type = ta;
        in.a = a;
        return Emit(std::move(in));
      }
      case ExprKind::kCastTo: {
        int a = CompileNode(*e.args[0]);
        if (a < 0) return -1;
        ValueType ta = TypeOf(a);
        if (ta == ValueType::kNull || e.access_type == ValueType::kNull) {
          return EmitAllNull();
        }
        vec::Instr in;
        in.op = vec::VecOp::kCast;
        in.out_type = e.access_type;
        in.a_type = ta;
        in.a = a;
        in.node = &e;
        return Emit(std::move(in));
      }
    }
    return -1;
  }

 private:
  int Emit(vec::Instr instr) {
    instr.out = static_cast<int>(instrs_->size());
    instrs_->push_back(std::move(instr));
    return instrs_->back().out;
  }

  int EmitAllNull() {
    vec::Instr in;
    in.op = vec::VecOp::kAllNull;
    return Emit(std::move(in));
  }

  ValueType TypeOf(int reg) const { return (*instrs_)[reg].out_type; }

  int CompileBinary(const Expr& e) {
    int a = CompileNode(*e.args[0]);
    if (a < 0) return -1;
    int b = CompileNode(*e.args[1]);
    if (b < 0) return -1;
    ValueType ta = TypeOf(a);
    ValueType tb = TypeOf(b);
    vec::Instr in;
    in.bin_op = e.bin_op;
    in.a_type = ta;
    in.b_type = tb;
    in.a = a;
    in.b = b;
    switch (e.bin_op) {
      case BinOp::kAnd:
      case BinOp::kOr:
        // bool_value() over a non-boolean payload is interpreter territory
        // (it reads the int lane of the union); only typed booleans compile.
        if (!IsBoolish(ta) || !IsBoolish(tb)) return -1;
        in.op = e.bin_op == BinOp::kAnd ? vec::VecOp::kAnd : vec::VecOp::kOr;
        in.out_type = ValueType::kBool;
        return Emit(std::move(in));
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv:
      case BinOp::kMod:
        if (ta == ValueType::kNull || tb == ValueType::kNull) {
          return EmitAllNull();
        }
        if (!IsArithOperand(ta) || !IsArithOperand(tb)) return -1;
        in.op = vec::VecOp::kArith;
        if (e.bin_op == BinOp::kMod) {
          in.out_type = ValueType::kInt;
        } else if (ta == ValueType::kInt && tb == ValueType::kInt &&
                   e.bin_op != BinOp::kDiv) {
          in.out_type = ValueType::kInt;
        } else {
          in.out_type = ValueType::kFloat;
        }
        return Emit(std::move(in));
      default: {  // comparisons
        if (ta == ValueType::kNull || tb == ValueType::kNull) {
          return EmitAllNull();
        }
        bool comparable = (IsNumberType(ta) && IsNumberType(tb)) ||
                          (ta == ValueType::kString && tb == ValueType::kString) ||
                          ta == tb;
        if (!comparable) return EmitAllNull();  // interpreter: incomparable -> null
        in.op = vec::VecOp::kCompare;
        in.out_type = ValueType::kBool;
        return Emit(std::move(in));
      }
    }
  }

  int CompileUnary(const Expr& e) {
    int a = CompileNode(*e.args[0]);
    if (a < 0) return -1;
    ValueType ta = TypeOf(a);
    vec::Instr in;
    in.a_type = ta;
    in.a = a;
    switch (e.un_op) {
      case UnOp::kNot:
        if (ta == ValueType::kNull) return EmitAllNull();
        if (ta != ValueType::kBool) return -1;  // see kAnd/kOr comment
        in.op = vec::VecOp::kNot;
        in.out_type = ValueType::kBool;
        return Emit(std::move(in));
      case UnOp::kNeg:
        if (ta == ValueType::kNull) return EmitAllNull();
        if (ta == ValueType::kString) return -1;
        in.op = vec::VecOp::kNeg;
        in.out_type = ta == ValueType::kFloat     ? ValueType::kFloat
                      : ta == ValueType::kNumeric ? ValueType::kNumeric
                                                  : ValueType::kInt;
        return Emit(std::move(in));
      case UnOp::kIsNull:
        in.op = vec::VecOp::kIsNull;
        in.out_type = ValueType::kBool;
        return Emit(std::move(in));
      case UnOp::kIsNotNull:
        in.op = vec::VecOp::kIsNotNull;
        in.out_type = ValueType::kBool;
        return Emit(std::move(in));
    }
    return -1;
  }

  int CompileCase(const Expr& e) {
    vec::Instr in;
    in.op = vec::VecOp::kCase;
    in.case_regs.reserve(e.args.size());
    ValueType out = ValueType::kNull;
    for (size_t i = 0; i < e.args.size(); i++) {
      int r = CompileNode(*e.args[i]);
      if (r < 0) return -1;
      ValueType t = TypeOf(r);
      bool is_cond = i + 1 < e.args.size() && i % 2 == 0;
      if (is_cond) {
        if (!IsBoolish(t)) return -1;
      } else if (t != ValueType::kNull) {
        if (out == ValueType::kNull) {
          out = t;
        } else if (out != t) {
          return -1;  // mixed arm types: the interpreter decides at runtime
        }
      }
      in.case_regs.push_back(r);
    }
    in.out_type = out;
    return Emit(std::move(in));
  }

  const std::vector<ValueType>& slot_types_;
  std::vector<vec::Instr>* instrs_;
};

}  // namespace

void CollectSlotRefs(const Expr& e, std::vector<int>* slots) {
  CollectSlotRefsImpl(e, slots);
  std::sort(slots->begin(), slots->end());
  slots->erase(std::unique(slots->begin(), slots->end()), slots->end());
}

bool CompiledExpr::Compile(const Expr& e,
                           const std::vector<ValueType>& slot_types,
                           CompiledExpr* out) {
  out->instrs_.clear();
  out->slots_used_.clear();
  out->regs_.clear();
  out->result_reg_ = -1;
  Compiler compiler(slot_types, &out->instrs_);
  int r = compiler.CompileNode(e);
  if (r < 0) return false;
  out->result_reg_ = r;
  out->out_type_ = out->instrs_[r].out_type;
  CollectSlotRefs(e, &out->slots_used_);
  return true;
}

const ColumnVector& CompiledExpr::Run(const ColumnVector* slots,
                                      const SelectionVector& sel,
                                      Arena* arena) {
  if (regs_.empty()) {
    regs_.resize(instrs_.size());
    reg_ptrs_.resize(instrs_.size());
    filled_.assign(instrs_.size(), 0);
  }
  for (size_t k = 0; k < instrs_.size(); k++) {
    const vec::Instr& in = instrs_[k];
    switch (in.op) {
      case vec::VecOp::kSlot:
        reg_ptrs_[k] = &slots[in.a];
        continue;
      case vec::VecOp::kConst:
        if (!filled_[k]) {
          regs_[k].Reset(in.out_type);
          for (size_t l = 0; l < kVectorSize; l++) {
            regs_[k].SetValue(l, in.node->constant);
          }
          filled_[k] = 1;
        }
        break;
      case vec::VecOp::kAllNull:
        if (!filled_[k]) {
          regs_[k].ResetAllNull(kVectorSize);
          filled_[k] = 1;
        }
        break;
      default:
        vec::RunInstr(in, reg_ptrs_.data(), &regs_[k], sel, arena);
        break;
    }
    reg_ptrs_[k] = &regs_[k];
  }
  return *reg_ptrs_[result_reg_];
}

CompiledPredicate CompiledPredicate::Residuals(const ExprPtr& filter) {
  CompiledPredicate p;
  SplitConjuncts(filter, &p.residuals_);
  return p;
}

CompiledPredicate CompiledPredicate::Compile(
    const ExprPtr& filter, const std::vector<ValueType>& slot_types) {
  CompiledPredicate p;
  if (filter == nullptr) return p;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(filter, &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    Conjunct conj;
    // Only boolean-typed conjuncts can drive the selection vector; anything
    // else (e.g. `WHERE int_slot`, whose truthiness the interpreter derives
    // from the raw lane) stays a residual.
    if (CompiledExpr::Compile(*c, slot_types, &conj.program) &&
        IsBoolish(conj.program.out_type())) {
      CollectSlotRefs(*c, &conj.slots);
      p.conjuncts_.push_back(std::move(conj));
    } else {
      p.residuals_.push_back(c);
    }
  }
  return p;
}

}  // namespace jsontiles::exec
