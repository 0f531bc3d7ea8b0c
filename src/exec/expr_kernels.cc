// Per-opcode kernels of the vectorized expression engine.
//
// Every kernel is written to be bit-identical to the scalar interpreter in
// expression.cc (EvalExpr / EvalArithmetic / EvalComparison / CastValue) —
// including the quirks: comparisons of two numbers always go through
// AsDouble (even int vs int), pure-int add/sub/mul/neg stays int and wraps
// on overflow, MOD truncates float operands (null when one has no int64) and
// x % -1 is 0, division by zero yields null. The differential fuzz test locks
// this in. Each kernel is one gather loop over the selection; dense and sparse
// selections run the same code.

#include <algorithm>
#include <cmath>

#include "exec/expr_compile.h"
#include "util/bit_util.h"

namespace jsontiles::exec::vec {

namespace {

// AsDouble of a non-null lane (string operands are rejected at compile).
inline double LaneAsDouble(const ColumnVector& v, size_t r) {
  switch (v.type()) {
    case ValueType::kFloat: return v.f64()[r];
    case ValueType::kNumeric: return Numeric{v.i64()[r], v.scale()[r]}.ToDouble();
    default: return static_cast<double>(v.i64()[r]);
  }
}

// MOD operand: floats truncate toward zero, everything else uses the raw
// int lane (numerics contribute their unscaled digits, like the interpreter).
// False for a float with no int64 (NaN, ±inf, out of range): the lane is null.
inline bool LaneAsModInt(const ColumnVector& v, size_t r, int64_t* out) {
  if (v.type() == ValueType::kFloat) {
    return bit_util::TruncToInt64(v.f64()[r], out);
  }
  *out = v.i64()[r];
  return true;
}

// A three-valued boolean lane: 0 = false, 1 = true, 2 = null.
inline uint8_t BoolLane(const ColumnVector& v, size_t r) {
  if (v.type() == ValueType::kNull || v.IsNull(r)) return 2;
  return v.i64()[r] != 0 ? 1 : 0;
}

void KernelArith(const Instr& in, const ColumnVector& a, const ColumnVector& b,
                 ColumnVector* out, const SelectionVector& sel) {
  out->Reset(in.out_type);
  uint8_t* onull = out->nulls();
  if (in.bin_op == BinOp::kMod) {
    int64_t* oi = out->i64();
    for (size_t k = 0; k < sel.count; k++) {
      const size_t r = sel.idx[k];
      int64_t x = 0;
      int64_t y = 0;
      if (a.IsNull(r) || b.IsNull(r) || !LaneAsModInt(a, r, &x) ||
          !LaneAsModInt(b, r, &y) || y == 0) {
        onull[r] = 1;
        continue;
      }
      onull[r] = 0;
      oi[r] = bit_util::WrapMod(x, y);
    }
    return;
  }
  if (in.out_type == ValueType::kInt) {  // int (+,-,*) int
    const int64_t* ai = a.i64();
    const int64_t* bi = b.i64();
    const uint8_t* an = a.nulls();
    const uint8_t* bn = b.nulls();
    int64_t* oi = out->i64();
    switch (in.bin_op) {
      case BinOp::kAdd:
        for (size_t k = 0; k < sel.count; k++) {
          const size_t r = sel.idx[k];
          onull[r] = an[r] | bn[r];
          oi[r] = bit_util::WrapAdd(ai[r], bi[r]);
        }
        return;
      case BinOp::kSub:
        for (size_t k = 0; k < sel.count; k++) {
          const size_t r = sel.idx[k];
          onull[r] = an[r] | bn[r];
          oi[r] = bit_util::WrapSub(ai[r], bi[r]);
        }
        return;
      default:  // kMul
        for (size_t k = 0; k < sel.count; k++) {
          const size_t r = sel.idx[k];
          onull[r] = an[r] | bn[r];
          oi[r] = bit_util::WrapMul(ai[r], bi[r]);
        }
        return;
    }
  }
  double* of = out->f64();
  for (size_t k = 0; k < sel.count; k++) {
    const size_t r = sel.idx[k];
    if (a.IsNull(r) || b.IsNull(r)) {
      onull[r] = 1;
      continue;
    }
    double x = LaneAsDouble(a, r);
    double y = LaneAsDouble(b, r);
    switch (in.bin_op) {
      case BinOp::kAdd: onull[r] = 0; of[r] = x + y; break;
      case BinOp::kSub: onull[r] = 0; of[r] = x - y; break;
      case BinOp::kMul: onull[r] = 0; of[r] = x * y; break;
      default:  // kDiv
        if (y == 0) {
          onull[r] = 1;
        } else {
          onull[r] = 0;
          of[r] = x / y;
        }
        break;
    }
  }
}

inline int64_t ApplyCmp(BinOp op, int cmp) {
  switch (op) {
    case BinOp::kEq: return cmp == 0;
    case BinOp::kNe: return cmp != 0;
    case BinOp::kLt: return cmp < 0;
    case BinOp::kLe: return cmp <= 0;
    case BinOp::kGt: return cmp > 0;
    default: return cmp >= 0;  // kGe
  }
}

bool IsNumberType(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kFloat ||
         t == ValueType::kNumeric;
}

void KernelCompare(const Instr& in, const ColumnVector& a,
                   const ColumnVector& b, ColumnVector* out,
                   const SelectionVector& sel) {
  out->Reset(ValueType::kBool);
  uint8_t* onull = out->nulls();
  int64_t* oi = out->i64();
  if (IsNumberType(in.a_type) && IsNumberType(in.b_type)) {
    // Like EvalComparison: both numbers compare through AsDouble, even when
    // both are ints. Specialize the common all-int / all-float cases so the
    // loop body carries no type switch.
    if (in.a_type == ValueType::kInt && in.b_type == ValueType::kInt) {
      const int64_t* ai = a.i64();
      const int64_t* bi = b.i64();
      for (size_t k = 0; k < sel.count; k++) {
        const size_t r = sel.idx[k];
        if (a.IsNull(r) || b.IsNull(r)) {
          onull[r] = 1;
          continue;
        }
        double x = static_cast<double>(ai[r]);
        double y = static_cast<double>(bi[r]);
        onull[r] = 0;
        oi[r] = ApplyCmp(in.bin_op, x < y ? -1 : x > y ? 1 : 0);
      }
      return;
    }
    for (size_t k = 0; k < sel.count; k++) {
      const size_t r = sel.idx[k];
      if (a.IsNull(r) || b.IsNull(r)) {
        onull[r] = 1;
        continue;
      }
      double x = LaneAsDouble(a, r);
      double y = LaneAsDouble(b, r);
      onull[r] = 0;
      oi[r] = ApplyCmp(in.bin_op, x < y ? -1 : x > y ? 1 : 0);
    }
    return;
  }
  if (in.a_type == ValueType::kString) {  // string vs string
    const std::string_view* as = a.str();
    const std::string_view* bs = b.str();
    for (size_t k = 0; k < sel.count; k++) {
      const size_t r = sel.idx[k];
      if (a.IsNull(r) || b.IsNull(r)) {
        onull[r] = 1;
        continue;
      }
      int c = as[r].compare(bs[r]);
      onull[r] = 0;
      oi[r] = ApplyCmp(in.bin_op, c < 0 ? -1 : c > 0 ? 1 : 0);
    }
    return;
  }
  // Same non-number type (bool/timestamp): raw int lanes.
  const int64_t* ai = a.i64();
  const int64_t* bi = b.i64();
  for (size_t k = 0; k < sel.count; k++) {
    const size_t r = sel.idx[k];
    if (a.IsNull(r) || b.IsNull(r)) {
      onull[r] = 1;
      continue;
    }
    onull[r] = 0;
    oi[r] = ApplyCmp(in.bin_op, ai[r] < bi[r] ? -1 : ai[r] > bi[r] ? 1 : 0);
  }
}

void KernelLogic(const Instr& in, const ColumnVector& a, const ColumnVector& b,
                 ColumnVector* out, const SelectionVector& sel) {
  out->Reset(ValueType::kBool);
  uint8_t* onull = out->nulls();
  int64_t* oi = out->i64();
  const bool is_and = in.op == VecOp::kAnd;
  for (size_t k = 0; k < sel.count; k++) {
    const size_t r = sel.idx[k];
    uint8_t x = BoolLane(a, r);
    uint8_t y = BoolLane(b, r);
    if (is_and) {
      if (x == 0 || y == 0) {
        onull[r] = 0;
        oi[r] = 0;
      } else if (x == 2 || y == 2) {
        onull[r] = 1;
      } else {
        onull[r] = 0;
        oi[r] = 1;
      }
    } else {
      if (x == 1 || y == 1) {
        onull[r] = 0;
        oi[r] = 1;
      } else if (x == 2 || y == 2) {
        onull[r] = 1;
      } else {
        onull[r] = 0;
        oi[r] = 0;
      }
    }
  }
}

void KernelLike(const Instr& in, const ColumnVector& a, ColumnVector* out,
                const SelectionVector& sel) {
  out->Reset(ValueType::kBool);
  uint8_t* onull = out->nulls();
  int64_t* oi = out->i64();
  const std::string_view* as = a.str();
  const Expr& e = *in.node;
  const CompiledLike* like = e.like.get();
  for (size_t k = 0; k < sel.count; k++) {
    const size_t r = sel.idx[k];
    if (a.IsNull(r)) {
      onull[r] = 1;
      continue;
    }
    bool match = like != nullptr ? like->Match(as[r]) : LikeMatch(as[r], e.pattern);
    onull[r] = 0;
    oi[r] = (e.negated ? !match : match) ? 1 : 0;
  }
}

void KernelIn(const Instr& in, const ColumnVector& a, ColumnVector* out,
              const SelectionVector& sel) {
  out->Reset(ValueType::kBool);
  uint8_t* onull = out->nulls();
  int64_t* oi = out->i64();
  const InSet& set = *in.in_set;
  for (size_t k = 0; k < sel.count; k++) {
    const size_t r = sel.idx[k];
    if (a.IsNull(r)) {
      onull[r] = 1;
      continue;
    }
    Value v = a.GetValue(r);
    bool found = false;
    if (v.type == ValueType::kFloat && std::isnan(v.d)) {
      // NaN equals every number (both orderings are false), so no hash
      // bucket holds all its matches: scan the list like the interpreter.
      const std::vector<Value>& list = in.node->in_list;
      found = std::any_of(list.begin(), list.end(), [&](const Value& c) {
        return v.EqualsForGrouping(c);
      });
    } else {
      auto [it, end] = set.by_hash.equal_range(v.Hash());
      for (; it != end; ++it) {
        if (v.EqualsForGrouping(*it->second)) {
          found = true;
          break;
        }
      }
    }
    onull[r] = 0;
    oi[r] = found ? 1 : 0;
  }
}

void KernelCase(const Instr& in, const ColumnVector* const* regs,
                ColumnVector* out, const SelectionVector& sel) {
  out->Reset(in.out_type);
  uint8_t* onull = out->nulls();
  const auto& arms = in.case_regs;
  for (size_t k = 0; k < sel.count; k++) {
    const size_t r = sel.idx[k];
    bool taken = false;
    size_t i = 0;
    for (; i + 1 < arms.size(); i += 2) {
      if (BoolLane(*regs[arms[i]], r) == 1) {
        out->SetValue(r, regs[arms[i + 1]]->GetValue(r));
        taken = true;
        break;
      }
    }
    if (taken) continue;
    if (i < arms.size()) {
      out->SetValue(r, regs[arms[i]]->GetValue(r));  // else arm
    } else {
      onull[r] = 1;
    }
  }
}

void KernelNeg(const Instr& in, const ColumnVector& a, ColumnVector* out,
               const SelectionVector& sel) {
  out->Reset(in.out_type);
  uint8_t* onull = out->nulls();
  if (in.out_type == ValueType::kFloat) {
    const double* af = a.f64();
    double* of = out->f64();
    for (size_t k = 0; k < sel.count; k++) {
      const size_t r = sel.idx[k];
      onull[r] = a.IsNull(r);
      if (!onull[r]) of[r] = -af[r];
    }
    return;
  }
  const int64_t* ai = a.i64();
  int64_t* oi = out->i64();
  uint8_t* oscale = in.out_type == ValueType::kNumeric ? out->scale() : nullptr;
  for (size_t k = 0; k < sel.count; k++) {
    const size_t r = sel.idx[k];
    onull[r] = a.IsNull(r);
    if (onull[r]) continue;
    oi[r] = bit_util::WrapSub(0, ai[r]);
    if (oscale != nullptr) oscale[r] = a.scale()[r];
  }
}

void KernelSubstring(const Instr& in, const ColumnVector& a, ColumnVector* out,
                     const SelectionVector& sel) {
  out->Reset(ValueType::kString);
  uint8_t* onull = out->nulls();
  std::string_view* os = out->str();
  const std::string_view* as = a.str();
  const Expr& e = *in.node;
  for (size_t k = 0; k < sel.count; k++) {
    const size_t r = sel.idx[k];
    if (a.IsNull(r)) {
      onull[r] = 1;
      continue;
    }
    std::string_view s = as[r];
    size_t start =
        e.substr_start > 0 ? static_cast<size_t>(e.substr_start - 1) : 0;
    onull[r] = 0;
    if (start >= s.size()) {
      os[r] = {};
      continue;
    }
    size_t len = std::min(static_cast<size_t>(e.substr_len), s.size() - start);
    os[r] = s.substr(start, len);
  }
}

void KernelExtractYear(const Instr& in, const ColumnVector& a,
                       ColumnVector* out, const SelectionVector& sel) {
  out->Reset(ValueType::kInt);
  uint8_t* onull = out->nulls();
  int64_t* oi = out->i64();
  if (in.a_type == ValueType::kTimestamp) {
    const int64_t* ai = a.i64();
    for (size_t k = 0; k < sel.count; k++) {
      const size_t r = sel.idx[k];
      onull[r] = a.IsNull(r);
      if (!onull[r]) oi[r] = TimestampYear(ai[r]);
    }
    return;
  }
  const std::string_view* as = a.str();
  for (size_t k = 0; k < sel.count; k++) {
    const size_t r = sel.idx[k];
    Timestamp ts = 0;
    if (a.IsNull(r) || !ParseTimestamp(as[r], &ts)) {
      onull[r] = 1;
      continue;
    }
    onull[r] = 0;
    oi[r] = TimestampYear(ts);
  }
}

void KernelCast(const Instr& in, const ColumnVector& a, ColumnVector* out,
                const SelectionVector& sel, Arena* arena) {
  out->Reset(in.out_type);
  for (size_t k = 0; k < sel.count; k++) {
    const size_t r = sel.idx[k];
    out->SetValue(r, CastValue(a.GetValue(r), in.out_type, arena));
  }
}

}  // namespace

void RunInstr(const Instr& in, const ColumnVector* const* regs,
              ColumnVector* out, const SelectionVector& sel, Arena* arena) {
  switch (in.op) {
    case VecOp::kArith:
      KernelArith(in, *regs[in.a], *regs[in.b], out, sel);
      return;
    case VecOp::kCompare:
      KernelCompare(in, *regs[in.a], *regs[in.b], out, sel);
      return;
    case VecOp::kAnd:
    case VecOp::kOr:
      KernelLogic(in, *regs[in.a], *regs[in.b], out, sel);
      return;
    case VecOp::kNot: {
      const ColumnVector& a = *regs[in.a];
      out->Reset(ValueType::kBool);
      uint8_t* onull = out->nulls();
      int64_t* oi = out->i64();
      const int64_t* ai = a.i64();
      for (size_t k = 0; k < sel.count; k++) {
        const size_t r = sel.idx[k];
        onull[r] = a.IsNull(r);
        if (!onull[r]) oi[r] = ai[r] != 0 ? 0 : 1;
      }
      return;
    }
    case VecOp::kIsNull:
    case VecOp::kIsNotNull: {
      const ColumnVector& a = *regs[in.a];
      const bool want_null = in.op == VecOp::kIsNull;
      out->Reset(ValueType::kBool);
      uint8_t* onull = out->nulls();
      int64_t* oi = out->i64();
      for (size_t k = 0; k < sel.count; k++) {
        const size_t r = sel.idx[k];
        bool is_null = a.type() == ValueType::kNull || a.IsNull(r);
        onull[r] = 0;
        oi[r] = (is_null == want_null) ? 1 : 0;
      }
      return;
    }
    case VecOp::kNeg:
      KernelNeg(in, *regs[in.a], out, sel);
      return;
    case VecOp::kLike:
      KernelLike(in, *regs[in.a], out, sel);
      return;
    case VecOp::kIn:
      KernelIn(in, *regs[in.a], out, sel);
      return;
    case VecOp::kCase:
      KernelCase(in, regs, out, sel);
      return;
    case VecOp::kSubstring:
      KernelSubstring(in, *regs[in.a], out, sel);
      return;
    case VecOp::kExtractYear:
      KernelExtractYear(in, *regs[in.a], out, sel);
      return;
    case VecOp::kCast:
      KernelCast(in, *regs[in.a], out, sel, arena);
      return;
    case VecOp::kConst:
    case VecOp::kSlot:
    case VecOp::kAllNull:
      JSONTILES_CHECK(false);  // handled by CompiledExpr::Run
  }
}

}  // namespace jsontiles::exec::vec
