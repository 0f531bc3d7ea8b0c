#include "exec/expression.h"

#include <charconv>
#include <cmath>
#include <cstring>

#include "json/dom.h"
#include "tiles/keypath.h"
#include "util/bit_util.h"
#include "util/logging.h"

namespace jsontiles::exec {

namespace {

std::shared_ptr<Expr> NewExpr(ExprKind kind) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  return e;
}

}  // namespace

ExprPtr ConstInt(int64_t v) {
  auto e = NewExpr(ExprKind::kConst);
  e->constant = Value::Int(v);
  return e;
}

ExprPtr ConstFloat(double v) {
  auto e = NewExpr(ExprKind::kConst);
  e->constant = Value::Float(v);
  return e;
}

ExprPtr ConstBool(bool v) {
  auto e = NewExpr(ExprKind::kConst);
  e->constant = Value::Bool(v);
  return e;
}

ExprPtr ConstString(std::string v) {
  auto e = NewExpr(ExprKind::kConst);
  e->const_storage = std::move(v);
  e->constant = Value::String(e->const_storage);
  return e;
}

ExprPtr ConstDate(std::string_view text) {
  Timestamp ts = 0;
  JSONTILES_CHECK(ParseTimestamp(text, &ts));
  auto e = NewExpr(ExprKind::kConst);
  e->constant = Value::Ts(ts);
  return e;
}

ExprPtr ConstNull() { return NewExpr(ExprKind::kConst); }

ExprPtr Access(std::string table, std::initializer_list<std::string_view> keys,
               ValueType type) {
  std::string encoded;
  for (std::string_view k : keys) tiles::AppendKeySegment(&encoded, k);
  return AccessPath(std::move(table), std::move(encoded), type);
}

ExprPtr AccessPath(std::string table, std::string encoded_path, ValueType type) {
  auto e = NewExpr(ExprKind::kAccess);
  e->table = std::move(table);
  e->path = std::move(encoded_path);
  e->access_type = type;
  return e;
}

ExprPtr ArrayContains(std::string table,
                      std::initializer_list<std::string_view> keys,
                      std::string element_key, std::string value) {
  auto e = NewExpr(ExprKind::kArrayContains);
  e->table = std::move(table);
  for (std::string_view k : keys) tiles::AppendKeySegment(&e->path, k);
  e->pattern = std::move(element_key);
  e->const_storage = std::move(value);
  e->constant = Value::String(e->const_storage);
  e->access_type = ValueType::kBool;
  return e;
}

ExprPtr RowId(std::string table) {
  auto e = NewExpr(ExprKind::kAccess);
  e->table = std::move(table);
  e->path = std::string(kRowIdPath);
  e->access_type = ValueType::kInt;
  return e;
}

ExprPtr Slot(int index) {
  auto e = NewExpr(ExprKind::kSlotRef);
  e->slot = index;
  return e;
}

ExprPtr Binary(BinOp op, ExprPtr l, ExprPtr r) {
  auto e = NewExpr(ExprKind::kBinary);
  e->bin_op = op;
  e->args = {std::move(l), std::move(r)};
  return e;
}

ExprPtr And(ExprPtr l, ExprPtr r) { return Binary(BinOp::kAnd, l, r); }

ExprPtr And(std::vector<ExprPtr> conjuncts) {
  JSONTILES_CHECK(!conjuncts.empty());
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); i++) acc = And(acc, conjuncts[i]);
  return acc;
}

ExprPtr Unary(UnOp op, ExprPtr arg) {
  auto e = NewExpr(ExprKind::kUnary);
  e->un_op = op;
  e->args = {std::move(arg)};
  return e;
}

ExprPtr Like(ExprPtr str, std::string pattern, bool negated) {
  auto e = NewExpr(ExprKind::kLike);
  e->pattern = std::move(pattern);
  e->negated = negated;
  e->like = std::make_shared<CompiledLike>(e->pattern);
  e->args = {std::move(str)};
  return e;
}

ExprPtr InList(ExprPtr expr, std::vector<std::string> strings) {
  auto e = NewExpr(ExprKind::kIn);
  e->in_storage = std::move(strings);
  for (const auto& s : e->in_storage) e->in_list.push_back(Value::String(s));
  e->args = {std::move(expr)};
  return e;
}

ExprPtr InListInt(ExprPtr expr, std::vector<int64_t> ints) {
  auto e = NewExpr(ExprKind::kIn);
  for (int64_t v : ints) e->in_list.push_back(Value::Int(v));
  e->args = {std::move(expr)};
  return e;
}

ExprPtr Between(ExprPtr e, ExprPtr lo, ExprPtr hi) {
  return And(Ge(e, lo), Le(e, hi));
}

ExprPtr Case(std::vector<ExprPtr> operands) {
  auto e = NewExpr(ExprKind::kCase);
  e->args = std::move(operands);
  return e;
}

ExprPtr Substring(ExprPtr str, int start_1based, int len) {
  auto e = NewExpr(ExprKind::kSubstring);
  e->substr_start = start_1based;
  e->substr_len = len;
  e->args = {std::move(str)};
  return e;
}

ExprPtr Year(ExprPtr ts) {
  auto e = NewExpr(ExprKind::kExtractYear);
  e->args = {std::move(ts)};
  return e;
}

ExprPtr CastTo(ExprPtr expr, ValueType type) {
  auto e = NewExpr(ExprKind::kCastTo);
  e->access_type = type;
  e->args = {std::move(expr)};
  return e;
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

CompiledLike::CompiledLike(std::string pattern) : pattern_(std::move(pattern)) {
  std::string_view p = pattern_;
  if (p.find('_') != std::string_view::npos) return;  // kGeneric
  size_t first = p.find('%');
  if (first == std::string_view::npos) {
    kind_ = Kind::kExact;
    needle_len_ = p.size();
    return;
  }
  if (p.find_first_not_of('%') == std::string_view::npos) {
    kind_ = Kind::kMatchAll;
    return;
  }
  size_t last = p.rfind('%');
  if (first == 0 && last == p.size() - 1 && p.find('%', 1) == last) {
    kind_ = Kind::kContains;  // %abc%
    needle_pos_ = 1;
    needle_len_ = p.size() - 2;
    return;
  }
  if (first == 0 && last == 0) {
    kind_ = Kind::kSuffix;  // %abc
    needle_pos_ = 1;
    needle_len_ = p.size() - 1;
    return;
  }
  if (first == p.size() - 1 && last == first) {
    kind_ = Kind::kPrefix;  // abc%
    needle_len_ = p.size() - 1;
    return;
  }
  kind_ = Kind::kGeneric;  // interior '%', e.g. a%b
}

bool CompiledLike::Match(std::string_view s) const {
  std::string_view n = needle();
  switch (kind_) {
    case Kind::kExact:
      return s == n;
    case Kind::kPrefix:
      return s.size() >= n.size() && s.compare(0, n.size(), n) == 0;
    case Kind::kSuffix:
      return s.size() >= n.size() &&
             s.compare(s.size() - n.size(), n.size(), n) == 0;
    case Kind::kContains:
      return s.find(n) != std::string_view::npos;
    case Kind::kMatchAll:
      return true;
    case Kind::kGeneric:
      return LikeMatch(s, pattern_);
  }
  return false;
}

bool LikeMatch(std::string_view s, std::string_view pattern) {
  // Iterative matcher with backtracking on the last '%'.
  size_t si = 0, pi = 0;
  size_t star_p = std::string_view::npos, star_s = 0;
  while (si < s.size()) {
    if (pi < pattern.size() &&
        (pattern[pi] == '_' || pattern[pi] == s[si])) {
      si++;
      pi++;
    } else if (pi < pattern.size() && pattern[pi] == '%') {
      star_p = pi++;
      star_s = si;
    } else if (star_p != std::string_view::npos) {
      pi = star_p + 1;
      si = ++star_s;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '%') pi++;
  return pi == pattern.size();
}

Value CastValue(const Value& v, ValueType to, Arena* arena) {
  if (v.is_null() || v.type == to) return v;
  switch (to) {
    case ValueType::kInt:
      switch (v.type) {
        case ValueType::kBool: return Value::Int(v.i);
        case ValueType::kFloat: {
          int64_t out = 0;
          if (!bit_util::TruncToInt64(v.d, &out)) return Value::Null();
          return Value::Int(out);
        }
        case ValueType::kNumeric: return Value::Int(v.numeric_value().ToInt64());
        case ValueType::kString: {
          int64_t out = 0;
          const std::string_view s = v.s();
          auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
          if (ec != std::errc() || p != s.data() + s.size()) return Value::Null();
          return Value::Int(out);
        }
        case ValueType::kTimestamp: return Value::Int(v.i);
        default: return Value::Null();
      }
    case ValueType::kFloat:
      switch (v.type) {
        case ValueType::kBool:
        case ValueType::kInt: return Value::Float(static_cast<double>(v.i));
        case ValueType::kNumeric: return Value::Float(v.numeric_value().ToDouble());
        case ValueType::kString: {
          double out = 0;
          const std::string_view s = v.s();
          auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
          if (ec != std::errc() || p != s.data() + s.size()) return Value::Null();
          return Value::Float(out);
        }
        default: return Value::Null();
      }
    case ValueType::kNumeric:
      switch (v.type) {
        case ValueType::kInt: return Value::Num(Numeric{v.i, 0});
        case ValueType::kString: {
          Numeric n;
          if (!ParseNumeric(v.s(), &n)) return Value::Null();
          return Value::Num(n);
        }
        case ValueType::kFloat: {
          // Round to 4 decimal places (enough for our workloads).
          double scaled = std::round(v.d * 10000.0);
          if (!(std::abs(scaled) <= 9e17)) return Value::Null();  // NaN too
          return Value::Num(Numeric{static_cast<int64_t>(scaled), 4});
        }
        default: return Value::Null();
      }
    case ValueType::kTimestamp:
      switch (v.type) {
        case ValueType::kString: {
          Timestamp ts;
          if (!ParseTimestamp(v.s(), &ts)) return Value::Null();
          return Value::Ts(ts);
        }
        case ValueType::kInt: return Value::Ts(v.i);
        default: return Value::Null();
      }
    case ValueType::kString: {
      std::string text = v.ToString();
      return Value::String(arena->CopyString(text));
    }
    case ValueType::kBool:
      switch (v.type) {
        case ValueType::kInt: return Value::Bool(v.i != 0);
        case ValueType::kString:
          if (v.s() == "true" || v.s() == "t") return Value::Bool(true);
          if (v.s() == "false" || v.s() == "f") return Value::Bool(false);
          return Value::Null();
        default: return Value::Null();
      }
    default:
      return Value::Null();
  }
}

namespace {

bool BothNumbers(const Value& a, const Value& b) {
  auto is_num = [](ValueType t) {
    return t == ValueType::kInt || t == ValueType::kFloat ||
           t == ValueType::kNumeric;
  };
  return is_num(a.type) && is_num(b.type);
}

Value EvalArithmetic(BinOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (op == BinOp::kMod) {
    // Float operands truncate toward zero; one with no int64 makes it null.
    int64_t a = l.i;
    int64_t b = r.i;
    if (l.type == ValueType::kFloat && !bit_util::TruncToInt64(l.d, &a)) {
      return Value::Null();
    }
    if (r.type == ValueType::kFloat && !bit_util::TruncToInt64(r.d, &b)) {
      return Value::Null();
    }
    if (b == 0) return Value::Null();
    return Value::Int(bit_util::WrapMod(a, b));
  }
  // Pure integer add/sub/mul stays integer; everything else in double.
  if (l.type == ValueType::kInt && r.type == ValueType::kInt &&
      op != BinOp::kDiv) {
    switch (op) {
      case BinOp::kAdd: return Value::Int(bit_util::WrapAdd(l.i, r.i));
      case BinOp::kSub: return Value::Int(bit_util::WrapSub(l.i, r.i));
      case BinOp::kMul: return Value::Int(bit_util::WrapMul(l.i, r.i));
      default: break;
    }
  }
  double a = l.AsDouble();
  double b = r.AsDouble();
  switch (op) {
    case BinOp::kAdd: return Value::Float(a + b);
    case BinOp::kSub: return Value::Float(a - b);
    case BinOp::kMul: return Value::Float(a * b);
    case BinOp::kDiv: return b == 0 ? Value::Null() : Value::Float(a / b);
    default: break;
  }
  return Value::Null();
}

Value EvalComparison(BinOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  int cmp;
  if (BothNumbers(l, r)) {
    double a = l.AsDouble();
    double b = r.AsDouble();
    cmp = a < b ? -1 : a > b ? 1 : 0;
  } else if (l.type == ValueType::kString && r.type == ValueType::kString) {
    int c = l.s().compare(r.s());
    cmp = c < 0 ? -1 : c > 0 ? 1 : 0;
  } else if (l.type == r.type) {
    cmp = l.i < r.i ? -1 : l.i > r.i ? 1 : 0;
  } else {
    return Value::Null();  // incomparable types
  }
  switch (op) {
    case BinOp::kEq: return Value::Bool(cmp == 0);
    case BinOp::kNe: return Value::Bool(cmp != 0);
    case BinOp::kLt: return Value::Bool(cmp < 0);
    case BinOp::kLe: return Value::Bool(cmp <= 0);
    case BinOp::kGt: return Value::Bool(cmp > 0);
    case BinOp::kGe: return Value::Bool(cmp >= 0);
    default: break;
  }
  return Value::Null();
}

}  // namespace

Value EvalExpr(const Expr& e, const Value* slots, Arena* arena) {
  switch (e.kind) {
    case ExprKind::kConst:
      return e.constant;
    case ExprKind::kSlotRef:
      return slots[e.slot];
    case ExprKind::kAccess:
    case ExprKind::kArrayContains:
      JSONTILES_CHECK(false);  // must be rewritten to a slot by the planner
    case ExprKind::kBinary: {
      switch (e.bin_op) {
        case BinOp::kAnd: {
          Value l = EvalExpr(*e.args[0], slots, arena);
          if (!l.is_null() && !l.bool_value()) return Value::Bool(false);
          Value r = EvalExpr(*e.args[1], slots, arena);
          if (!r.is_null() && !r.bool_value()) return Value::Bool(false);
          if (l.is_null() || r.is_null()) return Value::Null();
          return Value::Bool(true);
        }
        case BinOp::kOr: {
          Value l = EvalExpr(*e.args[0], slots, arena);
          if (!l.is_null() && l.bool_value()) return Value::Bool(true);
          Value r = EvalExpr(*e.args[1], slots, arena);
          if (!r.is_null() && r.bool_value()) return Value::Bool(true);
          if (l.is_null() || r.is_null()) return Value::Null();
          return Value::Bool(false);
        }
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv:
        case BinOp::kMod:
          return EvalArithmetic(e.bin_op, EvalExpr(*e.args[0], slots, arena),
                                EvalExpr(*e.args[1], slots, arena));
        default:
          return EvalComparison(e.bin_op, EvalExpr(*e.args[0], slots, arena),
                                EvalExpr(*e.args[1], slots, arena));
      }
    }
    case ExprKind::kUnary: {
      Value v = EvalExpr(*e.args[0], slots, arena);
      switch (e.un_op) {
        case UnOp::kNot:
          if (v.is_null()) return Value::Null();
          return Value::Bool(!v.bool_value());
        case UnOp::kNeg:
          if (v.is_null()) return Value::Null();
          if (v.type == ValueType::kFloat) return Value::Float(-v.d);
          // -INT64_MIN wraps to itself, like the kernel's.
          if (v.type == ValueType::kNumeric) {
            return Value::Num(Numeric{bit_util::WrapSub(0, v.i), v.scale});
          }
          return Value::Int(bit_util::WrapSub(0, v.i));
        case UnOp::kIsNull: return Value::Bool(v.is_null());
        case UnOp::kIsNotNull: return Value::Bool(!v.is_null());
      }
      return Value::Null();
    }
    case ExprKind::kLike: {
      Value v = EvalExpr(*e.args[0], slots, arena);
      if (v.is_null()) return Value::Null();
      if (v.type != ValueType::kString) return Value::Null();
      // Hand-built Expr trees may bypass the Like() factory; fall back to the
      // generic matcher then.
      bool match =
          e.like != nullptr ? e.like->Match(v.s()) : LikeMatch(v.s(), e.pattern);
      return Value::Bool(e.negated ? !match : match);
    }
    case ExprKind::kIn: {
      Value v = EvalExpr(*e.args[0], slots, arena);
      if (v.is_null()) return Value::Null();
      for (const Value& candidate : e.in_list) {
        if (v.EqualsForGrouping(candidate)) return Value::Bool(true);
      }
      return Value::Bool(false);
    }
    case ExprKind::kCase: {
      size_t i = 0;
      for (; i + 1 < e.args.size(); i += 2) {
        Value cond = EvalExpr(*e.args[i], slots, arena);
        if (!cond.is_null() && cond.bool_value()) {
          return EvalExpr(*e.args[i + 1], slots, arena);
        }
      }
      if (i < e.args.size()) return EvalExpr(*e.args[i], slots, arena);
      return Value::Null();
    }
    case ExprKind::kSubstring: {
      Value v = EvalExpr(*e.args[0], slots, arena);
      if (v.is_null() || v.type != ValueType::kString) return Value::Null();
      size_t start = e.substr_start > 0 ? static_cast<size_t>(e.substr_start - 1) : 0;
      const std::string_view s = v.s();
      if (start >= s.size()) return Value::String({});
      size_t len = std::min(static_cast<size_t>(e.substr_len), s.size() - start);
      return Value::String(s.substr(start, len));
    }
    case ExprKind::kExtractYear: {
      Value v = EvalExpr(*e.args[0], slots, arena);
      if (v.is_null()) return Value::Null();
      if (v.type == ValueType::kString) v = CastValue(v, ValueType::kTimestamp, arena);
      if (v.is_null() || v.type != ValueType::kTimestamp) return Value::Null();
      return Value::Int(TimestampYear(v.i));
    }
    case ExprKind::kCastTo:
      return CastValue(EvalExpr(*e.args[0], slots, arena), e.access_type, arena);
  }
  return Value::Null();
}

// ---------------------------------------------------------------------------
// Planner helpers
// ---------------------------------------------------------------------------

bool SameAccess(const Expr& a, const Expr& b) {
  return a.kind == b.kind && a.table == b.table && a.path == b.path &&
         a.access_type == b.access_type && a.pattern == b.pattern &&
         a.const_storage == b.const_storage;
}

bool ExprEquals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprKind::kConst:
      if (a.constant.type != b.constant.type) return false;
      if (a.constant.is_null()) return true;
      if (a.constant.type == ValueType::kString) {
        return a.constant.s() == b.constant.s();
      }
      if (a.constant.type == ValueType::kFloat) {
        return a.constant.d == b.constant.d;
      }
      return a.constant.i == b.constant.i && a.constant.scale == b.constant.scale;
    case ExprKind::kSlotRef:
      return a.slot == b.slot;
    case ExprKind::kAccess:
    case ExprKind::kArrayContains:
      return SameAccess(a, b);
    case ExprKind::kBinary:
      if (a.bin_op != b.bin_op) return false;
      break;
    case ExprKind::kUnary:
      if (a.un_op != b.un_op) return false;
      break;
    case ExprKind::kLike:
      if (a.pattern != b.pattern || a.negated != b.negated) return false;
      break;
    case ExprKind::kIn: {
      if (a.in_list.size() != b.in_list.size() || a.negated != b.negated) {
        return false;
      }
      for (size_t i = 0; i < a.in_list.size(); i++) {
        if (!a.in_list[i].EqualsForGrouping(b.in_list[i])) return false;
      }
      break;
    }
    case ExprKind::kSubstring:
      if (a.substr_start != b.substr_start || a.substr_len != b.substr_len) {
        return false;
      }
      break;
    case ExprKind::kCastTo:
      if (a.access_type != b.access_type) return false;
      break;
    case ExprKind::kCase:
    case ExprKind::kExtractYear:
      break;
  }
  if (a.args.size() != b.args.size()) return false;
  for (size_t i = 0; i < a.args.size(); i++) {
    if (!ExprEquals(*a.args[i], *b.args[i])) return false;
  }
  return true;
}

void CollectAccesses(const ExprPtr& e, std::vector<ExprPtr>* accesses) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kAccess || e->kind == ExprKind::kArrayContains) {
    for (const auto& existing : *accesses) {
      if (SameAccess(*existing, *e)) return;
    }
    accesses->push_back(e);
    return;
  }
  for (const auto& arg : e->args) CollectAccesses(arg, accesses);
}

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->bin_op == BinOp::kAnd) {
    SplitConjuncts(e->args[0], out);
    SplitConjuncts(e->args[1], out);
    return;
  }
  out->push_back(e);
}

ExprPtr RewriteAccessesToSlots(
    const ExprPtr& e, const std::function<int(const Expr& access)>& slot_of) {
  if (e == nullptr) return nullptr;
  if (e->kind == ExprKind::kAccess || e->kind == ExprKind::kArrayContains) {
    int slot = slot_of(*e);
    JSONTILES_CHECK(slot >= 0);
    return Slot(slot);
  }
  bool changed = false;
  std::vector<ExprPtr> new_args;
  new_args.reserve(e->args.size());
  for (const auto& arg : e->args) {
    ExprPtr rewritten = RewriteAccessesToSlots(arg, slot_of);
    changed |= rewritten != arg;
    new_args.push_back(std::move(rewritten));
  }
  if (!changed) return e;
  auto copy = std::make_shared<Expr>(*e);
  copy->args = std::move(new_args);
  return copy;
}

void CollectNullRejectingPaths(const ExprPtr& filter, const std::string& table,
                               std::vector<std::string>* paths) {
  if (filter == nullptr) return;
  switch (filter->kind) {
    case ExprKind::kBinary:
      if (filter->bin_op == BinOp::kAnd) {
        CollectNullRejectingPaths(filter->args[0], table, paths);
        CollectNullRejectingPaths(filter->args[1], table, paths);
        return;
      }
      if (filter->bin_op == BinOp::kOr) return;  // not null-rejecting per side
      // Comparisons reject null operands.
      for (const auto& arg : filter->args) {
        if (arg->kind == ExprKind::kAccess && arg->table == table) {
          paths->push_back(arg->path);
        }
      }
      return;
    case ExprKind::kLike:
    case ExprKind::kIn:
      if (!filter->negated && filter->args[0]->kind == ExprKind::kAccess &&
          filter->args[0]->table == table) {
        paths->push_back(filter->args[0]->path);
      }
      return;
    case ExprKind::kUnary:
      if (filter->un_op == UnOp::kIsNotNull &&
          filter->args[0]->kind == ExprKind::kAccess &&
          filter->args[0]->table == table) {
        paths->push_back(filter->args[0]->path);
      }
      return;
    case ExprKind::kArrayContains:
      // A missing array can never contain the value: null-rejecting.
      if (filter->table == table) paths->push_back(filter->path);
      return;
    default:
      return;
  }
}

namespace {

BinOp FlipComparison(BinOp op) {
  switch (op) {
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kGe: return BinOp::kLe;
    default: return op;  // kEq is symmetric
  }
}

bool IsRangeType(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kFloat ||
         t == ValueType::kTimestamp;
}

}  // namespace

void CollectRangePredicates(const ExprPtr& filter, const std::string& table,
                            std::vector<RangePredicate>* out) {
  if (filter == nullptr || filter->kind != ExprKind::kBinary) return;
  if (filter->bin_op == BinOp::kAnd) {
    CollectRangePredicates(filter->args[0], table, out);
    CollectRangePredicates(filter->args[1], table, out);
    return;
  }
  bool is_cmp = filter->bin_op == BinOp::kLt || filter->bin_op == BinOp::kLe ||
                filter->bin_op == BinOp::kGt || filter->bin_op == BinOp::kGe ||
                filter->bin_op == BinOp::kEq;
  if (!is_cmp) return;
  const ExprPtr& l = filter->args[0];
  const ExprPtr& r = filter->args[1];
  const Expr* access = nullptr;
  const Expr* constant = nullptr;
  BinOp op = filter->bin_op;
  if (l->kind == ExprKind::kAccess && r->kind == ExprKind::kConst) {
    access = l.get();
    constant = r.get();
  } else if (r->kind == ExprKind::kAccess && l->kind == ExprKind::kConst) {
    access = r.get();
    constant = l.get();
    op = FlipComparison(op);
  } else {
    return;
  }
  if (access->table != table || access->path == kRowIdPath) return;
  // String predicates carry no range, but an equality still identifies the
  // target shard when the relation is hash-routed on this path; the zone-map
  // consumers type-check and ignore them.
  const bool string_eq = op == BinOp::kEq &&
                         access->access_type == ValueType::kString &&
                         constant->constant.type == ValueType::kString;
  if (!string_eq && (!IsRangeType(access->access_type) ||
                     !IsRangeType(constant->constant.type))) {
    return;
  }
  out->push_back(
      RangePredicate{access->path, access->access_type, op, constant->constant});
}

}  // namespace jsontiles::exec
