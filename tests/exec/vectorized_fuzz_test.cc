// Differential fuzzing of the vectorized expression engine against the
// scalar interpreter (the reference implementation).
//
// Random typed expression trees are compiled and run batch-at-a-time over
// random rows — with nulls, zeros (division / modulo by zero), empty
// strings, unparsable casts, int64 extremes, NaN, infinities and floats with
// no int64 — and every produced value must be bit-identical to EvalExpr on
// the same row. Trees the compiler rejects fall back to the interpreter by
// design and are not counted; the test requires at least 100k compiled
// (tree, row) agreements.

#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/expr_compile.h"
#include "exec/expression.h"
#include "exec/vector_batch.h"
#include "util/arena.h"
#include "util/random.h"

namespace jsontiles::exec {
namespace {

// Slot layout shared by every generated tree.
const std::vector<ValueType> kSlotTypes = {
    ValueType::kInt,  ValueType::kFloat,     ValueType::kString,
    ValueType::kBool, ValueType::kTimestamp, ValueType::kNumeric,
};
constexpr int kIntSlot = 0, kFloatSlot = 1, kStringSlot = 2, kBoolSlot = 3,
              kTsSlot = 4, kNumericSlot = 5;

// Stable string storage: slot values and constants view into this pool.
// Includes empty strings, LIKE metacharacters, parsable and unparsable
// numbers/timestamps/bools.
const std::vector<std::string>& StringPool() {
  static const std::vector<std::string> pool = {
      "",        "a",       "abc",    "abcabc", "zzz",
      "%",       "_",       "a%b",    "42",     "-7",
      "3.25",    "1e3",     "not-a-number",     "true",
      "f",       "1998-09-02",        "2003-11-30 23:59:59",
      "banana",  "bananarama",        "ana",
  };
  return pool;
}

const std::vector<std::string>& PatternPool() {
  static const std::vector<std::string> pool = {
      "",     "%",    "a%",   "%a",  "%ana%", "abc", "a_c",
      "%a%b", "a%c",  "__",   "%%",  "ban%",  "%ma",
  };
  return pool;
}

// Int extremes: add/sub/mul/neg wrap, and INT64_MIN % -1 is 0.
const int64_t kIntEdges[] = {std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max(), -1};

// Small values, plus floats with no int64 (NaN, ±inf, 1e300), which make MOD
// and a BigInt cast null, and -0.0.
const double kFloatPool[] = {
    0.0,  1.0,   -1.0,  0.25, -0.25, 3.5,
    42.0, -99.5, 100.0, 7.75, -0.5,  2.0,
    std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    1e300, -0.0};

double RandomFloat(Random& rng) {
  return kFloatPool[rng.Uniform(std::size(kFloatPool))];
}

Value RandomSlotValue(ValueType type, Random& rng) {
  if (rng.Chance(0.2)) return Value::Null();
  switch (type) {
    case ValueType::kInt:
      // Mostly tiny (collisions with IN lists, zero divisors), some larger,
      // a few extremes.
      if (rng.Chance(0.05)) {
        return Value::Int(kIntEdges[rng.Uniform(std::size(kIntEdges))]);
      }
      return Value::Int(rng.Chance(0.8) ? rng.Range(-4, 4)
                                        : rng.Range(-100, 100));
    case ValueType::kFloat:
      return Value::Float(RandomFloat(rng));
    case ValueType::kString: {
      const auto& pool = StringPool();
      return Value::String(pool[rng.Uniform(pool.size())]);
    }
    case ValueType::kBool:
      return Value::Bool(rng.Chance(0.5));
    case ValueType::kTimestamp:
      // 1970..~2033, microseconds.
      return Value::Ts(rng.Range(0, 2000000000) * kMicrosPerSecond);
    case ValueType::kNumeric:
      return Value::Num(
          Numeric{rng.Range(-10000, 10000), static_cast<uint8_t>(rng.Uniform(5))});
    default:
      return Value::Null();
  }
}

// Typed recursive generators. Depth counts down to leaves.
class TreeGen {
 public:
  explicit TreeGen(Random& rng) : rng_(rng) {}

  ExprPtr GenAny(int depth) {
    switch (rng_.Uniform(3)) {
      case 0: return GenNum(depth);
      case 1: return GenStr(depth);
      default: return GenBool(depth);
    }
  }

  ExprPtr GenNum(int depth) {
    if (depth <= 0 || rng_.Chance(0.25)) {
      switch (rng_.Uniform(7)) {
        case 0: return ConstInt(rng_.Range(-100, 100));
        case 1: return ConstFloat(RandomFloat(rng_));
        case 2: return ConstNull();
        case 3: return Slot(kIntSlot);
        case 4: return Slot(kFloatSlot);
        case 5: return Slot(kNumericSlot);
        default: return Slot(kTsSlot);
      }
    }
    // Children are generated into locals: argument evaluation order is
    // unspecified in C++, and the trees must be identical on every compiler
    // for the fixed seed to mean anything.
    switch (rng_.Uniform(9)) {
      case 0: {
        ExprPtr l = GenNum(depth - 1);
        return Add(std::move(l), GenNum(depth - 1));
      }
      case 1: {
        ExprPtr l = GenNum(depth - 1);
        return Sub(std::move(l), GenNum(depth - 1));
      }
      case 2: {
        ExprPtr l = GenNum(depth - 1);
        return Mul(std::move(l), GenNum(depth - 1));
      }
      case 3: {
        ExprPtr l = GenNum(depth - 1);
        return Div(std::move(l), GenNum(depth - 1));
      }
      case 4: {
        ExprPtr l = GenNum(depth - 1);
        return Mod(std::move(l), GenNum(depth - 1));
      }
      case 5: return Neg(GenNum(depth - 1));
      case 6: return GenCase(depth, [&] { return GenNum(depth - 1); });
      case 7: {
        ExprPtr arg = GenAny(depth - 1);
        return CastTo(std::move(arg), rng_.Chance(0.5) ? ValueType::kInt
                                                       : ValueType::kFloat);
      }
      default:
        return Year(rng_.Chance(0.5) ? Slot(kTsSlot) : GenStr(depth - 1));
    }
  }

  ExprPtr GenStr(int depth) {
    if (depth <= 0 || rng_.Chance(0.4)) {
      switch (rng_.Uniform(3)) {
        case 0: {
          const auto& pool = StringPool();
          return ConstString(pool[rng_.Uniform(pool.size())]);
        }
        case 1: return ConstNull();
        default: return Slot(kStringSlot);
      }
    }
    switch (rng_.Uniform(3)) {
      case 0: {
        // Starts straddling the string (0 and negatives included), lengths 0+.
        ExprPtr str = GenStr(depth - 1);
        const int start = static_cast<int>(rng_.Range(-2, 6));
        const int len = static_cast<int>(rng_.Range(0, 5));
        return Substring(std::move(str), start, len);
      }
      case 1: return CastTo(GenAny(depth - 1), ValueType::kString);
      default: return GenCase(depth, [&] { return GenStr(depth - 1); });
    }
  }

  ExprPtr GenBool(int depth) {
    if (depth <= 0 || rng_.Chance(0.2)) {
      switch (rng_.Uniform(3)) {
        case 0: return ConstBool(rng_.Chance(0.5));
        case 1: return ConstNull();
        default: return Slot(kBoolSlot);
      }
    }
    switch (rng_.Uniform(11)) {
      case 0: {
        ExprPtr l = GenNum(depth - 1);
        return Cmp(std::move(l), GenNum(depth - 1));
      }
      case 1: {
        ExprPtr l = GenStr(depth - 1);
        return Cmp(std::move(l), GenStr(depth - 1));
      }
      case 2: {
        ExprPtr l = GenBool(depth - 1);
        return And(std::move(l), GenBool(depth - 1));
      }
      case 3: {
        ExprPtr l = GenBool(depth - 1);
        return Or(std::move(l), GenBool(depth - 1));
      }
      case 4: return Not(GenBool(depth - 1));
      case 5: {
        const bool is_null = rng_.Chance(0.5);
        ExprPtr arg = GenAny(depth - 1);
        return is_null ? IsNull(std::move(arg)) : IsNotNull(std::move(arg));
      }
      case 6: {
        const auto& pats = PatternPool();
        ExprPtr str = GenStr(depth - 1);
        const std::string& pat = pats[rng_.Uniform(pats.size())];
        return Like(std::move(str), pat, rng_.Chance(0.3));
      }
      case 7: {
        std::vector<int64_t> ints;
        for (int i = 0; i < 4; i++) ints.push_back(rng_.Range(-4, 4));
        return InListInt(GenNum(depth - 1), std::move(ints));
      }
      case 8: {
        const auto& pool = StringPool();
        std::vector<std::string> strings;
        for (int i = 0; i < 3; i++) strings.push_back(pool[rng_.Uniform(pool.size())]);
        return InList(GenStr(depth - 1), std::move(strings));
      }
      case 9: {
        ExprPtr e = GenNum(depth - 1);
        ExprPtr lo = GenNum(depth - 1);
        return Between(std::move(e), std::move(lo), GenNum(depth - 1));
      }
      default: return GenCase(depth, [&] { return GenBool(depth - 1); });
    }
  }

 private:
  template <typename ArmFn>
  ExprPtr GenCase(int depth, ArmFn arm) {
    std::vector<ExprPtr> operands;
    const int arms = static_cast<int>(rng_.Range(1, 2));
    for (int i = 0; i < arms; i++) {
      operands.push_back(GenBool(depth - 1));
      operands.push_back(arm());
    }
    if (rng_.Chance(0.7)) operands.push_back(arm());  // ELSE
    return Case(std::move(operands));
  }

  ExprPtr Cmp(ExprPtr l, ExprPtr r) {
    switch (rng_.Uniform(6)) {
      case 0: return Eq(std::move(l), std::move(r));
      case 1: return Ne(std::move(l), std::move(r));
      case 2: return Lt(std::move(l), std::move(r));
      case 3: return Le(std::move(l), std::move(r));
      case 4: return Gt(std::move(l), std::move(r));
      default: return Ge(std::move(l), std::move(r));
    }
  }

  Random& rng_;
};

bool BitIdentical(const Value& a, const Value& b) {
  if (a.type != b.type) return false;
  switch (a.type) {
    case ValueType::kNull:
      return true;
    case ValueType::kFloat: {
      uint64_t x, y;
      std::memcpy(&x, &a.d, sizeof(x));
      std::memcpy(&y, &b.d, sizeof(y));
      return x == y;
    }
    case ValueType::kString:
      return a.s() == b.s();
    case ValueType::kNumeric:
      return a.i == b.i && a.scale == b.scale;
    default:
      return a.i == b.i;
  }
}

std::string Describe(const Value& v) {
  return std::string(ValueTypeName(v.type)) + ":" + v.ToString();
}

TEST(VectorizedFuzzTest, CompiledMatchesInterpreterOn100kEvals) {
  Random rng(20260805);
  TreeGen gen(rng);
  Arena arena;

  const size_t kRows = 128;
  const size_t kTargetEvals = 100000;
  const size_t kMaxTrees = 60000;

  size_t compiled_evals = 0;
  size_t compiled_trees = 0;
  size_t total_trees = 0;
  SelectionVector sel;
  std::vector<ColumnVector> slot_vecs(kSlotTypes.size());

  while (compiled_evals < kTargetEvals && total_trees < kMaxTrees) {
    total_trees++;
    ExprPtr tree = gen.GenAny(static_cast<int>(rng.Range(1, 5)));

    CompiledExpr program;
    if (!CompiledExpr::Compile(*tree, kSlotTypes, &program)) {
      continue;  // interpreter-only by design; not counted
    }
    compiled_trees++;

    // Fresh random rows for this tree.
    std::vector<std::vector<Value>> rows(kRows);
    for (size_t r = 0; r < kRows; r++) {
      rows[r].reserve(kSlotTypes.size());
      for (ValueType t : kSlotTypes) rows[r].push_back(RandomSlotValue(t, rng));
    }
    for (size_t s = 0; s < kSlotTypes.size(); s++) {
      slot_vecs[s].Reset(kSlotTypes[s]);
      for (size_t r = 0; r < kRows; r++) slot_vecs[s].SetValue(r, rows[r][s]);
    }
    sel.SetAll(kRows);

    const ColumnVector& result = program.Run(slot_vecs.data(), sel, &arena);
    for (size_t r = 0; r < kRows; r++) {
      Value expected = EvalExpr(*tree, rows[r].data(), &arena);
      Value actual = result.GetValue(r);
      ASSERT_TRUE(BitIdentical(expected, actual))
          << "tree #" << total_trees << " row " << r << ": interpreter="
          << Describe(expected) << " vectorized=" << Describe(actual);
      compiled_evals++;
    }
  }

  EXPECT_GE(compiled_evals, kTargetEvals)
      << "only " << compiled_trees << " of " << total_trees
      << " generated trees compiled";
}

// The selection vector must be respected: lanes outside the selection are
// never read (their register contents are unspecified), and every selected
// lane still matches the interpreter.
TEST(VectorizedFuzzTest, SparseSelectionMatchesInterpreter) {
  Random rng(7);
  TreeGen gen(rng);
  Arena arena;
  const size_t kRows = 512;

  size_t checked = 0;
  SelectionVector sel;
  std::vector<ColumnVector> slot_vecs(kSlotTypes.size());
  for (int t = 0; t < 400; t++) {
    ExprPtr tree = gen.GenAny(3);
    CompiledExpr program;
    if (!CompiledExpr::Compile(*tree, kSlotTypes, &program)) continue;

    std::vector<std::vector<Value>> rows(kRows);
    for (size_t r = 0; r < kRows; r++) {
      for (ValueType type : kSlotTypes) {
        rows[r].push_back(RandomSlotValue(type, rng));
      }
    }
    for (size_t s = 0; s < kSlotTypes.size(); s++) {
      slot_vecs[s].Reset(kSlotTypes[s]);
      for (size_t r = 0; r < kRows; r++) slot_vecs[s].SetValue(r, rows[r][s]);
    }
    // Keep roughly every third lane.
    sel.count = 0;
    for (size_t r = 0; r < kRows; r++) {
      if (rng.Chance(0.3)) sel.idx[sel.count++] = static_cast<uint16_t>(r);
    }

    const ColumnVector& result = program.Run(slot_vecs.data(), sel, &arena);
    for (size_t k = 0; k < sel.count; k++) {
      const size_t r = sel.idx[k];
      Value expected = EvalExpr(*tree, rows[r].data(), &arena);
      ASSERT_TRUE(BitIdentical(expected, result.GetValue(r)))
          << "tree #" << t << " lane " << r;
      checked++;
    }
  }
  EXPECT_GT(checked, 10000u);
}

}  // namespace
}  // namespace jsontiles::exec
