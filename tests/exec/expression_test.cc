#include "exec/expression.h"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "exec/scan.h"

namespace jsontiles::exec {
namespace {

// Floats that truncate to no int64: NaN, ±inf and values outside
// [-2^63, 2^63).
const double kNoInt64[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), 1e300,
                           -1e300, 9223372036854775808.0};

Value Eval(const ExprPtr& e) {
  Arena arena;
  return EvalExpr(*e, nullptr, &arena);
}

TEST(ExprTest, Constants) {
  EXPECT_EQ(Eval(ConstInt(42)).int_value(), 42);
  EXPECT_DOUBLE_EQ(Eval(ConstFloat(2.5)).float_value(), 2.5);
  EXPECT_EQ(Eval(ConstString("hi")).string_value(), "hi");
  EXPECT_TRUE(Eval(ConstNull()).is_null());
  EXPECT_EQ(Eval(ConstDate("1998-12-01")).type, ValueType::kTimestamp);
}

TEST(ExprTest, Arithmetic) {
  EXPECT_EQ(Eval(Add(ConstInt(2), ConstInt(3))).int_value(), 5);
  EXPECT_EQ(Eval(Mul(ConstInt(4), ConstInt(5))).int_value(), 20);
  EXPECT_DOUBLE_EQ(Eval(Div(ConstInt(7), ConstInt(2))).float_value(), 3.5);
  EXPECT_DOUBLE_EQ(Eval(Add(ConstFloat(1.5), ConstInt(1))).float_value(), 2.5);
  EXPECT_EQ(Eval(Mod(ConstInt(7), ConstInt(3))).int_value(), 1);
  EXPECT_TRUE(Eval(Div(ConstInt(1), ConstInt(0))).is_null());
  EXPECT_TRUE(Eval(Add(ConstInt(1), ConstNull())).is_null());
  EXPECT_EQ(Eval(Neg(ConstInt(5))).int_value(), -5);
  // Integer overflow wraps (two's complement), like the compiled kernels.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(Eval(Add(ConstInt(kMax), ConstInt(1))).int_value(), kMin);
  EXPECT_EQ(Eval(Sub(ConstInt(kMin), ConstInt(1))).int_value(), kMax);
  EXPECT_EQ(Eval(Mul(ConstInt(kMax), ConstInt(2))).int_value(), -2);
  EXPECT_EQ(Eval(Neg(ConstInt(kMin))).int_value(), kMin);
  // x % -1 is 0 (INT64_MIN % -1 would trap); float operands truncate.
  EXPECT_EQ(Eval(Mod(ConstInt(kMin), ConstInt(-1))).int_value(), 0);
  EXPECT_EQ(Eval(Mod(ConstInt(7), ConstInt(-1))).int_value(), 0);
  EXPECT_EQ(Eval(Mod(ConstInt(kMin), ConstFloat(-1.5))).int_value(), 0);
  EXPECT_EQ(Eval(Mod(ConstFloat(-7.9), ConstInt(3))).int_value(), -1);
  EXPECT_EQ(Eval(Mod(ConstFloat(-9223372036854775808.0), ConstInt(-1)))
                .int_value(),
            0);
  // A float operand with no int64 makes MOD null.
  for (double bad : kNoInt64) {
    EXPECT_TRUE(Eval(Mod(ConstFloat(bad), ConstInt(3))).is_null()) << bad;
    EXPECT_TRUE(Eval(Mod(ConstInt(3), ConstFloat(bad))).is_null()) << bad;
  }
}

TEST(ExprTest, Comparisons) {
  EXPECT_TRUE(Eval(Lt(ConstInt(1), ConstInt(2))).bool_value());
  EXPECT_TRUE(Eval(Ge(ConstFloat(2.0), ConstInt(2))).bool_value());
  EXPECT_TRUE(Eval(Eq(ConstString("a"), ConstString("a"))).bool_value());
  EXPECT_FALSE(Eval(Eq(ConstString("a"), ConstString("b"))).bool_value());
  EXPECT_TRUE(Eval(Lt(ConstDate("1998-01-01"), ConstDate("1999-01-01"))).bool_value());
  EXPECT_TRUE(Eval(Eq(ConstInt(1), ConstNull())).is_null());
  // Incomparable types yield null, not an error.
  EXPECT_TRUE(Eval(Eq(ConstString("1"), ConstInt(1))).is_null());
}

TEST(ExprTest, ThreeValuedLogic) {
  ExprPtr t = ConstBool(true), f = ConstBool(false), n = ConstNull();
  EXPECT_FALSE(Eval(And(t, f)).bool_value());
  EXPECT_TRUE(Eval(And(t, t)).bool_value());
  EXPECT_TRUE(Eval(And(n, n)).is_null());
  EXPECT_FALSE(Eval(And(n, f)).bool_value());  // null AND false = false
  EXPECT_TRUE(Eval(Or(n, t)).bool_value());    // null OR true = true
  EXPECT_TRUE(Eval(Or(n, f)).is_null());
  EXPECT_TRUE(Eval(Not(n)).is_null());
  EXPECT_FALSE(Eval(Not(t)).bool_value());
  EXPECT_TRUE(Eval(IsNull(n)).bool_value());
  EXPECT_TRUE(Eval(IsNotNull(t)).bool_value());
}

TEST(ExprTest, LikePatterns) {
  EXPECT_TRUE(LikeMatch("PROMO BRUSHED", "PROMO%"));
  EXPECT_FALSE(LikeMatch("SMALL PROMO", "PROMO%"));
  EXPECT_TRUE(LikeMatch("LARGE BRASS", "%BRASS"));
  EXPECT_TRUE(LikeMatch("the green thing", "%green%"));
  EXPECT_FALSE(LikeMatch("the red thing", "%green%"));
  EXPECT_TRUE(LikeMatch("special packages requests", "%special%requests%"));
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_FALSE(LikeMatch("abbc", "a_c"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("x", "%%x%"));
  EXPECT_TRUE(Eval(Like(ConstString("forest green"), "forest%")).bool_value());
  EXPECT_FALSE(
      Eval(Like(ConstString("forest green"), "forest%", /*negated=*/true))
          .bool_value());
}

TEST(ExprTest, InAndBetween) {
  EXPECT_TRUE(
      Eval(InList(ConstString("b"), {"a", "b", "c"})).bool_value());
  EXPECT_FALSE(Eval(InList(ConstString("z"), {"a", "b"})).bool_value());
  EXPECT_TRUE(Eval(InListInt(ConstInt(31), {9, 19, 31})).bool_value());
  EXPECT_TRUE(
      Eval(Between(ConstInt(5), ConstInt(1), ConstInt(10))).bool_value());
  EXPECT_FALSE(
      Eval(Between(ConstInt(11), ConstInt(1), ConstInt(10))).bool_value());
}

TEST(ExprTest, CaseExpression) {
  // CASE WHEN false THEN 1 WHEN true THEN 2 ELSE 3 END
  EXPECT_EQ(Eval(Case({ConstBool(false), ConstInt(1), ConstBool(true),
                       ConstInt(2), ConstInt(3)}))
                .int_value(),
            2);
  EXPECT_EQ(Eval(Case({ConstBool(false), ConstInt(1), ConstInt(3)})).int_value(), 3);
  EXPECT_TRUE(Eval(Case({ConstBool(false), ConstInt(1)})).is_null());
}

TEST(ExprTest, SubstringAndYear) {
  EXPECT_EQ(Eval(Substring(ConstString("13-345-987"), 1, 2)).string_value(), "13");
  EXPECT_EQ(Eval(Substring(ConstString("ab"), 1, 5)).string_value(), "ab");
  EXPECT_EQ(Eval(Substring(ConstString("abc"), 9, 2)).string_value(), "");
  EXPECT_EQ(Eval(Year(ConstDate("1995-03-04"))).int_value(), 1995);
  EXPECT_EQ(Eval(Year(ConstString("1997-06-07"))).int_value(), 1997);
  EXPECT_TRUE(Eval(Year(ConstString("nope"))).is_null());
}

TEST(ExprTest, SlotRefs) {
  Arena arena;
  Row row = {Value::Int(10), Value::String("xy")};
  EXPECT_EQ(EvalExpr(*Add(Slot(0), ConstInt(1)), row.data(), &arena).int_value(), 11);
  EXPECT_EQ(EvalExpr(*Slot(1), row.data(), &arena).string_value(), "xy");
}

TEST(ExprTest, CastValueMatrix) {
  Arena arena;
  EXPECT_EQ(CastValue(Value::String("123"), ValueType::kInt, &arena).int_value(), 123);
  EXPECT_TRUE(CastValue(Value::String("12x"), ValueType::kInt, &arena).is_null());
  EXPECT_DOUBLE_EQ(
      CastValue(Value::String("1.5"), ValueType::kFloat, &arena).float_value(), 1.5);
  EXPECT_EQ(CastValue(Value::Int(5), ValueType::kString, &arena).string_value(), "5");
  EXPECT_EQ(CastValue(Value::Float(2.5), ValueType::kInt, &arena).int_value(), 2);
  EXPECT_EQ(CastValue(Value::Float(-2.9), ValueType::kInt, &arena).int_value(), -2);
  EXPECT_EQ(CastValue(Value::Float(-9223372036854775808.0), ValueType::kInt,
                      &arena)
                .int_value(),
            std::numeric_limits<int64_t>::min());
  // A float with no int64 casts to null, like an unparsable string.
  for (double bad : kNoInt64) {
    EXPECT_TRUE(CastValue(Value::Float(bad), ValueType::kInt, &arena).is_null())
        << bad;
  }
  EXPECT_TRUE(CastValue(Value::Float(std::numeric_limits<double>::quiet_NaN()),
                        ValueType::kNumeric, &arena)
                  .is_null());
  EXPECT_EQ(CastValue(Value::String("2020-06-01"), ValueType::kTimestamp, &arena).type,
            ValueType::kTimestamp);
  Numeric n{1999, 2};
  EXPECT_EQ(CastValue(Value::Num(n), ValueType::kString, &arena).string_value(),
            "19.99");
  EXPECT_DOUBLE_EQ(CastValue(Value::Num(n), ValueType::kFloat, &arena).float_value(),
                   19.99);
  EXPECT_TRUE(CastValue(Value::Null(), ValueType::kInt, &arena).is_null());
}

TEST(ExprTest, CollectAndRewriteAccesses) {
  ExprPtr a1 = Access("t", {"l_orderkey"}, ValueType::kInt);
  ExprPtr a2 = Access("t", {"l_price"}, ValueType::kFloat);
  ExprPtr filter = And(Gt(a2, ConstFloat(10.0)), Eq(a1, ConstInt(5)));
  std::vector<ExprPtr> accesses;
  CollectAccesses(filter, &accesses);
  ASSERT_EQ(accesses.size(), 2u);
  // Duplicate accesses collapse.
  ExprPtr dup = Access("t", {"l_price"}, ValueType::kFloat);
  CollectAccesses(dup, &accesses);
  EXPECT_EQ(accesses.size(), 2u);

  ExprPtr rewritten = RewriteAccessesToSlots(filter, [&](const Expr& access) {
    for (size_t i = 0; i < accesses.size(); i++) {
      if (accesses[i]->path == access.path) return static_cast<int>(i);
    }
    return -1;
  });
  Arena arena;
  // Collection order is tree order: a2 (l_price) first, then a1 (l_orderkey).
  Row row = {Value::Float(20.0), Value::Int(5)};
  EXPECT_TRUE(EvalExpr(*rewritten, row.data(), &arena).bool_value());
  Row row2 = {Value::Float(5.0), Value::Int(5)};
  EXPECT_FALSE(EvalExpr(*rewritten, row2.data(), &arena).bool_value());
}

TEST(ExprTest, NullRejectingPaths) {
  ExprPtr a1 = Access("t", {"a"}, ValueType::kInt);
  ExprPtr a2 = Access("t", {"b"}, ValueType::kString);
  ExprPtr a3 = Access("u", {"c"}, ValueType::kInt);
  ExprPtr filter = And(Gt(a1, ConstInt(1)),
                       And(Like(a2, "x%"), Eq(a3, ConstInt(1))));
  std::vector<std::string> paths;
  CollectNullRejectingPaths(filter, "t", &paths);
  EXPECT_EQ(paths.size(), 2u);  // a and b of table t; c belongs to u
  paths.clear();
  // OR branches are not null-rejecting.
  CollectNullRejectingPaths(Or(Gt(a1, ConstInt(1)), ConstBool(true)), "t", &paths);
  EXPECT_TRUE(paths.empty());
  // IS NULL is not null-rejecting; IS NOT NULL is.
  paths.clear();
  CollectNullRejectingPaths(IsNull(a1), "t", &paths);
  EXPECT_TRUE(paths.empty());
  CollectNullRejectingPaths(IsNotNull(a1), "t", &paths);
  EXPECT_EQ(paths.size(), 1u);
}

}  // namespace
}  // namespace jsontiles::exec
