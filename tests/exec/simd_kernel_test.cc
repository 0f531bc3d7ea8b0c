// Differential tests of the SIMD kernels (exec/simd.h) against the scalar
// code production runs without them. Each kernel runs over a dense batch and
// must be bit-identical, null bytes included, to its caller's gather loop run
// with the switch off: compare, arithmetic, three-valued logic and int ->
// double through the matching CompiledExpr program, the selection kernels
// through IntersectSelection, and the hash kernels through the per-lane
// HashCombine(seed, Value::Hash()) chain of BatchedExprs::HashKeys. The batch
// size is deliberately not a multiple of the vector width, and tails of 0-7
// lanes run on their own. Semantics quirks the kernels must preserve
// (interpreter comparison through double, NaN ordering, division by zero,
// integer wraparound at INT64_MIN/INT64_MAX, null-heavy lanes, hash
// constants) get dedicated inputs or cases. The kernels may be called only
// under simd::UseSimd(), so the suite is skipped on CPUs without AVX2.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "exec/batched_exprs.h"
#include "exec/expr_compile.h"
#include "exec/simd.h"
#include "exec/vector_batch.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/logging.h"

namespace jsontiles::exec {
namespace {

// Odd on purpose: exercises both full vectors and the scalar tail.
constexpr size_t kN = 1019;
static_assert(kN <= kVectorSize, "one dense batch");

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kMin = std::numeric_limits<int64_t>::min();

// Slot layout of the reference programs: two operands per lane type.
enum SlotId { kA, kB, kFa, kFb, kTa, kTb, kP, kQ, kNumSlots };
const std::vector<ValueType> kSlotTypes = {
    ValueType::kInt,       ValueType::kInt,       ValueType::kFloat,
    ValueType::kFloat,     ValueType::kTimestamp, ValueType::kTimestamp,
    ValueType::kBool,      ValueType::kBool};

const BinOp kCompareOps[] = {BinOp::kEq, BinOp::kNe, BinOp::kLt,
                             BinOp::kLe, BinOp::kGt, BinOp::kGe};

// Every pure-tail batch size, then one batch of whole vectors plus a tail.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 6, 7, kN};

uint64_t Bits(int64_t x) { return static_cast<uint64_t>(x); }
uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

// Lanes [0, n) of a kernel's output against the reference vector: null bytes
// always, payload bits on non-null lanes (null payload is unspecified).
template <typename T>
::testing::AssertionResult LanesMatch(const T* out, const uint8_t* onull,
                                      const ColumnVector& ref, size_t n) {
  const T* want;
  if constexpr (std::is_same_v<T, double>) {
    want = ref.f64();
  } else {
    want = ref.i64();
  }
  for (size_t i = 0; i < n; i++) {
    if (onull[i] != ref.nulls()[i]) {
      return ::testing::AssertionFailure()
             << "lane " << i << " null " << int{onull[i]} << " vs "
             << int{ref.nulls()[i]};
    }
    if (!onull[i] && Bits(out[i]) != Bits(want[i])) {
      return ::testing::AssertionFailure()
             << "lane " << i << ": " << out[i] << " vs " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

class SimdKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    simd::SetEnabled(true);
    if (!simd::UseSimd()) GTEST_SKIP() << "the CPU has no AVX2";
    std::mt19937_64 rng(20260805);
    slots_.resize(kNumSlots);
    for (int s = 0; s < kNumSlots; s++) slots_[s].Reset(kSlotTypes[s]);
    for (size_t i = 0; i < kN; i++) {
      const int64_t a = static_cast<int64_t>(rng());
      const int64_t b = i % 5 == 0 ? a : static_cast<int64_t>(rng());
      I(kA)[i] = a;
      I(kB)[i] = b;
      I(kTa)[i] = a;
      I(kTb)[i] = b;
      F(kFa)[i] = i % 7 == 0 ? std::nan("") : static_cast<double>(a) / 3.0;
      F(kFb)[i] = i % 11 == 0 ? 0.0 : static_cast<double>(b) / 5.0;
      I(kP)[i] = static_cast<int64_t>(rng() % 2);
      I(kQ)[i] = static_cast<int64_t>(rng() % 2);
      // The upper half of the batch is null-heavy.
      const bool heavy = i >= kN / 2;
      const uint8_t an = heavy ? rng() % 8 != 0 : rng() % 3 == 0;
      const uint8_t bn = heavy ? rng() % 8 != 0 : rng() % 3 == 0;
      for (int s : {kA, kFa, kTa, kP}) slots_[s].nulls()[i] = an;
      for (int s : {kB, kFb, kTb, kQ}) slots_[s].nulls()[i] = bn;
    }
    // Integer extremes, in the vector lanes and in the tail.
    for (size_t i : {size_t{1}, size_t{6}, kN - 2}) {
      I(kA)[i] = kMin;
      I(kB)[i] = kMax;
      I(kA)[i + 1] = kMax;
      I(kB)[i + 1] = kMax;
    }
  }

  int64_t* I(int slot) { return slots_[slot].i64(); }
  double* F(int slot) { return slots_[slot].f64(); }
  const uint8_t* N(int slot) { return slots_[slot].nulls(); }

  // Runs `e` over lanes [0, n) of the slots as one dense batch with the
  // switch off: the gather loops of expr_kernels.cc. The result is valid
  // until the next call.
  const ColumnVector& RunScalar(const ExprPtr& e, size_t n) {
    simd::ScopedEnabled off(false);
    program_ = CompiledExpr();
    JSONTILES_CHECK(CompiledExpr::Compile(*e, kSlotTypes, &program_));
    sel_.SetAll(n);
    return program_.Run(slots_.data(), sel_, &arena_);
  }

  // Restores the switch each test found, whatever the test flips it to.
  simd::ScopedEnabled restore_{simd::Enabled()};

  std::vector<ColumnVector> slots_;
  CompiledExpr program_;
  SelectionVector sel_;
  Arena arena_;
};

TEST_F(SimdKernelTest, CompareKernelsMatchScalarReference) {
  std::vector<int64_t> out(kN);
  std::vector<uint8_t> onull(kN);
  for (BinOp op : kCompareOps) {
    for (size_t n : kSizes) {
      SCOPED_TRACE("op " + std::to_string(static_cast<int>(op)) + " n " +
                   std::to_string(n));
      simd::CompareI64ViaDouble(op, I(kA), I(kB), N(kA), N(kB), out.data(),
                                onull.data(), n);
      ASSERT_TRUE(LanesMatch(out.data(), onull.data(),
                             RunScalar(Binary(op, Slot(kA), Slot(kB)), n), n))
          << "i64/i64";

      simd::CompareF64(op, F(kFa), F(kFb), N(kFa), N(kFb), out.data(),
                       onull.data(), n);
      ASSERT_TRUE(LanesMatch(out.data(), onull.data(),
                             RunScalar(Binary(op, Slot(kFa), Slot(kFb)), n), n))
          << "f64/f64";

      simd::CompareI64F64(op, I(kA), F(kFb), N(kA), N(kFb), out.data(),
                          onull.data(), n);
      ASSERT_TRUE(LanesMatch(out.data(), onull.data(),
                             RunScalar(Binary(op, Slot(kA), Slot(kFb)), n), n))
          << "i64/f64";

      simd::CompareF64I64(op, F(kFa), I(kB), N(kFa), N(kB), out.data(),
                          onull.data(), n);
      ASSERT_TRUE(LanesMatch(out.data(), onull.data(),
                             RunScalar(Binary(op, Slot(kFa), Slot(kB)), n), n))
          << "f64/i64";

      simd::CompareI64Raw(op, I(kTa), I(kTb), N(kTa), N(kTb), out.data(),
                          onull.data(), n);
      ASSERT_TRUE(LanesMatch(out.data(), onull.data(),
                             RunScalar(Binary(op, Slot(kTa), Slot(kTb)), n), n))
          << "raw i64";
    }
  }
}

// The interpreter computes cmp = (x < y) ? -1 : (x > y) ? 1 : 0 and derives
// every operator from cmp; with a NaN operand both orderings are false, so
// cmp = 0 and NaN behaves "equal to" anything. The SIMD kernels must keep
// this quirk exactly.
TEST_F(SimdKernelTest, NanComparesAsEqual) {
  const double nan = std::nan("");
  double x[4] = {nan, 1.0, nan, 2.0};
  double y[4] = {5.0, nan, nan, 2.0};
  uint8_t no_nulls[4] = {0, 0, 0, 0};
  int64_t out[4];
  uint8_t onull[4];
  simd::CompareF64(BinOp::kEq, x, y, no_nulls, no_nulls, out, onull, 4);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(out[2], 1);
  EXPECT_EQ(out[3], 1);
  simd::CompareF64(BinOp::kLt, x, y, no_nulls, no_nulls, out, onull, 4);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 0);
  EXPECT_EQ(out[2], 0);
  simd::CompareF64(BinOp::kLe, x, y, no_nulls, no_nulls, out, onull, 4);
  EXPECT_EQ(out[0], 1);
  simd::CompareF64(BinOp::kNe, x, y, no_nulls, no_nulls, out, onull, 4);
  EXPECT_EQ(out[0], 0);
}

TEST_F(SimdKernelTest, ArithKernelsMatchScalarReference) {
  std::vector<int64_t> out_i(kN);
  std::vector<double> out_d(kN);
  std::vector<uint8_t> onull(kN);
  for (size_t n : kSizes) {
    for (BinOp op : {BinOp::kAdd, BinOp::kSub, BinOp::kMul}) {
      SCOPED_TRACE("int op " + std::to_string(static_cast<int>(op)) + " n " +
                   std::to_string(n));
      simd::ArithI64(op, I(kA), I(kB), N(kA), N(kB), out_i.data(),
                     onull.data(), n);
      ASSERT_TRUE(LanesMatch(out_i.data(), onull.data(),
                             RunScalar(Binary(op, Slot(kA), Slot(kB)), n), n));
    }
    for (BinOp op : {BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kDiv}) {
      SCOPED_TRACE("float op " + std::to_string(static_cast<int>(op)) +
                   " n " + std::to_string(n));
      simd::ArithF64(op, F(kFa), F(kFb), N(kFa), N(kFb), out_d.data(),
                     onull.data(), n);
      ASSERT_TRUE(LanesMatch(out_d.data(), onull.data(),
                             RunScalar(Binary(op, Slot(kFa), Slot(kFb)), n), n));
    }
  }
}

TEST_F(SimdKernelTest, DivisionByZeroYieldsNull) {
  double x[3] = {1.0, -2.0, 0.0};
  double y[3] = {0.0, 4.0, 0.0};
  uint8_t no_nulls[3] = {0, 0, 0};
  double out[3];
  uint8_t onull[3];
  simd::ArithF64(BinOp::kDiv, x, y, no_nulls, no_nulls, out, onull, 3);
  EXPECT_EQ(onull[0], 1);
  EXPECT_EQ(onull[1], 0);
  EXPECT_EQ(out[1], -0.5);
  EXPECT_EQ(onull[2], 1);
}

// The kernel and the scalar path both wrap, on whole vectors and the tail.
TEST_F(SimdKernelTest, IntArithmeticWrapsInEveryTier) {
  const int64_t a[9] = {kMax, kMin, kMax, kMin, 1, kMax, kMin, kMax, -1};
  const int64_t b[9] = {1, -1, kMax, kMin, 2, -1, 1, 2, kMin};
  for (size_t i = 0; i < 9; i++) {
    I(kA)[i] = a[i];
    I(kB)[i] = b[i];
    slots_[kA].nulls()[i] = 0;
    slots_[kB].nulls()[i] = 0;
  }
  const struct {
    BinOp op;
    int64_t expected[9];
  } cases[] = {
      {BinOp::kAdd, {kMin, kMax, -2, 0, 3, kMax - 1, kMin + 1, kMin + 1, kMax}},
      {BinOp::kSub, {kMax - 1, kMin + 1, 0, 0, -1, kMin, kMax, kMax - 2, kMax}},
      {BinOp::kMul, {kMax, kMin, 1, 0, 2, kMin + 1, kMin, -2, kMin}},
  };
  for (const auto& c : cases) {
    int64_t out[9];
    uint8_t onull[9];
    simd::ArithI64(c.op, a, b, N(kA), N(kB), out, onull, 9);
    const ColumnVector& ref = RunScalar(Binary(c.op, Slot(kA), Slot(kB)), 9);
    for (size_t i = 0; i < 9; i++) {
      EXPECT_EQ(out[i], c.expected[i])
          << "simd op " << static_cast<int>(c.op) << " lane " << i;
      EXPECT_EQ(ref.i64()[i], c.expected[i])
          << "scalar op " << static_cast<int>(c.op) << " lane " << i;
    }
  }
}

TEST_F(SimdKernelTest, IntToDoubleConversionIsExactEverywhere) {
  // Extremes where a wrong rounding mode or a float detour would show.
  const int64_t ext[] = {kMin,
                         kMax,
                         (int64_t{1} << 53) + 1,
                         -(int64_t{1} << 53) - 1,
                         0,
                         -1,
                         4503599627370497LL,
                         kMax - 1};
  double out[8];
  simd::I64ToF64(ext, out, 8);
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(out[i], static_cast<double>(ext[i])) << "lane " << i;
  }
  std::vector<double> conv(kN), out_d(kN);
  std::vector<uint8_t> onull(kN);
  for (size_t n : kSizes) {
    SCOPED_TRACE("n " + std::to_string(n));
    simd::I64ToF64(I(kA), conv.data(), n);
    ASSERT_TRUE(LanesMatch(conv.data(), N(kA),
                           RunScalar(CastTo(Slot(kA), ValueType::kFloat), n),
                           n));
    // Mixed int/float arithmetic, as KernelArith's dense path runs it.
    for (BinOp op : {BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kDiv}) {
      simd::ArithF64(op, conv.data(), F(kFb), N(kA), N(kFb), out_d.data(),
                     onull.data(), n);
      ASSERT_TRUE(LanesMatch(out_d.data(), onull.data(),
                             RunScalar(Binary(op, Slot(kA), Slot(kFb)), n), n))
          << "op " << static_cast<int>(op);
    }
  }
}

TEST_F(SimdKernelTest, ThreeValuedLogicMatchesScalarReference) {
  std::vector<int64_t> out(kN);
  std::vector<uint8_t> onull(kN);
  for (size_t n : kSizes) {
    SCOPED_TRACE("n " + std::to_string(n));
    simd::And3VL(I(kP), I(kQ), N(kP), N(kQ), out.data(), onull.data(), n);
    ASSERT_TRUE(LanesMatch(out.data(), onull.data(),
                           RunScalar(And(Slot(kP), Slot(kQ)), n), n))
        << "AND";
    simd::Or3VL(I(kP), I(kQ), N(kP), N(kQ), out.data(), onull.data(), n);
    ASSERT_TRUE(LanesMatch(out.data(), onull.data(),
                           RunScalar(Or(Slot(kP), Slot(kQ)), n), n))
        << "OR";
  }
}

// SQL 3VL truth-table spot checks: null AND false = false, null OR true =
// true, null AND true = null, null OR false = null.
TEST_F(SimdKernelTest, ThreeValuedLogicTruthTable) {
  int64_t vals[4] = {0, 1, 0, 1};   // other operand: F, T, F, T
  int64_t nvals[4] = {0, 0, 0, 0};  // payload of the null operand (garbage)
  uint8_t null_side[4] = {1, 1, 1, 1};
  uint8_t no_nulls[4] = {0, 0, 0, 0};
  int64_t out[4];
  uint8_t onull[4];
  simd::And3VL(nvals, vals, null_side, no_nulls, out, onull, 4);
  EXPECT_EQ(onull[0], 0);  // null AND false = false
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(onull[1], 1);  // null AND true = null
  simd::Or3VL(nvals, vals, null_side, no_nulls, out, onull, 4);
  EXPECT_EQ(onull[1], 0);  // null OR true = true
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(onull[0], 1);  // null OR false = null
}

// The batch kernels against HashKeys' per-lane chain: the key hash is
// kKeyHashSeed combined with Value::Hash() of each key column in turn, for
// int, timestamp and bool keys.
TEST_F(SimdKernelTest, HashBatchMatchesValueHashConstants) {
  std::vector<uint64_t> h(kN), acc(kN), ref(kN);
  for (size_t n : kSizes) {
    std::fill(acc.begin(), acc.end(), kKeyHashSeed);
    std::fill(ref.begin(), ref.end(), kKeyHashSeed);
    for (int s : {kA, kTb, kP}) {
      simd::HashI64Batch(I(s), N(s), Value::Null().Hash(), h.data(), n);
      simd::HashCombineBatch(acc.data(), h.data(), n);
      for (size_t i = 0; i < n; i++) {
        ref[i] = HashCombine(ref[i], slots_[s].GetValue(i).Hash());
      }
      for (size_t i = 0; i < n; i++) {
        ASSERT_EQ(acc[i], ref[i]) << "slot " << s << " n " << n << " lane "
                                  << i;
      }
    }
  }
}

// BoolPassBytes + CompactPassIndices against IntersectSelection's gather
// loop, at 1%, 50% and 99% of lanes passing.
TEST_F(SimdKernelTest, BoolPassBytesAndCompactMatchReference) {
  std::mt19937_64 rng(99);
  std::vector<uint8_t> pass(kN);
  std::vector<uint16_t> idx(kN);
  SelectionVector ref;
  for (int pass_pct : {1, 50, 99}) {
    for (size_t i = 0; i < kN; i++) {
      I(kP)[i] = static_cast<int64_t>(rng() % 100) < pass_pct ? 1 : 0;
    }
    for (size_t n : kSizes) {
      simd::BoolPassBytes(I(kP), N(kP), pass.data(), n);
      const size_t count = simd::CompactPassIndices(pass.data(), n, idx.data());
      {
        simd::ScopedEnabled off(false);
        ref.SetAll(n);
        IntersectSelection(slots_[kP], &ref);
      }
      ASSERT_EQ(count, ref.count) << pass_pct << "% n " << n;
      for (size_t k = 0; k < count; k++) {
        ASSERT_EQ(idx[k], ref.idx[k]) << pass_pct << "% n " << n << " pos "
                                      << k;
      }
    }
  }
}

// Tiny sizes: every kernel must handle n smaller than one vector (pure-tail
// execution) without touching memory past the buffers.
TEST_F(SimdKernelTest, TinyBatchesRunTailOnly) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}}) {
    std::vector<int64_t> x(n ? n : 1, 7), y(n ? n : 1, 9), out(n ? n : 1);
    std::vector<uint8_t> nn(n ? n : 1, 0), onull(n ? n : 1);
    simd::CompareI64ViaDouble(BinOp::kLt, x.data(), y.data(), nn.data(),
                              nn.data(), out.data(), onull.data(), n);
    for (size_t i = 0; i < n; i++) {
      EXPECT_EQ(out[i], 1);
      EXPECT_EQ(onull[i], 0);
    }
    std::vector<uint64_t> h(n ? n : 1);
    simd::HashI64Batch(x.data(), nn.data(), 0, h.data(), n);
    for (size_t i = 0; i < n; i++) {
      EXPECT_EQ(h[i], HashInt(uint64_t{7}));
    }
  }
}

// "avx2" exactly when the switch is on and the CPU has AVX2.
TEST_F(SimdKernelTest, EnableToggleAndIsaAreCoherent) {
#if defined(__x86_64__)
  const bool cpu_avx2 = __builtin_cpu_supports("avx2");
#else
  const bool cpu_avx2 = false;
#endif
  for (bool on : {false, true}) {
    simd::SetEnabled(on);
    EXPECT_EQ(simd::Enabled(), on);
    EXPECT_EQ(simd::UseSimd(), on && cpu_avx2);
    EXPECT_STREQ(simd::ActiveIsa(), simd::UseSimd() ? "avx2" : "scalar");
  }
}

}  // namespace
}  // namespace jsontiles::exec
