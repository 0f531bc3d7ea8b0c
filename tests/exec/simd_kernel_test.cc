// Differential tests of the SIMD kernel layer (exec/simd.h) against its
// scalar reference tier: every kernel is run once with SIMD enabled and once
// disabled over the same buffers and must produce bit-identical output,
// including null bytes. Sizes are deliberately not multiples of the vector
// width so the scalar tails execute too. Semantics quirks the kernels must
// preserve (interpreter comparison through double, NaN ordering, division
// by zero, integer wraparound, hash constants) get dedicated cases.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "exec/simd.h"
#include "util/hash.h"

namespace jsontiles::exec {
namespace {

// Odd on purpose: exercises both full vectors and the scalar tail.
constexpr size_t kN = 1031;

class SimdKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::mt19937_64 rng(20260805);
    a_.resize(kN);
    b_.resize(kN);
    fa_.resize(kN);
    fb_.resize(kN);
    an_.resize(kN);
    bn_.resize(kN);
    for (size_t i = 0; i < kN; i++) {
      a_[i] = static_cast<int64_t>(rng());
      b_[i] = i % 5 == 0 ? a_[i] : static_cast<int64_t>(rng());
      fa_[i] = i % 7 == 0 ? std::nan("")
                          : static_cast<double>(static_cast<int64_t>(rng())) / 3.0;
      fb_[i] = i % 11 == 0 ? 0.0
                           : static_cast<double>(static_cast<int64_t>(rng())) / 5.0;
      an_[i] = rng() % 3 == 0;
      bn_[i] = rng() % 3 == 0;
    }
  }

  // Restores the switch each test found, whatever the test flips it to.
  simd::ScopedEnabled restore_{simd::Enabled()};

  std::vector<int64_t> a_, b_;
  std::vector<double> fa_, fb_;
  std::vector<uint8_t> an_, bn_;
};

const BinOp kCompareOps[] = {BinOp::kEq, BinOp::kNe, BinOp::kLt,
                             BinOp::kLe, BinOp::kGt, BinOp::kGe};

TEST_F(SimdKernelTest, CompareKernelsMatchScalarReference) {
  std::vector<int64_t> simd_out(kN), ref_out(kN);
  std::vector<uint8_t> simd_null(kN), ref_null(kN);
  auto check = [&](const char* what, BinOp op) {
    for (size_t i = 0; i < kN; i++) {
      ASSERT_EQ(simd_out[i], ref_out[i])
          << what << " op=" << static_cast<int>(op) << " lane " << i;
      ASSERT_EQ(simd_null[i], ref_null[i])
          << what << " nulls, op=" << static_cast<int>(op) << " lane " << i;
    }
  };
  for (BinOp op : kCompareOps) {
    simd::SetEnabled(true);
    simd::CompareI64ViaDouble(op, a_.data(), b_.data(), an_.data(), bn_.data(),
                              simd_out.data(), simd_null.data(), kN);
    simd::SetEnabled(false);
    simd::CompareI64ViaDouble(op, a_.data(), b_.data(), an_.data(), bn_.data(),
                              ref_out.data(), ref_null.data(), kN);
    check("i64/i64", op);

    simd::SetEnabled(true);
    simd::CompareF64(op, fa_.data(), fb_.data(), an_.data(), bn_.data(),
                     simd_out.data(), simd_null.data(), kN);
    simd::SetEnabled(false);
    simd::CompareF64(op, fa_.data(), fb_.data(), an_.data(), bn_.data(),
                     ref_out.data(), ref_null.data(), kN);
    check("f64/f64", op);

    simd::SetEnabled(true);
    simd::CompareI64F64(op, a_.data(), fb_.data(), an_.data(), bn_.data(),
                        simd_out.data(), simd_null.data(), kN);
    simd::SetEnabled(false);
    simd::CompareI64F64(op, a_.data(), fb_.data(), an_.data(), bn_.data(),
                        ref_out.data(), ref_null.data(), kN);
    check("i64/f64", op);

    simd::SetEnabled(true);
    simd::CompareF64I64(op, fa_.data(), b_.data(), an_.data(), bn_.data(),
                        simd_out.data(), simd_null.data(), kN);
    simd::SetEnabled(false);
    simd::CompareF64I64(op, fa_.data(), b_.data(), an_.data(), bn_.data(),
                        ref_out.data(), ref_null.data(), kN);
    check("f64/i64", op);

    simd::SetEnabled(true);
    simd::CompareI64Raw(op, a_.data(), b_.data(), an_.data(), bn_.data(),
                        simd_out.data(), simd_null.data(), kN);
    simd::SetEnabled(false);
    simd::CompareI64Raw(op, a_.data(), b_.data(), an_.data(), bn_.data(),
                        ref_out.data(), ref_null.data(), kN);
    check("raw i64", op);
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
  simd::SetEnabled(true);
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
  const BinOp ops[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul};
  std::vector<int64_t> simd_i(kN), ref_i(kN);
  std::vector<double> simd_d(kN), ref_d(kN);
  std::vector<uint8_t> simd_null(kN), ref_null(kN);
  for (BinOp op : ops) {
    simd::SetEnabled(true);
    simd::ArithI64(op, a_.data(), b_.data(), an_.data(), bn_.data(),
                   simd_i.data(), simd_null.data(), kN);
    simd::SetEnabled(false);
    simd::ArithI64(op, a_.data(), b_.data(), an_.data(), bn_.data(),
                   ref_i.data(), ref_null.data(), kN);
    for (size_t i = 0; i < kN; i++) {
      ASSERT_EQ(simd_null[i], ref_null[i]) << "int op " << static_cast<int>(op);
      if (!ref_null[i]) {
        ASSERT_EQ(simd_i[i], ref_i[i])
            << "int op " << static_cast<int>(op) << " lane " << i;
      }
    }
  }
  const BinOp fops[] = {BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kDiv};
  for (BinOp op : fops) {
    simd::SetEnabled(true);
    simd::ArithF64(op, fa_.data(), fb_.data(), an_.data(), bn_.data(),
                   simd_d.data(), simd_null.data(), kN);
    simd::SetEnabled(false);
    simd::ArithF64(op, fa_.data(), fb_.data(), an_.data(), bn_.data(),
                   ref_d.data(), ref_null.data(), kN);
    for (size_t i = 0; i < kN; i++) {
      ASSERT_EQ(simd_null[i], ref_null[i])
          << "float op " << static_cast<int>(op) << " lane " << i;
      if (ref_null[i]) continue;
      uint64_t sx, rx;
      std::memcpy(&sx, &simd_d[i], sizeof(sx));
      std::memcpy(&rx, &ref_d[i], sizeof(rx));
      ASSERT_EQ(sx, rx) << "float op " << static_cast<int>(op) << " lane " << i;
    }
  }
}

TEST_F(SimdKernelTest, DivisionByZeroYieldsNull) {
  double x[3] = {1.0, -2.0, 0.0};
  double y[3] = {0.0, 4.0, 0.0};
  uint8_t no_nulls[3] = {0, 0, 0};
  double out[3];
  uint8_t onull[3];
  simd::SetEnabled(true);
  simd::ArithF64(BinOp::kDiv, x, y, no_nulls, no_nulls, out, onull, 3);
  EXPECT_EQ(onull[0], 1);
  EXPECT_EQ(onull[1], 0);
  EXPECT_EQ(out[1], -0.5);
  EXPECT_EQ(onull[2], 1);
}

TEST_F(SimdKernelTest, IntArithmeticWrapsInEveryTier) {
  // Nine lanes: whole vectors plus a scalar tail on both tiers.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t a[9] = {kMax, kMin, kMax, kMin, 1, kMax, kMin, kMax, -1};
  const int64_t b[9] = {1, -1, kMax, kMin, 2, -1, 1, 2, kMin};
  uint8_t no_nulls[9] = {};
  const struct {
    BinOp op;
    int64_t expected[9];
  } cases[] = {
      {BinOp::kAdd, {kMin, kMax, -2, 0, 3, kMax - 1, kMin + 1, kMin + 1, kMax}},
      {BinOp::kSub, {kMax - 1, kMin + 1, 0, 0, -1, kMin, kMax, kMax - 2, kMax}},
      {BinOp::kMul, {kMax, kMin, 1, 0, 2, kMin + 1, kMin, -2, kMin}},
  };
  for (bool enabled : {true, false}) {
    simd::SetEnabled(enabled);
    for (const auto& c : cases) {
      int64_t out[9];
      uint8_t onull[9];
      simd::ArithI64(c.op, a, b, no_nulls, no_nulls, out, onull, 9);
      for (size_t i = 0; i < 9; i++) {
        EXPECT_EQ(out[i], c.expected[i])
            << "op " << static_cast<int>(c.op) << " lane " << i
            << " simd=" << enabled;
      }
    }
  }
}

TEST_F(SimdKernelTest, IntToDoubleConversionIsExactEverywhere) {
  // Extremes where a wrong rounding mode or a float detour would show.
  const int64_t ext[] = {std::numeric_limits<int64_t>::min(),
                         std::numeric_limits<int64_t>::max(),
                         (int64_t{1} << 53) + 1,
                         -(int64_t{1} << 53) - 1,
                         0,
                         -1,
                         4503599627370497LL,
                         std::numeric_limits<int64_t>::max() - 1};
  double out[8];
  simd::SetEnabled(true);
  simd::I64ToF64(ext, out, 8);
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(out[i], static_cast<double>(ext[i])) << "lane " << i;
  }
  std::vector<double> simd_d(kN), ref_d(kN);
  simd::I64ToF64(a_.data(), simd_d.data(), kN);
  simd::SetEnabled(false);
  simd::I64ToF64(a_.data(), ref_d.data(), kN);
  for (size_t i = 0; i < kN; i++) {
    uint64_t sx, rx;
    std::memcpy(&sx, &simd_d[i], sizeof(sx));
    std::memcpy(&rx, &ref_d[i], sizeof(rx));
    ASSERT_EQ(sx, rx) << "lane " << i;
  }
}

TEST_F(SimdKernelTest, ThreeValuedLogicMatchesScalarReference) {
  std::mt19937_64 rng(7);
  std::vector<int64_t> p(kN), q(kN);
  for (size_t i = 0; i < kN; i++) {
    p[i] = rng() % 2;
    q[i] = rng() % 2;
  }
  std::vector<int64_t> simd_out(kN), ref_out(kN);
  std::vector<uint8_t> simd_null(kN), ref_null(kN);

  simd::SetEnabled(true);
  simd::And3VL(p.data(), q.data(), an_.data(), bn_.data(), simd_out.data(),
               simd_null.data(), kN);
  simd::SetEnabled(false);
  simd::And3VL(p.data(), q.data(), an_.data(), bn_.data(), ref_out.data(),
               ref_null.data(), kN);
  for (size_t i = 0; i < kN; i++) {
    ASSERT_EQ(simd_null[i], ref_null[i]) << "AND lane " << i;
    if (!ref_null[i]) {
      ASSERT_EQ(simd_out[i], ref_out[i]) << "AND lane " << i;
    }
  }

  simd::SetEnabled(true);
  simd::Or3VL(p.data(), q.data(), an_.data(), bn_.data(), simd_out.data(),
              simd_null.data(), kN);
  simd::SetEnabled(false);
  simd::Or3VL(p.data(), q.data(), an_.data(), bn_.data(), ref_out.data(),
              ref_null.data(), kN);
  for (size_t i = 0; i < kN; i++) {
    ASSERT_EQ(simd_null[i], ref_null[i]) << "OR lane " << i;
    if (!ref_null[i]) {
      ASSERT_EQ(simd_out[i], ref_out[i]) << "OR lane " << i;
    }
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
  simd::SetEnabled(true);
  simd::And3VL(nvals, vals, null_side, no_nulls, out, onull, 4);
  EXPECT_EQ(onull[0], 0);  // null AND false = false
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(onull[1], 1);  // null AND true = null
  simd::Or3VL(nvals, vals, null_side, no_nulls, out, onull, 4);
  EXPECT_EQ(onull[1], 0);  // null OR true = true
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(onull[0], 1);  // null OR false = null
}

TEST_F(SimdKernelTest, HashBatchMatchesValueHashConstants) {
  std::vector<uint64_t> h(kN);
  const uint64_t null_hash = 0x9E3779B97F4A7C15ULL;  // Value::Null().Hash()
  simd::SetEnabled(true);
  simd::HashI64Batch(a_.data(), an_.data(), null_hash, h.data(), kN);
  for (size_t i = 0; i < kN; i++) {
    const uint64_t ref =
        an_[i] ? null_hash : HashInt(static_cast<uint64_t>(a_[i]));
    ASSERT_EQ(h[i], ref) << "lane " << i;
  }
  std::vector<uint64_t> acc(kN, 0x2545F4914F6CDD1DULL);
  std::vector<uint64_t> ref_acc(acc);
  simd::HashCombineBatch(acc.data(), h.data(), kN);
  for (size_t i = 0; i < kN; i++) {
    ASSERT_EQ(acc[i], HashCombine(ref_acc[i], h[i])) << "lane " << i;
  }
  // Scalar tier agrees too.
  std::vector<uint64_t> h2(kN);
  simd::SetEnabled(false);
  simd::HashI64Batch(a_.data(), an_.data(), null_hash, h2.data(), kN);
  EXPECT_EQ(h, h2);
}

TEST_F(SimdKernelTest, BoolPassBytesAndCompactMatchReference) {
  std::mt19937_64 rng(99);
  std::vector<int64_t> vals(kN);
  for (size_t i = 0; i < kN; i++) vals[i] = rng() % 2;
  std::vector<uint8_t> pass(kN);
  simd::SetEnabled(true);
  simd::BoolPassBytes(vals.data(), an_.data(), pass.data(), kN);
  std::vector<uint16_t> idx(kN);
  const size_t count = simd::CompactPassIndices(pass.data(), kN, idx.data());
  size_t ref_count = 0;
  for (size_t i = 0; i < kN; i++) {
    const bool expect_pass = an_[i] == 0 && vals[i] != 0;
    ASSERT_EQ(pass[i] != 0, expect_pass) << "lane " << i;
    if (expect_pass) {
      ASSERT_EQ(idx[ref_count], i) << "compact position " << ref_count;
      ref_count++;
    }
  }
  EXPECT_EQ(count, ref_count);
}

TEST_F(SimdKernelTest, OrBytesMatchesReference) {
  std::vector<uint8_t> simd_out(kN), ref_out(kN);
  simd::SetEnabled(true);
  simd::OrBytes(an_.data(), bn_.data(), simd_out.data(), kN);
  simd::SetEnabled(false);
  simd::OrBytes(an_.data(), bn_.data(), ref_out.data(), kN);
  EXPECT_EQ(simd_out, ref_out);
  for (size_t i = 0; i < kN; i++) {
    ASSERT_EQ(ref_out[i] != 0, an_[i] != 0 || bn_[i] != 0) << "lane " << i;
  }
}

// Tiny sizes: every kernel must handle n smaller than one vector (pure-tail
// execution) without touching memory past the buffers.
TEST_F(SimdKernelTest, TinyBatchesRunTailOnly) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}}) {
    std::vector<int64_t> x(n ? n : 1, 7), y(n ? n : 1, 9), out(n ? n : 1);
    std::vector<uint8_t> nn(n ? n : 1, 0), onull(n ? n : 1);
    simd::SetEnabled(true);
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

// The tier is "avx2" exactly when the switch is on and the CPU has AVX2.
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
    EXPECT_STREQ(simd::ActiveIsa(), on && cpu_avx2 ? "avx2" : "scalar");
  }
}

}  // namespace
}  // namespace jsontiles::exec
