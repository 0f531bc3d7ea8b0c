// Tier selection and dispatch for the SIMD layer (see simd.h).
//
// Three tiers share one source of truth: the scalar reference below defines
// the semantics, simd_kernels.inl provides the vector implementation (included
// once per tier), and a per-process function table picks the widest tier the
// CPU supports. The AVX2 tier uses function multi-versioning
// (__attribute__((target("avx2")))) so no special compile flags are needed
// and the binary stays runnable on pre-AVX2 machines.

#include "exec/simd.h"

#include <atomic>
#include <cstring>

#include "util/bit_util.h"
#include "util/hash.h"

#if defined(JSONTILES_SIMD_ENABLED) && \
    (defined(__x86_64__) || defined(__aarch64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define JT_SIMD_HAVE_VEC 1
#else
#define JT_SIMD_HAVE_VEC 0
#endif

namespace jsontiles::exec::simd {

namespace {

// --------------------------------------------------------------------------
// Scalar reference tier - defines the exact semantics of every entry point.
// The vector tiers' scalar tails call these helpers so tails match by
// construction.
// --------------------------------------------------------------------------

inline int64_t ApplyCmpOrder(BinOp op, int cmp) {
  switch (op) {
    case BinOp::kEq: return cmp == 0;
    case BinOp::kNe: return cmp != 0;
    case BinOp::kLt: return cmp < 0;
    case BinOp::kLe: return cmp <= 0;
    case BinOp::kGt: return cmp > 0;
    default: return cmp >= 0;  // kGe
  }
}

inline int64_t CmpScalarF(BinOp op, double x, double y) {
  return ApplyCmpOrder(op, x < y ? -1 : x > y ? 1 : 0);
}

inline int64_t CmpScalarI(BinOp op, int64_t x, int64_t y) {
  return ApplyCmpOrder(op, x < y ? -1 : x > y ? 1 : 0);
}

// Integer +, -, * wrap (two's complement), like the vector lanes.
inline int64_t ArithScalarI(BinOp op, int64_t x, int64_t y) {
  return op == BinOp::kAdd   ? bit_util::WrapAdd(x, y)
         : op == BinOp::kSub ? bit_util::WrapSub(x, y)
                             : bit_util::WrapMul(x, y);
}

namespace scalar {

void OrBytesImpl(const uint8_t* a, const uint8_t* b, uint8_t* out, size_t n) {
  for (size_t k = 0; k < n; ++k) out[k] = a[k] | b[k];
}

void CompareI64ViaDoubleImpl(BinOp op, const int64_t* a, const int64_t* b,
                             const uint8_t* an, const uint8_t* bn,
                             int64_t* out, uint8_t* onull, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    onull[k] = an[k] | bn[k];
    out[k] = CmpScalarF(op, static_cast<double>(a[k]),
                        static_cast<double>(b[k]));
  }
}

void CompareF64Impl(BinOp op, const double* a, const double* b,
                    const uint8_t* an, const uint8_t* bn, int64_t* out,
                    uint8_t* onull, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    onull[k] = an[k] | bn[k];
    out[k] = CmpScalarF(op, a[k], b[k]);
  }
}

void CompareI64F64Impl(BinOp op, const int64_t* a, const double* b,
                       const uint8_t* an, const uint8_t* bn, int64_t* out,
                       uint8_t* onull, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    onull[k] = an[k] | bn[k];
    out[k] = CmpScalarF(op, static_cast<double>(a[k]), b[k]);
  }
}

void CompareF64I64Impl(BinOp op, const double* a, const int64_t* b,
                       const uint8_t* an, const uint8_t* bn, int64_t* out,
                       uint8_t* onull, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    onull[k] = an[k] | bn[k];
    out[k] = CmpScalarF(op, a[k], static_cast<double>(b[k]));
  }
}

void CompareI64RawImpl(BinOp op, const int64_t* a, const int64_t* b,
                       const uint8_t* an, const uint8_t* bn, int64_t* out,
                       uint8_t* onull, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    onull[k] = an[k] | bn[k];
    out[k] = CmpScalarI(op, a[k], b[k]);
  }
}

void ArithI64Impl(BinOp op, const int64_t* a, const int64_t* b,
                  const uint8_t* an, const uint8_t* bn, int64_t* out,
                  uint8_t* onull, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    onull[k] = an[k] | bn[k];
    out[k] = ArithScalarI(op, a[k], b[k]);
  }
}

void ArithF64Impl(BinOp op, const double* a, const double* b,
                  const uint8_t* an, const uint8_t* bn, double* out,
                  uint8_t* onull, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    onull[k] = an[k] | bn[k];
    if (op == BinOp::kDiv && b[k] == 0.0) {
      onull[k] = 1;
      continue;
    }
    out[k] = op == BinOp::kAdd   ? a[k] + b[k]
             : op == BinOp::kSub ? a[k] - b[k]
             : op == BinOp::kMul ? a[k] * b[k]
                                 : a[k] / b[k];
  }
}

void I64ToF64Impl(const int64_t* in, double* out, size_t n) {
  for (size_t k = 0; k < n; ++k) out[k] = static_cast<double>(in[k]);
}

void And3VLImpl(const int64_t* a, const int64_t* b, const uint8_t* an,
                const uint8_t* bn, int64_t* out, uint8_t* onull, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    int x = an[k] ? 2 : (a[k] != 0 ? 1 : 0);
    int y = bn[k] ? 2 : (b[k] != 0 ? 1 : 0);
    if (x == 0 || y == 0) {
      onull[k] = 0;
      out[k] = 0;
    } else if (x == 2 || y == 2) {
      onull[k] = 1;
    } else {
      onull[k] = 0;
      out[k] = 1;
    }
  }
}

void Or3VLImpl(const int64_t* a, const int64_t* b, const uint8_t* an,
               const uint8_t* bn, int64_t* out, uint8_t* onull, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    int x = an[k] ? 2 : (a[k] != 0 ? 1 : 0);
    int y = bn[k] ? 2 : (b[k] != 0 ? 1 : 0);
    if (x == 1 || y == 1) {
      onull[k] = 0;
      out[k] = 1;
    } else if (x == 2 || y == 2) {
      onull[k] = 1;
    } else {
      onull[k] = 0;
      out[k] = 0;
    }
  }
}

void BoolPassBytesImpl(const int64_t* vals, const uint8_t* nulls,
                       uint8_t* pass, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    pass[k] = static_cast<uint8_t>(nulls[k] == 0 && vals[k] != 0);
  }
}

void HashI64Impl(const int64_t* v, const uint8_t* nulls, uint64_t null_hash,
                 uint64_t* out, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    out[k] = nulls[k] ? null_hash : HashInt(static_cast<uint64_t>(v[k]));
  }
}

void HashCombineImpl(uint64_t* acc, const uint64_t* h, size_t n) {
  for (size_t k = 0; k < n; ++k) acc[k] = HashCombine(acc[k], h[k]);
}

}  // namespace scalar

// --------------------------------------------------------------------------
// Vector tiers
// --------------------------------------------------------------------------

#if JT_SIMD_HAVE_VEC

namespace v128 {
#define JT_SIMD_ATTR
#define JT_SIMD_WIDTH 16
#include "exec/simd_kernels.inl"
#undef JT_SIMD_ATTR
#undef JT_SIMD_WIDTH
}  // namespace v128

#if defined(__x86_64__)
namespace v256 {
#define JT_SIMD_ATTR __attribute__((target("avx2")))
#define JT_SIMD_WIDTH 32
#include "exec/simd_kernels.inl"
#undef JT_SIMD_ATTR
#undef JT_SIMD_WIDTH
}  // namespace v256
#endif  // __x86_64__

#endif  // JT_SIMD_HAVE_VEC

// --------------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------------

struct Ops {
  const char* isa;
  void (*or_bytes)(const uint8_t*, const uint8_t*, uint8_t*, size_t);
  void (*cmp_i64_dbl)(BinOp, const int64_t*, const int64_t*, const uint8_t*,
                      const uint8_t*, int64_t*, uint8_t*, size_t);
  void (*cmp_f64)(BinOp, const double*, const double*, const uint8_t*,
                  const uint8_t*, int64_t*, uint8_t*, size_t);
  void (*cmp_i64_f64)(BinOp, const int64_t*, const double*, const uint8_t*,
                      const uint8_t*, int64_t*, uint8_t*, size_t);
  void (*cmp_f64_i64)(BinOp, const double*, const int64_t*, const uint8_t*,
                      const uint8_t*, int64_t*, uint8_t*, size_t);
  void (*cmp_i64_raw)(BinOp, const int64_t*, const int64_t*, const uint8_t*,
                      const uint8_t*, int64_t*, uint8_t*, size_t);
  void (*arith_i64)(BinOp, const int64_t*, const int64_t*, const uint8_t*,
                    const uint8_t*, int64_t*, uint8_t*, size_t);
  void (*arith_f64)(BinOp, const double*, const double*, const uint8_t*,
                    const uint8_t*, double*, uint8_t*, size_t);
  void (*i64_to_f64)(const int64_t*, double*, size_t);
  void (*and_3vl)(const int64_t*, const int64_t*, const uint8_t*,
                  const uint8_t*, int64_t*, uint8_t*, size_t);
  void (*or_3vl)(const int64_t*, const int64_t*, const uint8_t*,
                 const uint8_t*, int64_t*, uint8_t*, size_t);
  void (*bool_pass)(const int64_t*, const uint8_t*, uint8_t*, size_t);
  void (*hash_i64)(const int64_t*, const uint8_t*, uint64_t, uint64_t*,
                   size_t);
  void (*hash_combine)(uint64_t*, const uint64_t*, size_t);
};

#define JT_SIMD_OPS(ns, name)                                               \
  {                                                                         \
    name, &ns::OrBytesImpl, &ns::CompareI64ViaDoubleImpl,                   \
        &ns::CompareF64Impl, &ns::CompareI64F64Impl, &ns::CompareF64I64Impl,\
        &ns::CompareI64RawImpl, &ns::ArithI64Impl, &ns::ArithF64Impl,       \
        &ns::I64ToF64Impl, &ns::And3VLImpl, &ns::Or3VLImpl,                 \
        &ns::BoolPassBytesImpl, &ns::HashI64Impl, &ns::HashCombineImpl      \
  }

const Ops kScalarOps = JT_SIMD_OPS(scalar, "scalar");
#if JT_SIMD_HAVE_VEC
const Ops kV128Ops = JT_SIMD_OPS(v128, "vec128");
#if defined(__x86_64__)
const Ops kV256Ops = JT_SIMD_OPS(v256, "avx2");
#endif
#endif
#undef JT_SIMD_OPS

const Ops* PickVectorOps() {
#if JT_SIMD_HAVE_VEC
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return &kV256Ops;
#endif
  return &kV128Ops;
#else
  return &kScalarOps;
#endif
}

const Ops& VecOps() {
  static const Ops* ops = PickVectorOps();
  return *ops;
}

std::atomic<bool> g_enabled{true};

inline const Ops& Active() {
  return g_enabled.load(std::memory_order_relaxed) ? VecOps() : kScalarOps;
}

}  // namespace

const char* ActiveIsa() { return Active().isa; }

void SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

bool CompiledIn() { return JT_SIMD_HAVE_VEC != 0; }

void OrBytes(const uint8_t* a, const uint8_t* b, uint8_t* out, size_t n) {
  Active().or_bytes(a, b, out, n);
}

void CompareI64ViaDouble(BinOp op, const int64_t* a, const int64_t* b,
                         const uint8_t* an, const uint8_t* bn, int64_t* out,
                         uint8_t* onull, size_t n) {
  Active().cmp_i64_dbl(op, a, b, an, bn, out, onull, n);
}

void CompareF64(BinOp op, const double* a, const double* b, const uint8_t* an,
                const uint8_t* bn, int64_t* out, uint8_t* onull, size_t n) {
  Active().cmp_f64(op, a, b, an, bn, out, onull, n);
}

void CompareI64F64(BinOp op, const int64_t* a, const double* b,
                   const uint8_t* an, const uint8_t* bn, int64_t* out,
                   uint8_t* onull, size_t n) {
  Active().cmp_i64_f64(op, a, b, an, bn, out, onull, n);
}

void CompareF64I64(BinOp op, const double* a, const int64_t* b,
                   const uint8_t* an, const uint8_t* bn, int64_t* out,
                   uint8_t* onull, size_t n) {
  Active().cmp_f64_i64(op, a, b, an, bn, out, onull, n);
}

void CompareI64Raw(BinOp op, const int64_t* a, const int64_t* b,
                   const uint8_t* an, const uint8_t* bn, int64_t* out,
                   uint8_t* onull, size_t n) {
  Active().cmp_i64_raw(op, a, b, an, bn, out, onull, n);
}

void ArithI64(BinOp op, const int64_t* a, const int64_t* b, const uint8_t* an,
              const uint8_t* bn, int64_t* out, uint8_t* onull, size_t n) {
  Active().arith_i64(op, a, b, an, bn, out, onull, n);
}

void ArithF64(BinOp op, const double* a, const double* b, const uint8_t* an,
              const uint8_t* bn, double* out, uint8_t* onull, size_t n) {
  Active().arith_f64(op, a, b, an, bn, out, onull, n);
}

void I64ToF64(const int64_t* in, double* out, size_t n) {
  Active().i64_to_f64(in, out, n);
}

void And3VL(const int64_t* a, const int64_t* b, const uint8_t* an,
            const uint8_t* bn, int64_t* out, uint8_t* onull, size_t n) {
  Active().and_3vl(a, b, an, bn, out, onull, n);
}

void Or3VL(const int64_t* a, const int64_t* b, const uint8_t* an,
           const uint8_t* bn, int64_t* out, uint8_t* onull, size_t n) {
  Active().or_3vl(a, b, an, bn, out, onull, n);
}

void BoolPassBytes(const int64_t* vals, const uint8_t* nulls, uint8_t* pass,
                   size_t n) {
  Active().bool_pass(vals, nulls, pass, n);
}

size_t CompactPassIndices(const uint8_t* pass, size_t n, uint16_t* idx) {
  // Word-at-a-time on the 0/1 bytes: a zero word (8 lanes rejected) costs a
  // single load+test, and each survivor is recovered with ctz. Shared by all
  // tiers - the work is control flow, not data parallelism.
  size_t cnt = 0;
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    uint64_t w;
    std::memcpy(&w, pass + k, sizeof w);
    while (w != 0) {
      const int bit = __builtin_ctzll(w);
      idx[cnt++] = static_cast<uint16_t>(k + (bit >> 3));
      w &= w - 1;
    }
  }
  for (; k < n; ++k) {
    if (pass[k]) idx[cnt++] = static_cast<uint16_t>(k);
  }
  return cnt;
}

void HashI64Batch(const int64_t* v, const uint8_t* nulls, uint64_t null_hash,
                  uint64_t* out, size_t n) {
  Active().hash_i64(v, nulls, null_hash, out, n);
}

void HashCombineBatch(uint64_t* acc, const uint64_t* h, size_t n) {
  Active().hash_combine(acc, h, n);
}

}  // namespace jsontiles::exec::simd
