// The SIMD layer's one tier (see simd.h): every entry point below is an AVX2
// kernel, and callers reach it only when UseSimd() holds.
//
// The scalar semantics of each kernel live in one place: the gather loops of
// expr_kernels.cc, vector_batch.cc (IntersectSelection) and batched_exprs.cc
// (HashKeys), which production runs on CPUs without AVX2, on sparse
// selections and with the switch off. SimdKernelTest holds every kernel
// bit-identical to them. The kernels are compiled through
// __attribute__((target("avx2"))), so no special compile flags are needed and
// the binary stays runnable on machines without AVX2, which never call them.

#include "exec/simd.h"

#include <atomic>
#include <cstring>

#include "util/bit_util.h"
#include "util/hash.h"

namespace jsontiles::exec::simd {

namespace {

bool CpuHasAvx2() {
#if defined(__x86_64__)
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

std::atomic<bool> g_enabled{true};

}  // namespace

const char* ActiveIsa() { return UseSimd() ? "avx2" : "scalar"; }

void SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

bool UseSimd() { return Enabled() && CpuHasAvx2(); }

// --------------------------------------------------------------------------
// AVX2 kernels: GNU vector extensions over 256-bit registers. The scalar
// tails use the lane rules below, the same ones as the gather loops.
// Loads/stores go through __builtin_memcpy: ColumnVector buffers have no
// vector alignment guarantee and memcpy avoids both the UB and the -Wpsabi
// ABI warnings of passing over-wide vector types around.
// --------------------------------------------------------------------------

#if defined(__x86_64__)

namespace {

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

#define JT_AVX2 __attribute__((target("avx2")))

typedef int64_t VI __attribute__((vector_size(32)));
typedef uint64_t VU __attribute__((vector_size(32)));
typedef double VF __attribute__((vector_size(32)));
typedef uint8_t VB __attribute__((vector_size(32)));
// One byte per 64-bit lane (null bytemap slice matching one VI/VF register).
typedef uint8_t VN __attribute__((vector_size(4)));
// Signed counterpart: byte-vector comparisons yield signed element masks.
typedef int8_t VNS __attribute__((vector_size(4)));

inline constexpr size_t kLanes = 4;

JT_AVX2 static inline VI LoadI(const int64_t* p) {
  VI v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}
JT_AVX2 static inline VU LoadU(const uint64_t* p) {
  VU v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}
JT_AVX2 static inline VF LoadF(const double* p) {
  VF v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}
JT_AVX2 static inline VB LoadB(const uint8_t* p) {
  VB v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}
JT_AVX2 static inline VN LoadN(const uint8_t* p) {
  VN v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}
JT_AVX2 static inline void StoreI(int64_t* p, VI v) {
  __builtin_memcpy(p, &v, sizeof v);
}
JT_AVX2 static inline void StoreU(uint64_t* p, VU v) {
  __builtin_memcpy(p, &v, sizeof v);
}
JT_AVX2 static inline void StoreF(double* p, VF v) {
  __builtin_memcpy(p, &v, sizeof v);
}
JT_AVX2 static inline void StoreB(uint8_t* p, VB v) {
  __builtin_memcpy(p, &v, sizeof v);
}
JT_AVX2 static inline void StoreN(uint8_t* p, VN v) {
  __builtin_memcpy(p, &v, sizeof v);
}

JT_AVX2 static inline VU SplatU(uint64_t x) {
  VU v;
  for (size_t i = 0; i < kLanes; ++i) v[i] = x;
  return v;
}

/// Null bytes (any nonzero = null) widened to a 0/-1 mask per 64-bit lane.
JT_AVX2 static inline VI NullMask(VN nb) {
  return __builtin_convertvector(nb, VI) != 0;
}

/// 0/-1 64-bit lane mask narrowed to 0/1 bytes.
JT_AVX2 static inline VN MaskToBytes(VI m) {
  return __builtin_convertvector(m, VN) & 1;
}

/// ApplyCmp(op, x < y ? -1 : x > y ? 1 : 0) from the lt/gt lane masks alone.
/// Both masks are false on NaN, which makes NaN sort "equal" - exactly the
/// ternary's behaviour.
JT_AVX2 static inline VI CmpCombine(BinOp op, VI lt, VI gt) {
  switch (op) {
    case BinOp::kEq:
      return ~(lt | gt) & 1;
    case BinOp::kNe:
      return (lt | gt) & 1;
    case BinOp::kLt:
      return lt & 1;
    case BinOp::kLe:
      return ~gt & 1;
    case BinOp::kGt:
      return gt & 1;
    default:  // kGe
      return ~lt & 1;
  }
}

/// out[k] = a[k] | b[k]: the null fold of every binary kernel.
JT_AVX2 static void OrNulls(const uint8_t* a, const uint8_t* b, uint8_t* out,
                            size_t n) {
  size_t k = 0;
  for (; k + sizeof(VB) <= n; k += sizeof(VB)) {
    StoreB(out + k, LoadB(a + k) | LoadB(b + k));
  }
  for (; k < n; ++k) out[k] = a[k] | b[k];
}

}  // namespace

JT_AVX2 void CompareF64(BinOp op, const double* a, const double* b,
                        const uint8_t* an, const uint8_t* bn, int64_t* out,
                        uint8_t* onull, size_t n) {
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    VF x = LoadF(a + k), y = LoadF(b + k);
    StoreI(out + k, CmpCombine(op, (VI)(x < y), (VI)(x > y)));
  }
  for (; k < n; ++k) out[k] = CmpScalarF(op, a[k], b[k]);
  OrNulls(an, bn, onull, n);
}

JT_AVX2 void CompareI64ViaDouble(BinOp op, const int64_t* a, const int64_t* b,
                                 const uint8_t* an, const uint8_t* bn,
                                 int64_t* out, uint8_t* onull, size_t n) {
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    VF x = __builtin_convertvector(LoadI(a + k), VF);
    VF y = __builtin_convertvector(LoadI(b + k), VF);
    StoreI(out + k, CmpCombine(op, (VI)(x < y), (VI)(x > y)));
  }
  for (; k < n; ++k) {
    out[k] = CmpScalarF(op, static_cast<double>(a[k]),
                        static_cast<double>(b[k]));
  }
  OrNulls(an, bn, onull, n);
}

JT_AVX2 void CompareI64F64(BinOp op, const int64_t* a, const double* b,
                           const uint8_t* an, const uint8_t* bn, int64_t* out,
                           uint8_t* onull, size_t n) {
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    VF x = __builtin_convertvector(LoadI(a + k), VF);
    VF y = LoadF(b + k);
    StoreI(out + k, CmpCombine(op, (VI)(x < y), (VI)(x > y)));
  }
  for (; k < n; ++k) out[k] = CmpScalarF(op, static_cast<double>(a[k]), b[k]);
  OrNulls(an, bn, onull, n);
}

JT_AVX2 void CompareF64I64(BinOp op, const double* a, const int64_t* b,
                           const uint8_t* an, const uint8_t* bn, int64_t* out,
                           uint8_t* onull, size_t n) {
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    VF x = LoadF(a + k);
    VF y = __builtin_convertvector(LoadI(b + k), VF);
    StoreI(out + k, CmpCombine(op, (VI)(x < y), (VI)(x > y)));
  }
  for (; k < n; ++k) out[k] = CmpScalarF(op, a[k], static_cast<double>(b[k]));
  OrNulls(an, bn, onull, n);
}

JT_AVX2 void CompareI64Raw(BinOp op, const int64_t* a, const int64_t* b,
                           const uint8_t* an, const uint8_t* bn, int64_t* out,
                           uint8_t* onull, size_t n) {
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    VI x = LoadI(a + k), y = LoadI(b + k);
    StoreI(out + k, CmpCombine(op, x < y, x > y));
  }
  for (; k < n; ++k) out[k] = CmpScalarI(op, a[k], b[k]);
  OrNulls(an, bn, onull, n);
}

JT_AVX2 void ArithI64(BinOp op, const int64_t* a, const int64_t* b,
                      const uint8_t* an, const uint8_t* bn, int64_t* out,
                      uint8_t* onull, size_t n) {
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    // Unsigned lanes: overflow wraps (defined) exactly like ArithScalarI.
    VU x = (VU)LoadI(a + k), y = (VU)LoadI(b + k);
    VU r = op == BinOp::kAdd ? x + y : op == BinOp::kSub ? x - y : x * y;
    StoreI(out + k, (VI)r);
  }
  for (; k < n; ++k) out[k] = ArithScalarI(op, a[k], b[k]);
  OrNulls(an, bn, onull, n);
}

JT_AVX2 void ArithF64(BinOp op, const double* a, const double* b,
                      const uint8_t* an, const uint8_t* bn, double* out,
                      uint8_t* onull, size_t n) {
  OrNulls(an, bn, onull, n);
  size_t k = 0;
  if (op == BinOp::kDiv) {
    for (; k + kLanes <= n; k += kLanes) {
      VF x = LoadF(a + k), y = LoadF(b + k);
      // Lanes with y == 0 become null; the inf/nan quotient written to their
      // payload is unspecified-by-contract, like every null lane.
      StoreF(out + k, x / y);
      StoreN(onull + k, LoadN(onull + k) | MaskToBytes((VI)(y == 0.0)));
    }
    for (; k < n; ++k) {
      if (b[k] == 0.0) {
        onull[k] = 1;
      } else {
        out[k] = a[k] / b[k];
      }
    }
    return;
  }
  for (; k + kLanes <= n; k += kLanes) {
    VF x = LoadF(a + k), y = LoadF(b + k);
    VF r = op == BinOp::kAdd ? x + y : op == BinOp::kSub ? x - y : x * y;
    StoreF(out + k, r);
  }
  for (; k < n; ++k) {
    out[k] = op == BinOp::kAdd   ? a[k] + b[k]
             : op == BinOp::kSub ? a[k] - b[k]
                                 : a[k] * b[k];
  }
}

JT_AVX2 void I64ToF64(const int64_t* in, double* out, size_t n) {
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    StoreF(out + k, __builtin_convertvector(LoadI(in + k), VF));
  }
  for (; k < n; ++k) out[k] = static_cast<double>(in[k]);
}

JT_AVX2 void And3VL(const int64_t* a, const int64_t* b, const uint8_t* an,
                    const uint8_t* bn, int64_t* out, uint8_t* onull, size_t n) {
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    VI av = LoadI(a + k), bv = LoadI(b + k);
    VI anm = NullMask(LoadN(an + k)), bnm = NullMask(LoadN(bn + k));
    VI f = ((av == 0) & ~anm) | ((bv == 0) & ~bnm);  // definite false wins
    VI nl = (anm | bnm) & ~f;
    StoreI(out + k, ~(f | nl) & 1);
    StoreN(onull + k, MaskToBytes(nl));
  }
  for (; k < n; ++k) {
    int x = an[k] ? 2 : (a[k] != 0 ? 1 : 0);
    int y = bn[k] ? 2 : (b[k] != 0 ? 1 : 0);
    if (x == 0 || y == 0) {
      out[k] = 0;
      onull[k] = 0;
    } else if (x == 2 || y == 2) {
      onull[k] = 1;
    } else {
      out[k] = 1;
      onull[k] = 0;
    }
  }
}

JT_AVX2 void Or3VL(const int64_t* a, const int64_t* b, const uint8_t* an,
                   const uint8_t* bn, int64_t* out, uint8_t* onull, size_t n) {
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    VI av = LoadI(a + k), bv = LoadI(b + k);
    VI anm = NullMask(LoadN(an + k)), bnm = NullMask(LoadN(bn + k));
    VI t = ((av != 0) & ~anm) | ((bv != 0) & ~bnm);  // definite true wins
    VI nl = (anm | bnm) & ~t;
    StoreI(out + k, t & 1);
    StoreN(onull + k, MaskToBytes(nl));
  }
  for (; k < n; ++k) {
    int x = an[k] ? 2 : (a[k] != 0 ? 1 : 0);
    int y = bn[k] ? 2 : (b[k] != 0 ? 1 : 0);
    if (x == 1 || y == 1) {
      out[k] = 1;
      onull[k] = 0;
    } else if (x == 2 || y == 2) {
      onull[k] = 1;
    } else {
      out[k] = 0;
      onull[k] = 0;
    }
  }
}

JT_AVX2 void BoolPassBytes(const int64_t* vals, const uint8_t* nulls,
                           uint8_t* pass, size_t n) {
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    VN nz = MaskToBytes(LoadI(vals + k) != 0);
    VN notnull = (VN)((VNS)(LoadN(nulls + k) == 0)) & 1;
    StoreN(pass + k, nz & notnull);
  }
  for (; k < n; ++k) {
    pass[k] = static_cast<uint8_t>(nulls[k] == 0 && vals[k] != 0);
  }
}

JT_AVX2 void HashI64Batch(const int64_t* v, const uint8_t* nulls,
                          uint64_t null_hash, uint64_t* out, size_t n) {
  const VU nh = SplatU(null_hash);
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    VU x = (VU)LoadI(v + k);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    VU nm = (VU)NullMask(LoadN(nulls + k));
    StoreU(out + k, (nm & nh) | (~nm & x));
  }
  for (; k < n; ++k) {
    out[k] = nulls[k] ? null_hash : HashInt(static_cast<uint64_t>(v[k]));
  }
}

JT_AVX2 void HashCombineBatch(uint64_t* acc, const uint64_t* h, size_t n) {
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    VU a = LoadU(acc + k), b = LoadU(h + k);
    StoreU(acc + k, a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4)));
  }
  for (; k < n; ++k) acc[k] = HashCombine(acc[k], h[k]);
}

#undef JT_AVX2

#else  // !__x86_64__

// UseSimd() is false off x86-64, so no caller reaches an entry point there.
#define JT_UNREACHABLE_KERNEL(name, ...) \
  void name(__VA_ARGS__) { __builtin_trap(); }

JT_UNREACHABLE_KERNEL(CompareI64ViaDouble, BinOp, const int64_t*,
                      const int64_t*, const uint8_t*, const uint8_t*, int64_t*,
                      uint8_t*, size_t)
JT_UNREACHABLE_KERNEL(CompareF64, BinOp, const double*, const double*,
                      const uint8_t*, const uint8_t*, int64_t*, uint8_t*,
                      size_t)
JT_UNREACHABLE_KERNEL(CompareI64F64, BinOp, const int64_t*, const double*,
                      const uint8_t*, const uint8_t*, int64_t*, uint8_t*,
                      size_t)
JT_UNREACHABLE_KERNEL(CompareF64I64, BinOp, const double*, const int64_t*,
                      const uint8_t*, const uint8_t*, int64_t*, uint8_t*,
                      size_t)
JT_UNREACHABLE_KERNEL(CompareI64Raw, BinOp, const int64_t*, const int64_t*,
                      const uint8_t*, const uint8_t*, int64_t*, uint8_t*,
                      size_t)
JT_UNREACHABLE_KERNEL(ArithI64, BinOp, const int64_t*, const int64_t*,
                      const uint8_t*, const uint8_t*, int64_t*, uint8_t*,
                      size_t)
JT_UNREACHABLE_KERNEL(ArithF64, BinOp, const double*, const double*,
                      const uint8_t*, const uint8_t*, double*, uint8_t*,
                      size_t)
JT_UNREACHABLE_KERNEL(I64ToF64, const int64_t*, double*, size_t)
JT_UNREACHABLE_KERNEL(And3VL, const int64_t*, const int64_t*, const uint8_t*,
                      const uint8_t*, int64_t*, uint8_t*, size_t)
JT_UNREACHABLE_KERNEL(Or3VL, const int64_t*, const int64_t*, const uint8_t*,
                      const uint8_t*, int64_t*, uint8_t*, size_t)
JT_UNREACHABLE_KERNEL(BoolPassBytes, const int64_t*, const uint8_t*, uint8_t*,
                      size_t)
JT_UNREACHABLE_KERNEL(HashI64Batch, const int64_t*, const uint8_t*, uint64_t,
                      uint64_t*, size_t)
JT_UNREACHABLE_KERNEL(HashCombineBatch, uint64_t*, const uint64_t*, size_t)

#undef JT_UNREACHABLE_KERNEL

#endif  // __x86_64__

size_t CompactPassIndices(const uint8_t* pass, size_t n, uint16_t* idx) {
  // Word-at-a-time on the 0/1 bytes: a zero word (8 lanes rejected) costs a
  // single load+test, and each survivor is recovered with ctz. Plain code on
  // every target - the work is control flow, not data parallelism.
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

}  // namespace jsontiles::exec::simd
