// Explicit SIMD layer under the vectorized expression engine.
//
// The kernels in expr_kernels.cc, vector_batch.cc (IntersectSelection) and
// batched_exprs.cc (HashKeys) call these entry points for *dense* batches
// (lanes 0..n-1 contiguous), and only when UseSimd() holds: calling one
// otherwise is a bug. Every entry point is an AVX2 kernel (simd.cc, compiled
// through __attribute__((target("avx2"))), so no special compile flags are
// needed). Its scalar semantics are the gather loop of the caller, which
// production runs on CPUs without AVX2, on sparse selections and with the
// switch off; both are bit-identical to the tuple-at-a-time interpreter
// (expression.cc). SimdKernelTest and the differential fuzz tests lock this
// in. Off x86-64 UseSimd() is false and the entry points trap.

#ifndef JSONTILES_EXEC_SIMD_H_
#define JSONTILES_EXEC_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "exec/expression.h"

namespace jsontiles::exec::simd {

/// "avx2" when UseSimd() holds, else "scalar" (the callers' gather loops).
const char* ActiveIsa();

/// Runtime kill switch (default on). Off makes UseSimd() false, so every
/// caller runs its scalar gather loop; benches expose it as --no-simd and the
/// differential tests flip it to prove bit-identity. Not thread-safe with
/// concurrent kernel execution - flip it only between queries.
void SetEnabled(bool on);
bool Enabled();

/// Sets the runtime switch for one scope and restores the previous setting
/// when the scope ends (tests and benches that compare the two paths).
class ScopedEnabled {
 public:
  explicit ScopedEnabled(bool on) : prev_(Enabled()) { SetEnabled(on); }
  ~ScopedEnabled() { SetEnabled(prev_); }
  ScopedEnabled(const ScopedEnabled&) = delete;
  ScopedEnabled& operator=(const ScopedEnabled&) = delete;

 private:
  bool prev_;
};

/// Gate of every entry point below: the runtime switch is on and the CPU has
/// AVX2. When false the callers keep their plain scalar gather loops (the
/// baseline the benches compare against).
bool UseSimd();

// ---------------------------------------------------------------------------
// Comparisons into selection bitmaps (kBool vectors: int64 0/1 + null bytes)
// ---------------------------------------------------------------------------
// All comparisons reproduce ApplyCmp(op, x < y ? -1 : x > y ? 1 : 0) exactly,
// including the NaN quirk (NaN compares "equal" to everything because both
// orderings are false). Null bytemaps hold 1 = null: null lanes fold an|bn
// into onull, and their payload is unspecified, like everywhere else in the
// batch engine.

/// Both operands int64, compared through double (interpreter semantics for
/// number comparisons - int vs int also goes through AsDouble).
void CompareI64ViaDouble(BinOp op, const int64_t* a, const int64_t* b,
                         const uint8_t* an, const uint8_t* bn, int64_t* out,
                         uint8_t* onull, size_t n);

/// Both operands double.
void CompareF64(BinOp op, const double* a, const double* b, const uint8_t* an,
                const uint8_t* bn, int64_t* out, uint8_t* onull, size_t n);

/// Mixed int64/double: the int side is converted to double first (exact,
/// round-to-nearest - identical to static_cast<double>).
void CompareI64F64(BinOp op, const int64_t* a, const double* b,
                   const uint8_t* an, const uint8_t* bn, int64_t* out,
                   uint8_t* onull, size_t n);
void CompareF64I64(BinOp op, const double* a, const int64_t* b,
                   const uint8_t* an, const uint8_t* bn, int64_t* out,
                   uint8_t* onull, size_t n);

/// Raw int64 lane comparison (bool / timestamp operands - no double detour).
void CompareI64Raw(BinOp op, const int64_t* a, const int64_t* b,
                   const uint8_t* an, const uint8_t* bn, int64_t* out,
                   uint8_t* onull, size_t n);

// ---------------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------------

/// Int64 +,-,* (two's-complement wraparound). op must be kAdd/kSub/kMul.
void ArithI64(BinOp op, const int64_t* a, const int64_t* b, const uint8_t* an,
              const uint8_t* bn, int64_t* out, uint8_t* onull, size_t n);

/// Double +,-,*,/; division by zero yields null (interpreter semantics).
void ArithF64(BinOp op, const double* a, const double* b, const uint8_t* an,
              const uint8_t* bn, double* out, uint8_t* onull, size_t n);

/// Exact int64 -> double conversion (round-to-nearest, bit-identical to
/// static_cast<double> for the full int64 range). Feeds mixed-type arith.
void I64ToF64(const int64_t* in, double* out, size_t n);

// ---------------------------------------------------------------------------
// Three-valued logic over boolean vectors (null-bytemap folding)
// ---------------------------------------------------------------------------
// Inputs are kBool vectors: payload int64 (any nonzero = true) + null bytes.
// AND: false dominates null; OR: true dominates null - like KernelLogic.

void And3VL(const int64_t* a, const int64_t* b, const uint8_t* an,
            const uint8_t* bn, int64_t* out, uint8_t* onull, size_t n);
void Or3VL(const int64_t* a, const int64_t* b, const uint8_t* an,
           const uint8_t* bn, int64_t* out, uint8_t* onull, size_t n);

// ---------------------------------------------------------------------------
// Selection vectors
// ---------------------------------------------------------------------------

/// pass[k] = 1 when lane k is non-null true (nulls[k] == 0 && vals[k] != 0),
/// else 0 - the predicate-consumption bitmap of IntersectSelection.
void BoolPassBytes(const int64_t* vals, const uint8_t* nulls, uint8_t* pass,
                   size_t n);

/// Compact the set lanes of `pass` into ascending indices; returns the count.
/// (Word-at-a-time scan: zero words of a selective predicate cost one load.)
size_t CompactPassIndices(const uint8_t* pass, size_t n, uint16_t* idx);

// ---------------------------------------------------------------------------
// Batched 64-bit hash mixing (join build / aggregation keys)
// ---------------------------------------------------------------------------

/// out[k] = HashInt(static_cast<uint64_t>(v[k])) - the murmur3 finalizer,
/// bit-identical to Value::Hash() for Int/Bool/Timestamp values. Lanes whose
/// null byte is set get `null_hash` (pass Value::Null().Hash()).
void HashI64Batch(const int64_t* v, const uint8_t* nulls, uint64_t null_hash,
                  uint64_t* out, size_t n);

/// acc[k] = HashCombine(acc[k], h[k]) - the boost-style combine used by
/// multi-column join/group keys.
void HashCombineBatch(uint64_t* acc, const uint64_t* h, size_t n);

}  // namespace jsontiles::exec::simd

#endif  // JSONTILES_EXEC_SIMD_H_
