#include "util/hyperloglog.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.h"

namespace jsontiles {

namespace {

// dst[i] = max(dst[i], src[i]) in blocks of 16 (2^p registers with p >= 4):
// unaliased, fixed-length and unconditional, so the compiler emits vector
// byte maxima. A relation's statistics merge one sketch per extracted
// column of every tile.
void MaxRegisters(uint8_t* __restrict dst, const uint8_t* __restrict src,
                  size_t n) {
  for (size_t i = 0; i < n; i += 16) {
    for (size_t j = 0; j < 16; j++) {
      dst[i + j] = std::max(dst[i + j], src[i + j]);
    }
  }
}

}  // namespace

HyperLogLog::HyperLogLog(int precision) : precision_(precision) {
  JSONTILES_CHECK(precision >= 4 && precision <= 16);
  registers_.assign(size_t{1} << precision, 0);
}

void HyperLogLog::Add(uint64_t hash) {
  uint64_t index = hash >> (64 - precision_);
  uint64_t rest = hash << precision_;
  // Rank = position of the leftmost 1-bit in the remaining 64 - p bits,
  // 1-based; all-zero bits rank 64 - p + 1 (the bit set below them).
  uint8_t rank = static_cast<uint8_t>(
      std::countl_zero(rest | (uint64_t{1} << (precision_ - 1))) + 1);
  if (rank > registers_[index]) registers_[index] = rank;
}

double HyperLogLog::Estimate() const {
  const size_t m = registers_.size();
  double sum = 0;
  size_t zeros = 0;
  for (uint8_t reg : registers_) {
    sum += std::ldexp(1.0, -reg);
    if (reg == 0) zeros++;
  }
  double alpha;
  switch (precision_) {
    case 4: alpha = 0.673; break;
    case 5: alpha = 0.697; break;
    case 6: alpha = 0.709; break;
    default: alpha = 0.7213 / (1.0 + 1.079 / static_cast<double>(m)); break;
  }
  double estimate = alpha * static_cast<double>(m) * static_cast<double>(m) / sum;
  // Small-range correction: linear counting.
  if (estimate <= 2.5 * static_cast<double>(m) && zeros > 0) {
    estimate = static_cast<double>(m) *
               std::log(static_cast<double>(m) / static_cast<double>(zeros));
  }
  return estimate;
}

void HyperLogLog::Merge(const HyperLogLog& other) {
  JSONTILES_CHECK(precision_ == other.precision_);
  if (&other == this) return;  // MaxRegisters' pointers must not alias
  MaxRegisters(registers_.data(), other.registers_.data(), registers_.size());
}

}  // namespace jsontiles
