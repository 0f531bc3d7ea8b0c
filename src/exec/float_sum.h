// Exact order-independent floating-point summation (Shewchuk's growing
// partials, with the same final rounding as CPython's math.fsum).
//
// SUM/AVG accumulate rows in whatever order the scan's chunk merge and the
// aggregation's partial merge deliver them. Unsharded, sharded, spilled and
// multi-threaded plans all deliver different orders — plain `double +=`
// rounds differently for each, breaking the bit-identity guarantee
// (DESIGN.md §10). The partials hold the *exact* running sum, so the final
// correctly-rounded double depends only on the multiset of inputs.
//
// Non-finite inputs accumulate in a separate commutative bucket (inf + -inf
// = NaN in any order). One caveat: when the exact sum of finite inputs
// transiently exceeds the double range, the overflow point — and thus the
// result — is order-dependent; plain summation has the same flaw, and no
// finite-state scheme avoids it.
//
// The partials live in a small inline buffer and move to the heap only when
// more than kInlinePartials are live at once, so a group table's accumulators
// allocate nothing per group for ordinary data (DESIGN.md §8, "Flat group
// table"). Where the partials live does not change the arithmetic.

#ifndef JSONTILES_EXEC_FLOAT_SUM_H_
#define JSONTILES_EXEC_FLOAT_SUM_H_

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

namespace jsontiles::exec {

class ExactFloatSum {
 public:
  /// Partials held without heap memory; one more moves them all to the heap
  /// for the rest of the summer's life.
  static constexpr size_t kInlinePartials = 4;

  void Add(double x) {
    if (!std::isfinite(x)) {
      special_ += x;
      has_special_ = true;
      return;
    }
    // Fold x through the partials, keeping each round-off error exactly:
    // afterwards the partials are non-overlapping and sum to the old value
    // plus x, with partials[i] strictly smaller in magnitude than
    // partials[i+1]'s ulp.
    double* partials = data();
    const size_t n = size();
    size_t kept = 0;
    for (size_t j = 0; j < n; j++) {
      double y = partials[j];
      if (std::abs(x) < std::abs(y)) std::swap(x, y);
      double hi = x + y;
      double lo = y - (hi - x);
      if (lo != 0.0) partials[kept++] = lo;
      x = hi;
    }
    Truncate(kept);
    if (x != 0.0) {
      if (!std::isfinite(x)) {
        // The exact sum left the double range; degrade to the sticky bucket
        // (see the header comment for the order-dependence caveat).
        special_ += x;
        has_special_ = true;
        Truncate(0);
      } else {
        Push(x);
      }
    }
  }

  void Merge(const ExactFloatSum& other) {
    if (other.has_special_) {
      special_ += other.special_;
      has_special_ = true;
    }
    for (double p : other.partials()) Add(p);
  }

  /// The correctly-rounded value of the exact sum (math.fsum rounding: the
  /// top partial, adjusted by half an ulp when the tail says the rounding
  /// went the wrong way).
  double Round() const {
    if (has_special_) return special_;
    const double* partials = data();
    size_t n = size();
    if (n == 0) return 0.0;
    double hi = partials[--n];
    double lo = 0.0;
    while (n > 0) {
      double x = hi;
      double y = partials[--n];
      hi = x + y;
      lo = y - (hi - x);
      if (lo != 0.0) break;
    }
    if (n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) ||
                  (lo > 0.0 && partials[n - 1] > 0.0))) {
      double y = lo * 2.0;
      double x = hi + y;
      if (y == x - hi) hi = x;
    }
    return hi;
  }

  bool empty() const { return size() == 0 && !has_special_; }

  /// True once the partials outgrew the inline buffer.
  bool on_heap() const { return on_heap_; }

  /// Wire access (exec/agg_state.h serializes accumulators for the
  /// distributed partial-aggregate push-down): the exact internal state, so a
  /// restored sum merges bit-identically to the original.
  std::span<const double> partials() const { return {data(), size()}; }
  double special() const { return special_; }
  bool has_special() const { return has_special_; }

  /// Rebuild from serialized state. The partials are installed verbatim (not
  /// re-folded): Merge/Add re-establish the non-overlapping invariant
  /// incrementally, and Round only needs the multiset to be exact.
  static ExactFloatSum Restore(std::span<const double> partials,
                               double special, bool has_special) {
    ExactFloatSum s;
    for (double p : partials) s.Push(p);
    s.special_ = special;
    s.has_special_ = has_special;
    return s;
  }

 private:
  double* data() { return on_heap_ ? heap_.data() : inline_; }
  const double* data() const { return on_heap_ ? heap_.data() : inline_; }
  size_t size() const { return on_heap_ ? heap_.size() : num_inline_; }

  void Truncate(size_t n) {
    if (on_heap_) {
      heap_.resize(n);
    } else {
      num_inline_ = static_cast<uint8_t>(n);
    }
  }

  void Push(double x) {
    if (on_heap_) {
      heap_.push_back(x);
    } else if (num_inline_ < kInlinePartials) {
      inline_[num_inline_++] = x;
    } else {
      heap_.reserve(2 * kInlinePartials);
      heap_.assign(inline_, inline_ + num_inline_);
      heap_.push_back(x);
      on_heap_ = true;
    }
  }

  double inline_[kInlinePartials] = {};
  std::vector<double> heap_;  // the partials once on_heap_
  double special_ = 0.0;      // sum of non-finite inputs (commutative)
  uint8_t num_inline_ = 0;
  bool on_heap_ = false;
  bool has_special_ = false;
};

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_FLOAT_SUM_H_
