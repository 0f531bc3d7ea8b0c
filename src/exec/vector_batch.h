// Batch representation of the vectorized expression engine.
//
// A batch is up to kVectorSize rows; each expression input/output is a
// ColumnVector: a fixed-capacity typed vector with a null bitmap. Predicates
// communicate through a SelectionVector — the indices of rows still alive —
// so later conjuncts and kernels only touch surviving rows, and payload
// lanes outside the selection are undefined. The scalar interpreter's Value
// remains the interchange format at batch boundaries (GetValue/SetValue).

#ifndef JSONTILES_EXEC_VECTOR_BATCH_H_
#define JSONTILES_EXEC_VECTOR_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "exec/value.h"
#include "util/logging.h"

namespace jsontiles::exec {

inline constexpr size_t kVectorSize = 1024;

/// Indices of the rows of a batch that are still alive, in ascending order.
struct SelectionVector {
  uint16_t idx[kVectorSize];
  size_t count = 0;

  void SetAll(size_t n) {
    JSONTILES_DCHECK(n <= kVectorSize);
    for (size_t k = 0; k < n; k++) idx[k] = static_cast<uint16_t>(k);
    count = n;
  }
  bool empty() const { return count == 0; }
};

/// One expression input/output across a batch. Only the payload buffer of
/// the active type (plus the null bitmap) is valid; null rows carry
/// unspecified payload. Buffers are allocated once and reused across
/// batches.
class ColumnVector {
 public:
  ValueType type() const { return type_; }

  /// Re-type the vector for a new batch; payload lanes become undefined.
  void Reset(ValueType t) {
    type_ = t;
    null_.resize(kVectorSize);
    switch (t) {
      case ValueType::kNull:
        break;
      case ValueType::kBool:
      case ValueType::kInt:
      case ValueType::kTimestamp:
        i64_.resize(kVectorSize);
        break;
      case ValueType::kFloat:
        f64_.resize(kVectorSize);
        break;
      case ValueType::kString:
        str_.resize(kVectorSize);
        break;
      case ValueType::kNumeric:
        i64_.resize(kVectorSize);
        scale_.resize(kVectorSize);
        break;
    }
  }

  /// Mark every lane of the batch null (used for statically-null results).
  void ResetAllNull(size_t n) {
    Reset(ValueType::kNull);
    std::fill(null_.begin(), null_.begin() + n, uint8_t{1});
  }

  // Raw buffers for the kernels. Valid only for the active type.
  uint8_t* nulls() { return null_.data(); }
  const uint8_t* nulls() const { return null_.data(); }
  int64_t* i64() { return i64_.data(); }
  const int64_t* i64() const { return i64_.data(); }
  double* f64() { return f64_.data(); }
  const double* f64() const { return f64_.data(); }
  std::string_view* str() { return str_.data(); }
  const std::string_view* str() const { return str_.data(); }
  uint8_t* scale() { return scale_.data(); }
  const uint8_t* scale() const { return scale_.data(); }

  bool IsNull(size_t row) const { return null_[row] != 0; }

  /// Read one lane back as a scalar Value (bit-identical to what the
  /// interpreter would produce for the same content).
  Value GetValue(size_t row) const {
    if (null_[row]) return Value::Null();
    switch (type_) {
      case ValueType::kNull: return Value::Null();
      case ValueType::kBool: return Value::Bool(i64_[row] != 0);
      case ValueType::kInt: return Value::Int(i64_[row]);
      case ValueType::kFloat: return Value::Float(f64_[row]);
      case ValueType::kString: return Value::String(str_[row]);
      case ValueType::kTimestamp: return Value::Ts(i64_[row]);
      case ValueType::kNumeric: return Value::Num(Numeric{i64_[row], scale_[row]});
    }
    return Value::Null();
  }

  /// Store a scalar into one lane. `v` must be null or of the vector's type.
  void SetValue(size_t row, const Value& v) {
    if (v.is_null()) {
      null_[row] = 1;
      return;
    }
    JSONTILES_DCHECK(v.type == type_);
    null_[row] = 0;
    switch (type_) {
      case ValueType::kNull:
        null_[row] = 1;  // a typeless vector can only hold nulls
        break;
      case ValueType::kBool:
      case ValueType::kInt:
      case ValueType::kTimestamp:
        i64_[row] = v.i;
        break;
      case ValueType::kFloat:
        f64_[row] = v.d;
        break;
      case ValueType::kString:
        str_[row] = v.s();
        break;
      case ValueType::kNumeric:
        i64_[row] = v.i;
        scale_[row] = v.scale;
        break;
    }
  }

 private:
  ValueType type_ = ValueType::kNull;
  std::vector<uint8_t> null_;  // 1 = null
  std::vector<int64_t> i64_;   // bool / int / timestamp / numeric unscaled
  std::vector<double> f64_;
  std::vector<std::string_view> str_;
  std::vector<uint8_t> scale_;  // numeric scales
};

/// How many lanes ahead in-order hash/compare loops prefetch string bytes.
/// A tile's string values lie in their own documents, one cache line each,
/// so reading a batch's strings in order would otherwise wait on one miss
/// per lane.
inline constexpr size_t kStringPrefetchAhead = 16;

/// Start fetching the bytes of `lane` of `col` when it is a string vector
/// and the lane exists (`lane < n`).
inline void PrefetchStringLane(const ColumnVector* col, size_t lane, size_t n) {
  if (col != nullptr && col->type() == ValueType::kString && lane < n) {
    __builtin_prefetch(col->str()[lane].data());
  }
}

/// Shrink `sel` to the rows where `pred` (a kBool/kNull vector) is true —
/// the AND-conjunct consumption step (null counts as false, like a
/// top-level filter).
void IntersectSelection(const ColumnVector& pred, SelectionVector* sel);

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_VECTOR_BATCH_H_
