// Runtime scalar values of the query engine.
//
// Values are small (16 bytes, no heap allocation of their own): strings are
// views into relation storage or into a per-query arena for derived strings,
// which keeps intermediate rows cheap to copy and hash.

#ifndef JSONTILES_EXEC_VALUE_H_
#define JSONTILES_EXEC_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/date.h"
#include "util/decimal.h"
#include "util/hash.h"
#include "util/logging.h"

namespace jsontiles::exec {

enum class ValueType : uint8_t {
  kNull = 0,
  kBool,
  kInt,        // SQL BigInt
  kFloat,      // SQL Float (double)
  kString,     // SQL Text
  kTimestamp,  // SQL Timestamp
  kNumeric,    // SQL Numeric
};

const char* ValueTypeName(ValueType type);

/// The longest string a Value can hold: its length is a 32-bit field. Every
/// input that can reach a string Value is bounded below this (the parsers,
/// the JTRL reader, the wire frame cap, the JSONB transform and `->>` of a
/// container; DESIGN.md §7).
inline constexpr size_t kMaxStringBytes = 0xFFFFFFFFu;

/// 16 bytes: the type tag, the numeric scale, a string length in what used to
/// be padding, and one 8-byte payload that is the integer, the double or the
/// string's first byte.
struct Value {
  ValueType type = ValueType::kNull;
  uint8_t scale = 0;     // numeric scale
  uint32_t str_len = 0;  // string length; read strings through s()
  union {
    int64_t i;
    double d;
    const char* str_ptr;  // string bytes; read strings through s()
  };

  Value() : i(0) {}

  /// The string payload (empty unless set_s wrote one).
  std::string_view s() const { return {str_ptr, str_len}; }
  void set_s(std::string_view v) {
    JSONTILES_DCHECK(v.size() <= kMaxStringBytes);
    str_ptr = v.data();
    str_len = static_cast<uint32_t>(v.size());
  }

  static Value Null() { return Value(); }
  static Value Bool(bool v) {
    Value x;
    x.type = ValueType::kBool;
    x.i = v ? 1 : 0;
    return x;
  }
  static Value Int(int64_t v) {
    Value x;
    x.type = ValueType::kInt;
    x.i = v;
    return x;
  }
  static Value Float(double v) {
    Value x;
    x.type = ValueType::kFloat;
    x.d = v;
    return x;
  }
  static Value String(std::string_view v) {
    Value x;
    x.type = ValueType::kString;
    x.set_s(v);
    return x;
  }
  static Value Ts(Timestamp v) {
    Value x;
    x.type = ValueType::kTimestamp;
    x.i = v;
    return x;
  }
  static Value Num(Numeric v) {
    Value x;
    x.type = ValueType::kNumeric;
    x.i = v.unscaled;
    x.scale = v.scale;
    return x;
  }

  bool is_null() const { return type == ValueType::kNull; }
  bool bool_value() const { return i != 0; }
  int64_t int_value() const { return i; }
  double float_value() const { return d; }
  Timestamp ts_value() const { return i; }
  Numeric numeric_value() const { return Numeric{i, scale}; }
  std::string_view string_value() const { return s(); }

  /// Numeric view of any number-ish value (int/float/numeric/timestamp/bool).
  double AsDouble() const;

  /// Hash for join/group keys (nulls hash to a fixed value; callers decide
  /// null semantics).
  uint64_t Hash() const;

  /// SQL equality (assumes non-null operands; numbers compare numerically
  /// across int/float/numeric).
  bool EqualsForGrouping(const Value& other) const;

  /// Three-way comparison for sorting (null first); -1/0/1.
  int Compare(const Value& other) const;

  /// Debug / output formatting.
  std::string ToString() const;
};

static_assert(sizeof(Value) == 16, "Values are a tag, a length and a payload");

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_VALUE_H_
