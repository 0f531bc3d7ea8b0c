#include "exec/value.h"

#include <bit>
#include <cmath>

#include "json/dom.h"
#include "util/logging.h"

namespace jsontiles::exec {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull: return "Null";
    case ValueType::kBool: return "Bool";
    case ValueType::kInt: return "BigInt";
    case ValueType::kFloat: return "Float";
    case ValueType::kString: return "Text";
    case ValueType::kTimestamp: return "Timestamp";
    case ValueType::kNumeric: return "Numeric";
  }
  return "?";
}

double Value::AsDouble() const {
  switch (type) {
    case ValueType::kFloat: return d;
    case ValueType::kNumeric: return numeric_value().ToDouble();
    case ValueType::kNull: return 0;
    default: return static_cast<double>(i);
  }
}

uint64_t Value::Hash() const {
  switch (type) {
    case ValueType::kNull: return 0x9E3779B97F4A7C15ULL;
    case ValueType::kString: return HashString(s());
    case ValueType::kFloat: {
      // Hash integral floats like their integer counterparts so grouping by
      // mixed numeric types is consistent with EqualsForGrouping.
      if (d == std::floor(d) && std::abs(d) < 9.2e18) {
        return HashInt(static_cast<uint64_t>(static_cast<int64_t>(d)));
      }
      return HashInt(std::bit_cast<uint64_t>(d));
    }
    case ValueType::kNumeric: {
      Numeric n = numeric_value();
      if (n.scale == 0) return HashInt(static_cast<uint64_t>(n.unscaled));
      // Normalize trailing zeros so 1.50 and 1.5 hash alike.
      int64_t unscaled = n.unscaled;
      int scale_left = n.scale;
      while (scale_left > 0 && unscaled % 10 == 0) {
        unscaled /= 10;
        scale_left--;
      }
      if (scale_left == 0) return HashInt(static_cast<uint64_t>(unscaled));
      return HashCombine(HashInt(static_cast<uint64_t>(unscaled)),
                         HashInt(static_cast<uint64_t>(scale_left)));
    }
    default:
      return HashInt(static_cast<uint64_t>(i));
  }
}

namespace {

// Compare two numbers of possibly different numeric types.
int CompareNumbers(const Value& a, const Value& b) {
  if (a.type == ValueType::kInt && b.type == ValueType::kInt) {
    return a.i < b.i ? -1 : a.i > b.i ? 1 : 0;
  }
  double x = a.AsDouble();
  double y = b.AsDouble();
  return x < y ? -1 : x > y ? 1 : 0;
}

bool IsNumber(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kFloat ||
         t == ValueType::kNumeric;
}

}  // namespace

bool Value::EqualsForGrouping(const Value& other) const {
  if (type == ValueType::kNull || other.type == ValueType::kNull) {
    return type == other.type;  // grouping treats nulls as equal
  }
  if (IsNumber(type) && IsNumber(other.type)) {
    return CompareNumbers(*this, other) == 0;
  }
  if (type != other.type) return false;
  switch (type) {
    case ValueType::kString: return s() == other.s();
    default: return i == other.i;
  }
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  if (IsNumber(type) && IsNumber(other.type)) return CompareNumbers(*this, other);
  switch (type) {
    case ValueType::kString: {
      int c = s().compare(other.s());
      return c < 0 ? -1 : c > 0 ? 1 : 0;
    }
    default:
      return i < other.i ? -1 : i > other.i ? 1 : 0;
  }
}

std::string Value::ToString() const {
  switch (type) {
    case ValueType::kNull: return "null";
    case ValueType::kBool: return i ? "true" : "false";
    case ValueType::kInt: return std::to_string(i);
    case ValueType::kFloat: {
      std::string out;
      json::FormatDouble(d, &out);
      return out;
    }
    case ValueType::kString: return std::string(s());
    case ValueType::kTimestamp: return FormatTimestamp(i);
    case ValueType::kNumeric: return numeric_value().ToString();
  }
  return "?";
}

}  // namespace jsontiles::exec
