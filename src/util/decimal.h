// SQL Numeric: fixed-point decimal used for numeric-string detection in the
// binary JSON format (paper §5.2).
//
// Strings such as "19.99" (monetary values) are detected at JSONB build time
// and stored typed. Round-trip safety holds because sign, digits, and scale
// reconstruct the exact original text; strings that are not in canonical
// decimal form (leading zeros, exponents, etc.) stay plain strings.

#ifndef JSONTILES_UTIL_DECIMAL_H_
#define JSONTILES_UTIL_DECIMAL_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace jsontiles {

/// A decimal value `unscaled * 10^-scale` with up to 18 significant digits.
struct Numeric {
  /// Largest scale a parsed numeric can carry (at most 18 digits).
  static constexpr uint8_t kMaxScale = 18;

  int64_t unscaled = 0;
  uint8_t scale = 0;

  double ToDouble() const;
  int64_t ToInt64() const;  // truncates toward zero

  /// Exact textual form ("-12.50" keeps its trailing zero via scale).
  std::string ToString() const;

  friend bool operator==(const Numeric&, const Numeric&) = default;
};

/// Parse a canonical decimal: `-?(0|[1-9][0-9]*)(\.[0-9]+)?` with at most 18
/// total digits. Returns false for anything else (exponents, leading '+',
/// leading zeros, lone '.', empty). Canonical-only parsing is what makes the
/// numeric-string representation round-trip safe.
bool ParseNumeric(std::string_view s, Numeric* out);

/// True when `s` would be detected as a numeric string (§5.2).
inline bool LooksLikeNumeric(std::string_view s) {
  Numeric n;
  return ParseNumeric(s, &n);
}

}  // namespace jsontiles

#endif  // JSONTILES_UTIL_DECIMAL_H_
