// RFC 8259 tokenizer shared by the DOM parser and the two-pass JSONB
// transformation (§5.3).
//
// The lexer validates syntax (structure, escapes, number grammar) and exposes
// raw lexemes as views into the input so that pass 1 can compute sizes
// without materializing values.

#ifndef JSONTILES_JSON_LEXER_H_
#define JSONTILES_JSON_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace jsontiles::json {

enum class Token : uint8_t {
  kObjectBegin,  // {
  kObjectEnd,    // }
  kArrayBegin,   // [
  kArrayEnd,     // ]
  kColon,
  kComma,
  kString,
  kNumber,
  kTrue,
  kFalse,
  kNull,
  kEnd,
};

class JsonLexer {
 public:
  explicit JsonLexer(std::string_view input) : input_(input) {}

  /// Advance to the next token. On kString, `string_lexeme()` holds the raw
  /// (still escaped) contents between the quotes; on kNumber,
  /// `number_lexeme()` holds the textual number and `number_is_int()` /
  /// `int_value()` / `double_value()` are set.
  Status Next(Token* token);

  std::string_view string_lexeme() const { return string_lexeme_; }
  bool string_has_escape() const { return string_has_escape_; }
  std::string_view number_lexeme() const { return number_lexeme_; }
  bool number_is_int() const { return number_is_int_; }
  int64_t int_value() const { return int_value_; }
  double double_value() const { return double_value_; }

  size_t position() const { return pos_; }
  void Reset() { pos_ = 0; }

  /// Decode an escaped JSON string lexeme into `out` (UTF-8). The lexeme must
  /// have been validated by the lexer.
  static void Unescape(std::string_view lexeme, std::string* out);

 private:
  Status LexString();
  Status LexNumber();
  Status Error(const std::string& message) const;

  std::string_view input_;
  size_t pos_ = 0;

  std::string_view string_lexeme_;
  bool string_has_escape_ = false;
  std::string_view number_lexeme_;
  bool number_is_int_ = false;
  int64_t int_value_ = 0;
  double double_value_ = 0;
};

}  // namespace jsontiles::json

#endif  // JSONTILES_JSON_LEXER_H_
