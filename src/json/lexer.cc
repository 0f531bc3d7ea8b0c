#include "json/lexer.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace jsontiles::json {

namespace {

bool IsWhitespace(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Append a Unicode code point as UTF-8.
void AppendUtf8(std::string* out, uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

// Decode a validated \uXXXX (possibly a surrogate pair); advances *i past the
// escape (which starts at lexeme[*i] == 'u'). Returns the code point.
uint32_t DecodeUnicodeEscape(std::string_view lexeme, size_t* i) {
  uint32_t cp = 0;
  for (int k = 1; k <= 4; k++) {
    cp = cp * 16 + static_cast<uint32_t>(HexValue(lexeme[*i + static_cast<size_t>(k)]));
  }
  *i += 5;
  if (cp >= 0xD800 && cp <= 0xDBFF && *i + 6 <= lexeme.size() &&
      lexeme[*i] == '\\' && lexeme[*i + 1] == 'u') {
    uint32_t low = 0;
    for (int k = 2; k <= 5; k++) {
      low = low * 16 +
            static_cast<uint32_t>(HexValue(lexeme[*i + static_cast<size_t>(k)]));
    }
    if (low >= 0xDC00 && low <= 0xDFFF) {
      *i += 6;
      return 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
  }
  return cp;
}

}  // namespace

Status JsonLexer::Error(const std::string& message) const {
  return Status::ParseError(message + " at offset " + std::to_string(pos_));
}

Status JsonLexer::Next(Token* token) {
  while (pos_ < input_.size() && IsWhitespace(input_[pos_])) pos_++;
  if (pos_ >= input_.size()) {
    *token = Token::kEnd;
    return Status::OK();
  }
  char c = input_[pos_];
  switch (c) {
    case '{': pos_++; *token = Token::kObjectBegin; return Status::OK();
    case '}': pos_++; *token = Token::kObjectEnd; return Status::OK();
    case '[': pos_++; *token = Token::kArrayBegin; return Status::OK();
    case ']': pos_++; *token = Token::kArrayEnd; return Status::OK();
    case ':': pos_++; *token = Token::kColon; return Status::OK();
    case ',': pos_++; *token = Token::kComma; return Status::OK();
    case '"': *token = Token::kString; return LexString();
    case 't':
      if (input_.substr(pos_, 4) != "true") return Error("invalid literal");
      pos_ += 4;
      *token = Token::kTrue;
      return Status::OK();
    case 'f':
      if (input_.substr(pos_, 5) != "false") return Error("invalid literal");
      pos_ += 5;
      *token = Token::kFalse;
      return Status::OK();
    case 'n':
      if (input_.substr(pos_, 4) != "null") return Error("invalid literal");
      pos_ += 4;
      *token = Token::kNull;
      return Status::OK();
    default:
      if (c == '-' || IsDigit(c)) {
        *token = Token::kNumber;
        return LexNumber();
      }
      return Error("unexpected character");
  }
}

Status JsonLexer::LexString() {
  size_t begin = ++pos_;  // skip opening quote
  string_has_escape_ = false;
  while (pos_ < input_.size()) {
    unsigned char c = static_cast<unsigned char>(input_[pos_]);
    if (c == '"') {
      string_lexeme_ = input_.substr(begin, pos_ - begin);
      pos_++;
      return Status::OK();
    }
    if (c == '\\') {
      string_has_escape_ = true;
      pos_++;
      if (pos_ >= input_.size()) return Error("unterminated escape");
      char e = input_[pos_];
      switch (e) {
        case '"': case '\\': case '/': case 'b': case 'f':
        case 'n': case 'r': case 't':
          pos_++;
          break;
        case 'u': {
          if (pos_ + 4 >= input_.size()) return Error("truncated \\u escape");
          for (int k = 1; k <= 4; k++) {
            if (HexValue(input_[pos_ + static_cast<size_t>(k)]) < 0) {
              return Error("invalid \\u escape");
            }
          }
          pos_ += 5;
          break;
        }
        default:
          return Error("invalid escape character");
      }
    } else if (c < 0x20) {
      return Error("unescaped control character in string");
    } else {
      pos_++;
    }
  }
  return Error("unterminated string");
}

Status JsonLexer::LexNumber() {
  size_t begin = pos_;
  if (input_[pos_] == '-') pos_++;
  if (pos_ >= input_.size() || !IsDigit(input_[pos_])) return Error("invalid number");
  if (input_[pos_] == '0') {
    pos_++;
  } else {
    while (pos_ < input_.size() && IsDigit(input_[pos_])) pos_++;
  }
  bool is_int = true;
  if (pos_ < input_.size() && input_[pos_] == '.') {
    is_int = false;
    pos_++;
    if (pos_ >= input_.size() || !IsDigit(input_[pos_])) {
      return Error("digits required after decimal point");
    }
    while (pos_ < input_.size() && IsDigit(input_[pos_])) pos_++;
  }
  if (pos_ < input_.size() && (input_[pos_] == 'e' || input_[pos_] == 'E')) {
    is_int = false;
    pos_++;
    if (pos_ < input_.size() && (input_[pos_] == '+' || input_[pos_] == '-')) pos_++;
    if (pos_ >= input_.size() || !IsDigit(input_[pos_])) {
      return Error("digits required in exponent");
    }
    while (pos_ < input_.size() && IsDigit(input_[pos_])) pos_++;
  }
  number_lexeme_ = input_.substr(begin, pos_ - begin);
  if (is_int) {
    // May still overflow int64; fall back to double in that case.
    int64_t v = 0;
    auto [ptr, ec] = std::from_chars(number_lexeme_.data(),
                                     number_lexeme_.data() + number_lexeme_.size(), v);
    if (ec == std::errc() && ptr == number_lexeme_.data() + number_lexeme_.size()) {
      number_is_int_ = true;
      int_value_ = v;
      double_value_ = static_cast<double>(v);
      return Status::OK();
    }
  }
  number_is_int_ = false;
  // std::from_chars for double is available in libstdc++ >= 11.
  double d = 0;
  auto [ptr, ec] = std::from_chars(number_lexeme_.data(),
                                   number_lexeme_.data() + number_lexeme_.size(), d);
  if (ec == std::errc::result_out_of_range) {
    d = number_lexeme_[0] == '-' ? -HUGE_VAL : HUGE_VAL;
  } else if (ec != std::errc() ||
             ptr != number_lexeme_.data() + number_lexeme_.size()) {
    return Error("unparsable number");
  }
  double_value_ = d;
  return Status::OK();
}

void JsonLexer::Unescape(std::string_view lexeme, std::string* out) {
  out->clear();
  out->reserve(lexeme.size());
  size_t i = 0;
  while (i < lexeme.size()) {
    char c = lexeme[i];
    if (c != '\\') {
      out->push_back(c);
      i++;
      continue;
    }
    char e = lexeme[i + 1];
    switch (e) {
      case '"': out->push_back('"'); i += 2; break;
      case '\\': out->push_back('\\'); i += 2; break;
      case '/': out->push_back('/'); i += 2; break;
      case 'b': out->push_back('\b'); i += 2; break;
      case 'f': out->push_back('\f'); i += 2; break;
      case 'n': out->push_back('\n'); i += 2; break;
      case 'r': out->push_back('\r'); i += 2; break;
      case 't': out->push_back('\t'); i += 2; break;
      case 'u': {
        i++;  // now at 'u'
        uint32_t cp = DecodeUnicodeEscape(lexeme, &i);
        AppendUtf8(out, cp);
        break;
      }
      default: out->push_back(e); i += 2; break;
    }
  }
}

}  // namespace jsontiles::json
