#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>

#include "common/string_util.h"

namespace crowdfusion::common {

using common::Status;

JsonValue::JsonValue(uint64_t value) {
  if (value <= static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    rep_ = static_cast<int64_t>(value);
  } else {
    // Values past int64 range would be lossy as doubles too; the schemas in
    // this repo carry uint64 masks as strings for exactly this reason.
    rep_ = static_cast<double>(value);
  }
}

common::Result<bool> JsonValue::GetBool() const {
  if (const bool* b = std::get_if<bool>(&rep_)) return *b;
  return Status::InvalidArgument("JSON value is not a bool");
}

common::Result<int64_t> JsonValue::GetInt() const {
  if (const int64_t* i = std::get_if<int64_t>(&rep_)) return *i;
  return Status::InvalidArgument("JSON value is not an integer");
}

common::Result<double> JsonValue::GetDouble() const {
  if (const double* d = std::get_if<double>(&rep_)) return *d;
  if (const int64_t* i = std::get_if<int64_t>(&rep_)) {
    return static_cast<double>(*i);
  }
  return Status::InvalidArgument("JSON value is not a number");
}

common::Result<std::string> JsonValue::GetString() const {
  if (const std::string* s = std::get_if<std::string>(&rep_)) return *s;
  return Status::InvalidArgument("JSON value is not a string");
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  const Object* object = std::get_if<Object>(&rep_);
  if (object == nullptr) return nullptr;
  for (const auto& [name, value] : *object) {
    if (name == key) return &value;
  }
  return nullptr;
}

common::Result<const JsonValue*> JsonValue::Get(std::string_view key) const {
  const JsonValue* value = Find(key);
  if (value == nullptr) {
    return Status::NotFound("missing JSON member \"" + std::string(key) +
                            "\"");
  }
  return value;
}

void JsonValue::Set(std::string key, JsonValue value) {
  Object& members = object();
  for (auto& [name, existing] : members) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  members.emplace_back(std::move(key), std::move(value));
}

void JsonValue::Append(JsonValue value) { array().push_back(std::move(value)); }

void AppendJsonEscaped(std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  size_t run = 0;  // start of the pending run of bytes that need no escape
  for (size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:  // the other control bytes, as \u00xx
        out->append("\\u00");
        out->push_back(kHex[c >> 4]);
        out->push_back(kHex[c & 0xF]);
    }
  }
  out->append(text.data() + run, text.size() - run);
  out->push_back('"');
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  AppendJsonEscaped(text, &out);
  return out;
}

void AppendDouble17g(double value, std::string* out) {
  // The longest %.17g spelling is 24 bytes ("-1.2345678901234567e-308").
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::general, 17);
  out->append(buffer, result.ptr);
}

void JsonValue::DumpTo(int indent, int depth, std::string* out) const {
  const bool pretty = indent >= 0;
  // Indentation is appended directly (never materialized as strings):
  // scalars dominate real documents and need none of it.
  const auto pad = [&] {
    out->append(static_cast<size_t>(indent * (depth + 1)), ' ');
  };
  const auto close_pad = [&] {
    out->append(static_cast<size_t>(indent * depth), ' ');
  };
  switch (kind()) {
    case Kind::kNull:
      out->append("null");
      return;
    case Kind::kBool:
      out->append(std::get<bool>(rep_) ? "true" : "false");
      return;
    case Kind::kInt: {
      char buffer[24];  // int64 min is 20 bytes
      const auto result = std::to_chars(buffer, buffer + sizeof(buffer),
                                        std::get<int64_t>(rep_));
      out->append(buffer, result.ptr);
      return;
    }
    case Kind::kDouble: {
      const double d = std::get<double>(rep_);
      if (std::isnan(d)) {
        out->append("null");  // JSON has no NaN; null is the stand-in.
      } else if (std::isinf(d)) {
        out->append(d > 0 ? "1e999" : "-1e999");  // parses back to +-inf
      } else {
        // Integral doubles get an explicit ".0" so they reparse as
        // kDouble, not kInt — Parse(Dump(x)) == x holds for the kind too.
        const size_t start = out->size();
        AppendDouble17g(d, out);
        if (out->find_first_of(".e", start) == std::string::npos) {
          out->append(".0");
        }
      }
      return;
    }
    case Kind::kString:
      AppendJsonEscaped(string(), out);
      return;
    case Kind::kArray: {
      const auto& items = array();
      if (items.empty()) {
        out->append("[]");
        return;
      }
      out->push_back('[');
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out->push_back(',');
        if (pretty) {
          out->push_back('\n');
          pad();
        }
        items[i].DumpTo(indent, depth + 1, out);
      }
      if (pretty) {
        out->push_back('\n');
        close_pad();
      }
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      const auto& members = object();
      if (members.empty()) {
        out->append("{}");
        return;
      }
      out->push_back('{');
      for (size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out->push_back(',');
        if (pretty) {
          out->push_back('\n');
          pad();
        }
        AppendJsonEscaped(members[i].first, out);
        out->push_back(':');
        if (pretty) out->push_back(' ');
        members[i].second.DumpTo(indent, depth + 1, out);
      }
      if (pretty) {
        out->push_back('\n');
        close_pad();
      }
      out->push_back('}');
      return;
    }
  }
}

namespace {

/// RFC 8259 byte classes. std::isspace would also admit \v and \f, and
/// both <cctype> calls go through the locale.
bool IsJsonWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Recursive-descent parser over a string_view with a hard depth cap (the
/// fuzz seeds include pathological nesting). Container elements are
/// parsed onto one shared stack and moved into an exactly-sized vector
/// when the container closes, so a container costs one allocation however
/// many elements it has.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  common::Result<JsonValue> ParseDocument() {
    JsonValue value;
    if (ParseValue(0, &value)) {
      SkipWhitespace();
      if (pos_ == text_.size()) return value;
      Fail("trailing characters after JSON document");
    }
    return std::move(error_);
  }

 private:
  static constexpr int kMaxDepth = 64;

  // The Parse* members fill *out and return true, or record the error in
  // error_ (via Fail) and return false: no Result is built per value.
  bool ParseValue(int depth, JsonValue* out) {
    if (depth > kMaxDepth) return Fail("JSON nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of JSON input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string text;
        if (!ParseString(&text)) return false;
        *out = JsonValue(std::move(text));
        return true;
      }
      case 't':
        return Expect("true", JsonValue(true), out);
      case 'f':
        return Expect("false", JsonValue(false), out);
      case 'n':
        return Expect("null", JsonValue(nullptr), out);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(int depth, JsonValue* out) {
    ++pos_;  // consume '{'
    const size_t base = members_.size();
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      *out = JsonValue::MakeObject();
      return true;
    }
    for (;;) {
      SkipWhitespace();
      if (Peek() != '"') return Fail("expected object key string");
      std::string key;
      if (!ParseString(&key)) return false;
      for (size_t i = base; i < members_.size(); ++i) {
        if (members_[i].first == key) {
          return Fail("duplicate object key \"" + key + "\"");
        }
      }
      SkipWhitespace();
      if (Peek() != ':') return Fail("expected ':' after object key");
      ++pos_;
      JsonValue value;
      if (!ParseValue(depth + 1, &value)) return false;
      members_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        *out = JsonValue(Pop(members_, base));
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(int depth, JsonValue* out) {
    ++pos_;  // consume '['
    const size_t base = items_.size();
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      *out = JsonValue::MakeArray();
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!ParseValue(depth + 1, &value)) return false;
      items_.push_back(std::move(value));
      SkipWhitespace();
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        *out = JsonValue(Pop(items_, base));
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  /// Moves stack[base, end) into a new vector and shrinks the stack back.
  template <typename T>
  static std::vector<T> Pop(std::vector<T>& stack, size_t base) {
    const auto first = stack.begin() + static_cast<ptrdiff_t>(base);
    std::vector<T> elements(std::make_move_iterator(first),
                            std::make_move_iterator(stack.end()));
    stack.erase(first, stack.end());
    return elements;
  }

  /// Appends the decoded string body to *out.
  bool ParseString(std::string* out) {
    ++pos_;  // consume '"'
    for (;;) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // (forbidden) raw control byte in one append.
      const size_t run = pos_;
      while (pos_ < text_.size()) {
        const auto c = static_cast<unsigned char>(text_[pos_]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos_;
      }
      out->append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) return Fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c != '\\') return Fail("raw control character in string");
      if (pos_ + 1 >= text_.size()) return Fail("dangling escape");
      const char esc = text_[pos_ + 1];
      pos_ += 2;
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned int>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned int>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned int>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape digit");
            }
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by this repo's emitters; reject them cleanly).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Fail("surrogate \\u escapes are not supported");
          }
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape sequence");
      }
    }
  }

  /// Consumes one or more digits; false (nothing consumed) on none.
  bool ScanDigits() {
    if (!IsDigit(Peek())) return false;
    while (IsDigit(Peek())) ++pos_;
    return true;
  }

  /// Scans the RFC 8259 number grammar
  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and converts it.
  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (Peek() == '0') {
      ++pos_;  // a leading zero stands alone: "01" ends after the "0"
    } else if (!ScanDigits()) {
      return Fail("malformed number");
    }
    bool is_double = false;
    if (Peek() == '.') {
      ++pos_;
      if (!ScanDigits()) return Fail("malformed number");
      is_double = true;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!ScanDigits()) return Fail("malformed number");
      is_double = true;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (!is_double) {
      int64_t integer = 0;
      const auto [ptr, ec] = std::from_chars(first, last, integer);
      if (ec == std::errc()) {
        *out = JsonValue(integer);
        return true;
      }
      // Out-of-range integer literal: fall through to double parsing.
    }
    double number = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, number);
    if (ec == std::errc::result_out_of_range) {
      // from_chars reports out-of-range for BOTH overflow and underflow.
      // strtod distinguishes them: overflow saturates to +-HUGE_VAL (the
      // 1e999 infinity convention), underflow to ~0 — a literal like
      // 1e-999 must parse as zero, not infinity.
      number = std::strtod(std::string(first, last).c_str(), nullptr);
    } else if (ec != std::errc() || ptr != last) {
      return Fail("malformed number");
    }
    *out = JsonValue(number);
    return true;
  }

  bool Expect(std::string_view literal, JsonValue value, JsonValue* out) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Fail("malformed JSON literal");
    }
    pos_ += literal.size();
    *out = std::move(value);
    return true;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && IsJsonWhitespace(text_[pos_])) ++pos_;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  bool Fail(const std::string& message) {
    error_ = Status::InvalidArgument(StrFormat(
        "JSON parse error at offset %zu: %s", pos_, message.c_str()));
    return false;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::vector<JsonValue> items_;
  JsonValue::Object members_;
  Status error_;
};

}  // namespace

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(indent, 0, &out);
  return out;
}

common::Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace crowdfusion::common
