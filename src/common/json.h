#ifndef CROWDFUSION_COMMON_JSON_H_
#define CROWDFUSION_COMMON_JSON_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace crowdfusion::common {

/// A minimal JSON document model for the service boundary: requests,
/// responses, and bench baselines all (de)serialize through it, so the
/// repo needs no third-party JSON dependency.
///
/// Design constraints, in order:
///  * Lossless round-trips for doubles and for 64-bit integers up to the
///    full int64 range (kept in a dedicated integer alternative, not
///    squeezed through a double). Doubles are emitted exactly as printf's
///    "%.17g" spells them, produced by std::to_chars (AppendDouble17g);
///    an integral double gains ".0" so it reparses as a double, NaN is
///    emitted as null and +-infinity as +-1e999.
///  * Deterministic output: object members keep insertion order, so a
///    parse -> dump cycle reproduces the input byte-for-byte (modulo
///    whitespace), which the request-fuzz round-trip tests rely on.
///  * Strict RFC 8259 input. Whitespace is space, tab, LF and CR only.
///    Strings may not hold raw control bytes (< 0x20). Numbers follow
///    -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, so "01", ".5",
///    "1." and "1.e5" are rejected. A number without fraction or exponent
///    that fits int64 parses as kInt, every other number as kDouble; a
///    literal too large for a double saturates to +-infinity, and one too
///    small for it reads as zero.
///  * Library error handling: Parse returns a Status instead of throwing;
///    every malformed document is kInvalidArgument.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Insertion-ordered object representation; keys are unique.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : rep_(nullptr) {}
  JsonValue(std::nullptr_t) : rep_(nullptr) {}
  JsonValue(bool value) : rep_(value) {}
  JsonValue(int value) : rep_(static_cast<int64_t>(value)) {}
  JsonValue(int64_t value) : rep_(value) {}
  JsonValue(uint64_t value);
  JsonValue(double value) : rep_(value) {}
  JsonValue(const char* value) : rep_(std::string(value)) {}
  JsonValue(std::string value) : rep_(std::move(value)) {}
  JsonValue(Array value) : rep_(std::move(value)) {}
  JsonValue(Object value) : rep_(std::move(value)) {}

  static JsonValue MakeArray() { return JsonValue(Array{}); }
  static JsonValue MakeObject() { return JsonValue(Object{}); }

  Kind kind() const { return static_cast<Kind>(rep_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  /// True for either numeric alternative.
  bool is_number() const { return is_int() || kind() == Kind::kDouble; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  /// Checked accessors: non-matching kinds return InvalidArgument.
  common::Result<bool> GetBool() const;
  common::Result<int64_t> GetInt() const;
  /// Accepts both numeric alternatives (an integer reads as its double).
  common::Result<double> GetDouble() const;
  common::Result<std::string> GetString() const;

  /// Unchecked views; precondition: matching kind() (aborts otherwise).
  const std::string& string() const { return std::get<std::string>(rep_); }
  const Array& array() const { return std::get<Array>(rep_); }
  Array& array() { return std::get<Array>(rep_); }
  const Object& object() const { return std::get<Object>(rep_); }
  Object& object() { return std::get<Object>(rep_); }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Object member lookup that fails loudly: NotFound names the key.
  common::Result<const JsonValue*> Get(std::string_view key) const;

  /// Sets (or replaces) an object member, keeping insertion order.
  /// Precondition: is_object().
  void Set(std::string key, JsonValue value);

  /// Appends to an array. Precondition: is_array().
  void Append(JsonValue value);

  /// Serializes compactly (indent < 0) or pretty-printed with the given
  /// indent width.
  std::string Dump(int indent = -1) const;

  /// Parses one JSON document; trailing non-whitespace is an error.
  static common::Result<JsonValue> Parse(std::string_view text);

  friend bool operator==(const JsonValue& a, const JsonValue& b) {
    return a.rep_ == b.rep_;
  }

 private:
  void DumpTo(int indent, int depth, std::string* out) const;

  std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array,
               Object>
      rep_;
};

/// Escapes a string for embedding in JSON output (quotes included).
std::string JsonEscape(std::string_view text);

/// Appends JsonEscape(text) to `out` without a temporary string.
void AppendJsonEscaped(std::string_view text, std::string* out);

/// Appends `value` exactly as printf("%.17g") spells it: 17 significant
/// digits, so every finite double round-trips bit for bit. Formatted by
/// std::to_chars, so it needs no locale and no heap beyond `out`.
void AppendDouble17g(double value, std::string* out);

}  // namespace crowdfusion::common

#endif  // CROWDFUSION_COMMON_JSON_H_
