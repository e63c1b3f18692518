// Minimal JSON document model + strict recursive-descent parser for the
// scenario service's JSON-lines wire format. Scope is deliberately small:
// whatever common/json_sink.hpp and scenario/report.cpp can emit must
// parse back exactly (17-significant-digit numbers round-trip doubles
// bit-identically via strtod), plus the usual escapes. Errors throw
// ProtocolError with a byte offset; a depth limit keeps an adversarial
// client from overflowing the server's stack.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/error.hpp"

namespace cnti::service {

/// Malformed wire input: bad JSON, or JSON whose shape violates the
/// protocol schema (missing/unknown/mistyped members).
class ProtocolError : public ParseError {
 public:
  using ParseError::ParseError;
};

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : v_(nullptr) {}
  JsonValue(std::nullptr_t) : v_(nullptr) {}                   // NOLINT
  JsonValue(bool b) : v_(b) {}                                 // NOLINT
  JsonValue(double d) : v_(d) {}                               // NOLINT
  JsonValue(std::string s) : v_(std::move(s)) {}               // NOLINT
  JsonValue(Array a) : v_(std::move(a)) {}                     // NOLINT
  JsonValue(Object o) : v_(std::move(o)) {}                    // NOLINT

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_number() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  // Checked accessors; throw ProtocolError on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;
  /// Object member lookup; throws ProtocolError when absent.
  const JsonValue& at(const std::string& key) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

/// Parses exactly one JSON document; trailing non-whitespace is an error.
JsonValue parse_json(std::string_view text);

/// Strict schema: throws ProtocolError naming `where` when the object `v`
/// has a member outside `allowed`.
void check_members(const JsonValue& v, const char* where,
                   std::initializer_list<const char*> allowed);

}  // namespace cnti::service
