#include "service/json.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>

namespace cnti::service {

namespace {

[[noreturn]] void fail(std::size_t at, const std::string& what) {
  throw ProtocolError("json parse error at byte " + std::to_string(at) +
                      ": " + what);
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail(pos_, "nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail(pos_, "invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail(pos_, "invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail(pos_, "invalid literal");
      default:
        return JsonValue(parse_number());
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    while (true) {
      skip_ws();
      const std::size_t key_at = pos_;
      std::string key = parse_string();
      skip_ws();
      expect(':');
      JsonValue value = parse_value(depth + 1);
      if (!obj.emplace(std::move(key), std::move(value)).second) {
        fail(key_at, "duplicate object key");
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(obj));
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(arr));
    }
  }

  unsigned parse_hex4() {
    if (text_.size() - pos_ < 4) fail(pos_, "truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail(pos_, "invalid \\u escape");
    }
    pos_ += 4;
    return value;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xf0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(pos_, "raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;  // consume the backslash
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: require the paired low surrogate.
            if (!consume_literal("\\u")) fail(pos_, "unpaired surrogate");
            const unsigned lo = parse_hex4();
            if (lo < 0xdc00 || lo > 0xdfff) fail(pos_, "unpaired surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail(pos_, "unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail(pos_ - 1, "invalid escape");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail(start, "expected a value");
    // strtod needs a terminated buffer; the token is tiny, copy it.
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail(start, "malformed number");
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void type_fail(const char* want) {
  throw ProtocolError(std::string("json type mismatch: expected ") + want);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) type_fail("bool");
  return std::get<bool>(v_);
}

double JsonValue::as_number() const {
  if (!is_number()) type_fail("number");
  return std::get<double>(v_);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) type_fail("string");
  return std::get<std::string>(v_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) type_fail("array");
  return std::get<Array>(v_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) type_fail("object");
  return std::get<Object>(v_);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto& obj = std::get<Object>(v_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw ProtocolError("missing json object member \"" + key + "\"");
  }
  return *v;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

void check_members(const JsonValue& v, const char* where,
                   std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : v.as_object()) {
    if (std::none_of(allowed.begin(), allowed.end(),
                     [&](const char* a) { return key == a; })) {
      throw ProtocolError(std::string("unknown member \"") + key + "\" in " +
                          where);
    }
  }
}

}  // namespace cnti::service
