#include "polaris/scenario/json.hpp"

#include <cstdio>
#include <cstdlib>

#include "polaris/support/check.hpp"
#include "polaris/support/json_escape.hpp"

namespace polaris::scenario {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json document() {
    Json v = value();
    skip_ws();
    POLARIS_CHECK_MSG(pos_ == text_.size(),
                      "trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    POLARIS_CHECK_MSG(false, std::string("JSON parse error at byte ") +
                                 std::to_string(pos_) + ": " + what);
    std::abort();  // unreachable (CHECK throws)
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // Bounded recursion: a hostile document cannot exhaust the stack.
        if (depth_ == kMaxDepth) fail("nesting deeper than 256 levels");
        ++depth_;
        Json v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"':
        return Json::string(string_body());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json{};
      default:
        return number();
    }
  }

  Json object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = string_body();
      skip_ws();
      expect(':');
      obj.set(std::move(key), value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Json array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (specs are ASCII in practice;
          // surrogate pairs are out of scope and rejected).
          if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape");
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  Json number() {
    // strtod reads up to a NUL, and the view need not have one: hand it a
    // copy of the token, which ends at the first JSON delimiter.
    const std::string token(
        text_.substr(pos_, text_.find_first_of(",:]} \t\n\r\"", pos_) - pos_));
    char* stop = nullptr;
    const double v = std::strtod(token.c_str(), &stop);
    if (stop == token.c_str()) fail("expected a value");
    pos_ += static_cast<std::size_t>(stop - token.c_str());
    return Json::number(v);
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  support::append_json_escaped(out, s);
  out.push_back('"');
}

void dump_value(const Json& v, std::string& out);

void dump_value(const Json& v, std::string& out) {
  switch (v.type()) {
    case Json::Type::kNull:
      out += "null";
      break;
    case Json::Type::kBool:
      out += v.boolean() ? "true" : "false";
      break;
    case Json::Type::kNumber: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v.num());
      out += buf;
      break;
    }
    case Json::Type::kString:
      dump_string(v.str(), out);
      break;
    case Json::Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& e : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        dump_value(e, out);
      }
      out.push_back(']');
      break;
    }
    case Json::Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, val] : v.members()) {
        if (!first) out.push_back(',');
        first = false;
        dump_string(key, out);
        out.push_back(':');
        dump_value(val, out);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).document(); }

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(v);
  return j;
}

Json Json::boolean(bool v) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = v;
  return j;
}

void Json::set(std::string key, Json value) {
  POLARIS_CHECK_MSG(type_ == Type::kObject, "Json::set on a non-object");
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  obj_.emplace_back(std::move(key), std::move(value));
}

void Json::push(Json value) {
  POLARIS_CHECK_MSG(type_ == Type::kArray, "Json::push on a non-array");
  arr_.push_back(std::move(value));
}

double Json::num() const {
  POLARIS_CHECK_MSG(type_ == Type::kNumber, "expected a JSON number");
  return num_;
}

const std::string& Json::str() const {
  POLARIS_CHECK_MSG(type_ == Type::kString, "expected a JSON string");
  return str_;
}

bool Json::boolean() const {
  POLARIS_CHECK_MSG(type_ == Type::kBool, "expected a JSON bool");
  return bool_;
}

const std::vector<Json>& Json::items() const {
  POLARIS_CHECK_MSG(type_ == Type::kArray, "expected a JSON array");
  return arr_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  POLARIS_CHECK_MSG(type_ == Type::kObject, "expected a JSON object");
  return obj_;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  POLARIS_CHECK_MSG(v != nullptr, "missing JSON key: " + std::string(key));
  return *v;
}

double Json::num_or(std::string_view key, double fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_number()) ? v->num_ : fallback;
}

std::string Json::str_or(std::string_view key, std::string_view fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_string()) ? v->str_ : std::string(fallback);
}

bool Json::bool_or(std::string_view key, bool fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_ : fallback;
}

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

}  // namespace polaris::scenario
