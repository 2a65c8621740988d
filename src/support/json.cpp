#include "support/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <ostream>

#include "support/check.h"

namespace mb::support {

namespace {

/// Appends `s` escaped (no quotes). Runs of bytes that need no escape
/// are copied with one append each.
void append_escaped(std::string& out, std::string_view s) {
  constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s.data() + run, s.size() - run);
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  char* end = buf;
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    // Integral values within the exactly-representable range print
    // without an exponent or trailing ".0" noise.
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 0)
              .ptr;
  } else {
    // The smallest %g precision >= 6 that round-trips. No precision below
    // the shortest round-trip digit count P can succeed, so the search
    // starts at max(6, P) and almost always stops there.
    end = std::to_chars(buf, buf + sizeof buf, v,
                        std::chars_format::scientific)
              .ptr;
    const int shortest = static_cast<int>(std::count_if(
        buf, std::find(buf, end, 'e'),
        [](char c) { return c >= '0' && c <= '9'; }));
    for (int prec = std::max(6, shortest); prec <= 17; ++prec) {
      end = std::to_chars(buf, buf + sizeof buf, v,
                          std::chars_format::general, prec)
                .ptr;
      double back = 0.0;
      std::from_chars(buf, end, back);
      if (back == v) break;
    }
  }
  out.append(buf, end);
}

template <typename Int>
void append_integer(std::string& out, Int v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

std::string json_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

JsonWriter::JsonWriter(bool pretty) : pretty_(pretty) {}

void JsonWriter::newline_indent() {
  if (!pretty_) return;
  out_ += '\n';
  out_.append(stack_.size() * 2, ' ');
}

void JsonWriter::before_value() {
  if (stack_.empty()) {
    check(out_.empty() && !flushed_, "JsonWriter",
          "only one top-level value is allowed");
    return;
  }
  if (stack_.back() == Frame::kObject) {
    check(!expect_key_, "JsonWriter", "value emitted where a key belongs");
    expect_key_ = true;  // next token in this object must be a key again
    return;              // key() already placed comma/indent
  }
  if (!first_in_frame_) out_ += ',';
  newline_indent();
  first_in_frame_ = false;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  expect_key_ = true;
  first_in_frame_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  check(!stack_.empty() && stack_.back() == Frame::kObject, "JsonWriter",
        "end_object without matching begin_object");
  check(expect_key_, "JsonWriter", "dangling key at end_object");
  const bool empty = first_in_frame_;
  stack_.pop_back();
  if (!empty) newline_indent();
  out_ += '}';
  first_in_frame_ = false;
  expect_key_ = !stack_.empty() && stack_.back() == Frame::kObject;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  expect_key_ = false;
  first_in_frame_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  check(!stack_.empty() && stack_.back() == Frame::kArray, "JsonWriter",
        "end_array without matching begin_array");
  const bool empty = first_in_frame_;
  stack_.pop_back();
  if (!empty) newline_indent();
  out_ += ']';
  first_in_frame_ = false;
  expect_key_ = !stack_.empty() && stack_.back() == Frame::kObject;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  check(!stack_.empty() && stack_.back() == Frame::kObject, "JsonWriter",
        "key outside of an object");
  check(expect_key_, "JsonWriter", "two keys in a row");
  if (!first_in_frame_) out_ += ',';
  newline_indent();
  first_in_frame_ = false;
  out_ += '"';
  append_escaped(out_, name);
  out_ += pretty_ ? "\": " : "\":";
  expect_key_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  append_number(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  append_integer(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  append_integer(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  out_ += "null";
  return *this;
}

void JsonWriter::flush_to(std::ostream& os) {
  os.write(out_.data(), static_cast<std::streamsize>(out_.size()));
  flushed_ = flushed_ || !out_.empty();
  out_.clear();
}

void JsonWriter::check_finished() const {
  check(stack_.empty(), "JsonWriter", "unclosed object or array");
  check(!out_.empty() || flushed_, "JsonWriter", "no value written");
}

std::string JsonWriter::str() const& {
  check_finished();
  return pretty_ ? out_ + "\n" : out_;
}

std::string JsonWriter::str() && {
  check_finished();
  if (pretty_) out_ += '\n';
  return std::move(out_);
}

// ---------------------------------------------------------------------------
// JsonValue

bool JsonValue::as_bool() const {
  check(kind_ == Kind::kBool, "JsonValue", "not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  check(kind_ == Kind::kNumber, "JsonValue", "not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  check(kind_ == Kind::kString, "JsonValue", "not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  check(kind_ == Kind::kArray, "JsonValue", "not an array");
  return array_;
}

const JsonValue* JsonValue::find(std::string_view name) const {
  check(kind_ == Kind::kObject, "JsonValue", "not an object");
  for (const auto& [k, v] : object_)
    if (k == name) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view name) const {
  const JsonValue* v = find(name);
  check(v != nullptr, "JsonValue",
        "missing object member '" + std::string(name) + "'");
  return *v;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  check(kind_ == Kind::kObject, "JsonValue", "not an object");
  return object_;
}

JsonValue JsonValue::make_null() { return JsonValue{}; }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

// ---------------------------------------------------------------------------
// Parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    require(pos_ == text_.size(), "trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void error(const std::string& message) const {
    fail("parse_json", message + " at byte " + std::to_string(pos_));
  }
  void require(bool cond, const char* message) const {
    if (!cond) error(message);
  }

  char peek() const {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }
  char next() {
    char c = peek();
    ++pos_;
    return c;
  }
  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!consume(c)) error(std::string("expected '") + c + "'");
  }
  void skip_ws() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }
  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        require(consume_word("true"), "invalid literal");
        return JsonValue::make_bool(true);
      case 'f':
        require(consume_word("false"), "invalid literal");
        return JsonValue::make_bool(false);
      case 'n':
        require(consume_word("null"), "invalid literal");
        return JsonValue::make_null();
      default: return JsonValue::make_number(parse_number());
    }
  }

  JsonValue parse_object() {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (consume('}')) return JsonValue::make_object(std::move(members));
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      break;
    }
    return JsonValue::make_object(std::move(members));
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (consume(']')) return JsonValue::make_array(std::move(items));
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      break;
    }
    return JsonValue::make_array(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = next();
      if (c == '"') break;
      if (c == '\\') {
        char e = next();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else error("invalid \\u escape");
            }
            // Encode the code point as UTF-8 (BMP only; surrogate pairs in
            // benchmark names are not a case we generate).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: error("invalid escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        error("unescaped control character in string");
      } else {
        out += c;
      }
    }
    return out;
  }

  double parse_number() {
    const std::size_t start = pos_;
    consume('-');
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    require(pos_ > start + (text_[start] == '-' ? 1 : 0), "invalid number");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    require(end == token.c_str() + token.size(), "invalid number");
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  Parser p(text);
  return p.parse_document();
}

void write_json_value(JsonWriter& w, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      w.null();
      break;
    case JsonValue::Kind::kBool:
      w.value(v.as_bool());
      break;
    case JsonValue::Kind::kNumber:
      w.value(v.as_number());
      break;
    case JsonValue::Kind::kString:
      w.value(v.as_string());
      break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const auto& item : v.as_array()) write_json_value(w, item);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [name, member] : v.members()) {
        w.key(name);
        write_json_value(w, member);
      }
      w.end_object();
      break;
  }
}

}  // namespace mb::support
