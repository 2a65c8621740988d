// Minimal dependency-free JSON support.
//
// The structured-results layer (core/bench_report.h) needs machine-readable
// output that CI can diff and gate on, and the comparison tool needs to read
// it back. This module provides both directions without any external
// dependency:
//  * JsonWriter — a streaming writer with automatic comma/indent handling,
//    full string escaping and round-trip double formatting;
//  * JsonValue + parse_json() — a small recursive-descent parser for the
//    documents the writer produces (and any other well-formed JSON).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mb::support {

/// Escapes a string for inclusion in a JSON document (adds no quotes).
/// Handles the two-character escapes, control characters (\u00XX) and
/// passes valid UTF-8 bytes through untouched.
std::string json_escape(std::string_view s);

/// Formats a double so that parsing it back yields the same value.
/// Integral values with |v| < 1e15 print as plain digits; any other
/// finite value prints as `%.Pg` with the smallest P >= 6 that
/// round-trips. Non-finite values are not representable in JSON and are
/// emitted as null.
std::string json_number(double v);

/// Streaming JSON writer.
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("name").value("membench");
///   w.key("samples").begin_array();
///   for (double s : samples) w.value(s);
///   w.end_array();
///   w.end_object();
///   std::string doc = w.str();
///
/// Commas and (optionally) indentation are inserted automatically. Misuse
/// (value without key inside an object, unbalanced end_*) throws Error.
/// A large document can stream: flush_to() hands the text buffered so far
/// to a stream at any point, and the flushed pieces followed by str() are
/// the bytes str() alone would have returned.
class JsonWriter {
 public:
  /// `pretty` inserts newlines and two-space indentation.
  explicit JsonWriter(bool pretty = true);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object key; must be directly inside an object.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::uint32_t v) {
    return value(static_cast<std::uint64_t>(v));
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// Writes the text buffered so far to `os` and empties the buffer,
  /// keeping its capacity for the text that follows.
  void flush_to(std::ostream& os);

  /// The finished document, or after flush_to() the rest of it. Throws
  /// if containers are still open. The rvalue overload
  /// (`std::move(w).str()`) hands over the buffer instead of copying it.
  std::string str() const&;
  std::string str() &&;

 private:
  enum class Frame : std::uint8_t { kObject, kArray };
  void before_value();
  void newline_indent();
  void check_finished() const;

  std::string out_;
  std::vector<Frame> stack_;
  bool pretty_;
  bool flushed_ = false;  // some text already went out through flush_to()
  bool expect_key_ = false;   // inside an object, next token must be a key
  bool first_in_frame_ = true;
};

/// A parsed JSON document node. Object member order is preserved.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw Error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;

  /// Object member lookup: nullptr when absent (object kind required).
  const JsonValue* find(std::string_view name) const;
  /// Object member lookup; throws Error when absent.
  const JsonValue& at(std::string_view name) const;
  /// Object members in document order.
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  // Construction (used by the parser; handy in tests).
  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses a complete JSON document (one top-level value, optionally
/// surrounded by whitespace). Throws Error with a byte offset on malformed
/// input.
JsonValue parse_json(std::string_view text);

/// Integer readers for documents that store counts, ids and seeds. The
/// value must be a JSON number holding an integer the type can represent:
/// 1e3 reads as 1000, while -1 (for an unsigned type), 2.5 and 1e30 are
/// refused. Errors name `key`. The *_at forms read member `key` of the
/// object `obj`; as_u64 and as_u32 read an element of the array `key`
/// names. A number above 2^53 has already been rounded by the parser, so
/// a document that needs every bit of a 64-bit value writes it as a
/// string and reads it back with dec_u64_at or hex_u64_at.
std::uint64_t as_u64(const JsonValue& v, std::string_view key);
std::uint32_t as_u32(const JsonValue& v, std::string_view key);
std::uint64_t u64_at(const JsonValue& obj, std::string_view key);
std::uint32_t u32_at(const JsonValue& obj, std::string_view key);
std::int32_t i32_at(const JsonValue& obj, std::string_view key);
/// Member `key` as a string of decimal (dec) or hexadecimal (hex) digits
/// naming an unsigned 64-bit value; no sign, prefix or blank is allowed.
std::uint64_t dec_u64_at(const JsonValue& obj, std::string_view key);
std::uint64_t hex_u64_at(const JsonValue& obj, std::string_view key);

/// Re-emits a parsed value through a writer (as the next value in the
/// writer's current context). Member order is preserved and numbers use
/// the writer's round-trip formatting, so parse -> write -> parse is
/// value-identical; used to embed one document inside another (e.g. a
/// fault plan inside an mb-repro bundle).
void write_json_value(JsonWriter& w, const JsonValue& v);

}  // namespace mb::support
