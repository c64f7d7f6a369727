// Minimal JSON for the serving layer: a strict pull reader, a value tree
// built on it, and a writer.
//
// Scope is exactly what the orfd request/response bodies need — UTF-8
// strings with the standard escapes, finite doubles in the RFC 8259 number
// grammar, arrays, objects (order preserved; duplicate keys rejected). No
// external dependency. Request bodies are already bounded by
// ServeSection::max_body_bytes before they reach the reader. Errors carry
// the byte offset and a short reason so a 400 response can say *why* the
// body was malformed.
//
// One grammar, two consumers: json::parse builds a Value tree on top of
// the Reader, and the hot request decoders (serve/handlers.cpp) pull the
// same Reader straight into their row buffers. Both walk a document through
// the same primitives in the same order, so a malformed body fails with
// the same ParseError either way.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace serve::json {

/// Malformed JSON text; what() names the byte offset and the problem.
class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t offset, const std::string& reason)
      : std::runtime_error("json: " + reason + " at byte " +
                           std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

struct Value;
using Array = std::vector<Value>;
using Object = std::vector<std::pair<std::string, Value>>;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  Array array;
  Object object;

  static Value null() { return {}; }
  static Value of(bool b) {
    Value v;
    v.kind = Kind::kBool;
    v.boolean = b;
    return v;
  }
  static Value of(double d) {
    Value v;
    v.kind = Kind::kNumber;
    v.number = d;
    return v;
  }
  static Value of(std::string s) {
    Value v;
    v.kind = Kind::kString;
    v.string = std::move(s);
    return v;
  }
  static Value of(Array a) {
    Value v;
    v.kind = Kind::kArray;
    v.array = std::move(a);
    return v;
  }
  static Value of(Object o) {
    Value v;
    v.kind = Kind::kObject;
    v.object = std::move(o);
    return v;
  }

  bool is_null() const { return kind == Kind::kNull; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member by key, or nullptr (nullptr too on non-objects).
  const Value* find(std::string_view key) const;
};

/// Pull reader over one JSON document. A value is read in two steps:
/// peek_value() classifies it (enforcing the nesting limit), then exactly
/// one of read_literal / read_number / read_string / read_array /
/// read_object / skip consumes it. finish() checks nothing but whitespace
/// follows the document.
class Reader {
 public:
  /// Values nested deeper than this fail with "nesting too deep".
  static constexpr int kMaxDepth = 64;

  enum class Kind { kNull, kTrue, kFalse, kString, kNumber, kArray, kObject };

  explicit Reader(std::string_view text) : text_(text) {}

  /// Start the value at nesting `depth` (the document is depth 0): skip
  /// whitespace and classify by first byte. Anything that starts no other
  /// kind classifies as kNumber and fails in read_number.
  Kind peek_value(int depth);

  /// Consume the literal a kNull/kTrue/kFalse peek announced.
  void read_literal(Kind kind);
  /// Consume a number: RFC 8259 grammar, finite, nearest double.
  double read_number();
  /// Consume a string, writing its decoded bytes over `out`.
  void read_string(std::string& out);

  /// Consume an array: element() runs once per element, positioned before
  /// it, and must consume it (peek_value at the array's depth + 1).
  template <typename Element>
  void read_array(Element&& element) {
    if (!open('[', ']')) return;
    do {
      element();
    } while (next(']', "expected ',' or ']'"));
  }

  /// Consume an object: member(key) runs once per member after its key and
  /// ':' are read, and must consume the value. `key` is decoded and checked
  /// unique within the object; use it before consuming the value (nested
  /// objects reuse its storage).
  template <typename Member>
  void read_object(Member&& member) {
    const std::size_t base = key_count_;
    if (open('{', '}')) {
      do {
        member(read_key(base));
      } while (next('}', "expected ',' or '}'"));
    }
    key_count_ = base;
  }

  /// Consume (and fully validate) a value of the peeked `kind` at `depth`.
  void skip(Kind kind, int depth);

  /// Only whitespace may follow the document.
  void finish();

 private:
  [[noreturn]] void fail(const std::string& reason) const {
    throw ParseError(pos_, reason);
  }
  void skip_space();
  char peek();
  void expect(char c, const char* what);
  /// Consume `opener`; false (closer consumed too) when the container is
  /// empty.
  bool open(char opener, char closer);
  /// After an element: true on ',', false on `closer`, else fail(what).
  bool next(char closer, const char* what);
  /// Read `"key":` into the key stack, rejecting a key already seen among
  /// the object's keys at [base, key_count_).
  const std::string& read_key(std::size_t base);

  std::string_view text_;
  std::size_t pos_ = 0;
  /// Keys of every object still open, innermost last; entries past
  /// key_count_ are spare capacity reused by later objects.
  std::vector<std::string> keys_;
  std::size_t key_count_ = 0;
  std::string scratch_;  ///< skipped strings land here
};

/// Parse a complete JSON document (throws ParseError; trailing non-space
/// input is an error).
Value parse(std::string_view text);

/// Compact serialization. Doubles use the shortest round-tripping form
/// (obs::format_double), so responses are platform-stable.
std::string dump(const Value& value);

/// The writer's pieces, for handlers that render a response straight into
/// its body: a number as obs::format_double prints it, and a quoted,
/// escaped string. dump() is built from these, so the bytes agree.
void append_number(std::string& out, double value);
void append_string(std::string& out, std::string_view s);

}  // namespace serve::json
