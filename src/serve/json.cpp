#include "serve/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "obs/export.hpp"

namespace serve::json {

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, member] : object) {
    if (name == key) return &member;
  }
  return nullptr;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Bytes read_number takes into one token: a malformed number like "1-2"
/// or "1.5.3" fails whole, at its first byte.
bool is_number_char(char c) {
  return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
         c == '-';
}

void append_utf8(std::string& out, unsigned code) {
  // BMP code points only (surrogates pass through as-is — the bodies orfd
  // handles are ASCII in practice).
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
}

}  // namespace

void Reader::skip_space() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

char Reader::peek() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void Reader::expect(char c, const char* what) {
  if (pos_ >= text_.size() || text_[pos_] != c) fail(what);
  ++pos_;
}

Reader::Kind Reader::peek_value(int depth) {
  if (depth > kMaxDepth) fail("nesting too deep");
  skip_space();
  switch (peek()) {
    case 'n': return Kind::kNull;
    case 't': return Kind::kTrue;
    case 'f': return Kind::kFalse;
    case '"': return Kind::kString;
    case '[': return Kind::kArray;
    case '{': return Kind::kObject;
    default: return Kind::kNumber;
  }
}

void Reader::read_literal(Kind kind) {
  const std::string_view literal = kind == Kind::kNull   ? "null"
                                   : kind == Kind::kTrue ? "true"
                                                         : "false";
  if (text_.substr(pos_, literal.size()) != literal) fail("invalid literal");
  pos_ += literal.size();
}

double Reader::read_number() {
  const std::size_t start = pos_;
  const auto at = [&](char c) {
    return pos_ < text_.size() && text_[pos_] == c;
  };
  const auto digits = [&] {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    return pos_ > from;
  };
  // RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  if (at('-')) ++pos_;
  bool valid = at('0') ? (++pos_, true) : digits();
  if (valid && at('.')) valid = (++pos_, digits());
  if (valid && (at('e') || at('E'))) {
    ++pos_;
    if (at('+') || at('-')) ++pos_;
    valid = digits();
  }
  const std::size_t grammar_end = pos_;
  while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
  if (pos_ == start) fail("expected value");
  double value = 0.0;
  const auto [end, err] =
      std::from_chars(text_.data() + start, text_.data() + pos_, value);
  if (!valid || grammar_end != pos_ || err != std::errc() ||
      end != text_.data() + pos_) {
    pos_ = start;
    fail("malformed number");
  }
  if (!std::isfinite(value)) {
    pos_ = start;
    fail("number out of range");
  }
  return value;
}

void Reader::read_string(std::string& out) {
  expect('"', "expected string");
  out.clear();
  while (true) {
    // Copy the run of plain bytes in one append.
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
           static_cast<unsigned char>(text_[pos_]) >= 0x20) {
      ++pos_;
    }
    out.append(text_.data() + from, pos_ - from);
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return;
    if (c != '\\') {
      --pos_;
      fail("raw control character in string");
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            --pos_;
            fail("non-hex digit in \\u escape");
          }
        }
        append_utf8(out, code);
        break;
      }
      default: --pos_; fail("unknown escape");
    }
  }
}

bool Reader::open(char opener, char closer) {
  expect(opener, opener == '[' ? "expected array" : "expected object");
  skip_space();
  if (peek() != closer) return true;
  ++pos_;
  return false;
}

bool Reader::next(char closer, const char* what) {
  skip_space();
  const char c = peek();
  ++pos_;
  if (c == closer) return false;
  if (c != ',') {
    --pos_;
    fail(what);
  }
  return true;
}

const std::string& Reader::read_key(std::size_t base) {
  skip_space();
  if (key_count_ == keys_.size()) keys_.emplace_back();
  std::string& key = keys_[key_count_];
  read_string(key);
  for (std::size_t i = base; i < key_count_; ++i) {
    if (keys_[i] == key) fail("duplicate key '" + key + "'");
  }
  ++key_count_;
  skip_space();
  expect(':', "expected ':' after key");
  return key;
}

void Reader::skip(Kind kind, int depth) {
  switch (kind) {
    case Kind::kNull:
    case Kind::kTrue:
    case Kind::kFalse:
      read_literal(kind);
      break;
    case Kind::kString:
      read_string(scratch_);
      break;
    case Kind::kNumber:
      read_number();
      break;
    case Kind::kArray:
      read_array([&] { skip(peek_value(depth + 1), depth + 1); });
      break;
    case Kind::kObject:
      read_object(
          [&](const std::string&) { skip(peek_value(depth + 1), depth + 1); });
      break;
  }
}

void Reader::finish() {
  skip_space();
  if (pos_ != text_.size()) fail("trailing characters after document");
}

namespace {

Value build(Reader& reader, int depth) {
  switch (const Reader::Kind kind = reader.peek_value(depth)) {
    case Reader::Kind::kNull:
      reader.read_literal(kind);
      return Value::null();
    case Reader::Kind::kTrue:
    case Reader::Kind::kFalse:
      reader.read_literal(kind);
      return Value::of(kind == Reader::Kind::kTrue);
    case Reader::Kind::kString: {
      std::string s;
      reader.read_string(s);
      return Value::of(std::move(s));
    }
    case Reader::Kind::kNumber:
      return Value::of(reader.read_number());
    case Reader::Kind::kArray: {
      Array items;
      reader.read_array([&] { items.push_back(build(reader, depth + 1)); });
      return Value::of(std::move(items));
    }
    case Reader::Kind::kObject: {
      Object members;
      reader.read_object([&](const std::string& key) {
        std::string name = key;  // the value may reuse the key's storage
        members.emplace_back(std::move(name), build(reader, depth + 1));
      });
      return Value::of(std::move(members));
    }
  }
  return Value::null();
}

void dump_value(const Value& value, std::string& out) {
  switch (value.kind) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += value.boolean ? "true" : "false";
      break;
    case Value::Kind::kNumber:
      append_number(out, value.number);
      break;
    case Value::Kind::kString:
      append_string(out, value.string);
      break;
    case Value::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Value& item : value.array) {
        if (!first) out += ',';
        first = false;
        dump_value(item, out);
      }
      out += ']';
      break;
    }
    case Value::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.object) {
        if (!first) out += ',';
        first = false;
        append_string(out, key);
        out += ':';
        dump_value(member, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

Value parse(std::string_view text) {
  Reader reader(text);
  Value value = build(reader, /*depth=*/0);
  reader.finish();
  return value;
}

std::string dump(const Value& value) {
  std::string out;
  dump_value(value, out);
  return out;
}

void append_number(std::string& out, double value) {
  obs::append_double(out, value);
}

void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace serve::json
