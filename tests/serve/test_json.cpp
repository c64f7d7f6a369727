// serve::json — the daemon's body codec. Round trips, the full escape set,
// and the error paths that become 400 responses (each naming offset+cause).
#include "serve/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace {

using serve::json::Array;
using serve::json::Object;
using serve::json::parse;
using serve::json::ParseError;
using serve::json::Value;

TEST(ServeJson, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").boolean);
  EXPECT_FALSE(parse("false").boolean);
  EXPECT_DOUBLE_EQ(parse("42").number, 42.0);
  EXPECT_DOUBLE_EQ(parse("-2.5e3").number, -2500.0);
  EXPECT_EQ(parse("\"hi\"").string, "hi");
}

TEST(ServeJson, ParsesNestedStructure) {
  const Value doc = parse(
      R"({"rows":[[1,2.5],[3,4]],"meta":{"count":2,"ok":true},"note":null})");
  const Value* rows = doc.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 2u);
  EXPECT_DOUBLE_EQ(rows->array[0].array[1].number, 2.5);
  const Value* meta = doc.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_DOUBLE_EQ(meta->find("count")->number, 2.0);
  EXPECT_TRUE(meta->find("ok")->boolean);
  EXPECT_TRUE(doc.find("note")->is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(ServeJson, EscapesRoundTrip) {
  const std::string text = R"("line\nquote\"back\\slash\ttabA")";
  EXPECT_EQ(parse(text).string, "line\nquote\"back\\slash\ttab\x41");
  const Value value = Value::of(std::string("a\"b\\c\nd\te\x01"));
  EXPECT_EQ(parse(serve::json::dump(value)).string, value.string);
}

TEST(ServeJson, DumpIsCompactAndStable) {
  const Value doc = Value::of(Object{
      {"count", Value::of(2.0)},
      {"items", Value::of(Array{Value::of(0.5), Value::of(true),
                                Value::null()})}});
  EXPECT_EQ(serve::json::dump(doc),
            "{\"count\":2,\"items\":[0.5,true,null]}");
}

TEST(ServeJson, WhitespaceIsInsignificant) {
  const Value doc = parse(" {\t\"a\" :\r\n [ 1 , 2 ] } ");
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("a")->array.size(), 2u);
}

TEST(ServeJson, ErrorsNameOffsetAndCause) {
  try {
    parse("{\"a\":1,}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("at byte"), std::string::npos);
    EXPECT_GT(error.offset(), 0u);
  }
}

TEST(ServeJson, RejectsMalformedDocuments) {
  EXPECT_THROW(parse(""), ParseError);
  EXPECT_THROW(parse("{"), ParseError);
  EXPECT_THROW(parse("[1,2"), ParseError);
  EXPECT_THROW(parse("nul"), ParseError);
  EXPECT_THROW(parse("1 2"), ParseError);          // trailing tokens
  EXPECT_THROW(parse("\"unterminated"), ParseError);
  EXPECT_THROW(parse("\"bad\\q\""), ParseError);   // unknown escape
  EXPECT_THROW(parse("\"raw\ncontrol\""), ParseError);
  EXPECT_THROW(parse("{\"a\":1,\"a\":2}"), ParseError);  // duplicate key
  EXPECT_THROW(parse("--3"), ParseError);
  EXPECT_THROW(parse("1e999"), ParseError);        // overflows to inf
}

TEST(ServeJson, NumbersFollowTheRfc8259Grammar) {
  for (const char* text : {"01", ".5", "1.", "-.5", "1.e3", "-01.0"}) {
    SCOPED_TRACE(text);
    try {
      parse(text);
      FAIL() << "accepted a non-RFC 8259 number";
    } catch (const ParseError& error) {
      EXPECT_EQ(error.offset(), 0u);
      EXPECT_NE(std::string(error.what()).find("malformed number"),
                std::string::npos);
    }
    EXPECT_THROW(parse(std::string("[1,") + text + "]"), ParseError);
  }
  EXPECT_EQ(parse("0").number, 0.0);
  EXPECT_TRUE(std::signbit(parse("-0").number));
  EXPECT_DOUBLE_EQ(parse("-0.5e-3").number, -0.0005);
  EXPECT_DOUBLE_EQ(parse("10").number, 10.0);
  EXPECT_DOUBLE_EQ(parse("1E+3").number, 1000.0);
  EXPECT_DOUBLE_EQ(parse("2e3").number, 2000.0);
}

TEST(ServeJson, AppendHelpersMatchDump) {
  std::string out = "<";
  serve::json::append_number(out, 0.1);
  serve::json::append_string(out, "a\"b\x01");
  EXPECT_EQ(out, "<" + serve::json::dump(Value::of(0.1)) +
                     serve::json::dump(Value::of(std::string("a\"b\x01"))));
}

TEST(ServeJson, ReaderPullsValuesInDocumentOrder) {
  using serve::json::Reader;
  Reader reader(R"({"rows":[[1,2.5],[3,"x"]],"skip":{"deep":[null,true]}})");
  std::vector<double> numbers;
  std::vector<std::string> keys;
  ASSERT_EQ(reader.peek_value(0), Reader::Kind::kObject);
  reader.read_object([&](const std::string& key) {
    keys.push_back(key);
    const Reader::Kind kind = reader.peek_value(1);
    if (key != "rows") return reader.skip(kind, 1);
    reader.read_array([&] {
      ASSERT_EQ(reader.peek_value(2), Reader::Kind::kArray);
      reader.read_array([&] {
        const Reader::Kind cell = reader.peek_value(3);
        if (cell == Reader::Kind::kNumber) {
          numbers.push_back(reader.read_number());
        } else {
          reader.skip(cell, 3);
        }
      });
    });
  });
  reader.finish();
  EXPECT_EQ(keys, (std::vector<std::string>{"rows", "skip"}));
  EXPECT_EQ(numbers, (std::vector<double>{1.0, 2.5, 3.0}));
}

TEST(ServeJson, RejectsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(parse(deep), ParseError);
}

}  // namespace
