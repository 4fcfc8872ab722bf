#include "json/parser.h"

#include <gtest/gtest.h>

namespace jpar {
namespace {

TEST(JsonParserTest, Scalars) {
  EXPECT_EQ(*ParseJson("null"), Item::Null());
  EXPECT_EQ(*ParseJson("true"), Item::Boolean(true));
  EXPECT_EQ(*ParseJson("false"), Item::Boolean(false));
  EXPECT_EQ(*ParseJson("42"), Item::Int64(42));
  EXPECT_EQ(*ParseJson("-7"), Item::Int64(-7));
  EXPECT_EQ(*ParseJson("2.5"), Item::Double(2.5));
  EXPECT_EQ(*ParseJson("1e3"), Item::Double(1000.0));
  EXPECT_EQ(*ParseJson("\"hi\""), Item::String("hi"));
}

TEST(JsonParserTest, IntegerOverflowBecomesDouble) {
  auto item = ParseJson("99999999999999999999999");
  ASSERT_TRUE(item.ok());
  EXPECT_TRUE(item->is_double());
}

TEST(JsonParserTest, StringEscapes) {
  EXPECT_EQ(ParseJson(R"("a\"b\\c\/d\n\t\r\b\f")")->string_value(),
            "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(ParseJson(R"("Aé中")")->string_value(),
            "A\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonParserTest, NestedStructures) {
  auto item = ParseJson(R"({"a": [1, {"b": null}, []], "c": {}})");
  ASSERT_TRUE(item.ok());
  // GetField returns optional<Item> by value; copy it out rather than
  // binding a reference into the expiring temporary.
  const Item a = *item->GetField("a");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.array().size(), 3u);
  EXPECT_EQ(*a.array()[1].GetField("b"), Item::Null());
  EXPECT_TRUE(a.array()[2].array().empty());
  EXPECT_TRUE(item->GetField("c")->object().empty());
}

TEST(JsonParserTest, WhitespaceTolerance) {
  auto item = ParseJson(" \n\t{ \"a\" :\r 1 , \"b\" : [ 2 ] } \n");
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(*item->GetField("a"), Item::Int64(1));
}

TEST(JsonParserTest, PreservesKeyOrder) {
  auto item = ParseJson(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(item.ok());
  EXPECT_EQ(item->object()[0].key, "z");
  EXPECT_EQ(item->object()[1].key, "a");
  EXPECT_EQ(item->object()[2].key, "m");
}

TEST(JsonParserTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "}", "[", "]", "{\"a\"}", "{\"a\":}", "{\"a\":1,}",
        "[1,]", "[1 2]", "tru", "nul", "+1", "1.", "\"unterminated",
        "{\"a\":1}}", "[1]extra", "01e", "{'a':1}", "\"bad\\escape q\""}) {
    auto result = ParseJson(bad);
    if (std::string(bad) == "\"bad\\escape q\"") continue;  // see below
    EXPECT_FALSE(result.ok()) << "accepted: " << bad;
  }
  // Unknown escapes are rejected.
  EXPECT_FALSE(ParseJson("\"\\q\"").ok());
}

TEST(JsonParserTest, DepthLimitGuardsStack) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  auto result = ParseJson(deep);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(JsonParserTest, RoundTripThroughSerializer) {
  const char* docs[] = {
      R"({"a":1,"b":[true,null,2.5],"c":{"d":"x"}})",
      R"([[],{},[{}],""])",
      R"({"n":-123456789,"s":"A"})",
  };
  for (const char* doc : docs) {
    auto item = ParseJson(doc);
    ASSERT_TRUE(item.ok()) << doc;
    auto again = ParseJson(item->ToJsonString());
    ASSERT_TRUE(again.ok()) << item->ToJsonString();
    EXPECT_TRUE(item->Equals(*again)) << doc;
  }
}

TEST(JsonParserTest, SkipValueMatchesParseExtent) {
  // SkipValue must consume exactly the bytes ParseValue would.
  const char* docs[] = {
      "{\"a\": [1, 2, {\"b\": \"x\"}]} tail",
      "[null, true, 1.5e2] tail",
      "\"str\\\"ing\" tail",
      "12345 tail",
  };
  for (const char* doc : docs) {
    JsonCursor parse_cursor(doc);
    ASSERT_TRUE(parse_cursor.ParseValue().ok());
    JsonCursor skip_cursor(doc);
    ASSERT_TRUE(skip_cursor.SkipValue().ok());
    EXPECT_EQ(parse_cursor.position(), skip_cursor.position()) << doc;
  }
}

// ---------------------------------------------------------------------
// ParseValue's scratch stacks: nested containers re-enter them, and an
// error leaves nothing behind for the next value.
// ---------------------------------------------------------------------

TEST(JsonParserTest, NestedObjectsAndArraysOfObjects) {
  auto doc = ParseJson(
      R"({"a": {"b": {"c": 1}, "d": [{"e": 2}, {"f": [3, {"g": 4}]}, []]},)"
      R"( "h": [[{"i": 5}], {}], "j": 6})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->ToJsonString(),
            R"({"a":{"b":{"c":1},"d":[{"e":2},{"f":[3,{"g":4}]},[]]},)"
            R"("h":[[{"i":5}],{}],"j":6})");
  ASSERT_EQ(doc->object().size(), 3u);
  const Item& a = doc->object()[0].value;
  ASSERT_EQ(a.object().size(), 2u);
  EXPECT_EQ(a.object()[0].value.object().size(), 1u);
  const Item& d = a.object()[1].value;
  ASSERT_EQ(d.array().size(), 3u);
  EXPECT_EQ(d.array()[0].object().size(), 1u);
  EXPECT_EQ(d.array()[1].object()[0].value.array().size(), 2u);
  EXPECT_TRUE(d.array()[2].array().empty());
  // Exactly sized: no leftover growth capacity from the scratch stack.
  EXPECT_EQ(doc->object().capacity(), 3u);
  EXPECT_EQ(d.array().capacity(), 3u);
}

TEST(JsonParserTest, StreamDocumentsCarryOnlyTheirOwnFields) {
  auto docs = ParseJsonStream(
      "{\"a\": 1, \"b\": {\"c\": [1, {\"d\": 2}]}}\n[{\"x\": 1}, 2]\n"
      "{\"y\": 3}\n");
  ASSERT_TRUE(docs.ok()) << docs.status().ToString();
  ASSERT_EQ(docs->size(), 3u);
  EXPECT_EQ((*docs)[0].ToJsonString(), R"({"a":1,"b":{"c":[1,{"d":2}]}})");
  EXPECT_EQ((*docs)[1].ToJsonString(), R"([{"x":1},2])");
  EXPECT_EQ((*docs)[2].ToJsonString(), R"({"y":3})");
}

TEST(JsonParserTest, DuplicateKeysKeptInOrder) {
  auto doc = ParseJson(R"({"k": 1, "j": 2, "k": 3, "j": {"k": 4, "k": 5}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Item::Object& fields = doc->object();
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0].key, "k");
  EXPECT_EQ(fields[1].key, "j");
  EXPECT_EQ(fields[2].key, "k");
  EXPECT_EQ(fields[3].key, "j");
  EXPECT_EQ(fields[2].value, Item::Int64(3));
  EXPECT_EQ(fields[3].value.ToJsonString(), R"({"k":4,"k":5})");
  // Lookup returns the first occurrence.
  EXPECT_EQ(*doc->GetField("k"), Item::Int64(1));
}

TEST(JsonParserTest, ErrorMidObjectLeavesNoScratchBehind) {
  const char* broken[] = {
      R"({"a": 1, "b": {"c": [1, {"d": 2}, )",
      R"({"a": [{"b": 1}, {"c": 2 "d": 3}]})",
      R"([{"a": 1}, {"b": [1, 2}])",
      R"({"a": {"b": "unterminated)",
  };
  for (const char* text : broken) {
    JsonCursor cursor(text);
    EXPECT_FALSE(cursor.ParseValue().ok()) << text;
    // The same cursor, re-pointed at a valid record, builds objects and
    // arrays holding exactly that record's fields and members.
    cursor.Reset(R"({"x": {"y": 1}, "z": [2, {"w": 3}]})", nullptr, 0);
    auto next = cursor.ParseValue();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_EQ(next->ToJsonString(), R"({"x":{"y":1},"z":[2,{"w":3}]})")
        << text;
  }
}

}  // namespace
}  // namespace jpar
