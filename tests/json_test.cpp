// Tests for the minimal JSON document model (src/support/json.*): parsing,
// navigation, escaping, number formatting, and the deterministic
// insertion-ordered serialization the profile artifacts rely on.
#include <string>

#include <gtest/gtest.h>

#include "support/json.hpp"

namespace eclp::json {
namespace {

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Value::parse("null").is_null());
  EXPECT_TRUE(Value::parse("true").as_bool());
  EXPECT_FALSE(Value::parse("false").as_bool());
  EXPECT_EQ(Value::parse("42").as_number(), 42.0);
  EXPECT_EQ(Value::parse("-17").as_number(), -17.0);
  EXPECT_EQ(Value::parse("2.5").as_number(), 2.5);
  EXPECT_EQ(Value::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Value::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseNestedDocument) {
  const Value doc = Value::parse(
      R"({"name":"cc","counts":[1,2,3],"nested":{"ok":true}})");
  EXPECT_EQ(doc.at("name").as_string(), "cc");
  ASSERT_EQ(doc.at("counts").items().size(), 3u);
  EXPECT_EQ(doc.at("counts").items()[2].as_u64(), 3u);
  EXPECT_TRUE(doc.at("nested").at("ok").as_bool());
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_THROW(doc.at("absent"), CheckFailure);
}

TEST(Json, ParseStringEscapes) {
  EXPECT_EQ(Value::parse(R"("a\"b\\c\/d")").as_string(), "a\"b\\c/d");
  EXPECT_EQ(Value::parse(R"("tab\there\nline")").as_string(),
            "tab\there\nline");
  EXPECT_EQ(Value::parse(R"("Aé")").as_string(), "A\xc3\xa9");
  // \uXXXX escapes decode to UTF-8: 1-, 2-, and 3-byte code points.
  EXPECT_EQ(Value::parse(R"("\u0041\u00e9\u20ac")").as_string(),
            "A\xc3\xa9\xe2\x82\xac");
  EXPECT_THROW(Value::parse(R"("\uZZZZ")"), CheckFailure);
  EXPECT_THROW(Value::parse(R"("\q")"), CheckFailure);
}

TEST(Json, ParseErrorsThrow) {
  EXPECT_THROW(Value::parse(""), CheckFailure);
  EXPECT_THROW(Value::parse("{"), CheckFailure);
  EXPECT_THROW(Value::parse("[1,]"), CheckFailure);
  EXPECT_THROW(Value::parse("{\"a\":1,}"), CheckFailure);
  EXPECT_THROW(Value::parse("\"unterminated"), CheckFailure);
  EXPECT_THROW(Value::parse("truex"), CheckFailure);
  EXPECT_THROW(Value::parse("1 2"), CheckFailure);  // trailing garbage
}

TEST(Json, NumbersFollowTheRfcGrammar) {
  EXPECT_EQ(Value::parse("0").as_number(), 0.0);
  EXPECT_EQ(Value::parse("-0.5").as_number(), -0.5);
  EXPECT_EQ(Value::parse("10").as_number(), 10.0);
  EXPECT_EQ(Value::parse("1E+2").as_number(), 100.0);
  EXPECT_EQ(Value::parse("[0,1]").items().size(), 2u);
  for (const char* bad : {"+3.33", "01", "-01", "00", "+1", ".5", "1.", "-",
                          "1e", "1e+", "-.5", "1e999"}) {
    EXPECT_THROW(Value::parse(bad), CheckFailure) << bad;
  }
  EXPECT_TRUE(is_number_token("1234"));
  EXPECT_TRUE(is_number_token("-0.25e-3"));
  for (const char* bad : {"", "+3.33", "01", "nan", "inf", "0x1f", "12 ms",
                          " 1", "1 "}) {
    EXPECT_FALSE(is_number_token(bad)) << bad;
  }
}

TEST(Json, RoundTripPreservesDocument) {
  const std::string text =
      R"({"schema":"eclp.profile","version":1,"spans":[{"id":0,"cycles":8890}]})";
  const Value doc = Value::parse(text);
  EXPECT_EQ(doc.dump(), text);
  // Re-parsing the dump yields the same dump (fixed point).
  EXPECT_EQ(Value::parse(doc.dump()).dump(), doc.dump());
}

TEST(Json, IntegralNumbersSerializeWithoutDecimalPoint) {
  EXPECT_EQ(format_number(0.0), "0");
  EXPECT_EQ(format_number(8890.0), "8890");
  EXPECT_EQ(format_number(-3.0), "-3");
  EXPECT_EQ(format_number(2.5), "2.5");
  // u64 counters round-trip textually through the double storage.
  Value v(static_cast<u64>(1234567890123ULL));
  EXPECT_EQ(v.dump(), "1234567890123");
  EXPECT_EQ(Value::parse(v.dump()).as_u64(), 1234567890123ULL);
}

TEST(Json, AsU64Checked) {
  EXPECT_EQ(Value::parse("0").as_u64(), 0u);
  EXPECT_THROW(Value::parse("-1").as_u64(), CheckFailure);
  EXPECT_THROW(Value::parse("2.5").as_u64(), CheckFailure);
  EXPECT_THROW(Value::parse("\"7\"").as_u64(), CheckFailure);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Value obj = Value::object();
  obj.set("zeta", 1);
  obj.set("alpha", 2);
  obj.set("mid", 3);
  EXPECT_EQ(obj.dump(), R"({"zeta":1,"alpha":2,"mid":3})");
  // Overwrite keeps first-set position.
  obj.set("alpha", 9);
  EXPECT_EQ(obj.dump(), R"({"zeta":1,"alpha":9,"mid":3})");
  ASSERT_EQ(obj.members().size(), 3u);
  EXPECT_EQ(obj.members()[1].first, "alpha");
}

TEST(Json, EscapeControlCharacters) {
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(escape("line\nfeed\ttab"), "line\\nfeed\\ttab");
}

TEST(Json, PrettyDumpIsDeterministic) {
  Value doc = Value::object();
  doc.set("a", Value::array());
  doc.set("b", Value::object());
  const std::string once = doc.dump(1);
  EXPECT_EQ(doc.dump(1), once);
  EXPECT_NE(once.find('\n'), std::string::npos);
  // Compact dump has no whitespace at all.
  EXPECT_EQ(doc.dump(), R"({"a":[],"b":{}})");
}

TEST(Json, KindChecksThrowOnMismatch) {
  const Value v = Value::parse("[1]");
  EXPECT_THROW(v.as_string(), CheckFailure);
  EXPECT_THROW(v.members(), CheckFailure);
  EXPECT_THROW(v.at("k"), CheckFailure);
  Value num(1.0);
  EXPECT_THROW(num.push_back(Value()), CheckFailure);
}

}  // namespace
}  // namespace eclp::json
