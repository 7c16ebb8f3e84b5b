#include "common/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

namespace crowdfusion::common {
namespace {

TEST(JsonValueTest, ScalarsRoundTrip) {
  EXPECT_EQ(JsonValue(nullptr).Dump(), "null");
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(false).Dump(), "false");
  EXPECT_EQ(JsonValue(42).Dump(), "42");
  EXPECT_EQ(JsonValue(int64_t{-7}).Dump(), "-7");
  EXPECT_EQ(JsonValue("hi").Dump(), "\"hi\"");
}

TEST(JsonValueTest, Int64ExtremesAreLossless) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  for (const int64_t value : {max, min, int64_t{0}}) {
    auto parsed = JsonValue::Parse(JsonValue(value).Dump());
    ASSERT_TRUE(parsed.ok());
    ASSERT_TRUE(parsed->is_int());
    EXPECT_EQ(parsed->GetInt().value(), value);
  }
}

TEST(JsonValueTest, DoublesAreBitExact) {
  for (const double value : {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324,
                             -0.030000000000000002}) {
    auto parsed = JsonValue::Parse(JsonValue(value).Dump());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->GetDouble().value(), value);
  }
}

TEST(JsonValueTest, InfinityConvention) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(JsonValue(inf).Dump(), "1e999");
  EXPECT_EQ(JsonValue(-inf).Dump(), "-1e999");
  auto parsed = JsonValue::Parse("1e999");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::isinf(parsed->GetDouble().value()));
  auto negative = JsonValue::Parse("-1e999");
  ASSERT_TRUE(negative.ok());
  EXPECT_LT(negative->GetDouble().value(), 0);
  EXPECT_EQ(JsonValue(std::nan("")).Dump(), "null");
}

TEST(JsonValueTest, IntegralDoublesKeepTheirKind) {
  for (const double value : {2.0, -0.0, 1e20}) {
    auto parsed = JsonValue::Parse(JsonValue(value).Dump());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->kind(), JsonValue::Kind::kDouble) << value;
    EXPECT_EQ(*parsed, JsonValue(value)) << value;
  }
}

TEST(JsonValueTest, UnderflowParsesToZeroNotInfinity) {
  // from_chars reports out-of-range for underflow too; the parser must
  // not turn a vanishing literal into infinity.
  for (const char* tiny : {"1e-999", "-1e-999", "4.9e-400"}) {
    auto parsed = JsonValue::Parse(tiny);
    ASSERT_TRUE(parsed.ok()) << tiny;
    EXPECT_NEAR(parsed->GetDouble().value(), 0.0, 1e-300) << tiny;
    EXPECT_FALSE(std::isinf(parsed->GetDouble().value())) << tiny;
  }
}

TEST(JsonValueTest, StringsEscape) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  auto parsed = JsonValue::Parse(JsonValue(nasty).Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString().value(), nasty);
  // Unicode escapes decode to UTF-8.
  auto unicode = JsonValue::Parse(R"("\u00e9\u0041")");
  ASSERT_TRUE(unicode.ok());
  EXPECT_EQ(unicode->GetString().value(), "\xc3\xa9"
                                          "A");
}

TEST(JsonValueTest, ObjectsKeepInsertionOrder) {
  JsonValue object = JsonValue::MakeObject();
  object.Set("zulu", 1);
  object.Set("alpha", 2);
  object.Set("mike", JsonValue::MakeArray());
  EXPECT_EQ(object.Dump(), R"({"zulu":1,"alpha":2,"mike":[]})");
  // Replacing a member keeps its slot.
  object.Set("zulu", 9);
  EXPECT_EQ(object.Dump(), R"({"zulu":9,"alpha":2,"mike":[]})");
  // Find / Get.
  EXPECT_NE(object.Find("alpha"), nullptr);
  EXPECT_EQ(object.Find("beta"), nullptr);
  EXPECT_FALSE(object.Get("beta").ok());
}

TEST(JsonValueTest, PrettyPrintIsReparsable) {
  auto parsed = JsonValue::Parse(
      R"({"a": [1, 2.5, "x"], "b": {"c": null, "d": [true, false]}})");
  ASSERT_TRUE(parsed.ok());
  auto reparsed = JsonValue::Parse(parsed->Dump(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*parsed, *reparsed);
  EXPECT_EQ(parsed->Dump(), reparsed->Dump());
}

TEST(JsonValueTest, ParseErrors) {
  for (const char* bad :
       {"", "{", "[1,", "tru", "nul", "{\"a\" 1}", "{\"a\":1,}", "[1 2]",
        "\"\\q\"", "\"unterminated", "01x", "-", "{}extra",
        "{\"a\":1,\"a\":2}", "\"\\ud800\"",
        // RFC 8259 number grammar: no leading zeros, no bare or trailing
        // decimal point.
        "01", "-01", "00", "[01]", ".5", "-.5", "1.", "1.e5", "1e",
        "1e+", "+1",
        // Raw control bytes inside strings, and \v / \f as whitespace.
        "\"a\x01\"", "\"tab\there\"", "\"\x1f\"", "\v1", "1\f",
        "[1,\v2]"}) {
    auto parsed = JsonValue::Parse(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(JsonValueTest, ParseAcceptsTheRfcNumberGrammar) {
  for (const char* good : {"0", "-0", "10", "0.5", "-0.5", "1e5", "1E+5",
                           "1e-05", "0e0", "-12.25e2", " \t\r\n7 "}) {
    auto parsed = JsonValue::Parse(good);
    EXPECT_TRUE(parsed.ok()) << good << ": " << parsed.status().ToString();
  }
  EXPECT_EQ(JsonValue::Parse("-12.25e2")->GetDouble().value(), -1225.0);
  EXPECT_TRUE(JsonValue::Parse("10")->is_int());
  EXPECT_FALSE(JsonValue::Parse("1e5")->is_int());
}

/// The %.17g spelling of `value` plus Dump's ".0" rule for integral
/// doubles: the wire format every JSON document in the repo carries.
std::string Printf17g(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  std::string text = buffer;
  if (text.find_first_of(".e") == std::string::npos) text += ".0";
  return text;
}

TEST(JsonValueTest, DumpMatchesPrintf17g) {
  const double max = std::numeric_limits<double>::max();
  for (const double value :
       {0.0, -0.0, 5e-324, -5e-324, max, -max, 1e16, 1e17, -1e16, -1e17,
        99999999999999999.0, 9999999999999998.0, 1e-5, 1e-4, 0.1, 1.0 / 3.0,
        2.2250738585072014e-308, 123456789012345678.0}) {
    EXPECT_EQ(JsonValue(value).Dump(), Printf17g(value)) << value;
  }
  std::mt19937_64 rng(20240917);
  int checked = 0;
  for (int i = 0; i < 1000000; ++i) {
    const double value = std::bit_cast<double>(rng());
    if (!std::isfinite(value)) continue;
    ++checked;
    const std::string dumped = JsonValue(value).Dump();
    if (dumped != Printf17g(value)) {
      ADD_FAILURE() << "bits " << std::bit_cast<uint64_t>(value) << ": "
                    << dumped << " != " << Printf17g(value);
      break;
    }
  }
  EXPECT_GT(checked, 990000);
}

TEST(JsonValueTest, EscapesEveryAsciiByteAsBefore) {
  std::string ascii;
  for (int c = 0; c < 0x80; ++c) ascii.push_back(static_cast<char>(c));
  // JsonEscape's output before the escaper wrote straight into the dump
  // buffer: short escapes for \b \t \n \f \r, lowercase \u00xx for the
  // other control bytes, DEL passed through.
  const std::string expected =
      R"json("\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\b\t\n\u000b)json"
      R"json(\f\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015\u0016)json"
      R"json(\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f !\"#$%)json"
      R"json(&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`a)json"
      R"json(bcdefghijklmnopqrstuvwxyz{|}~)json"
      "\x7f\"";
  EXPECT_EQ(JsonEscape(ascii), expected);
  EXPECT_EQ(JsonValue(ascii).Dump(), expected);
  JsonValue object = JsonValue::MakeObject();
  object.Set(ascii, 1);
  EXPECT_EQ(object.Dump(), "{" + expected + ":1}");
  auto parsed = JsonValue::Parse(expected);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string(), ascii);
}

TEST(JsonValueTest, DepthCapStopsNestingBombs) {
  EXPECT_FALSE(JsonValue::Parse(std::string(1000, '[')).ok());
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "{\"a\":";
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonValueTest, TypedAccessorsRejectMismatches) {
  const JsonValue value(42);
  EXPECT_TRUE(value.GetInt().ok());
  EXPECT_TRUE(value.GetDouble().ok());  // ints widen to double
  EXPECT_FALSE(value.GetBool().ok());
  EXPECT_FALSE(value.GetString().ok());
  EXPECT_FALSE(JsonValue(0.5).GetInt().ok());
}

}  // namespace
}  // namespace crowdfusion::common
