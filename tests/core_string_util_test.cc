#include "core/string_util.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace garcia::core {
namespace {

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split(",a,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
  EXPECT_EQ(Join({"solo"}, "-"), "solo");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("IPhone Rental"), "iphone rental");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("phone rental", "phone"));
  EXPECT_FALSE(StartsWith("phone", "phone rental"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(StringUtilTest, ParseUnsignedAcceptsPlainDecimals) {
  uint64_t v = 99;
  EXPECT_TRUE(ParseUnsigned("0", 10, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUnsigned("007", 10, &v));
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(ParseUnsigned("10", 10, &v));  // the bound is inclusive
  EXPECT_EQ(v, 10u);
  EXPECT_TRUE(ParseUnsigned("18446744073709551615", UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(StringUtilTest, ParseUnsignedRejectsBadInput) {
  uint64_t v = 42;
  for (const char* bad :
       {"", "-1", "-0", "+3", " 3", "3 ", "3x", "0x10", "1e3", "1.5", "abc",
        "18446744073709551616", "99999999999999999999999"}) {
    EXPECT_FALSE(ParseUnsigned(bad, UINT64_MAX, &v)) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseUnsigned("11", 10, &v));
  EXPECT_FALSE(ParseUnsigned("7", 5, &v));  // one digit past a small bound
  EXPECT_FALSE(ParseUnsigned("257", 256, &v));
  EXPECT_EQ(v, 42u);  // untouched on every failure
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%s=%d", "k", 7), "k=7");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(StringUtilTest, FormatFixed) {
  EXPECT_EQ(FormatFixed(0.82853, 4), "0.8285");
  EXPECT_EQ(FormatFixed(-1.5, 1), "-1.5");
}

TEST(StringUtilTest, FormatScientific) {
  EXPECT_EQ(FormatScientific(1.39e9), "1.39e9");
  EXPECT_EQ(FormatScientific(0.0), "0");
  EXPECT_EQ(FormatScientific(1e6, 0), "1e6");
}

TEST(StringUtilTest, TokenJaccardIdentical) {
  EXPECT_DOUBLE_EQ(TokenJaccard("phone rental", "phone rental"), 1.0);
}

TEST(StringUtilTest, TokenJaccardCaseInsensitive) {
  EXPECT_DOUBLE_EQ(TokenJaccard("Phone Rental", "phone rental"), 1.0);
}

TEST(StringUtilTest, TokenJaccardPartialOverlap) {
  // {iphone, rental} vs {phone, rental}: 1 common / 3 union.
  EXPECT_NEAR(TokenJaccard("iphone rental", "phone rental"), 1.0 / 3.0, 1e-12);
}

TEST(StringUtilTest, TokenJaccardDisjointAndEmpty) {
  EXPECT_DOUBLE_EQ(TokenJaccard("a b", "c d"), 0.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("", ""), 0.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("a", ""), 0.0);
}

}  // namespace
}  // namespace garcia::core
