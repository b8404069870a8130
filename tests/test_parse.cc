// Checked numeric parsing (common/parse.h): the trust boundary for
// CLI flags and env knobs. The interesting cases are the ones plain
// std::stol/stod get wrong — trailing junk, overflow, inf/nan — plus
// the byte-size suffix overflow UBSan would flag as signed-multiply UB.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/parse.h"

namespace juno {
namespace {

TEST(ParseInt64, AcceptsPlainIntegers)
{
    EXPECT_EQ(parseInt64("0").value(), 0);
    EXPECT_EQ(parseInt64("42").value(), 42);
    EXPECT_EQ(parseInt64("-17").value(), -17);
    EXPECT_EQ(parseInt64("+9").value(), 9);
}

TEST(ParseInt64, AcceptsInt64Extremes)
{
    EXPECT_EQ(parseInt64("9223372036854775807").value(),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(parseInt64("-9223372036854775808").value(),
              std::numeric_limits<std::int64_t>::min());
}

TEST(ParseInt64, RejectsOverflow)
{
    // One past the extremes: std::stol would throw out_of_range,
    // unchecked strtol would silently saturate. Both must just fail.
    EXPECT_FALSE(parseInt64("9223372036854775808").has_value());
    EXPECT_FALSE(parseInt64("-9223372036854775809").has_value());
    EXPECT_FALSE(parseInt64("99999999999999999999999999").has_value());
}

TEST(ParseInt64, RejectsJunk)
{
    EXPECT_FALSE(parseInt64("").has_value());
    EXPECT_FALSE(parseInt64("ten").has_value());
    EXPECT_FALSE(parseInt64("12x").has_value());   // trailing junk
    EXPECT_FALSE(parseInt64("1 2").has_value());   // embedded space
    EXPECT_FALSE(parseInt64(" 7").has_value());    // leading space
    EXPECT_FALSE(parseInt64("7 ").has_value());    // trailing space
    EXPECT_FALSE(parseInt64("1.5").has_value());   // not an integer
    EXPECT_FALSE(parseInt64("0x10").has_value());  // no hex at the CLI
    EXPECT_FALSE(parseInt64("-").has_value());
}

TEST(ParseInt64InRange, EnforcesInclusiveBounds)
{
    EXPECT_EQ(parseInt64InRange("5", 0, 10).value(), 5);
    EXPECT_EQ(parseInt64InRange("0", 0, 10).value(), 0);
    EXPECT_EQ(parseInt64InRange("10", 0, 10).value(), 10);
    EXPECT_FALSE(parseInt64InRange("-1", 0, 10).has_value());
    EXPECT_FALSE(parseInt64InRange("11", 0, 10).has_value());
    // Range check must not mask a parse failure.
    EXPECT_FALSE(parseInt64InRange("abc", 0, 10).has_value());
}

TEST(ParseFloat64, AcceptsFiniteNumbers)
{
    EXPECT_DOUBLE_EQ(parseFloat64("1.5").value(), 1.5);
    EXPECT_DOUBLE_EQ(parseFloat64("-0.25").value(), -0.25);
    EXPECT_DOUBLE_EQ(parseFloat64("3").value(), 3.0);
    EXPECT_DOUBLE_EQ(parseFloat64("1e3").value(), 1000.0);
    EXPECT_DOUBLE_EQ(parseFloat64("-2.5E-2").value(), -0.025);
}

TEST(ParseFloat64, RejectsNonFinite)
{
    // strtod happily parses these; no knob in this codebase wants
    // them, and NaN silently poisons threshold comparisons.
    EXPECT_FALSE(parseFloat64("inf").has_value());
    EXPECT_FALSE(parseFloat64("-inf").has_value());
    EXPECT_FALSE(parseFloat64("nan").has_value());
    EXPECT_FALSE(parseFloat64("1e999").has_value()); // overflow to inf
}

TEST(ParseFloat64, RejectsJunk)
{
    EXPECT_FALSE(parseFloat64("").has_value());
    EXPECT_FALSE(parseFloat64("fast").has_value());
    EXPECT_FALSE(parseFloat64("1.5x").has_value());
    EXPECT_FALSE(parseFloat64(" 1.5").has_value());
    EXPECT_FALSE(parseFloat64("1.5 ").has_value());
}

TEST(ParseFloat64, AllowsDenormalUnderflow)
{
    // Underflow to a denormal (or zero) is an acceptable rounding,
    // not an error — only overflow to infinity fails.
    const auto v = parseFloat64("1e-320");
    ASSERT_TRUE(v.has_value());
    EXPECT_GE(*v, 0.0);
    EXPECT_LT(*v, 1e-300);
}

TEST(ParseByteSize, AcceptsSuffixes)
{
    EXPECT_EQ(parseByteSize("0").value(), 0);
    EXPECT_EQ(parseByteSize("512").value(), 512);
    EXPECT_EQ(parseByteSize("4k").value(), std::int64_t(4) << 10);
    EXPECT_EQ(parseByteSize("4K").value(), std::int64_t(4) << 10);
    EXPECT_EQ(parseByteSize("64m").value(), std::int64_t(64) << 20);
    EXPECT_EQ(parseByteSize("2G").value(), std::int64_t(2) << 30);
    EXPECT_EQ(parseByteSize("1048576").value(), 1048576);
    EXPECT_EQ(parseByteSize("64k").value(), std::int64_t(64) << 10);
    EXPECT_EQ(parseByteSize("64K").value(), std::int64_t(64) << 10);
    EXPECT_EQ(parseByteSize("512m").value(), std::int64_t(512) << 20);
}

TEST(ParseByteSize, RejectsNegativeAndJunk)
{
    EXPECT_FALSE(parseByteSize("").has_value());
    EXPECT_FALSE(parseByteSize("-1").has_value());
    EXPECT_FALSE(parseByteSize("-4k").has_value());
    EXPECT_FALSE(parseByteSize("k").has_value());   // suffix only
    EXPECT_FALSE(parseByteSize("4t").has_value());  // unknown suffix
    EXPECT_FALSE(parseByteSize("4kb").has_value()); // trailing junk
    EXPECT_FALSE(parseByteSize("4 k").has_value());
    EXPECT_FALSE(parseByteSize("lots").has_value());
    EXPECT_FALSE(parseByteSize("junk").has_value());
    EXPECT_FALSE(parseByteSize("bogus").has_value());
    EXPECT_FALSE(parseByteSize("12q").has_value()); // unknown suffix
    EXPECT_FALSE(parseByteSize("-5").has_value());
}

TEST(ParseByteSize, RejectsOverflowAfterScaling)
{
    // 2^63-1 bytes parses plain but overflows once any suffix scales
    // it; the guard must fire BEFORE the multiply (signed overflow is
    // UB, and the UBSan preset turns it into an abort).
    EXPECT_EQ(parseByteSize("9223372036854775807").value(),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_FALSE(parseByteSize("9223372036854775807k").has_value());
    EXPECT_FALSE(parseByteSize("9223372036854775807g").has_value());
    EXPECT_FALSE(parseByteSize("9007199254740992g").has_value());
    EXPECT_FALSE(parseByteSize("99999999999999999999").has_value());
    // Largest value that survives a g suffix: (2^63-1) >> 30.
    EXPECT_EQ(parseByteSize("8589934591g").value(),
              std::int64_t(8589934591) << 30);
}

} // namespace
} // namespace juno
