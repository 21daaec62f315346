/**
 * @file
 * Known answers for the decimal and hex formatters
 * (src/support/format.h) at the edges of their 128-bit range.
 */
#include <gtest/gtest.h>

#include "support/format.h"

namespace cherisem {
namespace {

constexpr uint128 kU64Max = UINT64_MAX;
constexpr uint128 kU128Max = ~uint128(0);
constexpr int128 kI128Min = static_cast<int128>(uint128(1) << 127);

TEST(Format, DecimalKnownAnswers)
{
    EXPECT_EQ(decStr(uint128(0)), "0");
    EXPECT_EQ(decStr(uint128(7)), "7");
    EXPECT_EQ(decStr(kU64Max), "18446744073709551615");
    EXPECT_EQ(decStr(kU64Max + 1), "18446744073709551616");
    EXPECT_EQ(decStr(kU128Max),
              "340282366920938463463374607431768211455");
    EXPECT_EQ(decStr(int128(0)), "0");
    EXPECT_EQ(decStr(int128(-1)), "-1");
    EXPECT_EQ(decStr(kI128Min),
              "-170141183460469231731687303715884105728");
}

TEST(Format, HexKnownAnswers)
{
    EXPECT_EQ(hexStr(0), "0x0");
    EXPECT_EQ(hexStr(0xabc), "0xabc");
    EXPECT_EQ(hexStr(kU64Max), "0xffffffffffffffff");
    EXPECT_EQ(hexStr(kU64Max + 1), "0x10000000000000000");
    EXPECT_EQ(hexStr(kU128Max), "0xffffffffffffffffffffffffffffffff");
}

TEST(Format, AppendExtendsTheBuffer)
{
    std::string out = "x=";
    appendDec(out, kU128Max);
    out += " y=";
    appendHex(out, 0);
    EXPECT_EQ(out, "x=340282366920938463463374607431768211455 y=0x0");
}

} // namespace
} // namespace cherisem
