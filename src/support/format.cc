#include "support/format.h"

#include <cstdarg>
#include <cstdio>
#include <vector>

namespace cherisem {

namespace {

/** Longest rendering: 2^128-1 in decimal is 39 digits. */
constexpr size_t kMaxDigits = 40;

/** Write @p v in @p base ending at @p end; returns the first digit.
 *  Values that fit 64 bits divide in 64 bits (a 128-bit division is
 *  a library call). */
char *
digitsBackward(char *end, uint128 v, unsigned base)
{
    static const char digits[] = "0123456789abcdef";
    char *p = end;
    while (v > UINT64_MAX) {
        *--p = digits[static_cast<unsigned>(v % base)];
        v /= base;
    }
    uint64_t w = static_cast<uint64_t>(v);
    do {
        *--p = digits[w % base];
        w /= base;
    } while (w != 0);
    return p;
}

} // namespace

void
appendHex(std::string &out, uint128 v)
{
    char buf[kMaxDigits];
    char *end = buf + sizeof buf;
    char *p = digitsBackward(end, v, 16);
    out += "0x";
    out.append(p, end);
}

void
appendDec(std::string &out, uint128 v)
{
    char buf[kMaxDigits];
    char *end = buf + sizeof buf;
    out.append(digitsBackward(end, v, 10), end);
}

std::string
hexStr(uint128 v)
{
    std::string out;
    appendHex(out, v);
    return out;
}

std::string
decStr(uint128 v)
{
    std::string out;
    appendDec(out, v);
    return out;
}

std::string
decStr(int128 v)
{
    // Negate in unsigned arithmetic: -v overflows for the minimum.
    if (v < 0)
        return "-" + decStr(uint128(0) - static_cast<uint128>(v));
    return decStr(static_cast<uint128>(v));
}

std::string
strPrintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::vector<char> buf(n + 1);
    vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), n);
}

} // namespace cherisem
