/**
 * @file
 * Small string-formatting helpers used throughout the library.
 *
 * We deliberately avoid iostreams in hot paths and provide the hex /
 * decimal helpers the capability printers (Appendix A format) need.
 */
#ifndef CHERISEM_SUPPORT_FORMAT_H
#define CHERISEM_SUPPORT_FORMAT_H

#include <cstdint>
#include <string>

namespace cherisem {

/** 128-bit unsigned integer, used for capability "top" values (can be
 *  2^64) and intermediate bounds arithmetic. */
using uint128 = unsigned __int128;
/** 128-bit signed integer for correction arithmetic in bounds decode. */
using int128 = __int128;

/** Format @p v as "0x..." with no leading zeros (matches the paper's
 *  Appendix A capability printing). */
std::string hexStr(uint128 v);

/** Append hexStr(@p v) to @p out. */
void appendHex(std::string &out, uint128 v);

/** Append decStr(@p v) to @p out. */
void appendDec(std::string &out, uint128 v);

/** Format @p v as a decimal string (supports the full 128-bit range). */
std::string decStr(uint128 v);

/** Format a signed 128-bit value as decimal. */
std::string decStr(int128 v);

/** printf-style formatting into a std::string. */
std::string strPrintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace cherisem

#endif // CHERISEM_SUPPORT_FORMAT_H
