/**
 * @file
 * Pins the observable behaviour of the whole corpus: every
 * tests/suite program under every profile in driver::allProfiles().
 *
 * Each (file, profile) run is rendered as one line — verdict, failure
 * kind, UB location, failure text, steps, output, and the serve layer's
 * witness (trace) digest — and the SHA-256 of the whole listing is
 * compared against the committed golden in witness_listing.sha256.
 * An optimisation of the memory model, the store or the evaluator
 * must leave this listing byte-identical.
 *
 * On a mismatch the full listing is written to
 * <build>/tests/witness_listing.actual.txt so it can be diffed against
 * the same file produced by a build of the parent commit.  A change
 * that alters observable behaviour on purpose regenerates the golden
 * from the hash this test prints.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "driver/interpreter.h"
#include "driver/suite.h"
#include "serve/exec.h"
#include "support/format.h"

namespace cherisem::driver {
namespace {

/** FIPS 180-4 SHA-256 of @p data, as 64 lowercase hex digits. */
std::string
sha256Hex(const std::string &data)
{
    static constexpr std::array<uint32_t, 64> k = {
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
        0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
        0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
        0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
        0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
        0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
        0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
        0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
        0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
        0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
        0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
        0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
    std::array<uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                 0xa54ff53a, 0x510e527f, 0x9b05688c,
                                 0x1f83d9ab, 0x5be0cd19};
    auto rotr = [](uint32_t x, unsigned n) {
        return (x >> n) | (x << (32 - n));
    };

    std::string msg = data;
    uint64_t bits = uint64_t(data.size()) * 8;
    msg.push_back(static_cast<char>(0x80));
    while (msg.size() % 64 != 56)
        msg.push_back(0);
    for (int i = 7; i >= 0; --i)
        msg.push_back(static_cast<char>(bits >> (8 * i)));

    for (size_t block = 0; block < msg.size(); block += 64) {
        uint32_t w[64];
        for (unsigned i = 0; i < 16; ++i) {
            const auto *p = reinterpret_cast<const unsigned char *>(
                msg.data() + block + 4 * i);
            w[i] = uint32_t(p[0]) << 24 | uint32_t(p[1]) << 16 |
                uint32_t(p[2]) << 8 | uint32_t(p[3]);
        }
        for (unsigned i = 16; i < 64; ++i) {
            uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                (w[i - 15] >> 3);
            uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }
        std::array<uint32_t, 8> v = h;
        for (unsigned i = 0; i < 64; ++i) {
            uint32_t s1 = rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
            uint32_t ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
            uint32_t t1 = v[7] + s1 + ch + k[i] + w[i];
            uint32_t s0 = rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
            uint32_t maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
            uint32_t t2 = s0 + maj;
            for (unsigned j = 7; j > 0; --j)
                v[j] = v[j - 1];
            v[4] += t1;
            v[0] = t1 + t2;
        }
        for (unsigned i = 0; i < 8; ++i)
            h[i] += v[i];
    }
    std::string out;
    for (uint32_t x : h)
        out += strPrintf("%08x", x);
    return out;
}

/** @p s with backslashes, newlines and the field separator escaped,
 *  so every run stays on one line of the listing. */
std::string
escaped(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else if (c == '|')
            out += "\\|";
        else
            out += c;
    }
    return out;
}

const char *
failureKindName(mem::Failure::Kind k)
{
    switch (k) {
      case mem::Failure::Kind::Undefined:
        return "undefined";
      case mem::Failure::Kind::Constraint:
        return "constraint";
      case mem::Failure::Kind::Internal:
        return "internal";
      case mem::Failure::Kind::ResourceExhausted:
        return "resource-exhausted";
    }
    return "?";
}

/** One listing line for @p t under @p profile. */
std::string
renderRun(const SuiteTest &t, const Profile &profile)
{
    RunResult r = runSource(t.source, profile, t.name + ".c");
    serve::RunSpec spec;
    spec.traceDigest = true;
    serve::ExecResult traced = serve::runRequest(
        t.source, profile, spec, serve::ExecLimits{}, nullptr);

    std::string line = t.name + "|" + profile.name + "|" +
        escaped(r.summary());
    if (!r.frontendError) {
        const corelang::Outcome &o = r.outcome;
        bool failed = o.kind == corelang::Outcome::Kind::Undefined ||
            o.kind == corelang::Outcome::Kind::Error ||
            o.kind == corelang::Outcome::Kind::ResourceExhausted;
        if (failed) {
            line += std::string("|") + failureKindName(o.failure.kind) +
                "|" + o.failure.loc.str() + "|" +
                escaped(o.failure.message);
        } else {
            line += "|-|-|-";
        }
        line += "|steps=" + std::to_string(o.steps) + "|out=" +
            escaped(o.output);
    }
    line += "|digest=" +
        (traced.hasDigest ? strPrintf("%016llx",
                                      static_cast<unsigned long long>(
                                          traced.digest))
                          : std::string("none"));
    return line + "\n";
}

std::string
readGolden()
{
    std::ifstream in(std::string(CHERISEM_SOURCE_DIR) +
                     "/tests/driver/witness_listing.sha256");
    std::string hex;
    in >> hex;
    return hex;
}

TEST(WitnessListing, Sha256KnownAnswers)
{
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    // Two-block message (56 bytes forces a second padding block).
    EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                        "mnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(WitnessListing, CorpusUnderEveryProfileMatchesGolden)
{
    std::vector<SuiteTest> suite = loadSuite(defaultSuiteDir());
    ASSERT_FALSE(suite.empty());
    std::string listing;
    for (const SuiteTest &t : suite) {
        for (const Profile &p : allProfiles())
            listing += renderRun(t, p);
    }
    std::string actual = sha256Hex(listing);
    std::string golden = readGolden();
    if (actual != golden) {
        std::string path = std::string(CHERISEM_TEST_BINARY_DIR) +
            "/witness_listing.actual.txt";
        std::ofstream(path) << listing;
        ADD_FAILURE() << "witness listing sha256 " << actual
                      << " != golden " << golden
                      << "; full listing written to " << path;
    }
}

} // namespace
} // namespace cherisem::driver
