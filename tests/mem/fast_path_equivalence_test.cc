/**
 * @file
 * Tracing observes a run; it must not change it.
 *
 * An untraced run takes the memory model's fast paths, a traced one
 * the slow paths that witness every access.  For every tests/suite
 * program under every profile both must reach the same Outcome (the
 * verdict, its location and message, the exit code), the same step
 * count and output, the same intrinsic call counts and the same
 * MemStats, every counter but the revocation sweep's wall time.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "driver/interpreter.h"
#include "driver/suite.h"
#include "mem/stats_json.h"
#include "obs/sinks.h"

namespace cherisem::driver {
namespace {

/** Everything a run observes but timings, one field a line. */
std::string
observed(const RunResult &r, const Profile &profile)
{
    const corelang::Outcome &o = r.outcome;
    std::string out = "summary: " + r.summary() + "\n";
    if (r.frontendError)
        return out;
    out += "message: " + o.message + "\n";
    out += "where: " + o.failure.loc.str() + "\n";
    out += "steps: " + std::to_string(o.steps) + "\n";
    out += "output: " + o.output + "\n";
    for (const auto &[name, calls] : o.intrinsicCalls)
        out += "calls " + name + ": " + std::to_string(calls) + "\n";
    std::istringstream stats(
        mem::memStatsJson(o.memStats, profile.memConfig.heapAllocator));
    std::string line;
    while (std::getline(stats, line)) {
        if (line.find("\"sweep_ns\"") == std::string::npos)
            out += line + "\n";
    }
    return out;
}

TEST(FastPathEquivalence, CorpusUnderEveryProfile)
{
    std::vector<SuiteTest> suite = loadSuite(defaultSuiteDir());
    ASSERT_FALSE(suite.empty());
    int runs = 0;
    int differ = 0;
    for (const SuiteTest &t : suite) {
        for (const Profile &p : allProfiles()) {
            RunResult plain = runSource(t.source, p, t.name + ".c");
            obs::DigestSink sink;
            Profile tracedProfile = p;
            tracedProfile.memConfig.traceSink = &sink;
            RunResult traced =
                runSource(t.source, tracedProfile, t.name + ".c");
            ++runs;
            std::string want = observed(plain, p);
            std::string got = observed(traced, p);
            if (want == got)
                continue;
            // Report the first few in full; count the rest.
            if (++differ <= 5) {
                ADD_FAILURE() << t.name << " under " << p.name
                              << ": traced run differs\n--- untraced\n"
                              << want << "--- traced\n"
                              << got;
            }
        }
    }
    EXPECT_EQ(differ, 0) << differ << " of " << runs
                         << " runs changed under tracing";
}

} // namespace
} // namespace cherisem::driver
