/**
 * @file
 * Cold vs warm entry into the engine, over the annotated corpus.
 *
 * The machine can be entered two ways: cold, through evaluate()
 * (globals, __prelude() and main() in one run), or warm, by running
 * the prelude once, capturing the quiescent fork point, and
 * restoring that snapshot into a fresh machine that runs only
 * main() — the path behind warm serving and the fuzz fork driver.
 * Forking must be invisible, so for every suite program, under both
 * store backends, the two entries must agree bit-for-bit:
 *
 *  - the same Outcome (summary string, program output, exit path);
 *  - the same step count and memory-model counters;
 *  - the *identical* witness event stream, addresses included (the
 *    warm stream is the build run's recorded prefix followed by
 *    main()'s own events, exactly as warm serving replays it).
 *
 * The suite files define no __prelude, so here the fork point sits
 * right after global initialisation: the snapshot carries the
 * initialised globals, string literals and heap into main().
 *
 * A program whose prelude terminates (UB in a global initialiser,
 * exit() in __prelude) has no fork point; its warm outcome is the
 * prelude's, as in corelang::WarmEntry::terminal.
 */
#include <gtest/gtest.h>

#include "corelang/machine.h"
#include "driver/interpreter.h"
#include "driver/suite.h"
#include "obs/sinks.h"
#include "obs/trace_diff.h"

namespace cherisem::driver {
namespace {

using corelang::Machine;
using corelang::Outcome;

const std::vector<SuiteTest> &
suite()
{
    static std::vector<SuiteTest> tests = loadSuite(defaultSuiteDir());
    return tests;
}

/** Assert the cold and warm entries agreed on everything
 *  observable. */
void
expectWarmMatchesCold(const SuiteTest &t, const Profile &profile)
{
    Result<CompiledPtr, std::string> compiled =
        compile(t.source, profile, t.path, obs::Tracer());
    ASSERT_TRUE(compiled) << t.path;
    const sema::Program &prog = compiled.value()->prog;
    const corelang::EvalOptions opts = profile.evalOptions();
    constexpr size_t kRing = 1 << 17;

    obs::RingBufferSink coldRing(kRing);
    corelang::EvalOptions co = opts;
    co.memConfig.traceSink = &coldRing;
    Outcome cold = corelang::evaluate(prog, co);

    // Build: globals + __prelude() once, fork at the quiescent point.
    obs::RingBufferSink buildRing(kRing);
    corelang::EvalOptions bo = opts;
    bo.memConfig.traceSink = &buildRing;
    Machine builder(prog, bo);
    corelang::WarmPtr entry = corelang::buildWarm(builder, buildRing);

    // Fork: restore into a fresh machine, replay the recorded prefix
    // (re-stamped 0..P-1, the cold prefix), run main().
    obs::RingBufferSink warmRing(kRing);
    corelang::EvalOptions wo = opts;
    wo.memConfig.traceSink = &warmRing;
    Outcome warm = corelang::runWarm(prog, wo, *entry);

    EXPECT_EQ(coldRing.dropped(), 0u) << t.path << ": ring overflow";
    EXPECT_EQ(buildRing.dropped(), 0u) << t.path << ": ring overflow";
    EXPECT_EQ(warm.summary(), cold.summary()) << t.path;
    EXPECT_EQ(warm.output, cold.output) << t.path;
    EXPECT_EQ(warm.steps, cold.steps) << t.path;
    EXPECT_EQ(warm.memStats.loads, cold.memStats.loads) << t.path;
    EXPECT_EQ(warm.memStats.stores, cold.memStats.stores) << t.path;
    EXPECT_EQ(warm.memStats.allocations, cold.memStats.allocations)
        << t.path;
    EXPECT_EQ(warm.memStats.kills, cold.memStats.kills) << t.path;
    EXPECT_EQ(warm.memStats.ghostTagInvalidations,
              cold.memStats.ghostTagInvalidations)
        << t.path;
    EXPECT_EQ(warm.memStats.hardTagInvalidations,
              cold.memStats.hardTagInvalidations)
        << t.path;
    EXPECT_EQ(warm.intrinsicCalls, cold.intrinsicCalls) << t.path;

    obs::DiffResult d = obs::diffEventStreams(
        warmRing.snapshot(), coldRing.snapshot(), obs::DiffOptions{});
    EXPECT_TRUE(d.equivalent) << t.path << ": " << d.summary();
}

class EngineEquivalence : public ::testing::TestWithParam<size_t>
{};

TEST_P(EngineEquivalence, MapStore)
{
    Profile p = referenceProfile();
    p.memConfig.storeBackend = mem::StoreBackend::Map;
    expectWarmMatchesCold(suite()[GetParam()], p);
}

TEST_P(EngineEquivalence, PagedStore)
{
    Profile p = referenceProfile();
    p.memConfig.storeBackend = mem::StoreBackend::Paged;
    expectWarmMatchesCold(suite()[GetParam()], p);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, EngineEquivalence,
    ::testing::Range<size_t>(0, suite().size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        std::string n = suite()[info.param].name;
        for (char &c : n) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

/** The hardware profiles stress different machine configurations
 *  (no ghost state, different allocators, CHERIoT format, temporal
 *  revocation); spot check the cold/warm pair under each of them
 *  too. */
TEST(EngineEquivalence, AllProfilesSpotCheck)
{
    const std::vector<SuiteTest> &tests = suite();
    ASSERT_FALSE(tests.empty());
    for (const Profile &p : allProfiles()) {
        // A cheap but meaningful slice: every 16th test.
        for (size_t i = 0; i < tests.size(); i += 16)
            expectWarmMatchesCold(tests[i], p);
    }
}

} // namespace
} // namespace cherisem::driver
