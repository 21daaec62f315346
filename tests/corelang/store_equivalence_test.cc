/**
 * @file
 * MapStore vs PagedStore equivalence over the annotated corpus.
 *
 * The store backend is an implementation detail *below* the
 * semantics: the byte/tag store the memory model writes through.
 * MapStore is the simple ordered-map oracle, PagedStore the paged
 * production store, and the two share no code.  So for every suite
 * program the two backends must agree bit-for-bit:
 *
 *  - the same Outcome (summary string, program output, exit path);
 *  - the same step count and memory-model counters;
 *  - the *identical* witness event stream, addresses included
 *    (obs::diffStoreBackends compares un-normalised events).
 *
 * This is the deterministic, corpus-wide counterpart of the fuzz
 * harness's backend grid (fuzz::runCase).
 */
#include <gtest/gtest.h>

#include "driver/suite.h"
#include "obs/differential.h"

namespace cherisem::driver {
namespace {

const std::vector<SuiteTest> &
suite()
{
    static std::vector<SuiteTest> tests = loadSuite(defaultSuiteDir());
    return tests;
}

/** Assert the backend pair agreed on everything observable. */
void
expectStoresAgree(const SuiteTest &t, const Profile &profile)
{
    obs::DifferentialResult r = obs::diffStoreBackends(t.source, profile);
    const corelang::Outcome &map = r.left.outcome;
    const corelang::Outcome &paged = r.right.outcome;

    EXPECT_FALSE(r.truncated) << t.path << ": ring overflow";
    EXPECT_EQ(r.left.summary(), r.right.summary()) << t.path;
    EXPECT_EQ(map.output, paged.output) << t.path;
    EXPECT_EQ(map.steps, paged.steps) << t.path;
    EXPECT_EQ(map.memStats.loads, paged.memStats.loads) << t.path;
    EXPECT_EQ(map.memStats.stores, paged.memStats.stores) << t.path;
    EXPECT_EQ(map.memStats.allocations, paged.memStats.allocations)
        << t.path;
    EXPECT_EQ(map.memStats.kills, paged.memStats.kills) << t.path;
    EXPECT_EQ(map.memStats.ghostTagInvalidations,
              paged.memStats.ghostTagInvalidations)
        << t.path;
    EXPECT_EQ(map.memStats.hardTagInvalidations,
              paged.memStats.hardTagInvalidations)
        << t.path;
    EXPECT_EQ(map.intrinsicCalls, paged.intrinsicCalls) << t.path;
    EXPECT_TRUE(r.diff.equivalent)
        << t.path << ": " << r.diff.summary();
}

class StoreEquivalence : public ::testing::TestWithParam<size_t>
{};

TEST_P(StoreEquivalence, ReferenceProfile)
{
    expectStoresAgree(suite()[GetParam()], referenceProfile());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, StoreEquivalence,
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
 *  revocation); spot check the backend pair under each of them
 *  too. */
TEST(StoreEquivalence, AllProfilesSpotCheck)
{
    const std::vector<SuiteTest> &tests = suite();
    ASSERT_FALSE(tests.empty());
    for (const Profile &p : allProfiles()) {
        // A cheap but meaningful slice: every 16th test.
        for (size_t i = 0; i < tests.size(); i += 16)
            expectStoresAgree(tests[i], p);
    }
}

} // namespace
} // namespace cherisem::driver
