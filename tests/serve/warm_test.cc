/**
 * @file
 * Warm serving tests.
 *
 * WarmCache: LRU behaviour, first-insert-wins, stats accounting, and
 * the capacity-0 kill switch.
 *
 * WarmServing: a warm Server (prelude prepended, post-prelude
 * snapshot forked per program) must answer exactly like a cold
 * Server handed the combined prelude + source: same verdict, exit
 * code or UB name, message, step/load/store counts, output and
 * witness digest.  Covered: the suite corpus under two profiles
 * (each request sent twice, so both the warm build and the warm hit
 * are compared), a prelude that itself raises UB (terminal entry,
 * also under a budget it exhausts first), and a step budget below
 * the prelude's own steps (cold fallback).
 * Both servers run two workers, so the ThreadSanitizer job sees the
 * shared caches under concurrency.
 */
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "driver/suite.h"
#include "serve/cache.h"
#include "serve/server.h"

namespace cherisem::serve {
namespace {

corelang::WarmPtr
entryWithSteps(uint64_t steps)
{
    auto e = std::make_shared<corelang::WarmEntry>();
    e->preludeOutcome.steps = steps;
    return e;
}

TEST(WarmCache, LookupMissThenHit)
{
    WarmCache cache(4);
    EXPECT_EQ(cache.lookup(1), nullptr);

    cache.insert(1, entryWithSteps(10));
    corelang::WarmPtr got = cache.lookup(1);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->preludeOutcome.steps, 10u);

    WarmCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.size, 1u);
    EXPECT_EQ(s.capacity, 4u);
}

TEST(WarmCache, FirstInsertWins)
{
    // Two requests for the same program can race to build the warm
    // entry; determinism makes them identical, and the cache keeps
    // the first so existing WarmPtrs stay canonical.
    WarmCache cache(4);
    cache.insert(7, entryWithSteps(1));
    cache.insert(7, entryWithSteps(2));
    ASSERT_NE(cache.lookup(7), nullptr);
    EXPECT_EQ(cache.lookup(7)->preludeOutcome.steps, 1u);
    EXPECT_EQ(cache.stats().size, 1u);
}

TEST(WarmCache, EvictsLeastRecentlyUsed)
{
    WarmCache cache(2);
    cache.insert(1, entryWithSteps(1));
    cache.insert(2, entryWithSteps(2));

    // Touch 1 so 2 becomes the LRU victim.
    ASSERT_NE(cache.lookup(1), nullptr);
    cache.insert(3, entryWithSteps(3));

    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_EQ(cache.lookup(2), nullptr);
    EXPECT_NE(cache.lookup(3), nullptr);

    WarmCache::Stats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.size, 2u);
}

TEST(WarmCache, CapacityZeroDisables)
{
    WarmCache cache(0);
    cache.insert(1, entryWithSteps(1));
    EXPECT_EQ(cache.lookup(1), nullptr);
    WarmCache::Stats s = cache.stats();
    EXPECT_EQ(s.size, 0u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 0u);
}

TEST(WarmCache, ClearEmptiesButKeepsCounters)
{
    WarmCache cache(4);
    cache.insert(1, entryWithSteps(1));
    ASSERT_NE(cache.lookup(1), nullptr);
    cache.clear();
    EXPECT_EQ(cache.lookup(1), nullptr);
    WarmCache::Stats s = cache.stats();
    EXPECT_EQ(s.size, 0u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
}

/** Submit @p reqs to @p server and return the responses in order. */
std::vector<Response>
runAll(Server &server, const std::vector<Request> &reqs)
{
    std::vector<std::future<Response>> futures;
    for (const Request &req : reqs) {
        auto done = std::make_shared<std::promise<Response>>();
        futures.push_back(done->get_future());
        EXPECT_TRUE(server.submit(req, [done](Response r) {
            done->set_value(std::move(r));
        }));
    }
    server.drain();
    std::vector<Response> out;
    for (auto &f : futures)
        out.push_back(f.get());
    return out;
}

/** Run @p reqs on a warm server over @p prelude and, with the
 *  prelude joined to each source as the warm path joins it, on a
 *  cold one; every response pair must agree on everything but
 *  timings and the cache flags.  Returns the warm responses. */
std::vector<Response>
expectWarmMatchesCold(const std::string &prelude,
                      const std::vector<Request> &reqs,
                      size_t cacheCapacity = 1024)
{
    ServerOptions wopts;
    wopts.threads = 2;
    wopts.warmPrelude = prelude;
    // Room for every (program, profile) pair, so repeats hit.
    wopts.warmCapacity = 1024;
    wopts.cacheCapacity = cacheCapacity;
    Server warm(wopts);

    ServerOptions copts;
    copts.threads = 2;
    Server cold(copts);
    std::vector<Request> coldReqs = reqs;
    for (Request &r : coldReqs)
        r.source = joinWarmSource(prelude, r.source);

    std::vector<Response> w = runAll(warm, reqs);
    std::vector<Response> c = runAll(cold, coldReqs);
    for (size_t i = 0; i < reqs.size(); ++i) {
        const std::string &id = reqs[i].id;
        EXPECT_EQ(w[i].verdict, c[i].verdict) << id;
        EXPECT_EQ(w[i].exitCode, c[i].exitCode) << id;
        EXPECT_EQ(w[i].ubName, c[i].ubName) << id;
        EXPECT_EQ(w[i].message, c[i].message) << id;
        EXPECT_EQ(w[i].steps, c[i].steps) << id;
        EXPECT_EQ(w[i].loads, c[i].loads) << id;
        EXPECT_EQ(w[i].stores, c[i].stores) << id;
        EXPECT_EQ(w[i].output, c[i].output) << id;
        EXPECT_EQ(w[i].traceDigest, c[i].traceDigest) << id;
    }
    return w;
}

Request
runRequestFor(const std::string &id, const std::string &source,
              const std::string &profile)
{
    Request r;
    r.id = id;
    r.source = source;
    r.profile = profile;
    r.traceDigest = true;
    return r;
}

/** Globals, a heap block and a loop: enough prelude state that a
 *  wrong restore shows in steps, counters or the digest. */
const char *kPrelude = "#include <stdlib.h>\n"
                       "int __warm_table[64];\n"
                       "int *__warm_heap;\n"
                       "void __prelude(void) {\n"
                       "    for (int i = 0; i < 64; i++)\n"
                       "        __warm_table[i] = (i * 37 + 5) % 101;\n"
                       "    __warm_heap = malloc(16 * sizeof(int));\n"
                       "    for (int i = 0; i < 16; i++)\n"
                       "        __warm_heap[i] = __warm_table[i];\n"
                       "}\n";

TEST(WarmServing, SuiteMatchesColdUnderTwoProfiles)
{
    std::vector<driver::SuiteTest> suite =
        driver::loadSuite(driver::defaultSuiteDir());
    ASSERT_GT(suite.size(), 100u);
    // Round 0 builds each entry, round 1 hits it.  Once the build
    // request asks for no digest (its main() runs untraced, from the
    // entry) and the hit does; once the other way round.
    for (bool digestFirst : {false, true}) {
        std::vector<Request> reqs;
        for (const char *profile : {"cerberus", "clang-morello-O0"}) {
            for (int round = 0; round < 2; ++round) {
                for (const driver::SuiteTest &t : suite) {
                    Request r = runRequestFor(t.name, t.source, profile);
                    r.traceDigest = (round == 0) == digestFirst;
                    reqs.push_back(r);
                }
            }
        }
        std::vector<Response> w = expectWarmMatchesCold(kPrelude, reqs);
        size_t hits = 0;
        for (const Response &r : w)
            hits += r.warm;
        // Concurrent first requests may race the build, but the
        // second round of each profile is served from snapshots.
        EXPECT_GE(hits, suite.size()) << "digestFirst=" << digestFirst;
    }
}

TEST(WarmServing, LocationsNameTheRequestsOwnLines)
{
    // The prelude is joined under `#line 1 "<input>"`, so the failing
    // assert is reported at the request's line, as a cold run of the
    // file reports it.
    std::string source;
    for (const driver::SuiteTest &t :
         driver::loadSuite(driver::defaultSuiteDir())) {
        if (t.name == "repbytes_06_ghost_state_observable")
            source = t.source;
    }
    ASSERT_FALSE(source.empty());
    std::vector<Request> reqs;
    for (const char *id : {"build", "hit"})
        reqs.push_back(runRequestFor(id, source, "clang-morello-O0"));
    std::vector<Response> w = expectWarmMatchesCold(kPrelude, reqs);
    for (const Response &r : w) {
        EXPECT_EQ(r.verdict, "assert-fail") << r.id;
        EXPECT_NE(r.message.find("<input>:13:11"), std::string::npos)
            << r.id << ": " << r.message;
    }
}

TEST(WarmServing, HitOutlivesTheCompileItWasBuiltOver)
{
    // With no compile cache every request compiles afresh, so the
    // compile a warm entry was built over is gone by the time the
    // entry serves a hit over another compile of the same source.
    // The hits read prelude globals, so a snapshot that pointed into
    // the first compile's AST would read freed memory (the ASan job
    // catches it) or a wrong type.
    const char *main = "int main(void) {\n"
                       "    return __warm_table[3] + __warm_heap[5];\n"
                       "}\n";
    std::vector<Request> reqs;
    for (int i = 0; i < 4; ++i)
        reqs.push_back(runRequestFor("read-" + std::to_string(i), main,
                                     "cerberus"));
    std::vector<Response> w =
        expectWarmMatchesCold(kPrelude, reqs, /*cacheCapacity=*/0);
    size_t hits = 0;
    for (const Response &r : w) {
        EXPECT_EQ(r.verdict, "exit") << r.id;
        // (3*37+5)%101 + (5*37+5)%101
        EXPECT_EQ(r.exitCode, 15 + 89) << r.id;
        hits += r.warm;
    }
    // Two workers: the first two requests may both build, the rest
    // are picked up after an entry exists.
    EXPECT_GE(hits, 2u);
}

TEST(WarmServing, TerminalPreludeMatchesCold)
{
    const char *prelude = "int __warm_x;\n"
                          "void __prelude(void) {\n"
                          "    int *p = 0;\n"
                          "    __warm_x = *p;\n"
                          "}\n";
    const char *main = "int main(void) { return __warm_x; }\n";
    std::vector<Request> reqs;
    for (const char *profile : {"cerberus", "clang-morello-O0"})
        for (int i = 0; i < 3; ++i)
            reqs.push_back(runRequestFor(
                "terminal-" + std::to_string(i), main, profile));
    // A budget below the steps the prelude takes to its verdict: the
    // cold run exhausts first, so the terminal entry must not answer.
    for (const char *profile : {"cerberus", "clang-morello-O0"}) {
        Request tight = runRequestFor("tight", main, profile);
        tight.maxSteps = 2;
        reqs.push_back(tight);
    }
    std::vector<Response> w = expectWarmMatchesCold(prelude, reqs);
    for (const Response &r : w) {
        const char *want =
            r.id == "tight" ? "resource-exhausted" : "ub";
        EXPECT_EQ(r.verdict, want) << r.id;
    }
}

TEST(WarmServing, StepBudgetBelowPreludeFallsBackCold)
{
    const char *main = "int main(void) { return __warm_table[3]; }\n";
    std::vector<Request> reqs;
    for (const char *profile : {"cerberus", "clang-morello-O0"}) {
        // Build the snapshot first, then ask for less than the
        // prelude costs: the cold run exhausts inside the prelude.
        reqs.push_back(runRequestFor("build", main, profile));
        reqs.push_back(runRequestFor("build-again", main, profile));
        Request tight = runRequestFor("tight", main, profile);
        tight.maxSteps = 50;
        reqs.push_back(tight);
    }
    std::vector<Response> w = expectWarmMatchesCold(kPrelude, reqs);
    EXPECT_EQ(w[0].verdict, "exit");
    EXPECT_EQ(w[2].verdict, "resource-exhausted");
    EXPECT_FALSE(w[2].warm);
}

} // namespace
} // namespace cherisem::serve
