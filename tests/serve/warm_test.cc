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
 * the prelude's own steps (cold fallback).  The digest path: streams
 * past 2^17 events (in main(), or already in the prelude) are served
 * warm with the cold digest, and concurrent first digests on an
 * entry built without one share one computed digest prefix.
 * Both servers run two workers, so the ThreadSanitizer job sees the
 * shared caches under concurrency.
 *
 * ServeDigest: a cold digest folds every event of the stream, however
 * long, exactly as an obs::DigestSink over a plain run does.
 */
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "driver/interpreter.h"
#include "driver/profiles.h"
#include "driver/suite.h"
#include "obs/sinks.h"
#include "serve/cache.h"
#include "serve/server.h"

namespace cherisem::serve {
namespace {

std::shared_ptr<WarmServeEntry>
entryWithSteps(uint64_t steps)
{
    auto w = std::make_shared<corelang::WarmEntry>();
    w->preludeOutcome.steps = steps;
    auto e = std::make_shared<WarmServeEntry>();
    e->warm = w;
    return e;
}

TEST(WarmCache, LookupMissThenHit)
{
    WarmCache cache(4);
    EXPECT_EQ(cache.lookup(1), nullptr);

    cache.insert(1, entryWithSteps(10));
    std::shared_ptr<WarmServeEntry> got = cache.lookup(1);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->warm->preludeOutcome.steps, 10u);

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
    // the first so existing entries stay canonical.
    WarmCache cache(4);
    cache.insert(7, entryWithSteps(1));
    cache.insert(7, entryWithSteps(2));
    ASSERT_NE(cache.lookup(7), nullptr);
    EXPECT_EQ(cache.lookup(7)->warm->preludeOutcome.steps, 1u);
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

/** Responses @p w and @p c to @p reqs agree on everything but
 *  timings and the cache flags. */
void
expectSameAnswers(const std::vector<Request> &reqs,
                  const std::vector<Response> &w,
                  const std::vector<Response> &c)
{
    ASSERT_EQ(w.size(), reqs.size());
    ASSERT_EQ(c.size(), reqs.size());
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
}

/** Two workers and no wall-clock deadline: a deadline would cut a
 *  slow (sanitized) run at a different point on each side. */
ServerOptions
testOptions()
{
    ServerOptions opts;
    opts.threads = 2;
    opts.deadlineMs = 0;
    return opts;
}

/** A warm server's options over @p prelude, with room for every
 *  (program, profile) pair, so repeats hit. */
ServerOptions
warmOptions(const std::string &prelude)
{
    ServerOptions opts = testOptions();
    opts.warmPrelude = prelude;
    opts.warmCapacity = 1024;
    return opts;
}

/** @p reqs answered by a cold server handed each source joined to
 *  @p prelude as the warm path joins it. */
std::vector<Response>
runCold(const std::string &prelude, std::vector<Request> reqs)
{
    Server cold(testOptions());
    for (Request &r : reqs)
        r.source = joinWarmSource(prelude, r.source);
    return runAll(cold, reqs);
}

/** Run @p reqs on a warm server over @p prelude and on a cold one;
 *  every response pair must agree (expectSameAnswers).  Returns the
 *  warm responses. */
std::vector<Response>
expectWarmMatchesCold(const std::string &prelude,
                      const std::vector<Request> &reqs,
                      size_t cacheCapacity = 1024)
{
    ServerOptions wopts = warmOptions(prelude);
    wopts.cacheCapacity = cacheCapacity;
    Server warm(wopts);
    std::vector<Response> w = runAll(warm, reqs);
    expectSameAnswers(reqs, w, runCold(prelude, reqs));
    return w;
}

/** expectWarmMatchesCold over @p stages of requests, each drained
 *  before the next starts, so later stages hit the entries that
 *  earlier ones built.  Returns the warm responses in order. */
std::vector<Response>
expectStagesMatchCold(const std::string &prelude,
                      const std::vector<std::vector<Request>> &stages)
{
    Server warm(warmOptions(prelude));
    std::vector<Request> all;
    std::vector<Response> w;
    for (const std::vector<Request> &stage : stages) {
        std::vector<Response> got = runAll(warm, stage);
        all.insert(all.end(), stage.begin(), stage.end());
        w.insert(w.end(), got.begin(), got.end());
    }
    expectSameAnswers(all, w, runCold(prelude, all));
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

/** Events a cold run of @p prelude + @p source under @p profile
 *  emits up to the fork point and in all. */
struct StreamLength
{
    uint64_t prelude = 0;
    uint64_t total = 0;
};

StreamLength
streamLength(const std::string &prelude, const std::string &source,
             const char *profile)
{
    const driver::Profile *p = driver::findProfile(profile);
    EXPECT_NE(p, nullptr);
    auto compiled = driver::compile(joinWarmSource(prelude, source), *p,
                                    "<warm>", obs::Tracer());
    EXPECT_TRUE(compiled.ok());
    obs::DigestSink sink;
    corelang::EvalOptions opts = p->evalOptions();
    opts.memConfig.traceSink = &sink;
    corelang::Machine m(compiled.value()->prog, opts);
    StreamLength len;
    EXPECT_FALSE(m.runPrelude().has_value());
    len.prelude = sink.emitted();
    m.runMain();
    len.total = sink.emitted();
    return len;
}

/** The largest trace ring the project keeps (obs::kDiffRingCapacity).
 *  The streams below pass it: a digest still covers every event. */
constexpr uint64_t kRing = 1 << 17;

/** 19,000 malloc/free pairs: 7 events each, 133,000 in all, just
 *  past kRing (the event-densest loop per step; the TSan job runs
 *  these tests). */
const char *kChurn = "    for (int i = 0; i < 19000; i++)\n"
                     "        free(malloc(4));\n";

TEST(WarmServing, DigestPastTheRingMatchesCold)
{
    // The prelude fits the ring; main() pushes the stream past it.
    std::string main = std::string("#include <stdlib.h>\n"
                                   "int main(void) {\n") +
        kChurn + "    return __warm_table[3];\n}\n";
    for (const char *profile : {"cerberus", "gcc-morello-O0"}) {
        StreamLength len = streamLength(kPrelude, main, profile);
        EXPECT_LT(len.prelude, kRing) << profile;
        EXPECT_GT(len.total, kRing) << profile;
    }
    // A build without a digest, then a digest on its entry; and a
    // build that is itself the digest run.  The hit is served warm and
    // the build from its own machine; both digests cover every event,
    // as the cold ones do.
    Request plain = runRequestFor("plain", main, "cerberus");
    plain.traceDigest = false;
    std::vector<Response> w = expectStagesMatchCold(
        kPrelude, {{plain},
                   {runRequestFor("digest-hit", main, "cerberus"),
                    runRequestFor("digest-build", main,
                                  "gcc-morello-O0")}});
    for (const Response &r : w)
        EXPECT_EQ(r.verdict, "exit") << r.id;
    EXPECT_FALSE(w[0].warm) << "a build";
    EXPECT_TRUE(w[1].warm) << "the digest past 2^17 events is a warm hit";
    EXPECT_FALSE(w[2].warm) << "a build";
}

TEST(WarmServing, PreludePastTheRingMatchesCold)
{
    std::string prelude = std::string("#include <stdlib.h>\n"
                                      "void __prelude(void) {\n") +
        kChurn + "}\n";
    const char *main = "int main(void) { return 7; }\n";
    EXPECT_GT(streamLength(prelude, main, "cerberus").prelude, kRing);
    Request plain = runRequestFor("plain", main, "cerberus");
    plain.traceDigest = false;
    Request again = plain;
    again.id = "plain-hit";
    std::vector<Response> w = expectStagesMatchCold(
        prelude,
        {{plain}, {again, runRequestFor("digest", main, "cerberus")}});
    for (const Response &r : w)
        EXPECT_EQ(r.verdict, "exit") << r.id;
    EXPECT_TRUE(w[1].warm) << "a hit without a digest stays warm";
    EXPECT_TRUE(w[2].warm) << "a digest resumed past 2^17 events stays warm";
}

TEST(ServeDigest, ColdDigestFoldsEveryEvent)
{
    // Every event of a stream past kRing, then 8 zero bytes: the
    // digest() of a sink on a plain run of the same program.
    std::string source = std::string("#include <stdlib.h>\n"
                                     "int main(void) {\n") +
        kChurn + "    return 0;\n}\n";
    const driver::Profile *p = driver::findProfile("cerberus");
    ASSERT_NE(p, nullptr);
    RunSpec spec;
    spec.traceDigest = true;
    ExecResult served = runRequest(source, *p, spec, ExecLimits(), nullptr);
    ASSERT_TRUE(served.hasDigest);
    EXPECT_EQ(served.outcome.kind, corelang::Outcome::Kind::Exit);

    auto compiled =
        driver::compile(source, *p, "<input>", obs::Tracer());
    ASSERT_TRUE(compiled.ok());
    obs::DigestSink sink;
    corelang::EvalOptions opts = p->evalOptions();
    opts.memConfig.traceSink = &sink;
    corelang::Machine m(compiled.value()->prog, opts);
    EXPECT_EQ(m.run().kind, corelang::Outcome::Kind::Exit);
    EXPECT_GT(sink.emitted(), kRing);
    EXPECT_EQ(served.digest, sink.digest());
}

TEST(WarmServing, ConcurrentFirstDigestsOnAnUntracedEntry)
{
    // The entry is built by a request without a digest, so it has no
    // digest prefix; then many digest requests race to need it.  One
    // computes it, the others wait for it, and every digest matches
    // a cold run.
    const char *main = "int main(void) {\n"
                       "    return __warm_table[7] + __warm_heap[2];\n"
                       "}\n";
    Server warm(warmOptions(kPrelude));
    Request build = runRequestFor("build", main, "cerberus");
    build.traceDigest = false;
    ASSERT_EQ(runAll(warm, {build})[0].verdict, "exit");

    uint64_t key = FrontCache::key(joinWarmSource(kPrelude, main),
                                   "cerberus");
    std::shared_ptr<WarmServeEntry> entry = warm.warmCache().lookup(key);
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(entry->warm->preludeEvents.has_value())
        << "serve's warm entries record no events";
    {
        std::lock_guard<std::mutex> lock(entry->mu);
        EXPECT_FALSE(entry->prefix.has_value());
    }

    std::vector<Request> reqs;
    for (int i = 0; i < 16; ++i)
        reqs.push_back(runRequestFor("digest-" + std::to_string(i), main,
                                     "cerberus"));
    std::vector<Response> w = runAll(warm, reqs);
    expectSameAnswers(reqs, w, runCold(kPrelude, reqs));
    for (const Response &r : w) {
        EXPECT_TRUE(r.warm) << r.id;
        EXPECT_FALSE(r.traceDigest.empty()) << r.id;
    }
    std::lock_guard<std::mutex> lock(entry->mu);
    ASSERT_TRUE(entry->prefix.has_value());
    EXPECT_EQ(entry->prefix->events,
              streamLength(kPrelude, main, "cerberus").prelude);
}

} // namespace
} // namespace cherisem::serve
