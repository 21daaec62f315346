/**
 * @file
 * The frontend's shared tables (keywords, predefined macros, builtin
 * typedefs, the scalar ctype singletons) are read by every parse on
 * every thread.  This test parses and analyses the whole suite corpus
 * on two threads at once, started together so their first touches
 * race, and checks each thread against a single-threaded reference.
 * It is built into cherisem_serve_tests so the ThreadSanitizer CI job
 * runs it.
 */
#include <gtest/gtest.h>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "driver/suite.h"
#include "frontend/parser.h"
#include "frontend/printer.h"
#include "sema/sema.h"

namespace cherisem::frontend {
namespace {

/** What a parse and analysis of @p t produce: the printed unit and
 *  the function locations, or the error. */
std::string
fingerprint(const driver::SuiteTest &t)
{
    try {
        sema::Program prog = sema::analyze(parse(t.source, t.path),
                                           ctype::MachineLayout{16, 8});
        std::string out = printUnit(prog.unit);
        for (const FunctionDef &fn : prog.unit.functions)
            out += fn.loc.str() + "\n";
        return out;
    } catch (const FrontendError &e) {
        return "frontend " + e.str();
    } catch (const sema::SemaError &e) {
        return "sema " + e.str();
    }
}

TEST(ConcurrentFrontend, SuiteCorpusOnTwoThreads)
{
    const std::vector<driver::SuiteTest> suite =
        driver::loadSuite(driver::defaultSuiteDir());
    ASSERT_FALSE(suite.empty());

    constexpr int kThreads = 2;
    std::vector<std::vector<std::string>> got(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            for (const driver::SuiteTest &t : suite)
                got[i].push_back(fingerprint(t));
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (size_t f = 0; f < suite.size(); ++f) {
        const std::string want = fingerprint(suite[f]);
        for (int i = 0; i < kThreads; ++i)
            EXPECT_EQ(got[i][f], want) << suite[f].name << " thread " << i;
    }
}

} // namespace
} // namespace cherisem::frontend
