/**
 * @file
 * oracle_corpus: the paper's oracle use.  Every (tests/suite file,
 * profile) pair whose verdict the file pins -- the reference profile
 * plus every @EXPECT[profile] override -- run through
 * driver::runSource.  The reference is the file's own annotation,
 * checked with driver::outcomeMatches (and @OUTPUT, exactly, on the
 * reference profile), never a cherisem run.  A pass visits the items
 * in file order, starting at an offset the seed picks: the order
 * stays that of a test runner, whatever the seed.
 */
#include <algorithm>
#include <stdexcept>

#include "driver/suite.h"
#include "one_shot.h"

namespace perfbench {

using namespace cherisem;

std::unique_ptr<Workload>
makeOracleCorpus(const std::string &root, uint64_t seed)
{
    std::string dir = root + "/tests/suite";
    std::vector<driver::SuiteTest> suite = driver::loadSuite(dir);
    if (suite.empty())
        throw std::runtime_error("no test programs under " + dir);
    const driver::Profile &ref = driver::referenceProfile();
    std::vector<OneShotItem> items;
    for (const driver::SuiteTest &t : suite) {
        for (const auto &[name, expect] : t.expectations) {
            const driver::Profile *p =
                name.empty() ? &ref : driver::findProfile(name);
            if (!p)
                throw std::runtime_error(t.path + ": unknown profile '" +
                                         name + "'");
            if (!name.empty() && p == &ref)
                continue; // an override that restates the reference
            OneShotItem it;
            it.source = t.source;
            it.filename = t.name + ".c";
            it.profile = p;
            it.expect = expect;
            it.output = t.expectedOutput;
            it.checkOutput = p == &ref && !t.expectedOutput.empty();
            items.push_back(std::move(it));
        }
    }
    std::rotate(items.begin(), items.begin() + seed % items.size(),
                items.end());
    return makeOneShot(std::move(items), OneShotEntry::RunSource);
}

} // namespace perfbench
