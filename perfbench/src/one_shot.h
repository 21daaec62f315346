/**
 * @file
 * The one-shot runner behind oracle_corpus and eval_kernels: each
 * item is one (source, profile) pair run to a verdict on the calling
 * thread, in a closed loop.
 */
#ifndef PERFBENCH_ONE_SHOT_H
#define PERFBENCH_ONE_SHOT_H

#include <memory>
#include <string>
#include <vector>

#include "driver/profiles.h"
#include "harness.h"

namespace perfbench {

struct OneShotItem
{
    std::string source;
    std::string filename;
    const cherisem::driver::Profile *profile = nullptr;
    /** Reference verdict, in the tests/suite grammar. */
    std::string expect;
    /** Reference output lines, compared exactly when checkOutput. */
    std::vector<std::string> output;
    bool checkOutput = false;
};

/** Which public entry point an untraced pass goes through. */
enum class OneShotEntry
{
    RunSource, ///< driver::runSource
    Layers,    ///< frontend::parse -> sema::analyze ->
               ///< corelang::optimize -> corelang::evaluate
};

/** A workload over @p items.  Traced passes always call the four
 *  layer entries, in the order runSource does, with one span each. */
std::unique_ptr<Workload> makeOneShot(std::vector<OneShotItem> items,
                                      OneShotEntry entry);

/** Read a whole file; throws std::runtime_error when it cannot. */
std::string readFile(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_ONE_SHOT_H
