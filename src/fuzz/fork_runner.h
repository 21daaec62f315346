/**
 * @file
 * Fork-based fuzzing over COW snapshots.
 *
 * One fork case compiles a fork-shaped program (GenOptions::
 * forkPrefix: a `__prelude()` prefix mutating file-scope state, a
 * main() keyed on the `__variant` global) ONCE, executes globals +
 * prelude once, captures the post-prelude snapshot, and then forks N
 * variants from it: each variant restores the snapshot into a fresh
 * machine, pokes `__variant = k`, and runs only main().
 *
 * The oracle is the strongest the observability layer offers: every
 * forked variant is re-run cold (fresh machine, full prelude, same
 * poke at the same quiescent point), and the two runs must agree on
 * outcome, output, step count, memory-op counters, AND the full
 * witness-event stream bit-for-bit — a Kind::Fork divergence
 * (always a hard failure) means restore() is not equivalent to
 * never having diverged.
 *
 * The throughput claim (ISSUE: >= 3x on prelude-heavy corpora)
 * falls out of the same loop: ForkStats separates forked eval time
 * (restore + main) from cold eval time (prelude + main).
 */
#ifndef CHERISEM_FUZZ_FORK_RUNNER_H
#define CHERISEM_FUZZ_FORK_RUNNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/diff_runner.h"

namespace cherisem::fuzz {

struct ForkOptions
{
    /** Profile name; empty = reference profile. */
    std::string profile;
    /** Variants forked from one post-prelude snapshot. */
    unsigned variants = 8;
};

struct ForkStats
{
    uint64_t variants = 0;
    uint64_t preludeSteps = 0;
    /** Forked path eval time (restore + poke + main), summed. */
    uint64_t forkNs = 0;
    /** Cold oracle eval time (prelude + poke + main), summed. */
    uint64_t coldNs = 0;
};

/** Run one fork case; returns all divergences (each one a hard
 *  failure).  @p stats accumulates across calls when non-null. */
std::vector<Divergence> runForkCase(uint64_t seed,
                                    const std::string &source,
                                    const ForkOptions &opts,
                                    ForkStats *stats);

} // namespace cherisem::fuzz

#endif // CHERISEM_FUZZ_FORK_RUNNER_H
