/**
 * @file
 * The trace-differential checker: run one program under two
 * configurations, witness both executions into ring buffers, and diff
 * the normalised event streams.
 *
 * Two comparisons mirror the two validation axes of the repo:
 *
 *  - diffStoreBackends: same profile, MapStore oracle vs PagedStore —
 *    the streams must be *identical* (the store is an implementation
 *    detail below the semantics), so any divergence is a bug;
 *  - diffProfiles: two implementation profiles (section 6 style) —
 *    divergences are findings, and the first divergent event names
 *    the semantic axis on which the implementations differ.
 *
 * This layer sits above driver/ (it re-runs whole programs); nothing
 * in driver/ depends back on it.
 */
#ifndef CHERISEM_OBS_DIFFERENTIAL_H
#define CHERISEM_OBS_DIFFERENTIAL_H

#include <string>

#include "driver/interpreter.h"
#include "obs/trace_diff.h"

namespace cherisem::obs {

/** Events each traced run of a differential check retains: a longer
 *  stream truncates the comparison. */
constexpr size_t kDiffRingCapacity = 1 << 17;

/** A two-run comparison: both outcomes plus the stream diff. */
struct DifferentialResult
{
    driver::RunResult left;
    driver::RunResult right;
    DiffResult diff;
    /** Raw (pre-normalisation) event counts per side. */
    uint64_t leftEvents = 0;
    uint64_t rightEvents = 0;
    /** Ring-buffer overflow on either side invalidates the diff. */
    bool truncated = false;

    bool
    equivalent() const
    {
        return !truncated && diff.equivalent;
    }

    /** One-line report for harness output. */
    std::string summary() const;
};

/**
 * Run @p source under @p profile twice — once per store backend —
 * and diff the full event streams (addresses compared: the backends
 * must agree bit-for-bit).
 */
DifferentialResult diffStoreBackends(const std::string &source,
                                     const driver::Profile &profile);

/**
 * Run @p source under two implementation profiles and diff the
 * normalised streams under @p opts (callers usually disable address
 * comparison: the profiles' allocators differ by design).
 */
DifferentialResult diffProfiles(const std::string &source,
                                const driver::Profile &a,
                                const driver::Profile &b,
                                const DiffOptions &opts);

} // namespace cherisem::obs

#endif // CHERISEM_OBS_DIFFERENTIAL_H
