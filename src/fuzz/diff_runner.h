/**
 * @file
 * Differential executor for generated programs.
 *
 * One fuzz case runs across the profile x store-backend grid:
 *
 *  - per profile, MapStore vs PagedStore under RingBufferSink tracing
 *    (obs::diffStoreBackends): the streams and outcomes must be
 *    bit-identical — any divergence is a bug, full stop;
 *  - reference profile vs each hardware profile
 *    (obs::diffProfiles, addresses/labels not compared): divergences
 *    are findings, and are *expected* exactly when they sit on one of
 *    the documented semantic axes (see DESIGN.md / the paper's
 *    section 5): the UB classes the profiles disagree on, ghost
 *    state vs hardware tag clearing, provenance/liveness checking,
 *    strict vs permissive pointer arithmetic, uninitialised-read
 *    detection, revocation, and capability-format precision;
 *  - eager vs deferred revocation (cheriot-temporal vs
 *    cheriot-temporal-quarantine): the policies clear the same tags
 *    but at different times, so they must agree exactly on UB-free
 *    programs (a mismatch is a hard finding), while allow-ub
 *    programs may observe the epoch boundary through stale pointers
 *    (an expected divergence);
 *  - per profile, first-fit vs sizeclass-slab heap placement
 *    (mem/heap_alloc.h): the allocator decides *where* regions go,
 *    not what they mean, so UB-free programs must agree exactly on
 *    outcome/output/UB (a mismatch is a hard finding).  Allow-ub
 *    programs can observe placement itself — which freed slot a
 *    stale capability aliases, which neighbour an overflow reaches —
 *    so there a mismatch is the documented allocator axis.
 *
 * Any run ending in Outcome::Kind::Error or a frontend error is a
 * crash finding: the generator only emits well-formed programs, so
 * either the generator or the pipeline has a bug.
 */
#ifndef CHERISEM_FUZZ_DIFF_RUNNER_H
#define CHERISEM_FUZZ_DIFF_RUNNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "driver/profiles.h"

namespace cherisem::fuzz {

/** One finding from a differential run. */
struct Divergence
{
    enum class Kind
    {
        Backend,  ///< Map vs Paged disagreed (always a bug)
        Crash,    ///< internal error / frontend error on a run
        Profile,  ///< cross-profile semantic divergence
        UbFree,   ///< UB-free-by-construction program didn't Exit
        Fork,     ///< snapshot-forked run diverged from a cold run
                  ///< of the same variant (always a bug)
        Allocator, ///< first-fit vs sizeclass placement divergence
                   ///< (hard on the UB-free corpus, expected under
                   ///< --allow-ub)
    };

    Kind kind = Kind::Backend;
    uint64_t seed = 0;
    /** Profile (Backend/Crash) or "ref|other" (Profile). */
    std::string where;
    /** Diff/outcome summary. */
    std::string detail;
    /** Profile divergences only: on a documented semantic axis? */
    bool expected = false;

    /** One JSON object (single line, JSONL-ready); the program text
     *  is included when @p source is non-empty. */
    std::string jsonl(const std::string &source = {}) const;
};

struct RunnerOptions
{
    /** Profiles for the backend grid; empty = all built-ins. */
    std::vector<std::string> profiles;
    /** Also diff the reference profile against every other one. */
    bool crossProfiles = true;
    /** Per profile, diff first-fit against sizeclass-slab heap
     *  placement (same profile otherwise). */
    bool allocatorAxis = true;
    /** The program is UB-free by construction: any outcome other
     *  than Exit, on any profile, is a hard finding (the generator
     *  or the semantics is wrong).  Set for the UB-free corpus. */
    bool requireExit = false;
    size_t ringCapacity = 1 << 17;
};

/** Run one generated program across the grid; returns all findings
 *  (expected profile divergences included, flagged). */
std::vector<Divergence> runCase(uint64_t seed,
                                const std::string &source,
                                const RunnerOptions &opts);

/** True when a finding is a hard failure (backend divergence, crash,
 *  or an unexpected profile divergence). */
bool isHardFailure(const Divergence &d);

} // namespace cherisem::fuzz

#endif // CHERISEM_FUZZ_DIFF_RUNNER_H
