/**
 * @file
 * The mitigation-coverage runner: catalog × profile grid → verdict
 * matrix.
 *
 * The coverage grid crosses the three protection axes the repo
 * models — capability format (cc128 Morello / cc64 CHERIoT),
 * revocation policy (off / eager / quarantine / manual), and heap
 * allocator (first-fit / sizeclass slabs) — into 16 hardware-style
 * profiles, plus two sentinel columns: the reference (ghost-state)
 * semantics and the sub-object bounds-narrowing profile.  Every
 * catalog entry runs under every column with a ring-buffer trace
 * attached; the runner checks the verdict against the catalog's
 * expectation for that column AND that the expected witness events
 * (TagClear "revoke", Quarantine, RevokeSweep, the UbRaise) appear
 * in order, recording the sequence number of each.
 *
 * A cell can legitimately be *undetected* (exit verdict): the
 * intra-object overflow under whole-object bounds, the quarantine
 * window before an epoch sweep.  Those rows are the point of the
 * matrix — a mismatch is only reported when the observed behaviour
 * diverges from the catalog's pinned expectation.
 */
#ifndef CHERISEM_ATTACK_COVERAGE_H
#define CHERISEM_ATTACK_COVERAGE_H

#include <cstdint>
#include <string>
#include <vector>

#include "attack/catalog.h"
#include "driver/profiles.h"

namespace cherisem::attack {

/** One point of the 16-profile coverage grid. */
struct GridPoint
{
    std::string name;   ///< "cc128/eager/sizeclass"
    std::string format; ///< "cc128" | "cc64"
    revoke::RevokePolicy policy = revoke::RevokePolicy::Off;
    mem::HeapAllocatorKind alloc = mem::HeapAllocatorKind::FirstFit;
    driver::Profile profile;
};

/** The full grid: 2 formats x 4 policies x 2 allocators, built on
 *  the hardware-style built-in profiles (quarantine columns use the
 *  small 4096-byte / 8-region thresholds so suite churn triggers
 *  epoch sweeps). */
std::vector<GridPoint> coverageGrid();

/** One matrix cell: an attack under one column. */
struct CoverageCell
{
    std::string attackId;
    std::string column;  ///< grid point name or "reference"/"subobject"
    std::string expected; ///< verdict string from the catalog
    std::string actual;   ///< RunResult::summary()
    bool verdictOk = false;
    bool witnessOk = false;
    bool detected = false; ///< the column was expected to trap
    /** seq number of each matched witness pattern, stream order. */
    std::vector<uint64_t> witnessSeqs;
    /** Matched witness patterns rendered ("tag-clear(revoke)"). */
    std::vector<std::string> witnessEvents;
    /** First unmatched pattern when !witnessOk. */
    std::string missingWitness;

    bool ok() const { return verdictOk && witnessOk; }
};

/** Per-family roll-up for the acceptance gate: every family must be
 *  detected (trapped, with its witness chain) by at least one
 *  column. */
struct FamilyCoverage
{
    std::string family;
    bool detected = false;
    /** "attack_id @ column" for each detecting cell. */
    std::vector<std::string> detectedAt;
};

struct CoverageOptions
{
    /** Suite directory holding the catalog's .c files; "" = the
     *  baked-in tests/suite. */
    std::string suiteDir;
    /** Also run the reference / subobject sentinel columns. */
    bool sentinels = true;
};

struct CoverageReport
{
    std::vector<std::string> columns; ///< column order of the matrix
    std::vector<CoverageCell> cells;
    std::vector<FamilyCoverage> families;
    /** Cells whose verdict or witness chain diverged. */
    size_t mismatches = 0;
    /** Families with no detecting cell. */
    size_t undetectedFamilies = 0;
    /** Harness-level problems (catalog file missing / unreadable). */
    std::vector<std::string> errors;

    bool ok() const
    {
        return mismatches == 0 && undetectedFamilies == 0 &&
            errors.empty();
    }
};

/** Run the whole catalog across the grid (and sentinels). */
CoverageReport runCoverage(const CoverageOptions &opts = {});

/** Render as the COVERAGE.json document (schema
 *  "cherisem-coverage-v1"). */
std::string coverageJson(const CoverageReport &r);

/** Render the matrix as a markdown table (for EXPERIMENTS.md). */
std::string coverageMarkdown(const CoverageReport &r);

} // namespace cherisem::attack

#endif // CHERISEM_ATTACK_COVERAGE_H
