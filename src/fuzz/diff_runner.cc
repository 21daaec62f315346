/**
 * @file
 * Differential executor (see diff_runner.h for the oracle rules).
 */
#include "fuzz/diff_runner.h"

#include "corelang/eval.h"
#include "obs/differential.h"
#include "obs/trace_event.h"

namespace cherisem::fuzz {

namespace {

using corelang::Outcome;
using obs::jsonEscape;

bool
isCrash(const driver::RunResult &r)
{
    // ResourceExhausted counts: generated programs terminate well
    // inside the default step budget, so exhausting it means the
    // generator or the pipeline looped.
    return r.frontendError ||
        r.outcome.kind == Outcome::Kind::Error ||
        r.outcome.kind == Outcome::Kind::ResourceExhausted;
}

bool
sameOutcome(const driver::RunResult &a, const driver::RunResult &b)
{
    return a.summary() == b.summary() && a.outcome.output == b.outcome.output;
}

/**
 * Is a cross-profile divergence on a documented semantic axis?
 *
 * The documented axes (paper section 5, DESIGN.md) all surface as
 * *verdict-class* differences: one side raises UB (or an assert)
 * where the other exits, or the two sides raise different UB names
 * (temporal checks, ghost vs hardware tags, provenance checks,
 * strict arithmetic, uninitialised reads).  Capability-format
 * precision (cheriot profiles) can additionally shift an exit code
 * through cheri_length_get/representable-length values.
 *
 * By the generator's sink discipline a UB-free program never folds
 * addresses into its exit code, so two profiles that both Exit must
 * agree — unless their capability formats differ.  An Exit-vs-Exit
 * mismatch between same-format profiles is therefore NOT expected.
 */
bool
expectedProfileDivergence(const driver::Profile &a,
                          const driver::Profile &b,
                          const driver::RunResult &ra,
                          const driver::RunResult &rb)
{
    bool a_exit = !ra.frontendError &&
        ra.outcome.kind == Outcome::Kind::Exit;
    bool b_exit = !rb.frontendError &&
        rb.outcome.kind == Outcome::Kind::Exit;
    if (!a_exit || !b_exit)
        return true; // some side stopped on UB/assert: semantic axis
    // Both exited: expected only across capability formats, or
    // across heap placement policies (an allow-ub program can fold
    // reused/adjacent placement into its result; the dedicated
    // allocator axis below holds the UB-free corpus to exact
    // agreement).
    return a.memConfig.arch != b.memConfig.arch ||
        a.memConfig.heapAllocator != b.memConfig.heapAllocator;
}

} // namespace

std::string
Divergence::jsonl(const std::string &source) const
{
    const char *k = "profile";
    switch (kind) {
      case Kind::Backend: k = "backend"; break;
      case Kind::Crash: k = "crash"; break;
      case Kind::UbFree: k = "ub-free-violation"; break;
      case Kind::Fork: k = "fork"; break;
      case Kind::Allocator: k = "allocator"; break;
      case Kind::Profile: break;
    }
    std::string s = "{\"seed\": " + std::to_string(seed) +
        ", \"kind\": \"" + k + "\", \"where\": \"" +
        jsonEscape(where) + "\", \"expected\": " +
        (expected ? "true" : "false") + ", \"detail\": \"" +
        jsonEscape(detail) + "\"";
    if (!source.empty())
        s += ", \"source\": \"" + jsonEscape(source) + "\"";
    return s + "}";
}

bool
isHardFailure(const Divergence &d)
{
    // Profile and allocator divergences can sit on a documented
    // semantic axis (expected); everything else is a bug, full stop.
    if (d.kind == Divergence::Kind::Profile ||
        d.kind == Divergence::Kind::Allocator)
        return !d.expected;
    return true;
}

std::vector<Divergence>
runCase(uint64_t seed, const std::string &source,
        const RunnerOptions &opts)
{
    std::vector<Divergence> out;

    std::vector<const driver::Profile *> grid;
    if (opts.profiles.empty()) {
        for (const driver::Profile &p : driver::allProfiles())
            grid.push_back(&p);
    } else {
        for (const std::string &name : opts.profiles) {
            if (const driver::Profile *p = driver::findProfile(name))
                grid.push_back(p);
        }
    }

    // Backend grid: Map vs Paged per profile.
    for (const driver::Profile *p : grid) {
        obs::DifferentialResult r =
            obs::diffStoreBackends(source, *p, opts.ringCapacity);
        if (isCrash(r.left) || isCrash(r.right)) {
            out.push_back({Divergence::Kind::Crash, seed, p->name,
                           r.left.summary() + " | " +
                               r.right.summary(),
                           false});
            continue;
        }
        if (!r.equivalent() || !sameOutcome(r.left, r.right)) {
            out.push_back({Divergence::Kind::Backend, seed, p->name,
                           r.summary(), false});
        }
        if (opts.requireExit &&
            r.left.outcome.kind != Outcome::Kind::Exit) {
            out.push_back({Divergence::Kind::UbFree, seed, p->name,
                           r.left.summary(), false});
        }
    }

    // Profile grid: reference vs each of the others.
    if (opts.crossProfiles) {
        const driver::Profile &ref = driver::referenceProfile();
        obs::DiffOptions dopts;
        dopts.compareAddresses = false;
        dopts.compareLabels = false;
        dopts.compareLines = false;
        for (const driver::Profile *p : grid) {
            if (p->name == ref.name)
                continue;
            obs::DifferentialResult r = obs::diffProfiles(
                source, ref, *p, dopts, opts.ringCapacity);
            if (isCrash(r.left) || isCrash(r.right)) {
                out.push_back({Divergence::Kind::Crash, seed,
                               ref.name + "|" + p->name,
                               r.left.summary() + " | " +
                                   r.right.summary(),
                               false});
                continue;
            }
            if (sameOutcome(r.left, r.right))
                continue; // stream-level diffs with equal outcomes
                          // are below the profile oracle's bar
            out.push_back(
                {Divergence::Kind::Profile, seed,
                 ref.name + "|" + p->name,
                 r.left.summary() + " | " + r.right.summary(),
                 expectedProfileDivergence(ref, *p, r.left,
                                           r.right)});
        }

        // Temporal-policy axis: eager vs deferred (quarantine/manual)
        // revocation over the same capability format differ only in
        // *when* stale tags die.  A UB-free program never observes a
        // dead pointer, so the pair must agree exactly — any mismatch
        // is a hard finding.  An allow-ub program can watch the epoch
        // boundary (cheri_tag_get on a freed pointer, a UAF load that
        // faults eagerly but reads stale bytes under quarantine), so
        // there a mismatch is the documented expected divergence.
        for (const driver::Profile *a : grid) {
            if (a->memConfig.revoke.policy !=
                revoke::RevokePolicy::Eager)
                continue;
            for (const driver::Profile *b : grid) {
                if (b->memConfig.revoke.policy ==
                        revoke::RevokePolicy::Off ||
                    b->memConfig.revoke.policy ==
                        revoke::RevokePolicy::Eager ||
                    a->memConfig.arch != b->memConfig.arch)
                    continue;
                obs::DifferentialResult r = obs::diffProfiles(
                    source, *a, *b, dopts, opts.ringCapacity);
                if (isCrash(r.left) || isCrash(r.right)) {
                    out.push_back({Divergence::Kind::Crash, seed,
                                   a->name + "|" + b->name,
                                   r.left.summary() + " | " +
                                       r.right.summary(),
                                   false});
                    continue;
                }
                if (sameOutcome(r.left, r.right))
                    continue;
                out.push_back({Divergence::Kind::Profile, seed,
                               a->name + "|" + b->name,
                               r.left.summary() + " | " +
                                   r.right.summary(),
                               !opts.requireExit});
            }
        }
    }

    // Allocator axis: per profile, first-fit vs sizeclass-slab heap
    // placement, everything else identical.  Placement decides
    // *where* regions go, never what a well-defined program means, so
    // the UB-free corpus must agree exactly on outcome/output/UB —
    // any mismatch there is a hard finding.  Allow-ub programs can
    // observe placement itself (which freed slot a stale capability
    // aliases, which neighbour an overflow hits), the documented
    // expected divergence.  Each profile is diffed once, whichever
    // allocator it nominally carries, so `--profiles cerberus-slab`
    // exercises the axis too.
    if (opts.allocatorAxis) {
        obs::DiffOptions dopts;
        dopts.compareAddresses = false;
        dopts.compareLabels = false;
        dopts.compareLines = false;
        for (const driver::Profile *p : grid) {
            driver::Profile ff = *p;
            ff.memConfig.heapAllocator =
                mem::HeapAllocatorKind::FirstFit;
            driver::Profile sc = *p;
            sc.memConfig.heapAllocator =
                mem::HeapAllocatorKind::Sizeclass;
            std::string where = p->name + ":firstfit|sizeclass";
            obs::DifferentialResult r = obs::diffProfiles(
                source, ff, sc, dopts, opts.ringCapacity);
            if (isCrash(r.left) || isCrash(r.right)) {
                out.push_back({Divergence::Kind::Crash, seed, where,
                               r.left.summary() + " | " +
                                   r.right.summary(),
                               false});
                continue;
            }
            if (sameOutcome(r.left, r.right))
                continue; // stream-level diffs (placement-dependent
                          // addresses, adjacency-dependent iota
                          // attaches) with equal outcomes are below
                          // the axis's bar
            out.push_back({Divergence::Kind::Allocator, seed, where,
                           r.left.summary() + " | " +
                               r.right.summary(),
                           !opts.requireExit});
        }
    }

    return out;
}

} // namespace cherisem::fuzz
