/**
 * @file
 * Differential fuzzing driver (src/fuzz/): generate seeded MiniC
 * programs, run each across the profile x store-backend grid, and
 * report divergences as JSONL.
 *
 *   cherisem_fuzz [--seeds A..B] [--allow-ub] [--attack-templates]
 *                 [--stmts N]
 *                 [--profiles a,b,c] [--no-cross] [--no-allocators]
 *                 [--fork N] [--shrink]
 *                 [--report PATH] [--print-seed N] [--jobs N]
 *                 [--quiet]
 *
 *   --seeds A..B    inclusive seed range (default 0..100)
 *   --allow-ub      generate the UB-allowed corpus instead of the
 *                   UB-free-by-construction one
 *   --attack-templates
 *                   bias generation toward the attack catalog's
 *                   techniques (src/attack/): intra-object writes,
 *                   integer-table round trips, low-bit stuffing,
 *                   free-then-scan roots; UB-free mode emits the
 *                   tag-preserving remediation idioms
 *   --stmts N       approximate statements per program (default 24)
 *   --profiles ...  restrict the grid to these profiles
 *   --no-cross      skip the cross-profile comparisons (backend
 *                   Map-vs-Paged grid only)
 *   --no-allocators skip the per-profile firstfit-vs-sizeclass heap
 *                   placement comparisons
 *   --fork N        fork-fuzzing campaign: generate fork-shaped
 *                   programs (__prelude prefix + __variant-keyed
 *                   main), compile each once, snapshot after the
 *                   prelude, and fork N variants from it; every
 *                   variant is re-run cold and must match outcome,
 *                   counters, and witness stream bit-for-bit
 *   --shrink        delta-debug every hard failure before reporting
 *   --report PATH   append one JSON line per divergence to PATH
 *   --print-seed N  print the generated program for seed N and exit
 *   --jobs N        run seeds on N serve::WorkerPool workers; the
 *                   report and summary are emitted in seed order, so
 *                   output is byte-identical to --jobs 1
 *
 * Exit status: 0 when no hard failure (backend divergence, crash, or
 * unexpected profile divergence) was found, 1 otherwise, 2 on usage
 * errors.
 */
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/diff_runner.h"
#include "fuzz/fork_runner.h"
#include "fuzz/generator.h"
#include "fuzz/reduce.h"
#include "serve/pool.h"

namespace fuzz = cherisem::fuzz;

namespace {

int
usage()
{
    fprintf(stderr,
            "usage: cherisem_fuzz [--seeds A..B] [--allow-ub] "
            "[--attack-templates] [--stmts N]\n"
            "                     [--profiles a,b,c] [--no-cross] "
            "[--no-allocators]\n"
            "                     [--fork N] [--shrink] "
            "[--report PATH] [--print-seed N]\n"
            "                     [--jobs N] [--quiet]\n");
    return 2;
}

bool
parseRange(const std::string &s, uint64_t &lo, uint64_t &hi)
{
    size_t dots = s.find("..");
    if (dots == std::string::npos)
        return false;
    try {
        lo = std::stoull(s.substr(0, dots));
        hi = std::stoull(s.substr(dots + 2));
    } catch (...) {
        return false;
    }
    return lo <= hi;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos < s.size()) {
        size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

/** Everything one seed produces; held until the in-order emit
 *  phase so --jobs N output matches --jobs 1 byte for byte. */
struct SeedOutcome
{
    std::string source;
    std::vector<fuzz::Divergence> findings;
    /** Parallel to findings: the (possibly shrunk) source for hard
     *  failures, empty for expected divergences. */
    std::vector<std::string> reduced;
    /** Parallel to findings: shrink stats (attempts, removed), only
     *  meaningful when --shrink was given and the finding is hard. */
    std::vector<std::pair<unsigned, unsigned>> shrinkStats;
    /** --fork campaigns: per-seed fork-vs-cold timing. */
    fuzz::ForkStats fork;
};

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seedLo = 0, seedHi = 100;
    bool haveSingle = false;
    uint64_t singleSeed = 0;
    fuzz::GenOptions gen;
    fuzz::RunnerOptions runner;
    bool shrink = false;
    bool quiet = false;
    unsigned jobs = 1;
    unsigned forkVariants = 0;
    std::string reportPath;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                fprintf(stderr, "%s needs an argument\n", flag);
                exit(2);
            }
            return argv[++i];
        };
        if (a == "--seeds") {
            if (!parseRange(next("--seeds"), seedLo, seedHi))
                return usage();
        } else if (a == "--allow-ub") {
            gen.allowUb = true;
        } else if (a == "--attack-templates") {
            gen.attackTemplates = true;
        } else if (a == "--stmts") {
            gen.numStmts = (unsigned)atoi(next("--stmts"));
        } else if (a == "--profiles") {
            runner.profiles = splitCommas(next("--profiles"));
        } else if (a == "--no-cross") {
            runner.crossProfiles = false;
        } else if (a == "--no-allocators") {
            runner.allocatorAxis = false;
        } else if (a == "--fork") {
            forkVariants = (unsigned)atoi(next("--fork"));
            if (forkVariants == 0)
                forkVariants = 8;
        } else if (a == "--shrink") {
            shrink = true;
        } else if (a == "--report") {
            reportPath = next("--report");
        } else if (a == "--print-seed") {
            haveSingle = true;
            singleSeed = std::stoull(next("--print-seed"));
        } else if (a == "--jobs") {
            jobs = (unsigned)atoi(next("--jobs"));
            if (jobs == 0)
                jobs = 1;
        } else if (a == "--quiet") {
            quiet = true;
        } else {
            return usage();
        }
    }

    if (forkVariants > 0)
        gen.forkPrefix = true;

    if (haveSingle) {
        gen.seed = singleSeed;
        fputs(fuzz::generateProgram(gen).c_str(), stdout);
        return 0;
    }

    std::ofstream report;
    if (!reportPath.empty()) {
        report.open(reportPath, std::ios::app);
        if (!report) {
            fprintf(stderr, "cannot open %s\n", reportPath.c_str());
            return 2;
        }
    }

    runner.requireExit = !gen.allowUb;
    const uint64_t total = seedHi - seedLo + 1;
    std::vector<SeedOutcome> outcomes(total);
    std::atomic<uint64_t> done{0};

    // Per-seed work: generate, run the differential grid, shrink
    // hard failures.  Safe to run concurrently — each task copies
    // its options, and everything below runSource is per-instance
    // (see DESIGN.md "Serving layer", thread-safety audit).
    auto runSeed = [&](uint64_t seed, SeedOutcome &out) {
        fuzz::GenOptions g = gen;
        g.seed = seed;
        out.source = fuzz::generateProgram(g);
        if (forkVariants > 0) {
            fuzz::ForkOptions fopts;
            fopts.variants = forkVariants;
            if (runner.profiles.size() == 1)
                fopts.profile = runner.profiles[0];
            out.findings =
                fuzz::runForkCase(seed, out.source, fopts, &out.fork);
        } else {
            out.findings = fuzz::runCase(seed, out.source, runner);
        }
        out.reduced.resize(out.findings.size());
        out.shrinkStats.resize(out.findings.size(), {0, 0});
        for (size_t i = 0; i < out.findings.size(); ++i) {
            const fuzz::Divergence &d = out.findings[i];
            if (!fuzz::isHardFailure(d))
                continue;
            out.reduced[i] = out.source;
            if (!shrink)
                continue;
            fuzz::ReduceStats rs;
            out.reduced[i] = fuzz::reduceProgram(
                out.source,
                [&](const std::string &cand) {
                    std::vector<fuzz::Divergence> cs;
                    if (forkVariants > 0) {
                        fuzz::ForkOptions fopts;
                        fopts.variants = forkVariants;
                        if (runner.profiles.size() == 1)
                            fopts.profile = runner.profiles[0];
                        cs = fuzz::runForkCase(seed, cand, fopts,
                                               nullptr);
                    } else {
                        cs = fuzz::runCase(seed, cand, runner);
                    }
                    for (const fuzz::Divergence &c : cs)
                        if (fuzz::isHardFailure(c) &&
                            c.kind == d.kind && c.where == d.where)
                            return true;
                    return false;
                },
                &rs);
            out.shrinkStats[i] = {rs.attempts, rs.removed};
        }
        uint64_t n = done.fetch_add(1) + 1;
        if (!quiet && n % 50 == 0)
            fprintf(stderr, "... %llu/%llu cases run\n",
                    (unsigned long long)n, (unsigned long long)total);
    };

    if (jobs > 1) {
        cherisem::serve::WorkerPool pool(jobs);
        for (uint64_t seed = seedLo; seed <= seedHi; ++seed)
            pool.submit([&runSeed, &outcomes, seed, seedLo] {
                runSeed(seed, outcomes[seed - seedLo]);
            });
        pool.drain();
    } else {
        for (uint64_t seed = seedLo; seed <= seedHi; ++seed)
            runSeed(seed, outcomes[seed - seedLo]);
    }

    // Emit phase: sequential and in seed order, so the report and
    // diagnostics are byte-identical however many jobs ran.
    uint64_t cases = 0, hard = 0, expected = 0;
    for (uint64_t seed = seedLo; seed <= seedHi; ++seed) {
        SeedOutcome &out = outcomes[seed - seedLo];
        ++cases;
        for (size_t i = 0; i < out.findings.size(); ++i) {
            fuzz::Divergence &d = out.findings[i];
            if (!fuzz::isHardFailure(d)) {
                ++expected;
                if (report)
                    report << d.jsonl() << "\n";
                continue;
            }
            ++hard;
            if (shrink && !quiet)
                fprintf(stderr,
                        "  shrink: %u attempts, %u statements "
                        "removed\n",
                        out.shrinkStats[i].first,
                        out.shrinkStats[i].second);
            if (report)
                report << d.jsonl(out.reduced[i]) << "\n";
            if (!quiet) {
                fprintf(stderr, "seed %llu [%s] %s\n",
                        (unsigned long long)seed, d.where.c_str(),
                        d.detail.c_str());
                if (shrink)
                    fprintf(stderr, "--- reduced ---\n%s---\n",
                            out.reduced[i].c_str());
            }
        }
    }

    printf("cherisem_fuzz: %llu cases (%s), %llu hard failures, "
           "%llu expected profile divergences\n",
           (unsigned long long)cases,
           gen.allowUb ? "ub-allowed" : "ub-free",
           (unsigned long long)hard, (unsigned long long)expected);
    if (forkVariants > 0) {
        fuzz::ForkStats total;
        for (const SeedOutcome &out : outcomes) {
            total.variants += out.fork.variants;
            total.forkNs += out.fork.forkNs;
            total.coldNs += out.fork.coldNs;
        }
        double speedup = total.forkNs
            ? (double)total.coldNs / (double)total.forkNs
            : 0.0;
        printf("cherisem_fuzz: fork campaign: %llu variants, "
               "forked eval %.1f ms vs cold %.1f ms (%.2fx)\n",
               (unsigned long long)total.variants,
               (double)total.forkNs / 1e6,
               (double)total.coldNs / 1e6, speedup);
    }
    return hard == 0 ? 0 : 1;
}
