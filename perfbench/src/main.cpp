/**
 * @file
 * perfbench: one workload, one process.
 *
 *     perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                      [--root DIR] [--trace-out FILE] [--min-passes P]
 *
 * Set-up builds the program state and runs one untimed warm-up pass;
 * it is timed from main to ready, less the benchmark's own input
 * generation.  Then identical passes are replayed for S seconds of
 * pass time (and at least P passes, 5 unless given).  With --trace 0
 * every pass is untraced, and the last stdout line is this process's
 * raw result (each item's fastest latency, the set-up time, peak RSS,
 * the exact-count fingerprint), which run.py merges across the
 * processes of a run into the end-to-end metrics.  With --trace 1
 * untraced and traced passes alternate, and the last stdout line is
 * the result JSON with the per-layer metrics and the
 * traced-minus-untraced overhead.  A human-readable report goes to stderr.
 *
 * Exit status: 0 when every verdict matched its reference and every
 * exact count repeated; 1 when not (the JSON still says why);
 * 2 on a usage or set-up error, with nothing on stdout.
 */
#include <sys/resource.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "harness.h"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string root = ".";
    std::string traceOut;
    unsigned minPasses = 5;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload "
                 "oracle_corpus|eval_kernels|serve_warm --seed N "
                 "--seconds S --trace 0|1 [--root DIR] "
                 "[--trace-out FILE] [--min-passes P]\n",
                 why);
    std::exit(2);
}

uint64_t
parseUnsigned(const char *s, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end || s[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = parseUnsigned(v, "--seed");
        else if (flag == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (flag == "--trace")
            a.trace = static_cast<int>(parseUnsigned(v, "--trace"));
        else if (flag == "--root")
            a.root = v;
        else if (flag == "--trace-out")
            a.traceOut = v;
        else if (flag == "--min-passes")
            a.minPasses =
                static_cast<unsigned>(parseUnsigned(v, "--min-passes"));
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds >= 0.1 && a.seconds <= 120))
        usage("--seconds must be 0.1..120");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace must be 0 or 1");
    if (a.minPasses < 1)
        usage("--min-passes must be >= 1");
    return a;
}

uint64_t
fingerprint(const std::vector<uint64_t> &counts)
{
    uint64_t h = 1469598103934665603ull;
    for (uint64_t c : counts) {
        for (int b = 0; b < 8; ++b) {
            h ^= (c >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    return h;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printJson(bool correct, uint64_t attempted, uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/** The untraced result of this process, for run.py to merge with
 *  the other processes of a run. */
void
printRaw(bool correct, uint64_t attempted, uint64_t failed, uint64_t fp,
         unsigned inFlight, const std::vector<PassRecord> &passes,
         double setupS)
{
    std::vector<double> itemNs = itemFastestNs(passes);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"fingerprint\": \"%016" PRIx64
                "\", \"in_flight\": %u, \"passes\": %zu, "
                "\"peak_rss_mb\": %.17g, \"setup_s\": %.17g, "
                "\"item_fastest_ns\": [",
                correct ? "true" : "false", attempted, failed, fp, inFlight,
                passes.size(), peakRssMb(), setupS);
    for (size_t i = 0; i < itemNs.size(); ++i)
        std::printf("%s%.0f", i ? ", " : "", itemNs[i]);
    std::printf("]}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t mainStart = nowNs();
    Args args = parseArgs(argc, argv);

    // Benchmark-side input generation: excluded from setup_s.
    uint64_t genStart = nowNs();
    std::unique_ptr<Workload> w;
    try {
        if (args.workload == "oracle_corpus")
            w = makeOracleCorpus(args.root, args.seed);
        else if (args.workload == "eval_kernels")
            w = makeEvalKernels(args.root, args.seed);
        else if (args.workload == "serve_warm")
            w = makeServeWarm(args.seed);
        else
            usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    uint64_t genNs = nowNs() - genStart;
    const size_t items = w->items();

    uint64_t attempted = 0, failed = 0, passIndex = 0;
    bool countsExact = true;
    std::vector<uint64_t> reference; // the first pass's exact counts
    auto checkCounts = [&](PassRecord &rec, const char *what) {
        attempted += items;
        failed += rec.failed;
        if (reference.empty()) {
            reference = rec.counts;
        } else if (rec.counts != reference) {
            if (countsExact) {
                size_t at = 0;
                while (at < reference.size() && at < rec.counts.size() &&
                       rec.counts[at] == reference[at])
                    ++at;
                std::fprintf(stderr,
                             "exact-count check FAILED: %s pass %" PRIu64
                             " differs from the first pass at count %zu "
                             "(item %zu)\n",
                             what, passIndex, at,
                             at / (reference.size() / items));
            }
            countsExact = false;
        }
        rec.counts.clear();
        rec.counts.shrink_to_fit();
        ++passIndex;
    };

    // Set-up: the program state and one untimed warm-up pass, timed
    // from main to ready less the input generation above, so that it
    // also pays process-level lazy initialisation and first touches.
    try {
        w->setUp();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
        return 2;
    }
    PassRecord warm;
    w->runPass(passIndex, false, &warm);
    checkCounts(warm, "warm-up");
    const double setupS =
        static_cast<double>(nowNs() - mainStart - genNs) / 1e9;

    // Timed passes: only their own time counts against --seconds.
    std::vector<PassRecord> plain, traced;
    const size_t kKeptSpanPasses = 4;
    const uint64_t budgetNs = static_cast<uint64_t>(args.seconds * 1e9);
    uint64_t passTimeNs = 0;
    while (true) {
        bool doTrace = args.trace == 1 && plain.size() > traced.size();
        PassRecord rec;
        uint64_t t0 = nowNs();
        w->runPass(passIndex, doTrace, &rec);
        passTimeNs += nowNs() - t0;
        checkCounts(rec, doTrace ? "traced" : "untraced");
        if (doTrace) {
            summariseSpans(&rec);
            if (traced.size() >= kKeptSpanPasses) {
                rec.spans.clear();
                rec.spans.shrink_to_fit();
            }
            traced.push_back(std::move(rec));
        } else {
            plain.push_back(std::move(rec));
        }
        size_t measured = args.trace ? traced.size() : plain.size();
        if (passTimeNs >= budgetNs && measured >= args.minPasses &&
            (args.trace == 0 || plain.size() == traced.size()))
            break;
    }

    bool correct = failed == 0 && countsExact;
    std::fprintf(stderr,
                 "workload %s seed %" PRIu64 ": %zu items per pass, "
                 "%zu untraced + %zu traced passes in %.1f s of pass "
                 "time, set-up %.3f s; %" PRIu64 " verdicts, %" PRIu64
                 " failed; exact counts %s, fingerprint %016" PRIx64 "\n",
                 args.workload.c_str(), args.seed, items, plain.size(),
                 traced.size(), static_cast<double>(passTimeNs) / 1e9,
                 setupS, attempted, failed,
                 countsExact ? "repeat" : "DIFFER", fingerprint(reference));

    if (args.trace == 0) {
        printRaw(correct, attempted, failed, fingerprint(reference),
                 w->inFlight(), plain, setupS);
    } else {
        std::vector<Metric> metrics = layerMetrics(traced, plain);
        if (!args.traceOut.empty() && !writeSpans(args.traceOut, traced))
            std::fprintf(stderr, "cannot write spans to %s\n",
                         args.traceOut.c_str());
        for (const Metric &m : metrics)
            std::fprintf(stderr, "  %-32s %14.6g %s\n", m.name.c_str(),
                         m.value, m.unit.c_str());
        std::fflush(stderr);
        printJson(correct, attempted, failed, metrics);
    }
    std::fflush(stdout);
    return correct ? 0 : 1;
}
