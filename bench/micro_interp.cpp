/**
 * @file
 * End-to-end interpreter benchmarks: whole-pipeline cost of running
 * small CHERI C programs under the reference and hardware profiles,
 * including the optimisation-pass ablation.
 *
 * Like micro_memory, a fixed harness runs first and writes
 * BENCH_interp.json (same format: a "results" array of ns_per_op
 * entries plus summary ratios) — here the grid is workload x
 * profile, and the summary is the witness-tracing overhead ratio
 * (traced-into-a-ring vs untraced), which the obs/ subsystem promises
 * stays under 5% when disabled.  Pass --no-json to skip it.
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "driver/interpreter.h"
#include "obs/sinks.h"

namespace {

using namespace cherisem::driver;

const char *ARITH_LOOP = R"(
int main(void) {
    int acc = 0;
    for (int i = 0; i < 1000; i++) acc += i;
    return acc & 0xff;
}
)";

const char *POINTER_CHASE = R"(
struct node { int value; struct node *next; };
int main(void) {
    struct node nodes[32];
    for (int i = 0; i < 31; i++) {
        nodes[i].value = i;
        nodes[i].next = &nodes[i + 1];
    }
    nodes[31].value = 31;
    nodes[31].next = 0;
    int sum = 0;
    for (int r = 0; r < 20; r++)
        for (struct node *n = &nodes[0]; n; n = n->next)
            sum += n->value;
    return sum & 0xff;
}
)";

const char *INTPTR_HEAVY = R"(
#include <stdint.h>
int main(void) {
    int a[64];
    uintptr_t base = (uintptr_t)a;
    for (int i = 0; i < 64; i++) {
        int *p = (int*)(base + i * sizeof(int));
        *p = i;
    }
    int sum = 0;
    for (int i = 0; i < 64; i++) sum += a[i];
    return sum & 0xff;
}
)";

const char *MALLOC_CHURN = R"(
#include <stdlib.h>
#include <string.h>
int main(void) {
    int total = 0;
    for (int r = 0; r < 50; r++) {
        char *p = malloc(64);
        memset(p, r, 64);
        total += p[13];
        free(p);
    }
    return total & 0xff;
}
)";

// ---------------------------------------------------------------------
// BENCH_interp.json: fixed workload x profile grid.
// ---------------------------------------------------------------------

/** Wall-clock ns/op of @p op, warmed up and run until ~0.3 s or
 *  @p max_iters, whichever comes first. */
template <typename F>
double
nsPerOp(F &&op, int max_iters = 64)
{
    using clock = std::chrono::steady_clock;
    op(); // warm-up
    double total_ns = 0;
    int iters = 0;
    while (iters < max_iters && total_ns < 3e8) {
        auto t0 = clock::now();
        op();
        auto t1 = clock::now();
        total_ns += static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 -
                                                                 t0)
                .count());
        ++iters;
    }
    return total_ns / iters;
}

struct Workload
{
    const char *name;
    const char *src;
};

/** One op = one whole runSource() (parse..evaluate). */
double
timeRun(const char *src, const Profile &profile,
        cherisem::obs::TraceSink *sink = nullptr)
{
    Profile p = profile;
    p.memConfig.traceSink = sink;
    return nsPerOp([&] {
        RunResult r = runSource(src, p);
        benchmark::DoNotOptimize(r.outcome.exitCode);
    });
}

void
writeBenchJson(const char *path)
{
    const Workload workloads[] = {
        {"arith_loop", ARITH_LOOP},
        {"pointer_chase", POINTER_CHASE},
        {"intptr_heavy", INTPTR_HEAVY},
        {"malloc_churn", MALLOC_CHURN},
    };
    const char *profiles[] = {"cerberus", "clang-morello-O0"};

    struct Entry
    {
        std::string workload, profile;
        double nsPerRun;
    };
    std::vector<Entry> entries;
    double untraced_total = 0, traced_total = 0;

    for (const Workload &w : workloads) {
        for (const char *name : profiles) {
            const Profile *p = findProfile(name);
            entries.push_back({w.name, name, timeRun(w.src, *p)});
        }
        // Tracing-overhead ablation on the reference profile: the
        // sum over workloads gives the headline ratio.
        const Profile &ref = referenceProfile();
        untraced_total += timeRun(w.src, ref);
        cherisem::obs::RingBufferSink ring;
        traced_total += timeRun(w.src, ref, &ring);
    }

    double ratio =
        untraced_total > 0 ? traced_total / untraced_total : 0;

    FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"results\": [\n");
    for (size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        std::fprintf(f,
                     "    {\"workload\": \"%s\", \"profile\": \"%s\", "
                     "\"ns_per_run\": %.1f}%s\n",
                     e.workload.c_str(), e.profile.c_str(), e.nsPerRun,
                     i + 1 < entries.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"tracing_overhead_ratio_ring_vs_off\": "
                 "%.3f\n}\n",
                 ratio);
    std::fclose(f);
    std::fprintf(stderr,
                 "BENCH_interp.json written: ring-traced vs untraced "
                 "= %.3fx\n",
                 ratio);
}

// ---------------------------------------------------------------------
// google-benchmark suite.
// ---------------------------------------------------------------------

void
runBench(benchmark::State &state, const char *src,
         const std::string &profile)
{
    const Profile &p = *findProfile(profile);
    for (auto _ : state) {
        RunResult r = runSource(src, p);
        if (r.frontendError ||
            r.outcome.kind != cherisem::corelang::Outcome::Kind::Exit) {
            state.SkipWithError("program did not run to exit");
            return;
        }
        benchmark::DoNotOptimize(r.outcome.exitCode);
    }
}

void
BM_Interp_ArithLoop_Reference(benchmark::State &state)
{
    runBench(state, ARITH_LOOP, "cerberus");
}
BENCHMARK(BM_Interp_ArithLoop_Reference);

void
BM_Interp_ArithLoop_Hardware(benchmark::State &state)
{
    runBench(state, ARITH_LOOP, "clang-morello-O0");
}
BENCHMARK(BM_Interp_ArithLoop_Hardware);

void
BM_Interp_PointerChase_Reference(benchmark::State &state)
{
    runBench(state, POINTER_CHASE, "cerberus");
}
BENCHMARK(BM_Interp_PointerChase_Reference);

void
BM_Interp_PointerChase_Hardware(benchmark::State &state)
{
    runBench(state, POINTER_CHASE, "clang-morello-O0");
}
BENCHMARK(BM_Interp_PointerChase_Hardware);

void
BM_Interp_IntptrHeavy_Reference(benchmark::State &state)
{
    runBench(state, INTPTR_HEAVY, "cerberus");
}
BENCHMARK(BM_Interp_IntptrHeavy_Reference);

void
BM_Interp_IntptrHeavy_Cheriot(benchmark::State &state)
{
    runBench(state, INTPTR_HEAVY, "cerberus-cheriot");
}
BENCHMARK(BM_Interp_IntptrHeavy_Cheriot);

void
BM_Interp_MallocChurn_Reference(benchmark::State &state)
{
    runBench(state, MALLOC_CHURN, "cerberus");
}
BENCHMARK(BM_Interp_MallocChurn_Reference);

void
BM_Interp_MallocChurn_Optimized(benchmark::State &state)
{
    runBench(state, MALLOC_CHURN, "clang-morello-O2");
}
BENCHMARK(BM_Interp_MallocChurn_Optimized);

} // namespace

int
main(int argc, char **argv)
{
    bool write_json = true;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--no-json") {
            write_json = false;
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            break;
        }
    }
    if (write_json)
        writeBenchJson("BENCH_interp.json");

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
