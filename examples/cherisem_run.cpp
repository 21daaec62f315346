/**
 * @file
 * The cherisem command-line driver: run a CHERI C source file under
 * any implementation profile (the "test oracle" use of the
 * executable semantics, section 7).
 *
 *   cherisem_run file.c [--profile NAME] [--all] [--stats]
 *                       [--stats-json PATH] [--trace=<sink>[:<arg>]]
 *                       [--replay-to SEQ] [--list]
 *
 * --stats-json PATH writes the --stats counters (MemStats with the
 * heap-allocator and revocation mirrors) as a machine-readable JSON
 * document ("cherisem-stats-v2": one "runs" entry per profile
 * executed, so --all yields the whole grid); `-` writes to stdout.
 *
 * Trace sinks (the execution-witness subsystem, src/obs/):
 *
 *   --trace=ring[:N]      capture the last N events in memory and
 *                         print them after the run
 *   --trace=jsonl:PATH    stream events to PATH, one JSON per line
 *   --trace=chrome:PATH   write a Chrome trace_event file; open it
 *                         in chrome://tracing or ui.perfetto.dev
 *
 * Time-travel replay (--replay-to SEQ, src/obs/replay.h): run the
 * program once recording its witness stream and capturing a COW
 * snapshot at the post-prelude quiescent point, then travel back to
 * trace sequence number SEQ by restoring the nearest snapshot at or
 * before it and re-executing only the remaining tail.  The re-derived
 * prefix is checked bit-for-bit against the recording, and the events
 * around SEQ are printed.  With a __prelude()-shaped program and a
 * target past the prelude this touches only the pages main() dirties.
 *
 * An unknown --option, a second input file, or a missing or
 * non-numeric option value prints the usage text and exits 2.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "corelang/machine.h"
#include "driver/interpreter.h"
#include "frontend/parser.h"
#include "mem/stats_json.h"
#include "obs/replay.h"
#include "obs/sinks.h"
#include "obs/trace_diff.h"
#include "sema/sema.h"
#include "support/format.h"

using namespace cherisem::driver;
namespace obs = cherisem::obs;
namespace corelang = cherisem::corelang;

namespace {

/** Parse/analyse/optimise under @p p; false (with a message on
 *  stderr) on a frontend error.  The replay mode needs the Core
 *  program itself, which runSource() never exposes. */
bool
compileFrontend(const std::string &src, const Profile &p,
                const std::string &file,
                std::optional<cherisem::sema::Program> *out)
{
    try {
        cherisem::frontend::TranslationUnit unit =
            cherisem::frontend::parse(src, file);
        cherisem::ctype::MachineLayout machine{
            p.memConfig.arch->capSize(),
            p.memConfig.arch->addrBits() / 8};
        out->emplace(
            cherisem::sema::analyze(std::move(unit), machine));
        corelang::optimize(**out, p.optims);
    } catch (const cherisem::frontend::FrontendError &e) {
        fprintf(stderr, "%s: %s\n", file.c_str(), e.str().c_str());
        return false;
    } catch (const cherisem::sema::SemaError &e) {
        fprintf(stderr, "%s: %s\n", file.c_str(), e.str().c_str());
        return false;
    }
    return true;
}

/** --replay-to SEQ: record a traced run (capturing the post-prelude
 *  snapshot keyed by the sink sequence number), then time-travel to
 *  SEQ by restoring the nearest snapshot and re-executing the tail.
 *  The replayed prefix must match the recording bit-for-bit. */
int
replayRun(const std::string &src, Profile p, const std::string &file,
          uint64_t target, obs::TraceSink *userSink)
{
    // Big enough that any program this driver realistically traces
    // fits without wrapping; prefix replay needs the whole stream.
    constexpr size_t kReplayRingCapacity = 1 << 20;

    std::optional<cherisem::sema::Program> prog;
    if (!compileFrontend(src, p, file, &prog))
        return 2;
    corelang::EvalOptions opts = p.evalOptions();

    // Record pass: one full traced run; capture() at the quiescent
    // post-prelude point, keyed by the events emitted so far.
    obs::RingBufferSink record(kReplayRingCapacity);
    obs::SnapshotIndex<corelang::Machine::SnapshotPtr> index;
    corelang::Outcome outcome;
    {
        corelang::EvalOptions ropts = opts;
        ropts.memConfig.traceSink = &record;
        corelang::Machine m(*prog, ropts);
        std::optional<corelang::Outcome> pre = m.runPrelude();
        if (!pre)
            index.add(record.emitted(), m.capture());
        outcome = pre ? *pre : m.runMain();
    }
    printf("[%s] %s\n", p.name.c_str(), outcome.summary().c_str());
    uint64_t total = record.emitted();
    if (total == 0) {
        fprintf(stderr, "replay: the recording is empty (no witness "
                        "events) — nothing to travel to\n");
        return 1;
    }
    if (record.dropped() > 0) {
        fprintf(stderr,
                "replay: recording wrapped (%llu events > ring "
                "capacity %zu); prefix replay needs the full "
                "stream\n",
                (unsigned long long)total, kReplayRingCapacity);
        return 1;
    }
    uint64_t stopAt = target;
    if (stopAt >= total) {
        stopAt = total - 1;
        printf("replay: seq %llu is past the end of the recording; "
               "clamped to last seq %llu\n",
               (unsigned long long)target,
               (unsigned long long)stopAt);
    }
    std::vector<obs::TraceEvent> recorded = record.snapshot();

    // Replay pass: nearest snapshot at-or-before the target, replay
    // the recorded prefix (re-stamped 0..P-1 by the fresh sink),
    // re-execute only the tail.  A target inside the prelude has no
    // snapshot at or before it: cold re-execution from seq 0.
    const auto *entry = index.nearest(stopAt);
    obs::StopAtSeqSink stop(stopAt, userSink);
    corelang::EvalOptions sopts = opts;
    sopts.memConfig.traceSink = &stop;
    try {
        corelang::Machine m(*prog, sopts);
        if (entry) {
            m.restoreSnapshot(entry->snap);
            for (uint64_t i = 0; i < entry->seq; ++i)
                stop.emit(recorded[i]);
            (void)m.runMain();
        } else {
            std::optional<corelang::Outcome> pre = m.runPrelude();
            if (!pre)
                (void)m.runMain();
        }
    } catch (const obs::ReplayStop &) {
        // The target event has been re-derived; the half-finished
        // machine is dropped on the floor — only its stream matters.
    }
    if (!stop.stopped()) {
        fprintf(stderr,
                "replay: re-execution ended after %zu events without "
                "reaching seq %llu — replay is not deterministic\n",
                stop.events().size(), (unsigned long long)stopAt);
        return 1;
    }

    // The whole point: the re-derived prefix must be bit-identical
    // to the recording (payloads and sequence numbers).
    std::vector<obs::TraceEvent> want(
        recorded.begin(),
        recorded.begin() + static_cast<ptrdiff_t>(stopAt) + 1);
    obs::DiffResult d =
        obs::diffEventStreams(stop.events(), want, obs::DiffOptions{});
    if (!d.equivalent) {
        fprintf(stderr, "replay: re-derived stream diverges from the "
                        "recording: %s\n",
                d.summary().c_str());
        return 1;
    }

    if (entry)
        printf("replay: restored snapshot at seq %llu, re-executed "
               "%llu of %llu events (prefix replayed), stream "
               "matches the recording\n",
               (unsigned long long)entry->seq,
               (unsigned long long)(stopAt + 1 - entry->seq),
               (unsigned long long)(stopAt + 1));
    else
        printf("replay: no snapshot at or before seq %llu (target "
               "inside the prelude), re-executed %llu events cold, "
               "stream matches the recording\n",
               (unsigned long long)stopAt,
               (unsigned long long)(stopAt + 1));
    size_t from = stop.events().size() > 8 ? stop.events().size() - 8
                                           : 0;
    for (size_t i = from; i < stop.events().size(); ++i)
        printf("  %s\n", obs::renderEvent(stop.events()[i]).c_str());
    return 0;
}

/** One --stats-json "runs" entry for a finished run. */
std::string
statsJsonEntry(const Profile &p, const RunResult &r)
{
    std::string e = "    {\n";
    e += cherisem::strPrintf("      \"profile\": \"%s\",\n",
                             obs::jsonEscape(p.name).c_str());
    e += cherisem::strPrintf(
        "      \"outcome\": \"%s\",\n      \"frontend_error\": %s,\n"
        "      \"steps\": %llu,\n",
        obs::jsonEscape(r.summary()).c_str(),
        r.frontendError ? "true" : "false",
        (unsigned long long)r.outcome.steps);
    e += "      \"mem\":\n";
    e += cherisem::mem::memStatsJson(r.outcome.memStats,
                                     p.memConfig.heapAllocator,
                                     "      ");
    e += "\n    }";
    return e;
}

int
runOne(const std::string &src, Profile p, const std::string &file,
       bool verbose, obs::TraceSink *sink,
       std::vector<std::string> *statsEntries)
{
    p.memConfig.traceSink = sink;
    RunResult r = runSource(src, p, file);
    if (statsEntries)
        statsEntries->push_back(statsJsonEntry(p, r));
    printf("[%s] %s\n", p.name.c_str(), r.summary().c_str());
    if (!r.outcome.output.empty()) {
        printf("%s", r.outcome.output.c_str());
        if (r.outcome.output.back() != '\n')
            printf("\n");
    }
    if (verbose) {
        printf("  steps=%llu loads=%llu stores=%llu allocs=%llu "
               "ghost-invalidations=%llu\n",
               (unsigned long long)r.outcome.steps,
               (unsigned long long)r.outcome.memStats.loads,
               (unsigned long long)r.outcome.memStats.stores,
               (unsigned long long)r.outcome.memStats.allocations,
               (unsigned long long)
                   r.outcome.memStats.ghostTagInvalidations);
        const ::cherisem::mem::HeapStats &hs =
            r.outcome.memStats.heap;
        if (hs.mallocCalls || hs.frees) {
            printf("  heap[%s]: mallocs=%llu frees=%llu reuses=%llu "
                   "bumps=%llu slabs=%llu chunks=%llu large=%llu "
                   "reclaimed=%llu recycled=%llu "
                   "exhaustions=%llu reserved=%llu\n",
                   ::cherisem::mem::heapAllocatorName(
                       p.memConfig.heapAllocator),
                   (unsigned long long)hs.mallocCalls,
                   (unsigned long long)hs.frees,
                   (unsigned long long)hs.reuses,
                   (unsigned long long)hs.bumps,
                   (unsigned long long)hs.slabsCarved,
                   (unsigned long long)hs.chunksReserved,
                   (unsigned long long)hs.largeAllocs,
                   (unsigned long long)hs.slabsReclaimed,
                   (unsigned long long)hs.chunksRecycled,
                   (unsigned long long)hs.exhaustions,
                   (unsigned long long)hs.bytesReserved);
        }
        const ::cherisem::revoke::RevokeStats &rv =
            r.outcome.memStats.revoke;
        if (rv.sweeps || rv.regionsQuarantined || rv.pendingRegions) {
            printf("  revoke: sweeps=%llu slots-visited=%llu "
                   "tags-revoked=%llu quarantined=%llu "
                   "flushed=%llu pending=%llu sweep-ns=%llu\n",
                   (unsigned long long)rv.sweeps,
                   (unsigned long long)rv.slotsVisited,
                   (unsigned long long)rv.tagsRevoked,
                   (unsigned long long)rv.regionsQuarantined,
                   (unsigned long long)rv.regionsFlushed,
                   (unsigned long long)rv.pendingRegions,
                   (unsigned long long)rv.sweepNs);
        }
        printf("  parse=%lluns sema=%lluns optimize=%lluns "
               "eval=%lluns\n",
               (unsigned long long)r.phases.parseNs,
               (unsigned long long)r.phases.semaNs,
               (unsigned long long)r.phases.optimizeNs,
               (unsigned long long)r.phases.evalNs);
        for (const auto &[name, count] : r.outcome.intrinsicCalls)
            printf("  intrinsic %-28s %llu\n", name.c_str(),
                   (unsigned long long)count);
    }
    if (auto *ring = dynamic_cast<obs::RingBufferSink *>(sink)) {
        if (ring->dropped() > 0)
            printf("  (ring full: %llu oldest events dropped)\n",
                   (unsigned long long)ring->dropped());
        for (const obs::TraceEvent &e : ring->snapshot())
            printf("  %s\n", obs::renderEvent(e).c_str());
        ring->clear();
    }
    if (r.frontendError)
        return 2;
    return r.outcome.kind == cherisem::corelang::Outcome::Kind::Exit
               ? r.outcome.exitCode
               : 1;
}

const char kUsage[] =
    "usage: cherisem_run file.c [--profile NAME] [--all] "
    "[--replay-to SEQ] [--stats] [--stats-json PATH] "
    "[--trace=<sink>[:<arg>]] [--list]\n";

/** The value of option @p name at argv[*i], spelled "--name VALUE" or
 *  "--name=VALUE"; advances *i past a separate value.  nullopt when
 *  argv[*i] is some other argument; "" when the value is missing. */
std::optional<std::string>
optionValue(int argc, char **argv, int *i, const char *name)
{
    size_t n = std::strlen(name);
    const char *arg = argv[*i];
    if (std::strncmp(arg, name, n) != 0)
        return std::nullopt;
    if (arg[n] == '=')
        return std::string(arg + n + 1);
    if (arg[n] != '\0')
        return std::nullopt;
    return *i + 1 < argc ? std::string(argv[++*i]) : std::string();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string file;
    std::string profile = "cerberus";
    std::string traceSpec;
    std::string statsJsonPath;
    bool all = false;
    bool verbose = false;
    bool list = false;
    bool haveReplay = false;
    uint64_t replayTo = 0;
    for (int i = 1; i < argc; ++i) {
        std::optional<std::string> v;
        bool ok = true;
        if ((v = optionValue(argc, argv, &i, "--profile"))) {
            ok = !v->empty();
            profile = *v;
        } else if ((v = optionValue(argc, argv, &i, "--replay-to"))) {
            ok = !v->empty() &&
                 v->find_first_not_of("0123456789") == std::string::npos;
            haveReplay = true;
            replayTo = std::strtoull(v->c_str(), nullptr, 10);
        } else if ((v = optionValue(argc, argv, &i, "--stats-json"))) {
            ok = !v->empty();
            statsJsonPath = *v;
        } else if (!std::strncmp(argv[i], "--trace=", 8)) {
            traceSpec = argv[i] + 8;
            ok = !traceSpec.empty();
        } else if (!std::strcmp(argv[i], "--trace") ||
                   !std::strcmp(argv[i], "--stats")) {
            // Bare --trace is kept as the old stats-only spelling.
            verbose = true;
        } else if (!std::strcmp(argv[i], "--all")) {
            all = true;
        } else if (!std::strcmp(argv[i], "--list")) {
            list = true;
        } else {
            // An unknown option, or a second input file.
            ok = argv[i][0] != '-' && file.empty();
            file = argv[i];
        }
        if (!ok) {
            fprintf(stderr, "cherisem_run: bad argument '%s'\n%s",
                    argv[i], kUsage);
            return 2;
        }
    }
    if (list) {
        for (const Profile &p : allProfiles())
            printf("%-20s %s\n", p.name.c_str(), p.description.c_str());
        return 0;
    }
    if (file.empty()) {
        fputs(kUsage, stderr);
        return 2;
    }
    if (haveReplay && all) {
        fprintf(stderr,
                "--replay-to replays one profile's recording; drop "
                "--all or pick a --profile\n");
        return 2;
    }
    std::ifstream in(file);
    if (!in) {
        fprintf(stderr, "cannot open %s\n", file.c_str());
        return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();

    std::unique_ptr<obs::TraceSink> sink;
    if (!traceSpec.empty()) {
        std::string err;
        sink = obs::makeSink(traceSpec, &err);
        if (!sink) {
            fprintf(stderr, "--trace: %s\n", err.c_str());
            return 2;
        }
    }

    std::vector<std::string> statsEntries;
    std::vector<std::string> *entries =
        statsJsonPath.empty() ? nullptr : &statsEntries;

    int rc = 0;
    if (all) {
        for (const Profile &p : allProfiles())
            rc = runOne(ss.str(), p, file, verbose, sink.get(),
                        entries);
    } else {
        const Profile *found = findProfile(profile);
        if (!found) {
            fprintf(stderr, "unknown profile %s (try --list)\n",
                    profile.c_str());
            return 2;
        }
        const Profile &p = *found;
        if (haveReplay)
            rc = replayRun(ss.str(), p, file, replayTo, sink.get());
        else
            rc = runOne(ss.str(), p, file, verbose, sink.get(),
                        entries);
    }
    if (entries) {
        std::string doc = "{\n  \"schema\": \"cherisem-stats-v2\",\n";
        doc += "  \"file\": \"" + obs::jsonEscape(file) + "\",\n";
        doc += "  \"runs\": [\n";
        for (size_t i = 0; i < statsEntries.size(); ++i)
            doc += statsEntries[i] +
                   (i + 1 < statsEntries.size() ? ",\n" : "\n");
        doc += "  ]\n}\n";
        if (statsJsonPath == "-") {
            fputs(doc.c_str(), stdout);
        } else {
            std::ofstream out(statsJsonPath);
            if (!out) {
                fprintf(stderr, "cannot open %s\n",
                        statsJsonPath.c_str());
                return 2;
            }
            out << doc;
        }
    }
    if (sink)
        sink->flush();
    return rc;
}
