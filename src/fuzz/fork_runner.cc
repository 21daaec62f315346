/**
 * @file
 * Fork-based fuzzing executor (see fork_runner.h for the oracle).
 */
#include "fuzz/fork_runner.h"

#include <chrono>
#include <optional>

#include "corelang/machine.h"
#include "driver/interpreter.h"
#include "obs/sinks.h"
#include "obs/trace_diff.h"

namespace cherisem::fuzz {

namespace {

using corelang::Outcome;

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

std::vector<Divergence>
runForkCase(uint64_t seed, const std::string &source,
            const ForkOptions &opts, ForkStats *stats)
{
    std::vector<Divergence> out;

    const driver::Profile *profile = opts.profile.empty()
        ? &driver::referenceProfile()
        : driver::findProfile(opts.profile);
    if (!profile) {
        out.push_back({Divergence::Kind::Crash, seed, opts.profile,
                       "unknown profile", false});
        return out;
    }

    // Compile once — the whole point of forking.
    Result<driver::CompiledPtr, std::string> compiled =
        driver::compile(source, *profile, "<fork>", obs::Tracer());
    if (!compiled) {
        out.push_back({Divergence::Kind::Crash, seed, profile->name,
                       "frontend-error " + compiled.error(), false});
        return out;
    }
    const sema::Program &prog = compiled.value()->prog;

    corelang::EvalOptions eopts = profile->evalOptions();

    // Build: globals + __prelude() once, captured at the quiescent
    // point.  The recorded events are the cold stream's prefix.
    obs::RingBufferSink preludeRing(opts.ringCapacity);
    corelang::EvalOptions bopts = eopts;
    bopts.memConfig.traceSink = &preludeRing;
    corelang::Machine builder(prog, bopts);
    corelang::WarmPtr warm = corelang::buildWarm(builder, preludeRing);
    if (stats && !warm->terminal)
        stats->preludeSteps = warm->snap->steps;

    obs::DiffOptions dopts; // same profile both sides: full strength

    for (unsigned k = 0; k < opts.variants; ++k) {
        // Forked run: restore, replay the prefix, poke, run main.
        obs::RingBufferSink forkRing(opts.ringCapacity);
        corelang::EvalOptions fopts = eopts;
        fopts.memConfig.traceSink = &forkRing;
        uint64_t t0 = nowNs();
        Outcome forkOut =
            corelang::runWarm(prog, fopts, *warm, [k](corelang::Machine &m) {
                m.pokeGlobalInt("__variant", static_cast<int64_t>(k));
            });
        if (stats)
            stats->forkNs += nowNs() - t0;

        // Cold oracle: fresh machine, full prelude, identical poke
        // at the identical quiescent point.
        obs::RingBufferSink coldRing(opts.ringCapacity);
        corelang::EvalOptions copts = eopts;
        copts.memConfig.traceSink = &coldRing;
        Outcome coldOut;
        t0 = nowNs();
        {
            corelang::Machine m(prog, copts);
            std::optional<Outcome> pre = m.runPrelude();
            if (pre) {
                coldOut = *pre;
            } else {
                m.pokeGlobalInt("__variant", static_cast<int64_t>(k));
                coldOut = m.runMain();
            }
        }
        if (stats) {
            stats->coldNs += nowNs() - t0;
            ++stats->variants;
        }

        std::string why;
        if (forkOut.summary() != coldOut.summary() ||
            forkOut.output != coldOut.output) {
            why = "outcome: fork " + forkOut.summary() + " | cold " +
                coldOut.summary();
        } else if (forkOut.steps != coldOut.steps) {
            why = "steps: fork " + std::to_string(forkOut.steps) +
                " | cold " + std::to_string(coldOut.steps);
        } else if (forkOut.memStats.loads != coldOut.memStats.loads ||
                   forkOut.memStats.stores !=
                       coldOut.memStats.stores) {
            why = "mem counters diverged";
        } else {
            obs::DiffResult d = obs::diffEventStreams(
                forkRing.snapshot(), coldRing.snapshot(), dopts);
            if (!d.equivalent)
                why = d.summary();
        }
        if (!why.empty())
            out.push_back({Divergence::Kind::Fork, seed,
                           profile->name + ":variant" +
                               std::to_string(k),
                           why, false});
    }
    return out;
}

} // namespace cherisem::fuzz
