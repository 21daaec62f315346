#include "serve/exec.h"

#include <algorithm>
#include <chrono>

#include "obs/sinks.h"

namespace cherisem::serve {

namespace {

/** Same capacity as the fuzz differential harness: comfortably
 *  holds every suite program's full stream. */
constexpr size_t kDigestRingCapacity = 1 << 17;

uint64_t
digestEvents(const std::vector<obs::TraceEvent> &events,
             uint64_t dropped)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const obs::TraceEvent &e : events) {
        std::string line = obs::renderEventJson(e);
        h = fnv1a(line.data(), line.size(), h);
        h = fnv1a("\n", 1, h);
    }
    // A wrapped ring digests only the retained suffix; fold the
    // drop count so a truncated stream can never collide with a
    // complete one.
    h = fnv1a(&dropped, sizeof dropped, h);
    return h;
}

/** The per-run evaluation options: profile defaults and request
 *  budgets clamped to the server ceilings. */
corelang::EvalOptions
resolveOpts(const driver::Profile &profile, const RunSpec &spec,
            const ExecLimits &limits)
{
    corelang::EvalOptions opts = profile.evalOptions();
    uint64_t maxSteps =
        spec.maxSteps ? spec.maxSteps : limits.maxSteps;
    // A request may tighten the server's budget, never exceed it.
    opts.maxSteps = std::min(maxSteps, limits.maxSteps);
    uint64_t deadlineMs =
        spec.deadlineMs ? spec.deadlineMs : limits.deadlineMs;
    if (limits.deadlineMs)
        deadlineMs = std::min(deadlineMs, limits.deadlineMs);
    if (deadlineMs)
        opts.deadline = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(deadlineMs);
    opts.cancel = limits.cancel;
    return opts;
}

} // namespace

CompiledPtr
compileFront(const std::string &source,
             const driver::Profile &profile, FrontCache *cache,
             ExecResult *result, const std::string &filename)
{
    uint64_t key = FrontCache::key(source, profile.name);
    if (cache) {
        if (CompiledPtr hit = cache->lookup(key)) {
            result->cacheHit = true;
            return hit;
        }
    }
    // Front-half phases are timed, not traced.
    Result<CompiledPtr, std::string> compiled =
        driver::compile(source, profile, filename, obs::Tracer());
    if (!compiled) {
        result->frontendError = true;
        result->frontendMessage = compiled.error();
        return nullptr;
    }
    CompiledPtr out = compiled.value();
    result->optStats = out->optStats;
    result->phases = out->frontPhases;
    if (cache)
        cache->insert(key, out);
    return out;
}

void
runCompiled(const CompiledPtr &compiled,
            const driver::Profile &profile, const RunSpec &spec,
            const ExecLimits &limits, ExecResult *result)
{
    corelang::EvalOptions opts = resolveOpts(profile, spec, limits);

    obs::RingBufferSink ring(kDigestRingCapacity);
    if (spec.traceDigest)
        opts.memConfig.traceSink = &ring;

    {
        obs::Tracer noTrace;
        obs::ScopedPhaseTimer t(&result->phases.evalNs, noTrace,
                                "evaluate");
        corelang::Machine machine(compiled->prog, opts);
        result->outcome = machine.run();
    }
    if (spec.traceDigest) {
        result->digest = digestEvents(ring.snapshot(), ring.dropped());
        result->hasDigest = true;
    }
}

ExecResult
runRequest(const std::string &source, const driver::Profile &profile,
           const RunSpec &spec, const ExecLimits &limits,
           FrontCache *cache)
{
    ExecResult result;
    CompiledPtr compiled =
        compileFront(source, profile, cache, &result);
    if (!compiled)
        return result;
    runCompiled(compiled, profile, spec, limits, &result);
    return result;
}

void
runCompiledWarm(const CompiledPtr &compiled,
                const driver::Profile &profile, const RunSpec &spec,
                const ExecLimits &limits, uint64_t warmKey,
                WarmCache *warm, ExecResult *result)
{
    corelang::WarmPtr entry = warm ? warm->lookup(warmKey) : nullptr;
    corelang::EvalOptions opts = resolveOpts(profile, spec, limits);

    // An entry only reproduces a cold run bit-for-bit when the cold
    // run would get as far as the entry did.  A step budget below
    // the prelude's steps, or a digest over a wrapped (lossy)
    // recording, cannot be served warm.
    if (entry && (entry->preludeSteps() > opts.maxSteps ||
                  (spec.traceDigest && entry->preludeDropped > 0))) {
        runCompiled(compiled, profile, spec, limits, result);
        return;
    }

    obs::Tracer noTrace;
    obs::ScopedPhaseTimer t(&result->phases.evalNs, noTrace,
                            "evaluate");
    obs::RingBufferSink ring(kDigestRingCapacity);

    if (!entry) {
        // First request for this program: pay the prelude once,
        // traced into the ring (the entry records its events), and
        // capture the fork point.  A digest request goes on with the
        // machine that just ran it (exactly a cold run, its stream
        // whole in the ring); any other request runs main() untraced
        // from the entry, as a warm hit would.
        result->warmBuild = true;
        corelang::EvalOptions bopts = opts;
        bopts.memConfig.traceSink = &ring;
        corelang::Machine m(compiled->prog, bopts);
        corelang::WarmPtr built = corelang::buildWarm(m, ring);
        // Wall-clock/cancel exhaustion is not a property of the
        // program; deterministic step exhaustion would be, but the
        // distinction lives in a message string, so neither is
        // cached — a retry rebuilds deterministically.
        bool exhausted = built->terminal &&
            built->preludeOutcome.kind ==
                corelang::Outcome::Kind::ResourceExhausted;
        if (!exhausted && warm)
            warm->insert(warmKey, built);
        if (built->terminal)
            result->outcome = built->preludeOutcome;
        else if (spec.traceDigest)
            result->outcome = m.runMain();
        else
            result->outcome =
                corelang::runWarm(compiled->prog, opts, *built);
    } else {
        result->warmHit = true;
        if (spec.traceDigest)
            opts.memConfig.traceSink = &ring;
        result->outcome =
            corelang::runWarm(compiled->prog, opts, *entry);
    }
    if (spec.traceDigest) {
        result->digest = digestEvents(ring.snapshot(), ring.dropped());
        result->hasDigest = true;
    }
}

std::string
joinWarmSource(const std::string &preludeSource, const std::string &source)
{
    std::string out = preludeSource;
    out += "\n#line 1 \"<input>\"\n";
    out += source;
    return out;
}

ExecResult
runRequestWarm(const std::string &preludeSource,
               const std::string &source,
               const driver::Profile &profile, const RunSpec &spec,
               const ExecLimits &limits, FrontCache *cache,
               WarmCache *warm)
{
    ExecResult result;
    std::string combined = joinWarmSource(preludeSource, source);
    CompiledPtr compiled =
        compileFront(combined, profile, cache, &result, "<warm>");
    if (!compiled)
        return result;
    uint64_t warmKey = FrontCache::key(combined, profile.name);
    runCompiledWarm(compiled, profile, spec, limits, warmKey, warm,
                    &result);
    return result;
}

} // namespace cherisem::serve
