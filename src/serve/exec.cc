#include "serve/exec.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "corelang/machine.h"
#include "frontend/parser.h"
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

std::string
ExecResult::summary() const
{
    if (frontendError)
        return "frontend-error " + frontendMessage;
    return outcome.summary();
}

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
    obs::Tracer noTrace; // front-half phases are timed, not traced
    auto compiled = std::make_shared<CompiledProgram>();
    try {
        std::optional<frontend::TranslationUnit> unit;
        {
            obs::ScopedPhaseTimer t(&compiled->frontPhases.parseNs,
                                    noTrace, "parse");
            unit = frontend::parse(source, filename);
        }
        ctype::MachineLayout machine{
            profile.memConfig.arch->capSize(),
            profile.memConfig.arch->addrBits() / 8};
        {
            obs::ScopedPhaseTimer t(&compiled->frontPhases.semaNs,
                                    noTrace, "sema");
            compiled->prog =
                sema::analyze(std::move(*unit), machine);
        }
        {
            obs::ScopedPhaseTimer t(
                &compiled->frontPhases.optimizeNs, noTrace,
                "optimize");
            compiled->optStats =
                corelang::optimize(compiled->prog, profile.optims);
        }
    } catch (const frontend::FrontendError &e) {
        result->frontendError = true;
        result->frontendMessage = e.str();
        return nullptr;
    } catch (const sema::SemaError &e) {
        result->frontendError = true;
        result->frontendMessage = e.str();
        return nullptr;
    }
    result->phases.parseNs = compiled->frontPhases.parseNs;
    result->phases.semaNs = compiled->frontPhases.semaNs;
    result->phases.optimizeNs = compiled->frontPhases.optimizeNs;
    CompiledPtr out = compiled;
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
    WarmPtr entry = warm ? warm->lookup(warmKey) : nullptr;

    if (entry && !entry->terminal) {
        // A snapshot only reproduces a cold run bit-for-bit when the
        // cold run would actually get through the prelude.  A step
        // budget the prelude already exceeds, or a digest over a
        // wrapped (lossy) recording, cannot be served warm.
        uint64_t maxSteps =
            spec.maxSteps ? spec.maxSteps : limits.maxSteps;
        maxSteps = std::min(maxSteps, limits.maxSteps);
        bool budgetTooTight = entry->snap->steps > maxSteps;
        bool lossyDigest =
            spec.traceDigest && entry->preludeDropped > 0;
        if (budgetTooTight || lossyDigest) {
            runCompiled(compiled, profile, spec, limits, result);
            return;
        }
    }

    corelang::EvalOptions opts = resolveOpts(profile, spec, limits);
    obs::Tracer noTrace;
    obs::ScopedPhaseTimer t(&result->phases.evalNs, noTrace,
                            "evaluate");

    if (!entry) {
        // First request for this program: pay the prelude once,
        // capture the fork point, and serve this request from the
        // machine that just ran it (exactly a cold run).
        result->warmBuild = true;
        obs::RingBufferSink ring(kDigestRingCapacity);
        corelang::EvalOptions bopts = opts;
        bopts.memConfig.traceSink = &ring;
        corelang::Machine m(compiled->prog, bopts);
        std::optional<corelang::Outcome> pre = m.runPrelude();
        auto built = std::make_shared<WarmEntry>();
        built->preludeEvents = ring.snapshot();
        built->preludeDropped = ring.dropped();
        if (pre) {
            built->terminal = true;
            built->preludeOutcome = *pre;
        } else {
            built->snap = m.capture();
        }
        // Wall-clock/cancel exhaustion is not a property of the
        // program; deterministic step exhaustion would be, but the
        // distinction lives in a message string, so neither is
        // cached — a retry rebuilds deterministically.
        bool exhausted = pre &&
            pre->kind == corelang::Outcome::Kind::ResourceExhausted;
        if (!exhausted && warm)
            warm->insert(warmKey, built);
        result->outcome = pre ? *pre : m.runMain();
        if (spec.traceDigest) {
            result->digest =
                digestEvents(ring.snapshot(), ring.dropped());
            result->hasDigest = true;
        }
        return;
    }

    result->warmHit = true;
    if (entry->terminal) {
        result->outcome = entry->preludeOutcome;
        if (spec.traceDigest) {
            result->digest = digestEvents(entry->preludeEvents,
                                          entry->preludeDropped);
            result->hasDigest = true;
        }
        return;
    }

    // Fork: fresh machine, O(pages-touched) restore, replay the
    // recorded prelude stream (sequence numbers restart per sink, so
    // the replayed events are byte-identical to a cold prefix), then
    // run only main().
    obs::RingBufferSink ring(kDigestRingCapacity);
    if (spec.traceDigest)
        opts.memConfig.traceSink = &ring;
    corelang::Machine m(compiled->prog, opts);
    m.restoreSnapshot(entry->snap);
    if (spec.traceDigest)
        for (const obs::TraceEvent &e : entry->preludeEvents)
            ring.emit(e);
    result->outcome = m.runMain();
    if (spec.traceDigest) {
        result->digest = digestEvents(ring.snapshot(), ring.dropped());
        result->hasDigest = true;
    }
}

ExecResult
runRequestWarm(const std::string &preludeSource,
               const std::string &source,
               const driver::Profile &profile, const RunSpec &spec,
               const ExecLimits &limits, FrontCache *cache,
               WarmCache *warm)
{
    ExecResult result;
    std::string combined = preludeSource;
    combined.push_back('\n');
    combined += source;
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
