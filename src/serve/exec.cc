#include "serve/exec.h"

#include <algorithm>
#include <chrono>

#include "obs/sinks.h"

namespace cherisem::serve {

namespace {

/** Close the digest @p sink streamed into @p result. */
void
finishDigest(const obs::DigestSink &sink, ExecResult *result)
{
    result->digest = sink.digest();
    result->hasDigest = true;
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

    obs::DigestSink sink;
    if (spec.traceDigest)
        opts.memConfig.traceSink = &sink;

    {
        obs::Tracer noTrace;
        obs::ScopedPhaseTimer t(&result->phases.evalNs, noTrace,
                                "evaluate");
        corelang::Machine machine(compiled->prog, opts);
        result->outcome = machine.run();
    }
    if (spec.traceDigest)
        finishDigest(sink, result);
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

namespace {

/** The first request for a program: pay the prelude once and cache
 *  the fork point.  The build runs untraced unless the request wants
 *  a digest; then it is the cold run itself, streamed into a digest
 *  sink, and the sink's state at the fork point is the entry's digest
 *  prefix.  Either way main() goes on from the build's own machine,
 *  exactly as a cold run would. */
void
serveBuild(const CompiledPtr &compiled, const corelang::EvalOptions &opts,
           const RunSpec &spec, uint64_t warmKey, WarmCache *warm,
           ExecResult *result)
{
    result->warmBuild = true;
    obs::DigestSink sink;
    corelang::EvalOptions bopts = opts;
    if (spec.traceDigest)
        bopts.memConfig.traceSink = &sink;
    corelang::Machine m(compiled->prog, bopts);
    auto entry = std::make_shared<WarmServeEntry>();
    entry->warm = corelang::buildWarm(m);
    const corelang::WarmEntry &built = *entry->warm;
    if (spec.traceDigest && !built.terminal)
        entry->prefix = DigestPrefix{sink.emitted(), sink.state()};
    // Wall-clock/cancel exhaustion is not a property of the program;
    // deterministic step exhaustion would be, but the distinction
    // lives in a message string, so neither is cached — a retry
    // rebuilds deterministically.
    bool exhausted = built.terminal &&
        built.preludeOutcome.kind ==
            corelang::Outcome::Kind::ResourceExhausted;
    if (!exhausted && warm)
        warm->insert(warmKey, entry);
    result->outcome = built.terminal ? built.preludeOutcome : m.runMain();
    if (spec.traceDigest)
        finishDigest(sink, result);
}

/** @p entry's digest prefix, computed on first use by one traced
 *  prelude run under the entry's own step budget and no deadline.  A
 *  run cut short by cancellation returns nullopt and caches nothing,
 *  so a later request retries. */
std::optional<DigestPrefix>
digestPrefix(WarmServeEntry &entry, const CompiledPtr &compiled,
             const driver::Profile &profile, const ExecLimits &limits)
{
    std::lock_guard<std::mutex> lock(entry.mu);
    if (!entry.prefix) {
        obs::DigestSink sink;
        corelang::EvalOptions opts = profile.evalOptions();
        opts.maxSteps = entry.warm->preludeSteps();
        opts.cancel = limits.cancel;
        opts.memConfig.traceSink = &sink;
        corelang::Machine m(compiled->prog, opts);
        if (m.runPrelude())
            return std::nullopt;
        entry.prefix = DigestPrefix{sink.emitted(), sink.state()};
    }
    return entry.prefix;
}

/** A repeat request: restore the fork point and run main().  A digest
 *  streams main()'s events into a sink resumed from the entry's digest
 *  prefix: no prelude event is replayed, copied or rendered.  False
 *  when only a cold run gives the digest: a terminal entry, or a
 *  prefix that could not be computed. */
bool
serveHit(WarmServeEntry &entry, const CompiledPtr &compiled,
         const driver::Profile &profile, corelang::EvalOptions opts,
         const RunSpec &spec, const ExecLimits &limits,
         ExecResult *result)
{
    const corelang::WarmEntry &warm = *entry.warm;
    if (!spec.traceDigest) {
        result->warmHit = true;
        result->outcome = corelang::runWarm(compiled->prog, opts, warm);
        return true;
    }
    if (warm.terminal)
        return false;
    std::optional<DigestPrefix> prefix =
        digestPrefix(entry, compiled, profile, limits);
    if (!prefix)
        return false;
    obs::DigestSink sink(prefix->events, prefix->state);
    opts.memConfig.traceSink = &sink;
    result->outcome = corelang::runWarm(compiled->prog, opts, warm);
    finishDigest(sink, result);
    result->warmHit = true;
    return true;
}

} // namespace

void
runCompiledWarm(const CompiledPtr &compiled,
                const driver::Profile &profile, const RunSpec &spec,
                const ExecLimits &limits, uint64_t warmKey,
                WarmCache *warm, ExecResult *result)
{
    std::shared_ptr<WarmServeEntry> entry =
        warm ? warm->lookup(warmKey) : nullptr;
    corelang::EvalOptions opts = resolveOpts(profile, spec, limits);

    // An entry only reproduces a cold run bit-for-bit when the cold
    // run would get as far as the entry did: a step budget below the
    // prelude's steps cannot be served warm.
    bool served = false;
    if (!entry || entry->warm->preludeSteps() <= opts.maxSteps) {
        obs::Tracer noTrace;
        obs::ScopedPhaseTimer t(&result->phases.evalNs, noTrace,
                                "evaluate");
        if (entry) {
            served = serveHit(*entry, compiled, profile, opts, spec,
                              limits, result);
        } else {
            serveBuild(compiled, opts, spec, warmKey, warm, result);
            served = true;
        }
    }
    if (!served)
        runCompiled(compiled, profile, spec, limits, result);
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
