/**
 * @file
 * One request's execution: driver::runSource() with two caches.
 *
 * The front half (driver::compile()) is looked up in / inserted into
 * the FrontCache; evaluation always runs fresh with its own
 * MemoryModel, optional per-request step budget, wall-clock deadline
 * and cooperative cancel flag, and an optional private
 * RingBufferSink whose event stream is folded into a FNV-1a witness
 * digest.  Identical requests therefore produce byte-identical
 * ExecResults whether they hit or miss the cache, run
 * single-threaded or on a pool — the determinism contract the serve
 * tests enforce.
 *
 * Warm serving (`cherisem_serve --warm FILE`) prepends one prelude
 * source to every request and keeps, per combined program, the
 * corelang::WarmEntry fork point in the WarmCache: the first request
 * for a program pays the prelude once ("warm build"), every repeat
 * runs only main() from the snapshot ("warm hit").  Entries record no
 * events; a digest hit streams main()'s events into a digest sink
 * resumed from the entry's digest prefix, so it costs main() alone.
 */
#ifndef CHERISEM_SERVE_EXEC_H
#define CHERISEM_SERVE_EXEC_H

#include <atomic>
#include <cstdint>
#include <string>

#include "driver/interpreter.h"
#include "serve/cache.h"

namespace cherisem::serve {

/** Per-run resource limits (the server's defaults; a request may
 *  tighten but not exceed them). */
struct ExecLimits
{
    uint64_t maxSteps = 20'000'000;
    /** 0 = no wall-clock deadline. */
    uint64_t deadlineMs = 0;
    /** Server-wide cancellation (shutdown); may be null. */
    const std::atomic<bool> *cancel = nullptr;
};

/** A runSource() result plus what the caches did. */
struct ExecResult : driver::RunResult
{
    bool cacheHit = false;
    /** This run restored a warm post-prelude snapshot and executed
     *  only main(). */
    bool warmHit = false;
    /** This run built the warm snapshot (first request for this
     *  program on a warm server). */
    bool warmBuild = false;
    /** Witness digest over the run's trace events (valid when
     *  hasDigest). */
    uint64_t digest = 0;
    bool hasDigest = false;
};

/** driver::compile() through @p cache when non-null (a null cache
 *  always compiles fresh).  Returns nullptr and fills @p result's
 *  frontend error fields on lex/parse/sema failure. */
CompiledPtr compileFront(const std::string &source,
                         const driver::Profile &profile,
                         FrontCache *cache, ExecResult *result,
                         const std::string &filename = "<input>");

/** Options for one evaluation of a compiled program. */
struct RunSpec
{
    uint64_t maxSteps = 0;   // 0 = limits.maxSteps
    uint64_t deadlineMs = 0; // 0 = limits.deadlineMs
    bool traceDigest = false;
};

/** Evaluate @p compiled under @p profile (own MemoryModel, own
 *  trace sink when digesting). */
void runCompiled(const CompiledPtr &compiled,
                 const driver::Profile &profile, const RunSpec &spec,
                 const ExecLimits &limits, ExecResult *result);

/** compileFront + runCompiled in one call. */
ExecResult runRequest(const std::string &source,
                      const driver::Profile &profile,
                      const RunSpec &spec, const ExecLimits &limits,
                      FrontCache *cache);

/** Evaluate @p compiled through @p warm (keyed by @p warmKey): the
 *  first run builds the fork point (corelang::buildWarm) and serves
 *  main() from the same machine; later runs fork it
 *  (corelang::runWarm).  Falls back to runCompiled() when the entry
 *  cannot reproduce a cold run bit-for-bit: a step budget tighter
 *  than the prelude, or a digest over a terminal entry or over a
 *  stream longer than the digest ring. */
void runCompiledWarm(const CompiledPtr &compiled,
                     const driver::Profile &profile,
                     const RunSpec &spec, const ExecLimits &limits,
                     uint64_t warmKey, WarmCache *warm,
                     ExecResult *result);

/** The program a warm request runs: the prelude, then
 *  `#line 1 "<input>"`, then @p source, so that locations in the
 *  request (UB reports, assert messages, frontend errors) name the
 *  request's own lines. */
std::string joinWarmSource(const std::string &preludeSource,
                           const std::string &source);

/** The warm-serving request path: compile joinWarmSource(prelude,
 *  source) through @p cache, then runCompiledWarm.  Responses carry
 *  the same stable fields a cold run of the combined program
 *  produces. */
ExecResult runRequestWarm(const std::string &preludeSource,
                          const std::string &source,
                          const driver::Profile &profile,
                          const RunSpec &spec,
                          const ExecLimits &limits, FrontCache *cache,
                          WarmCache *warm);

} // namespace cherisem::serve

#endif // CHERISEM_SERVE_EXEC_H
