/**
 * @file
 * The top-level facade: source in, Outcome out.
 *
 * This is the library's quickstart entry point — everything the
 * examples and the test/bench harnesses use:
 *
 *     auto result = driver::runSource(src, driver::referenceProfile());
 *     if (result.outcome.kind == corelang::Outcome::Kind::Undefined)
 *         ... result.outcome.failure ...
 *
 * Every front end shares one pipeline: compile() is the front half
 * (parse -> sema -> optimize under a profile), and the compiled
 * program is then evaluated by a fresh corelang::Machine — cold
 * (runSource, a serve miss) or from a warm fork point
 * (corelang::runWarm).
 */
#ifndef CHERISEM_DRIVER_INTERPRETER_H
#define CHERISEM_DRIVER_INTERPRETER_H

#include <memory>
#include <string>

#include "corelang/optimize.h"
#include "driver/profiles.h"
#include "obs/metrics.h"
#include "sema/sema.h"
#include "support/result.h"

namespace cherisem::driver {

/** The front half of one (source, profile) pair.  Immutable once
 *  built — sema::Program is plain annotated-AST data — so one
 *  program can be evaluated by any number of machines at once. */
struct CompiledProgram
{
    sema::Program prog;
    corelang::OptimizeStats optStats;
    /** What the front half cost (evalNs 0). */
    obs::PhaseTimings frontPhases;
};

using CompiledPtr = std::shared_ptr<const CompiledProgram>;

/** Parse, analyse and optimise @p source under @p profile (the
 *  machine layout comes from the profile's arch), timing each phase
 *  and emitting Phase events through @p tracer.  Returns the
 *  frontend-error message on a lex, parse or sema failure. */
Result<CompiledPtr, std::string> compile(const std::string &source,
                                         const Profile &profile,
                                         const std::string &filename,
                                         const obs::Tracer &tracer);

struct RunResult
{
    /** True when the program failed to lex/parse/typecheck. */
    bool frontendError = false;
    std::string frontendMessage;
    corelang::Outcome outcome;
    corelang::OptimizeStats optStats;
    /** Wall-clock time per pipeline phase (always collected; also
     *  emitted as Phase events when the profile has a trace sink). */
    obs::PhaseTimings phases;

    /** "exit 0" / "ub UB_CHERI_..." / "frontend-error ...". */
    std::string summary() const;
};

/** Compile and run @p source under @p profile. */
RunResult runSource(const std::string &source, const Profile &profile,
                    const std::string &filename = "<input>");

} // namespace cherisem::driver

#endif // CHERISEM_DRIVER_INTERPRETER_H
