#include "driver/interpreter.h"

#include <optional>

#include "frontend/parser.h"

namespace cherisem::driver {

std::string
RunResult::summary() const
{
    if (frontendError)
        return "frontend-error " + frontendMessage;
    return outcome.summary();
}

Result<CompiledPtr, std::string>
compile(const std::string &source, const Profile &profile,
        const std::string &filename, const obs::Tracer &tracer)
{
    auto compiled = std::make_shared<CompiledProgram>();
    obs::PhaseTimings &phases = compiled->frontPhases;
    try {
        std::optional<frontend::TranslationUnit> unit;
        {
            obs::ScopedPhaseTimer t(&phases.parseNs, tracer, "parse");
            unit = frontend::parse(source, filename);
        }
        ctype::MachineLayout machine{
            profile.memConfig.arch->capSize(),
            profile.memConfig.arch->addrBits() / 8};
        {
            obs::ScopedPhaseTimer t(&phases.semaNs, tracer, "sema");
            compiled->prog = sema::analyze(std::move(*unit), machine);
        }
        {
            obs::ScopedPhaseTimer t(&phases.optimizeNs, tracer,
                                    "optimize");
            compiled->optStats =
                corelang::optimize(compiled->prog, profile.optims);
        }
    } catch (const frontend::FrontendError &e) {
        return e.str();
    } catch (const sema::SemaError &e) {
        return e.str();
    }
    return CompiledPtr(std::move(compiled));
}

RunResult
runSource(const std::string &source, const Profile &profile,
          const std::string &filename)
{
    RunResult result;
    obs::Tracer tracer(profile.memConfig.traceSink);
    Result<CompiledPtr, std::string> compiled =
        compile(source, profile, filename, tracer);
    if (!compiled) {
        result.frontendError = true;
        result.frontendMessage = compiled.error();
        return result;
    }
    const CompiledProgram &c = *compiled.value();
    result.optStats = c.optStats;
    result.phases = c.frontPhases;
    {
        obs::ScopedPhaseTimer t(&result.phases.evalNs, tracer,
                                "evaluate");
        result.outcome =
            corelang::evaluate(c.prog, profile.evalOptions());
    }
    return result;
}

} // namespace cherisem::driver
