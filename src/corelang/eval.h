/**
 * @file
 * The evaluator: executes a type-annotated MiniC program against the
 * CHERI C memory object model.
 *
 * This is the dynamic half of the executable semantics (section 4 of
 * the paper): expression evaluation, the statement machine, frames
 * with object lifetimes, the builtin/intrinsic implementations, and
 * undefined-behaviour propagation.  Everything memory-shaped is
 * delegated to mem::MemoryModel.  The one implementation is
 * corelang::Machine (machine.h); this header is its public face.
 */
#ifndef CHERISEM_CORELANG_EVAL_H
#define CHERISEM_CORELANG_EVAL_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "cap/cap_format.h"
#include "mem/memory_model.h"
#include "sema/sema.h"

namespace cherisem::corelang {

/** Options controlling a single abstract-machine run. */
struct EvalOptions
{
    mem::MemoryModel::Config memConfig;
    /** Capability printing style for %p / print_cap. */
    cap::FormatStyle capFormat = cap::FormatStyle::Abstract;
    /** Prefix printed capabilities with their PNVI provenance (the
     *  Cerberus output style of Appendix A). */
    bool printProvenance = true;
    /** Abort runaway programs after this many evaluation steps. */
    uint64_t maxSteps = 20'000'000;
    /** Cooperative cancellation: when non-null, polled every few
     *  thousand steps; a true load ends the run cleanly with
     *  Outcome::Kind::ResourceExhausted (the serving layer's
     *  shutdown/client-gone path).  The pointee must outlive the
     *  run. */
    const std::atomic<bool> *cancel = nullptr;
    /** Wall-clock deadline (steady clock), polled with @c cancel; the
     *  default-constructed time_point means "no deadline".  Crossing
     *  it ends the run with Outcome::Kind::ResourceExhausted. */
    std::chrono::steady_clock::time_point deadline{};

    bool
    hasWatchdog() const
    {
        return cancel != nullptr ||
            deadline.time_since_epoch().count() != 0;
    }
};

/** The observable result of a run. */
struct Outcome
{
    enum class Kind
    {
        Exit,        ///< main returned / exit() called
        Undefined,   ///< undefined behaviour detected
        AssertFail,  ///< assert() fired (or abort())
        Error,       ///< semantic/internal error (not UB)
        /** A budget ran out (step limit, deadline, cancellation).
         *  The machine stopped cleanly — stats and output up to the
         *  cut are valid — but the verdict is "still running", not a
         *  property of the program. */
        ResourceExhausted,
    };

    Kind kind = Kind::Exit;
    int exitCode = 0;
    mem::Failure failure;     ///< for Undefined / Error
    std::string message;      ///< for AssertFail / Error
    std::string output;       ///< everything printf/print_cap wrote
    mem::MemStats memStats;
    uint64_t steps = 0;
    /** Calls per builtin/intrinsic (name -> count); the per-intrinsic
     *  counters of the obs subsystem, surfaced beside MemStats. */
    std::map<std::string, uint64_t> intrinsicCalls;
    /** Cumulative nanoseconds per builtin/intrinsic.  Only collected
     *  when a trace sink is attached (the scoped timers cost two
     *  clock reads per call); empty otherwise. */
    std::map<std::string, uint64_t> intrinsicNanos;

    bool isUb(mem::Ub ub) const
    {
        return kind == Kind::Undefined && failure.ub == ub;
    }
    /** One-line summary for harness output. */
    std::string summary() const;
};

/** Execute @p prog from main() on a fresh corelang::Machine. */
Outcome evaluate(const sema::Program &prog, const EvalOptions &opts);

} // namespace cherisem::corelang

#endif // CHERISEM_CORELANG_EVAL_H
