/**
 * @file
 * Per-phase counters and scoped timers.
 *
 * PhaseTimings is the driver-pipeline complement to mem::MemStats: how
 * long each stage of a run (parse / sema / optimize / evaluate) took.
 * ScopedPhaseTimer accumulates into a slot on scope exit and, when a
 * tracer is attached, emits a Phase event carrying the duration so the
 * Chrome exporter can draw the pipeline as timeline slices.
 */
#ifndef CHERISEM_OBS_METRICS_H
#define CHERISEM_OBS_METRICS_H

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/tracer.h"

namespace cherisem::obs {

/** Wall-clock nanoseconds per driver-pipeline phase. */
struct PhaseTimings
{
    uint64_t parseNs = 0;
    uint64_t semaNs = 0;
    uint64_t optimizeNs = 0;
    uint64_t evalNs = 0;

    uint64_t
    totalNs() const
    {
        return parseNs + semaNs + optimizeNs + evalNs;
    }
};

/**
 * Accumulate elapsed steady-clock time into @p slot on destruction;
 * when @p tracer is enabled, also emit a Phase event named @p name
 * with the duration in the `a` payload.
 */
class ScopedPhaseTimer
{
  public:
    ScopedPhaseTimer(uint64_t *slot, const Tracer &tracer,
                     const char *name)
        : slot_(slot), tracer_(tracer), name_(name),
          start_(std::chrono::steady_clock::now())
    {
    }

    ScopedPhaseTimer(const ScopedPhaseTimer &) = delete;
    ScopedPhaseTimer &operator=(const ScopedPhaseTimer &) = delete;

    ~ScopedPhaseTimer()
    {
        auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
        *slot_ += static_cast<uint64_t>(ns);
        if (tracer_.enabled()) {
            TraceEvent e;
            e.kind = EventKind::Phase;
            e.a = static_cast<uint64_t>(ns);
            e.label = name_;
            tracer_.emit(std::move(e));
        }
    }

  private:
    uint64_t *slot_;
    Tracer tracer_;
    const char *name_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace cherisem::obs

#endif // CHERISEM_OBS_METRICS_H
