/**
 * @file
 * The Tracer handle and the TraceSink interface.
 *
 * A Tracer is a nullable view of a sink: the memory model, the
 * evaluator, and the driver each hold one, all pointing at the same
 * sink when tracing is on, and at nothing (the default) when it is
 * off.  The disabled path is a single pointer null-check — callers
 * guard event *construction* behind enabled() so a disabled run never
 * builds a label string:
 *
 *     if (tracer_.enabled())
 *         tracer_.emit({EventKind::Alloc, 0, base, size, id});
 *
 * Sequence numbers are assigned by the sink (not the tracer) so that
 * the several Tracer handles sharing one sink produce one globally
 * ordered stream.
 */
#ifndef CHERISEM_OBS_TRACER_H
#define CHERISEM_OBS_TRACER_H

#include <atomic>
#include <cstdint>
#include <utility>

#include "obs/trace_event.h"

namespace cherisem::obs {

/**
 * Where events go.  Subclasses implement write(); the base class owns
 * sequence numbering so every event entering the sink — from any
 * Tracer handle — gets the next global number.
 */
class TraceSink
{
  public:
    TraceSink() = default;
    /** A sink that continues a stream whose first @p firstSeq events
     *  were emitted (and accounted for) elsewhere: its first event is
     *  numbered @p firstSeq. */
    explicit TraceSink(uint64_t firstSeq)
        : nextSeq_(firstSeq), resumed_(true)
    {
    }
    virtual ~TraceSink() = default;

    /** Stamp @p e with the next sequence number and record it. */
    void
    emit(TraceEvent e)
    {
        e.seq = nextSeq_.fetch_add(1, std::memory_order_relaxed);
        write(e);
    }

    /** Total events of the stream so far: those emitted into this
     *  sink, plus firstSeq for a resumed one. */
    uint64_t
    emitted() const
    {
        return nextSeq_.load(std::memory_order_relaxed);
    }

    /** Built with a firstSeq: the stream's head lives elsewhere. */
    bool resumed() const { return resumed_; }

    /** Finish any buffered output (file footers etc.). */
    virtual void flush() {}

  protected:
    virtual void write(const TraceEvent &e) = 0;

  private:
    /** Atomic so concurrent runs that (incorrectly but harmlessly)
     *  share a sink never race on the numbering itself; write()
     *  synchronisation remains the subclass's contract.  The serving
     *  layer gives every request its own sink — see
     *  DESIGN.md "Serving layer". */
    std::atomic<uint64_t> nextSeq_{0};
    bool resumed_ = false;
};

/**
 * The zero-cost-when-disabled handle through which the semantics
 * emits events.  Copyable; does not own the sink.
 */
class Tracer
{
  public:
    Tracer() = default;
    explicit Tracer(TraceSink *sink) : sink_(sink) {}

    bool enabled() const { return sink_ != nullptr; }

    void
    emit(TraceEvent e) const
    {
        if (sink_)
            sink_->emit(std::move(e));
    }

    TraceSink *sink() const { return sink_; }

  private:
    TraceSink *sink_ = nullptr;
};

} // namespace cherisem::obs

#endif // CHERISEM_OBS_TRACER_H
