/**
 * @file
 * Time-travel replay over the witness stream.
 *
 * Replay rests on two facts the rest of the system already
 * guarantees: (1) a run under a fixed profile is deterministic, so
 * re-executing from any captured state re-derives the identical
 * event suffix; and (2) sinks stamp their own sequence numbers
 * (tracer.h), so replaying a recorded prefix into a fresh sink
 * reproduces the original numbering exactly.
 *
 * The pieces:
 *
 *  - SnapshotIndex<SnapPtr>  an append-only map from the sink
 *    sequence number at capture time to a state snapshot; lookup
 *    returns the nearest snapshot at-or-before a target seq.  The
 *    payload type is a template parameter because snapshots live
 *    above this layer (corelang::Machine::SnapshotPtr) and obs must
 *    not depend upward.  The machine can only capture at quiescent
 *    points (machine.h), so a driver registers one entry per
 *    quiescent point it passes — for cherisem_run that is the
 *    post-prelude boundary; the cold start (seq 0, no snapshot) is
 *    implicit.
 *
 *  - StopAtSeqSink  a recording sink that throws ReplayStop from
 *    write() immediately after the event with seq == stopAfter is
 *    recorded.  ReplayStop is the one C++ exception that crosses
 *    corelang::Machine: the machine carries its own verdicts as
 *    values and has no handler, so the exception leaves every
 *    evaluator frame and runMain() untouched and nothing more is
 *    emitted.  Should anything still emit into the sink afterwards,
 *    it is swallowed, so events() ends exactly at stopAfter.
 *
 * `cherisem_run --replay-to SEQ` drives both: record a traced run
 * once, then restore the nearest snapshot and re-execute only the
 * tail, checking the re-derived prefix against the recording
 * bit-for-bit.
 */
#ifndef CHERISEM_OBS_REPLAY_H
#define CHERISEM_OBS_REPLAY_H

#include <cstdint>
#include <vector>

#include "obs/tracer.h"

namespace cherisem::obs {

/** Thrown by StopAtSeqSink when the target event has been recorded;
 *  the driver catches it around the whole run. */
struct ReplayStop
{
    /** Sequence number of the last event recorded (== stopAfter). */
    uint64_t seq;
};

/**
 * Records events until the one with seq == stopAfter has been
 * written, then throws ReplayStop.  Later writes are dropped
 * silently rather than thrown again: the stop fires once.
 */
class StopAtSeqSink : public TraceSink
{
  public:
    /** @p inner, when non-null, receives every *retained* event via
     *  its own emit() (re-stamped, but ordering preserves numbers) —
     *  lets --replay-to compose with a jsonl/chrome sink. */
    explicit StopAtSeqSink(uint64_t stopAfter,
                           TraceSink *inner = nullptr)
        : stopAfter_(stopAfter), inner_(inner)
    {
    }

    /** Has ReplayStop fired? */
    bool stopped() const { return stopped_; }

    /** The retained events, oldest first, ending at stopAfter when
     *  stopped() — the replayed stream. */
    const std::vector<TraceEvent> &events() const { return events_; }

  protected:
    void write(const TraceEvent &e) override;

  private:
    uint64_t stopAfter_;
    TraceSink *inner_;
    bool stopped_ = false;
    std::vector<TraceEvent> events_;
};

/**
 * Append-only seq -> snapshot index.  Entries are added in capture
 * order (monotonically increasing seq); nearest() returns the entry
 * with the largest seq <= target, or nullptr when the target
 * precedes every snapshot (cold re-execution is then the only way
 * back).
 */
template <typename SnapPtr>
class SnapshotIndex
{
  public:
    struct Entry
    {
        uint64_t seq;
        SnapPtr snap;
    };

    void
    add(uint64_t seq, SnapPtr snap)
    {
        entries_.push_back(Entry{seq, std::move(snap)});
    }

    const Entry *
    nearest(uint64_t target) const
    {
        const Entry *best = nullptr;
        for (const Entry &e : entries_) {
            if (e.seq <= target && (!best || e.seq > best->seq))
                best = &e;
        }
        return best;
    }

    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

} // namespace cherisem::obs

#endif // CHERISEM_OBS_REPLAY_H
