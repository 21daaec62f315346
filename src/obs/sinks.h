/**
 * @file
 * The pluggable trace sinks:
 *
 *  - RingBufferSink   fixed-capacity in-process buffer; the default
 *                     for tests and the trace-differential checker
 *                     (snapshots of two runs are diffed exactly);
 *  - JsonlFileSink    one JSON object per line, for offline analysis;
 *  - ChromeTraceSink  the Chrome trace_event JSON format, viewable in
 *                     chrome://tracing / Perfetto: function frames and
 *                     pipeline phases become duration slices, memory
 *                     events become instants with argument payloads;
 *  - DigestSink       the witness digest, folded as events arrive
 *                     (nothing retained).
 *
 * makeSink() parses the driver's --trace=<sink>[:<arg>] spec.
 */
#ifndef CHERISEM_OBS_SINKS_H
#define CHERISEM_OBS_SINKS_H

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/tracer.h"
#include "support/hash.h"

namespace cherisem::obs {

/**
 * Fixed-capacity ring buffer.  When full, the oldest event is
 * overwritten and dropped() grows — snapshot consumers check it to
 * know whether the stream is complete.
 */
class RingBufferSink : public TraceSink
{
  public:
    explicit RingBufferSink(size_t capacity = kDefaultCapacity);

    static constexpr size_t kDefaultCapacity = 65536;

    size_t capacity() const { return capacity_; }
    /** Events currently held (<= capacity). */
    size_t size() const;
    /** Events overwritten because the buffer was full. */
    uint64_t dropped() const { return dropped_; }

    /** The retained events, oldest first. */
    std::vector<TraceEvent> snapshot() const;
    void clear();

  protected:
    void write(const TraceEvent &e) override;

  private:
    size_t capacity_;
    std::vector<TraceEvent> buf_;
    size_t head_ = 0; ///< next write position once the buffer wrapped
    bool wrapped_ = false;
    uint64_t dropped_ = 0;
};

/** One renderEventJson() line per event. */
class JsonlFileSink : public TraceSink
{
  public:
    /** Open @p path for writing; ok() reports success. */
    explicit JsonlFileSink(const std::string &path);
    /** Write to a caller-owned stream (tests). */
    explicit JsonlFileSink(std::ostream &os);
    ~JsonlFileSink() override;

    bool ok() const;
    void flush() override;

  protected:
    void write(const TraceEvent &e) override;

  private:
    std::ofstream file_;
    std::ostream *os_;
};

/**
 * Chrome trace_event exporter.  Buffers events and writes the
 * {"traceEvents": [...]} JSON object on flush (and destruction).
 * FuncEnter/FuncExit map to 'B'/'E' duration slices, Phase to 'X'
 * complete events, everything else to 'i' instants; timestamps are
 * stamped at ingest from a steady clock (the TraceEvent itself stays
 * timestamp-free so differential runs compare deterministically).
 */
class ChromeTraceSink : public TraceSink
{
  public:
    explicit ChromeTraceSink(const std::string &path);
    explicit ChromeTraceSink(std::ostream &os);
    ~ChromeTraceSink() override;

    bool ok() const;
    void flush() override;

  protected:
    void write(const TraceEvent &e) override;

  private:
    struct Stamped
    {
        TraceEvent event;
        uint64_t microsSinceStart;
    };

    std::string renderChrome(const Stamped &s) const;

    std::ofstream file_;
    std::ostream *os_;
    std::vector<Stamped> events_;
    uint64_t startNs_ = 0;
    bool flushed_ = false;
};

/**
 * The witness digest of a stream: FNV-1a over each event's
 * renderEventJson() line plus "\n", for every event, then 8 zero
 * bytes.  The sink folds each event as it is emitted and keeps only
 * the running state, so a stream of any length costs one line
 * buffer.
 *
 * A resumed sink continues a stream whose head was hashed earlier:
 * seeded with the head's event count and state, it numbers and folds
 * the tail exactly as one sink over the whole stream would.
 */
class DigestSink : public TraceSink
{
  public:
    DigestSink() = default;
    DigestSink(uint64_t firstSeq, uint64_t state)
        : TraceSink(firstSeq), state_(state)
    {
    }

    /** The running state: the hash of every line so far. */
    uint64_t state() const { return state_; }
    /** The digest of the stream so far. */
    uint64_t digest() const;

  protected:
    void write(const TraceEvent &e) override;

  private:
    uint64_t state_ = kFnv1aBasis;
    std::string line_;
};

/**
 * Parse a --trace sink spec:
 *
 *     ring            in-process ring buffer (default capacity)
 *     ring:<N>        ring buffer with capacity N
 *     jsonl:<path>    JSONL file
 *     chrome:<path>   Chrome trace_event JSON file
 *
 * Returns nullptr and sets @p err on malformed specs or unopenable
 * files.
 */
std::unique_ptr<TraceSink> makeSink(const std::string &spec,
                                    std::string *err);

} // namespace cherisem::obs

#endif // CHERISEM_OBS_SINKS_H
