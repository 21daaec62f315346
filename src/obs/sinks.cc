#include "obs/sinks.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "support/format.h"

namespace cherisem::obs {

namespace {

uint64_t
steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

// ---------------------------------------------------------------------
// RingBufferSink.
// ---------------------------------------------------------------------

RingBufferSink::RingBufferSink(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
    buf_.reserve(std::min<size_t>(capacity_, 4096));
}

size_t
RingBufferSink::size() const
{
    return wrapped_ ? capacity_ : buf_.size();
}

void
RingBufferSink::write(const TraceEvent &e)
{
    if (!wrapped_ && buf_.size() < capacity_) {
        buf_.push_back(e);
        if (buf_.size() == capacity_)
            wrapped_ = true; // next write overwrites head_ = 0
        return;
    }
    buf_[head_] = e;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
}

std::vector<TraceEvent>
RingBufferSink::snapshot() const
{
    std::vector<TraceEvent> out;
    out.reserve(size());
    if (!wrapped_ || dropped_ == 0) {
        out.assign(buf_.begin(), buf_.end());
        return out;
    }
    // Oldest-first: head_ points at the oldest retained event.
    for (size_t i = 0; i < capacity_; ++i)
        out.push_back(buf_[(head_ + i) % capacity_]);
    return out;
}

void
RingBufferSink::clear()
{
    buf_.clear();
    head_ = 0;
    wrapped_ = false;
    dropped_ = 0;
}

// ---------------------------------------------------------------------
// JsonlFileSink.
// ---------------------------------------------------------------------

JsonlFileSink::JsonlFileSink(const std::string &path)
    : file_(path), os_(&file_)
{
}

JsonlFileSink::JsonlFileSink(std::ostream &os) : os_(&os) {}

JsonlFileSink::~JsonlFileSink()
{
    flush();
}

bool
JsonlFileSink::ok() const
{
    return os_ != &file_ || file_.is_open();
}

void
JsonlFileSink::flush()
{
    os_->flush();
}

void
JsonlFileSink::write(const TraceEvent &e)
{
    *os_ << renderEventJson(e) << '\n';
}

// ---------------------------------------------------------------------
// ChromeTraceSink.
// ---------------------------------------------------------------------

ChromeTraceSink::ChromeTraceSink(const std::string &path)
    : file_(path), os_(&file_), startNs_(steadyNowNs())
{
}

ChromeTraceSink::ChromeTraceSink(std::ostream &os)
    : os_(&os), startNs_(steadyNowNs())
{
}

ChromeTraceSink::~ChromeTraceSink()
{
    flush();
}

bool
ChromeTraceSink::ok() const
{
    return os_ != &file_ || file_.is_open();
}

void
ChromeTraceSink::write(const TraceEvent &e)
{
    events_.push_back(Stamped{e, (steadyNowNs() - startNs_) / 1000});
}

std::string
ChromeTraceSink::renderChrome(const Stamped &s) const
{
    const TraceEvent &e = s.event;
    char ph = 'i';
    uint64_t ts = s.microsSinceStart;
    uint64_t dur = 0;
    switch (e.kind) {
      case EventKind::FuncEnter: ph = 'B'; break;
      case EventKind::FuncExit:  ph = 'E'; break;
      case EventKind::Phase:
        // Phases are emitted at phase *end* carrying their duration;
        // back-date the slice so it spans the right interval.
        ph = 'X';
        dur = e.a / 1000;
        ts = ts > dur ? ts - dur : 0;
        break;
      default: break;
    }

    std::string name = e.label.empty() ? eventKindName(e.kind)
                                       : jsonEscape(e.label);
    std::string out = "{\"name\":\"" + name + "\",\"cat\":\"" +
        eventKindName(e.kind) + "\",\"ph\":\"" + ph +
        "\",\"ts\":" + decStr(uint128(ts)) +
        ",\"pid\":1,\"tid\":1";
    if (ph == 'X')
        out += ",\"dur\":" + decStr(uint128(dur));
    if (ph == 'i')
        out += ",\"s\":\"t\"";
    if (ph != 'E') {
        out += ",\"args\":{\"seq\":" + decStr(uint128(e.seq));
        if (e.addr != 0)
            out += ",\"addr\":\"" + hexStr(e.addr) + "\"";
        if (e.size != 0)
            out += ",\"size\":" + decStr(uint128(e.size));
        if (e.a != 0)
            out += ",\"a\":" + decStr(uint128(e.a));
        if (e.b != 0)
            out += ",\"b\":" + decStr(uint128(e.b));
        out += "}";
    }
    out += "}";
    return out;
}

void
ChromeTraceSink::flush()
{
    if (flushed_)
        return;
    flushed_ = true;
    *os_ << "{\"traceEvents\":[";
    for (size_t i = 0; i < events_.size(); ++i) {
        if (i > 0)
            *os_ << ",";
        *os_ << "\n" << renderChrome(events_[i]);
    }
    *os_ << "\n]}\n";
    os_->flush();
}

// ---------------------------------------------------------------------
// DigestSink.
// ---------------------------------------------------------------------

void
DigestSink::write(const TraceEvent &e)
{
    line_.clear();
    appendEventJson(line_, e);
    line_ += '\n';
    state_ = fnv1a(line_.data(), line_.size(), state_);
}

uint64_t
DigestSink::digest() const
{
    // The 8 bytes once counted the events a ring dropped; they stay,
    // as zeros, so that every digest keeps its value.
    const uint64_t zero = 0;
    return fnv1a(&zero, sizeof zero, state_);
}

// ---------------------------------------------------------------------
// Sink spec parsing.
// ---------------------------------------------------------------------

std::unique_ptr<TraceSink>
makeSink(const std::string &spec, std::string *err)
{
    std::string kind = spec;
    std::string arg;
    if (size_t colon = spec.find(':'); colon != std::string::npos) {
        kind = spec.substr(0, colon);
        arg = spec.substr(colon + 1);
    }

    if (kind == "ring") {
        size_t capacity = RingBufferSink::kDefaultCapacity;
        if (!arg.empty()) {
            char *end = nullptr;
            unsigned long long v = std::strtoull(arg.c_str(), &end, 10);
            if (end == nullptr || *end != '\0' || v == 0) {
                if (err)
                    *err = "bad ring capacity: " + arg;
                return nullptr;
            }
            capacity = static_cast<size_t>(v);
        }
        return std::make_unique<RingBufferSink>(capacity);
    }
    if (kind == "jsonl") {
        if (arg.empty()) {
            if (err)
                *err = "jsonl sink needs a path: jsonl:<path>";
            return nullptr;
        }
        auto sink = std::make_unique<JsonlFileSink>(arg);
        if (!sink->ok()) {
            if (err)
                *err = "cannot open " + arg;
            return nullptr;
        }
        return sink;
    }
    if (kind == "chrome") {
        if (arg.empty()) {
            if (err)
                *err = "chrome sink needs a path: chrome:<path>";
            return nullptr;
        }
        auto sink = std::make_unique<ChromeTraceSink>(arg);
        if (!sink->ok()) {
            if (err)
                *err = "cannot open " + arg;
            return nullptr;
        }
        return sink;
    }

    if (err)
        *err = "unknown trace sink '" + kind +
            "' (expected ring[:N], jsonl:<path>, chrome:<path>)";
    return nullptr;
}

} // namespace cherisem::obs
