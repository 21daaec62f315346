/**
 * @file
 * The cherisem_serve wire protocol: newline-delimited JSON, one
 * object per line in each direction.
 *
 * Requests:
 *
 *     {"op":"run","id":"r1","source":"int main(void){return 7;}",
 *      "profile":"cerberus",
 *      "max_steps":1000000,"deadline_ms":2000,
 *      "trace_digest":true,"output":false}
 *     {"op":"stats","id":"s1"}
 *     {"op":"shutdown","id":"q1"}
 *
 * Only "op" and, for run, "source" are required.  "profile" defaults
 * to the reference profile; zero/missing budgets inherit the server
 * defaults.  Unknown keys are ignored.
 *
 * Responses (matched to requests by "id", which is echoed verbatim):
 *
 *     {"id":"r1","verdict":"exit","exit_code":7,"cached":false,
 *      "steps":3,"loads":0,"stores":1,
 *      "phase_ns":{"parse":...,"sema":...,"optimize":...,
 *                  "eval":...},
 *      "trace_digest":"fnv1a:0123456789abcdef","output":""}
 *
 * verdict is one of exit | ub | assert-fail | error |
 * resource-exhausted | frontend-error | bad-request; "ub" carries
 * the stable UB name in "ub", errors carry "message".  A "stats"
 * response carries the serve::Metrics snapshot under "stats".
 */
#ifndef CHERISEM_SERVE_PROTOCOL_H
#define CHERISEM_SERVE_PROTOCOL_H

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace cherisem::serve {

struct Request
{
    enum class Op { Run, Stats, Shutdown };

    Op op = Op::Run;
    std::string id;
    std::string source;
    /** Profile name; empty = reference profile. */
    std::string profile;
    /** 0 = server default. */
    uint64_t maxSteps = 0;
    /** Wall-clock budget; 0 = server default. */
    uint64_t deadlineMs = 0;
    /** Compute and return the witness-stream digest. */
    bool traceDigest = false;
    /** Echo the program's stdout in the response (on by default;
     *  campaign clients turn it off to shrink the stream). */
    bool wantOutput = true;
};

/** Parse one request line.  Returns false and sets @p err on
 *  malformed JSON or a structurally invalid request. */
bool parseRequest(const std::string &line, Request *out,
                  std::string *err);

/** Render @p req as one protocol line (no trailing newline) —
 *  clients and tests. */
std::string renderRequest(const Request &req);

struct Response
{
    std::string id;
    /** exit | ub | assert-fail | error | resource-exhausted |
     *  frontend-error | bad-request | stats | shutdown */
    std::string verdict;
    int exitCode = 0;
    /** Stable UB name (verdict == "ub"). */
    std::string ubName;
    /** Human-readable detail for error-shaped verdicts. */
    std::string message;
    std::string output;
    bool hasOutput = false;
    bool cached = false;
    /** Served from a warm post-prelude snapshot (--warm). */
    bool warm = false;
    uint64_t steps = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    obs::PhaseTimings phases;
    /** Queue wait + total wall time inside the server. */
    uint64_t queueNs = 0;
    uint64_t totalNs = 0;
    /** "fnv1a:<16 hex digits>" when requested. */
    std::string traceDigest;
    /** Pre-rendered payload for stats responses. */
    std::string statsJson;

    /** One protocol line (no trailing newline). */
    std::string render() const;
};

/** Parse one response line (clients and tests).  Phase timings and
 *  stats payloads are parsed back into the struct. */
bool parseResponse(const std::string &line, Response *out,
                   std::string *err);

} // namespace cherisem::serve

#endif // CHERISEM_SERVE_PROTOCOL_H
