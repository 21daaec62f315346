/**
 * @file
 * The semantic event model of the execution-witness tracing subsystem.
 *
 * The paper validates the CHERI C semantics observationally: section 6
 * compares UB verdicts, tag-clearing behaviour, and provenance effects
 * across Cerberus, Clang/Morello, and GCC.  A TraceEvent is one such
 * observable — a typed record of a semantic step (allocation lifetime,
 * typed access, section 3.5 representation-write invalidation, PNVI
 * expose/attach, revocation, UB) — so whole executions can be
 * compared event-by-event instead of verdict-by-verdict.
 *
 * Events carry only scalar payloads (addresses, ids, packed metadata)
 * plus a short label; they deliberately do not reference the memory
 * model's types, keeping obs/ a leaf module that mem/, corelang/, and
 * driver/ can all include.
 *
 * Events are deterministic: no timestamps live here.  Sinks that want
 * wall-clock time (the Chrome exporter) stamp events at ingest, so
 * ring-buffer snapshots of two runs can be diffed exactly.
 */
#ifndef CHERISEM_OBS_TRACE_EVENT_H
#define CHERISEM_OBS_TRACE_EVENT_H

#include <cstdint>
#include <string>

namespace cherisem::obs {

/** Every kind of semantic event the interpreter can witness. */
enum class EventKind : uint8_t
{
    // Allocation lifetime (the A map of the memory state).
    Alloc,       ///< new allocation; addr/size footprint, a = id
    Free,        ///< lifetime end; a = id, b = 1 for free(), 0 scope
    Realloc,     ///< region resize; addr = old base, b = new base

    // Typed access (the paper's load/store rules, section 4.3).
    Load,        ///< a = resolved allocation id (0 none), b = cap-meta
    Store,       ///< a = resolved allocation id (0 none), b = cap-meta

    // Capability-metadata effects (section 3.5).
    TagClear,    ///< deterministic hardware clear; a = slots touched
    GhostMark,   ///< ghost "tag unspecified" marking; a = slots touched

    // PNVI-ae-udi provenance transitions (sections 2.3, 3.3).
    Expose,      ///< allocation exposed by int cast; a = id
    Attach,      ///< int-to-pointer attach; a = prov kind, b = id

    // Temporal safety (sections 3.10, 5.4, 7).
    Quarantine,  ///< free deferred to quarantine; a = alloc id,
                 ///< b = quarantine occupancy (regions) after enqueue
    RevokeSweep, ///< epoch sweep summary; a = capabilities revoked,
                 ///< b = regions flushed

    // Abstract-machine control flow.
    FuncEnter,   ///< a = function index, label = name
    FuncExit,    ///< a = function index, label = name
    Intrinsic,   ///< builtin call; a = Builtin id, label = name
    UbRaise,     ///< a = Ub id, label = UB name, line = source line

    // Pipeline phases (driver); a = duration in nanoseconds.
    Phase,
};

/** Stable identifier for an event kind, e.g. "tag-clear". */
const char *eventKindName(EventKind k);

/**
 * One witnessed semantic event.  Fields are kind-specific (see the
 * EventKind comments); unused fields stay zero so streams compare
 * field-wise.
 */
struct TraceEvent
{
    EventKind kind = EventKind::Alloc;
    /** Monotonic sequence number, assigned by the sink on emit. */
    uint64_t seq = 0;
    /** Subject address (allocation base, access address, slot...). */
    uint64_t addr = 0;
    /** Subject size in bytes (footprint, access width...). */
    uint64_t size = 0;
    /** First kind-specific payload (see EventKind). */
    uint64_t a = 0;
    /** Second kind-specific payload (see EventKind). */
    uint64_t b = 0;
    /** Source line for UbRaise (0 = unknown). */
    uint32_t line = 0;
    /** Short text payload: allocation prefix, function name, UB
     *  name, tag-clear reason, phase name. */
    std::string label;

    /** Payload equality — everything except the seq number. */
    bool samePayload(const TraceEvent &o) const
    {
        return kind == o.kind && addr == o.addr && size == o.size &&
            a == o.a && b == o.b && line == o.line && label == o.label;
    }
};

/** Render one event as a compact single line (for logs and diffs). */
std::string renderEvent(const TraceEvent &e);

/** Render one event as a single-line JSON object (JSONL sinks, and
 *  the serve layer's witness digest). */
std::string renderEventJson(const TraceEvent &e);

/** Append renderEventJson(@p e) to @p out, byte for byte; a caller
 *  that reuses @p out renders without allocating. */
void appendEventJson(std::string &out, const TraceEvent &e);

/** Append @p s to @p out JSON-escaped (quotes not included): quote,
 *  backslash, \n, \r and \t by name, other control bytes as
 *  lower-case \u00xx.  The one JSON string escaper of the project. */
void appendJsonEscaped(std::string &out, const std::string &s);

/** appendJsonEscaped() into a new string. */
std::string jsonEscape(const std::string &s);

} // namespace cherisem::obs

#endif // CHERISEM_OBS_TRACE_EVENT_H
