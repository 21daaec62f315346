/**
 * @file
 * Unit tests of the execution-witness subsystem (src/obs/): sinks,
 * the Tracer handle, the event emission of the memory model, and the
 * driver's pipeline counters.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "driver/interpreter.h"
#include "mem/memory_model.h"
#include "obs/metrics.h"
#include "obs/sinks.h"

namespace cherisem::obs {
namespace {

using ctype::IntKind;
using ctype::intType;
using ctype::pointerTo;
using mem::IntegerValue;
using mem::MemValue;
using mem::MemoryModel;
using mem::PointerValue;

TraceEvent
ev(EventKind k, uint64_t addr = 0, uint64_t size = 0)
{
    TraceEvent e;
    e.kind = k;
    e.addr = addr;
    e.size = size;
    return e;
}

// ---------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------

TEST(RingBufferSink, KeepsOrderAndSequencesGlobally)
{
    RingBufferSink ring(8);
    Tracer t1(&ring), t2(&ring);
    t1.emit(ev(EventKind::Alloc, 0x1000, 16));
    t2.emit(ev(EventKind::Store, 0x1000, 4));
    t1.emit(ev(EventKind::Free, 0x1000, 16));

    std::vector<TraceEvent> s = ring.snapshot();
    ASSERT_EQ(s.size(), 3u);
    // One global sequence even with two Tracer handles attached.
    EXPECT_EQ(s[0].seq, 0u);
    EXPECT_EQ(s[1].seq, 1u);
    EXPECT_EQ(s[2].seq, 2u);
    EXPECT_EQ(s[0].kind, EventKind::Alloc);
    EXPECT_EQ(s[1].kind, EventKind::Store);
    EXPECT_EQ(s[2].kind, EventKind::Free);
    EXPECT_EQ(ring.dropped(), 0u);
}

TEST(RingBufferSink, WrapsDroppingOldest)
{
    RingBufferSink ring(4);
    Tracer t(&ring);
    for (uint64_t i = 0; i < 10; ++i)
        t.emit(ev(EventKind::Store, 0x1000 + i, 1));

    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.dropped(), 6u);
    EXPECT_EQ(ring.emitted(), 10u);
    std::vector<TraceEvent> s = ring.snapshot();
    ASSERT_EQ(s.size(), 4u);
    // The four newest survive, oldest first.
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(s[i].seq, 6 + i);
        EXPECT_EQ(s[i].addr, 0x1000 + 6 + i);
    }

    ring.clear();
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.dropped(), 0u);
}

TEST(DisabledTracer, EmitsNothingAndCostsNothing)
{
    Tracer off;
    EXPECT_FALSE(off.enabled());
    off.emit(ev(EventKind::Alloc)); // must be a no-op, not a crash
}

TEST(JsonlFileSink, OneParseableObjectPerLine)
{
    std::ostringstream os;
    JsonlFileSink sink(os);
    Tracer t(&sink);
    t.emit(ev(EventKind::Alloc, 0x1000, 32));
    TraceEvent u = ev(EventKind::UbRaise);
    u.label = "UB_CHERI_InvalidCap \"quoted\"";
    u.line = 7;
    t.emit(u);
    sink.flush();

    std::istringstream in(os.str());
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
    EXPECT_EQ(lines, 2);
    EXPECT_NE(os.str().find("\"kind\":\"alloc\""), std::string::npos);
    EXPECT_NE(os.str().find("\\\"quoted\\\""), std::string::npos)
        << "labels must be JSON-escaped: " << os.str();
}

// ---------------------------------------------------------------------
// Event rendering and the witness digest.
// ---------------------------------------------------------------------

/** Every payload field set, so each kind's line shows every key the
 *  renderer may write; odd kinds carry a label, line cycles 0..2. */
TraceEvent
fullEvent(EventKind k)
{
    uint64_t i = static_cast<uint64_t>(k);
    TraceEvent e;
    e.kind = k;
    e.seq = 7 + i;
    e.addr = 0x1000 + i;
    e.size = 16;
    e.a = i;
    e.b = 2 * i;
    e.line = static_cast<uint32_t>(i % 3);
    e.label = i % 2 ? "name" : "";
    return e;
}

/** renderEventJson() and appendEventJson() must give @p want, the
 *  latter after whatever @p out already holds. */
void
expectRendered(const TraceEvent &e, const std::string &want)
{
    EXPECT_EQ(renderEventJson(e), want);
    std::string out = "prefix|";
    appendEventJson(out, e);
    EXPECT_EQ(out, "prefix|" + want);
}

TEST(RenderEventJson, KnownAnswerForEveryKind)
{
    const char *want[] = {
        R"({"seq":7,"kind":"alloc","addr":"0x1000","size":16})",
        R"({"seq":8,"kind":"free","addr":"0x1001","size":16,"a":1,"b":2,"line":1,"label":"name"})",
        R"({"seq":9,"kind":"realloc","addr":"0x1002","size":16,"a":2,"b":4,"line":2})",
        R"({"seq":10,"kind":"load","addr":"0x1003","size":16,"a":3,"b":6,"label":"name"})",
        R"({"seq":11,"kind":"store","addr":"0x1004","size":16,"a":4,"b":8,"line":1})",
        R"({"seq":12,"kind":"tag-clear","addr":"0x1005","size":16,"a":5,"b":10,"line":2,"label":"name"})",
        R"({"seq":13,"kind":"ghost-mark","addr":"0x1006","size":16,"a":6,"b":12})",
        R"({"seq":14,"kind":"expose","addr":"0x1007","size":16,"a":7,"b":14,"line":1,"label":"name"})",
        R"({"seq":15,"kind":"attach","addr":"0x1008","size":16,"a":8,"b":16,"line":2})",
        R"({"seq":16,"kind":"quarantine","addr":"0x1009","size":16,"a":9,"b":18,"label":"name"})",
        R"({"seq":17,"kind":"revoke-sweep","addr":"0x100a","size":16,"a":10,"b":20,"line":1})",
        R"({"seq":18,"kind":"func-enter","addr":"0x100b","size":16,"a":11,"b":22,"line":2,"label":"name"})",
        R"({"seq":19,"kind":"func-exit","addr":"0x100c","size":16,"a":12,"b":24})",
        R"({"seq":20,"kind":"intrinsic","addr":"0x100d","size":16,"a":13,"b":26,"line":1,"label":"name"})",
        R"({"seq":21,"kind":"ub-raise","addr":"0x100e","size":16,"a":14,"b":28,"line":2})",
        R"({"seq":22,"kind":"phase","addr":"0x100f","size":16,"a":15,"b":30,"label":"name"})",
    };
    static_assert(std::size(want) ==
                  static_cast<size_t>(EventKind::Phase) + 1);
    for (size_t k = 0; k < std::size(want); ++k)
        expectRendered(fullEvent(static_cast<EventKind>(k)), want[k]);
}

TEST(RenderEventJson, ZeroFieldsAreOmitted)
{
    expectRendered(TraceEvent{}, R"({"seq":0,"kind":"alloc"})");
}

TEST(RenderEventJson, ExtremeFieldsAndEscapedLabels)
{
    TraceEvent e;
    e.kind = EventKind::Store;
    e.seq = e.addr = e.size = e.a = e.b = UINT64_MAX;
    e.line = UINT32_MAX;
    // Quote, backslash, the named escapes, two other control bytes,
    // and bytes >= 0x20 (UTF-8 included), which pass through.
    e.label = "q\"b\\s\n\r\t\x01\x1f~\xc3\xa9";
    expectRendered(
        e, "{\"seq\":18446744073709551615,\"kind\":\"store\","
           "\"addr\":\"0xffffffffffffffff\",\"size\":18446744073709551615,"
           "\"a\":18446744073709551615,\"b\":18446744073709551615,"
           "\"line\":4294967295,"
           "\"label\":\"q\\\"b\\\\s\\n\\r\\t\\u0001\\u001f~\xc3\xa9\"}");
    EXPECT_EQ(jsonEscape(e.label),
              "q\\\"b\\\\s\\n\\r\\t\\u0001\\u001f~\xc3\xa9");
}

TEST(DigestSink, FoldsRenderedLinesThenTheDropCount)
{
    std::vector<TraceEvent> events;
    for (EventKind k : {EventKind::Alloc, EventKind::Store,
                        EventKind::UbRaise})
        events.push_back(fullEvent(k));

    DigestSink sink;
    Tracer t(&sink);
    uint64_t want = kFnv1aBasis;
    for (size_t i = 0; i < events.size(); ++i) {
        t.emit(events[i]);
        TraceEvent stamped = events[i];
        stamped.seq = i; // the sink numbers events itself
        std::string line = renderEventJson(stamped) + "\n";
        want = fnv1a(line.data(), line.size(), want);
    }
    EXPECT_EQ(sink.emitted(), events.size());
    EXPECT_EQ(sink.state(), want);
    uint64_t zero = 0;
    EXPECT_EQ(sink.digest(), fnv1a(&zero, sizeof zero, want));
}

TEST(DigestSink, ResumedSinkContinuesTheStream)
{
    // A head hashed by one sink and a tail by a sink resumed from its
    // count and state give the digest of one sink over both.
    DigestSink whole;
    DigestSink head;
    for (int i = 0; i < 5; ++i) {
        whole.emit(fullEvent(EventKind::Load));
        head.emit(fullEvent(EventKind::Load));
    }
    DigestSink tail(head.emitted(), head.state());
    EXPECT_TRUE(tail.resumed());
    EXPECT_FALSE(whole.resumed());
    for (int i = 0; i < 3; ++i) {
        whole.emit(fullEvent(EventKind::Store));
        tail.emit(fullEvent(EventKind::Store));
    }
    EXPECT_EQ(tail.emitted(), whole.emitted());
    EXPECT_EQ(tail.state(), whole.state());
}

TEST(ChromeTraceSink, EmitsDurationPairsAndInstants)
{
    std::ostringstream os;
    {
        ChromeTraceSink sink(os);
        Tracer t(&sink);
        TraceEvent enter = ev(EventKind::FuncEnter);
        enter.label = "main";
        t.emit(enter);
        t.emit(ev(EventKind::Store, 0x2000, 8));
        TraceEvent exit = ev(EventKind::FuncExit);
        exit.label = "main";
        t.emit(exit);
    } // destructor flushes

    const std::string out = os.str();
    EXPECT_EQ(out.rfind("{\"traceEvents\":[", 0), 0u) << out;
    EXPECT_NE(out.find("\"ph\":\"B\""), std::string::npos) << out;
    EXPECT_NE(out.find("\"ph\":\"E\""), std::string::npos) << out;
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos) << out;
    EXPECT_NE(out.find("\"name\":\"main\""), std::string::npos) << out;
    // Well-formed JSON once flushed: one closing bracket+brace.
    EXPECT_NE(out.find("]}"), std::string::npos) << out;
}

TEST(MakeSink, ParsesSpecsAndReportsErrors)
{
    std::string err;
    EXPECT_NE(makeSink("ring", &err), nullptr);
    auto sized = makeSink("ring:128", &err);
    ASSERT_NE(sized, nullptr);
    EXPECT_EQ(dynamic_cast<RingBufferSink *>(sized.get())->capacity(),
              128u);

    EXPECT_EQ(makeSink("ring:banana", &err), nullptr);
    EXPECT_NE(err.find("ring capacity"), std::string::npos);
    EXPECT_EQ(makeSink("jsonl", &err), nullptr);
    EXPECT_EQ(makeSink("chrome", &err), nullptr);
    EXPECT_EQ(makeSink("nonsense:x", &err), nullptr);
    EXPECT_NE(err.find("unknown trace sink"), std::string::npos);
}

// ---------------------------------------------------------------------
// Memory-model emission.
// ---------------------------------------------------------------------

std::vector<TraceEvent>
filterKind(const std::vector<TraceEvent> &events, EventKind k)
{
    std::vector<TraceEvent> out;
    for (const TraceEvent &e : events)
        if (e.kind == k)
            out.push_back(e);
    return out;
}

TEST(ModelEmission, AllocStoreLoadFreeLifecycle)
{
    RingBufferSink ring;
    MemoryModel::Config cfg;
    cfg.traceSink = &ring;
    MemoryModel mm(cfg);

    auto longTy = intType(IntKind::Long);
    PointerValue p = mm.allocateRegion("r", 64, 16).value();
    ASSERT_TRUE(
        mm.store({}, longTy, p, MemValue(IntegerValue::ofNum(
                                    IntKind::Long, 42)))
            .ok());
    ASSERT_TRUE(mm.load({}, longTy, p).ok());
    ASSERT_TRUE(mm.kill({}, true, p).ok());

    std::vector<TraceEvent> s = ring.snapshot();
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0].kind, EventKind::Alloc);
    EXPECT_EQ(s[0].addr, p.address());
    EXPECT_EQ(s[0].size, 64u);
    EXPECT_EQ(s[0].label, "r");
    EXPECT_EQ(s[1].kind, EventKind::Store);
    EXPECT_EQ(s[1].size, 8u);
    EXPECT_EQ(s[1].a, s[0].a) << "store resolves to the allocation";
    EXPECT_EQ(s[2].kind, EventKind::Load);
    EXPECT_EQ(s[3].kind, EventKind::Free);
    EXPECT_EQ(s[3].b, 1u) << "dynamic free";
}

TEST(ModelEmission, ReprWriteGhostVsHardTagEvents)
{
    auto run = [](bool ghost) {
        RingBufferSink ring;
        MemoryModel::Config cfg;
        cfg.ghostState = ghost;
        cfg.checkProvenance = false;
        cfg.traceSink = &ring;
        MemoryModel mm(cfg);

        auto intTy = intType(IntKind::Int);
        auto pp = pointerTo(intTy);
        auto ucharTy = intType(IntKind::UChar);
        PointerValue r = mm.allocateRegion("r", 64, 16).value();
        PointerValue t = mm.allocateRegion("t", 4, 16).value();
        // Deposit a capability, then overwrite one representation
        // byte (the section 3.5 scenario).
        EXPECT_TRUE(mm.store({}, pp, r, MemValue(t)).ok());
        EXPECT_TRUE(mm.store({}, ucharTy, r,
                             MemValue(IntegerValue::ofNum(
                                 IntKind::UChar, 0xAB)))
                        .ok());
        return ring.snapshot();
    };

    std::vector<TraceEvent> ghost = run(true);
    ASSERT_EQ(filterKind(ghost, EventKind::GhostMark).size(), 1u);
    EXPECT_TRUE(filterKind(ghost, EventKind::TagClear).empty());
    EXPECT_EQ(filterKind(ghost, EventKind::GhostMark)[0].label,
              "repr-write");

    std::vector<TraceEvent> hard = run(false);
    ASSERT_EQ(filterKind(hard, EventKind::TagClear).size(), 1u);
    EXPECT_TRUE(filterKind(hard, EventKind::GhostMark).empty());
}

TEST(ModelEmission, ExposeAndAttachWitnessed)
{
    RingBufferSink ring;
    MemoryModel::Config cfg;
    cfg.traceSink = &ring;
    MemoryModel mm(cfg);

    PointerValue p = mm.allocateRegion("r", 64, 16).value();
    auto iv =
        mm.intFromPtr({}, IntKind::ULong, p); // exposes
    ASSERT_TRUE(iv.ok());
    auto back = mm.ptrFromInt({}, iv.value()); // attaches
    ASSERT_TRUE(back.ok());

    std::vector<TraceEvent> s = ring.snapshot();
    std::vector<TraceEvent> exposes = filterKind(s, EventKind::Expose);
    ASSERT_EQ(exposes.size(), 1u);
    EXPECT_EQ(exposes[0].addr, p.address());

    std::vector<TraceEvent> attaches = filterKind(s, EventKind::Attach);
    ASSERT_EQ(attaches.size(), 1u);
    EXPECT_EQ(attaches[0].addr, p.address());
    EXPECT_NE(attaches[0].a, 0u) << "attached non-empty provenance";

    // Re-exposing is not a new witness (transition events only).
    ASSERT_TRUE(mm.intFromPtr({}, IntKind::ULong, p).ok());
    EXPECT_EQ(filterKind(ring.snapshot(), EventKind::Expose).size(),
              1u);
}

TEST(ModelEmission, RevocationSweepWitnessed)
{
    RingBufferSink ring;
    MemoryModel::Config cfg;
    cfg.ghostState = false;
    cfg.checkProvenance = false;
    cfg.revoke.policy = revoke::RevokePolicy::Eager;
    cfg.traceSink = &ring;
    MemoryModel mm(cfg);

    auto pp = pointerTo(intType(IntKind::Int));
    PointerValue victim = mm.allocateRegion("victim", 32, 16).value();
    PointerValue holder = mm.allocateRegion("holder", 16, 16).value();
    // Stash a capability to the victim, then free the victim: the
    // CHERIoT-style sweep must clear the stashed tag.
    ASSERT_TRUE(mm.store({}, pp, holder, MemValue(victim)).ok());
    ASSERT_TRUE(mm.kill({}, true, victim).ok());

    std::vector<TraceEvent> s = ring.snapshot();
    std::vector<TraceEvent> sweeps =
        filterKind(s, EventKind::RevokeSweep);
    ASSERT_EQ(sweeps.size(), 1u);
    EXPECT_EQ(sweeps[0].a, 1u) << "one capability revoked";
    std::vector<TraceEvent> clears =
        filterKind(s, EventKind::TagClear);
    ASSERT_EQ(clears.size(), 1u);
    EXPECT_EQ(clears[0].label, "revoke");
    EXPECT_EQ(clears[0].addr, holder.address());
}

TEST(ModelEmission, QuarantineAndBatchedSweepWitnessed)
{
    RingBufferSink ring;
    MemoryModel::Config cfg;
    cfg.ghostState = false;
    cfg.checkProvenance = false;
    cfg.revoke.policy = revoke::RevokePolicy::Manual;
    cfg.traceSink = &ring;
    MemoryModel mm(cfg);

    auto pp = pointerTo(intType(IntKind::Int));
    PointerValue victim = mm.allocateRegion("victim", 32, 16).value();
    PointerValue holder = mm.allocateRegion("holder", 16, 16).value();
    ASSERT_TRUE(mm.store({}, pp, holder, MemValue(victim)).ok());
    ASSERT_TRUE(mm.kill({}, true, victim).ok());

    // Deferred policy: the free is witnessed as a Quarantine event,
    // with no sweep or tag-clear yet.
    std::vector<TraceEvent> s = ring.snapshot();
    std::vector<TraceEvent> quar =
        filterKind(s, EventKind::Quarantine);
    ASSERT_EQ(quar.size(), 1u);
    EXPECT_EQ(quar[0].addr, victim.address());
    EXPECT_EQ(quar[0].size, 32u);
    EXPECT_EQ(quar[0].b, 1u) << "quarantine occupancy after enqueue";
    EXPECT_TRUE(filterKind(s, EventKind::RevokeSweep).empty());
    EXPECT_TRUE(filterKind(s, EventKind::TagClear).empty());

    // The explicit epoch emits the TagClear and one RevokeSweep.
    EXPECT_EQ(mm.flushQuarantine(), 1u);
    s = ring.snapshot();
    std::vector<TraceEvent> sweeps =
        filterKind(s, EventKind::RevokeSweep);
    ASSERT_EQ(sweeps.size(), 1u);
    EXPECT_EQ(sweeps[0].a, 1u) << "one capability revoked";
    EXPECT_EQ(sweeps[0].b, 1u) << "one region flushed";
    std::vector<TraceEvent> clears =
        filterKind(s, EventKind::TagClear);
    ASSERT_EQ(clears.size(), 1u);
    EXPECT_EQ(clears[0].label, "revoke");
    EXPECT_EQ(clears[0].addr, holder.address());
}

TEST(ModelEmission, ReallocWitnessed)
{
    RingBufferSink ring;
    MemoryModel::Config cfg;
    cfg.traceSink = &ring;
    MemoryModel mm(cfg);

    PointerValue p = mm.allocateRegion("r", 32, 16).value();
    auto np = mm.reallocRegion({}, p, 64);
    ASSERT_TRUE(np.ok());

    std::vector<TraceEvent> reallocs =
        filterKind(ring.snapshot(), EventKind::Realloc);
    ASSERT_EQ(reallocs.size(), 1u);
    EXPECT_EQ(reallocs[0].addr, p.address());
    EXPECT_EQ(reallocs[0].size, 64u);
    EXPECT_EQ(reallocs[0].a, 32u);
    EXPECT_EQ(reallocs[0].b, np.value().address());
}

// ---------------------------------------------------------------------
// Driver-level witnessing: control flow, UB, phases, counters.
// ---------------------------------------------------------------------

TEST(DriverTracing, FunctionFramesIntrinsicsAndPhases)
{
    RingBufferSink ring;
    driver::Profile p = driver::referenceProfile();
    p.memConfig.traceSink = &ring;
    driver::RunResult r = driver::runSource(R"(
#include <stdlib.h>
int helper(int x) { return x + 1; }
int main(void) {
    int *p = malloc(sizeof(int));
    *p = helper(1);
    free(p);
    return *p;
}
)",
                                            p);
    ASSERT_FALSE(r.frontendError) << r.frontendMessage;

    std::vector<TraceEvent> s = ring.snapshot();
    std::vector<TraceEvent> enters = filterKind(s, EventKind::FuncEnter);
    std::vector<TraceEvent> exits = filterKind(s, EventKind::FuncExit);
    ASSERT_EQ(enters.size(), 2u);
    EXPECT_EQ(enters.size(), exits.size());
    EXPECT_EQ(enters[0].label, "main");
    EXPECT_EQ(enters[1].label, "helper");

    std::vector<TraceEvent> intr = filterKind(s, EventKind::Intrinsic);
    ASSERT_EQ(intr.size(), 2u);
    EXPECT_EQ(intr[0].label, "malloc");
    EXPECT_EQ(intr[1].label, "free");

    // All four pipeline phases witnessed, and mirrored in RunResult.
    std::vector<TraceEvent> phases = filterKind(s, EventKind::Phase);
    ASSERT_EQ(phases.size(), 4u);
    EXPECT_EQ(phases[0].label, "parse");
    EXPECT_EQ(phases[3].label, "evaluate");
    EXPECT_GT(r.phases.parseNs, 0u);
    EXPECT_GT(r.phases.evalNs, 0u);
    EXPECT_GE(r.phases.totalNs(),
              r.phases.parseNs + r.phases.evalNs);

    // Per-intrinsic counters surfaced beside MemStats; the scoped
    // timers ran because a sink was attached.
    EXPECT_EQ(r.outcome.intrinsicCalls.at("malloc"), 1u);
    EXPECT_EQ(r.outcome.intrinsicCalls.at("free"), 1u);
    EXPECT_TRUE(r.outcome.intrinsicNanos.count("malloc"));
}

TEST(DriverTracing, UbRaiseCarriesSourceLocation)
{
    RingBufferSink ring;
    driver::Profile p = driver::referenceProfile();
    p.memConfig.traceSink = &ring;
    driver::RunResult r = driver::runSource(R"(
int main(void) {
    int x[2];
    int *q = &x[0] + 100001;
    return 0;
}
)",
                                            p);
    ASSERT_FALSE(r.frontendError);
    ASSERT_EQ(r.outcome.kind, corelang::Outcome::Kind::Undefined);

    std::vector<TraceEvent> ubs =
        filterKind(ring.snapshot(), EventKind::UbRaise);
    ASSERT_EQ(ubs.size(), 1u);
    EXPECT_EQ(ubs[0].a,
              static_cast<uint64_t>(mem::Ub::OutOfBoundsPtrArith));
    EXPECT_EQ(ubs[0].label, "UB_out_of_bounds_pointer_arithmetic");
    EXPECT_GT(ubs[0].line, 0u) << "carries a source location";
}

TEST(DriverTracing, DisabledByDefaultAndCountersStillOn)
{
    driver::RunResult r = driver::runSource(R"(
#include <stdlib.h>
int main(void) {
    free(malloc(8));
    return 0;
}
)",
                                            driver::referenceProfile());
    ASSERT_FALSE(r.frontendError);
    // Counters are always collected; the scoped intrinsic timers
    // only run when a sink is attached.
    EXPECT_EQ(r.outcome.intrinsicCalls.at("malloc"), 1u);
    EXPECT_TRUE(r.outcome.intrinsicNanos.empty());
    EXPECT_GT(r.phases.totalNs(), 0u);
}

} // namespace
} // namespace cherisem::obs
