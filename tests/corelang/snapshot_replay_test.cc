/**
 * @file
 * Machine-level snapshot/restore and time-travel replay primitives.
 *
 * Three layers, bottom up:
 *
 *  - obs::SnapshotIndex / obs::StopAtSeqSink — the replay plumbing
 *    (nearest-at-or-before lookup; stop-and-swallow semantics for
 *    the unwind path's balancing events);
 *
 *  - Machine::capture()/restoreSnapshot() — forking a quiescent
 *    post-prelude state must be invisible: a warm run (restore +
 *    runMain) agrees bit-for-bit with a cold run (run()), outcome,
 *    output, step count, and witness stream included;
 *
 *  - pokeGlobalInt — the fork-fuzzing variant injection point.
 *
 * The end-to-end drivers over these (cherisem_serve --warm,
 * cherisem_run --replay-to, cherisem_fuzz --fork) are exercised by
 * the serve tests, the CI smoke runs, and the fuzz tests.
 */
#include <gtest/gtest.h>

#include "corelang/eval.h"
#include "corelang/machine.h"
#include "driver/profiles.h"
#include "frontend/parser.h"
#include "obs/replay.h"
#include "obs/sinks.h"
#include "obs/trace_diff.h"
#include "sema/sema.h"

namespace cherisem::corelang {
namespace {

// ---------------------------------------------------------------------
// obs plumbing.
// ---------------------------------------------------------------------

obs::TraceEvent
load(uint64_t addr)
{
    obs::TraceEvent e;
    e.kind = obs::EventKind::Load;
    e.addr = addr;
    return e;
}

TEST(StopAtSeqSink, StopsExactlyAfterTargetIsRecorded)
{
    obs::StopAtSeqSink sink(2);
    sink.emit(load(0x10)); // seq 0
    sink.emit(load(0x20)); // seq 1
    EXPECT_FALSE(sink.stopped());

    uint64_t seq = 0;
    try {
        sink.emit(load(0x30)); // seq 2: recorded, then throws
        FAIL() << "expected ReplayStop";
    } catch (const obs::ReplayStop &stop) {
        seq = stop.seq;
    }
    EXPECT_EQ(seq, 2u);
    EXPECT_TRUE(sink.stopped());
    ASSERT_EQ(sink.events().size(), 3u);
    EXPECT_EQ(sink.events().back().addr, 0x30u);

    // The unwind path's balancing events are swallowed, not
    // rethrown: the retained stream still ends at the target.
    sink.emit(load(0x40));
    EXPECT_EQ(sink.events().size(), 3u);
}

TEST(StopAtSeqSink, ForwardsRetainedEventsToInner)
{
    obs::RingBufferSink inner(16);
    obs::StopAtSeqSink sink(1, &inner);
    sink.emit(load(0x10));
    try {
        sink.emit(load(0x20));
    } catch (const obs::ReplayStop &) {
    }
    sink.emit(load(0x30)); // dropped — must not reach inner either
    EXPECT_EQ(inner.size(), 2u);
}

TEST(SnapshotIndex, NearestAtOrBefore)
{
    obs::SnapshotIndex<int> index;
    EXPECT_TRUE(index.empty());
    EXPECT_EQ(index.nearest(100), nullptr);

    index.add(10, 1);
    index.add(50, 2);
    index.add(90, 3);

    EXPECT_EQ(index.nearest(9), nullptr); // before every snapshot
    ASSERT_NE(index.nearest(10), nullptr);
    EXPECT_EQ(index.nearest(10)->snap, 1); // exact hit
    EXPECT_EQ(index.nearest(60)->snap, 2); // between entries
    EXPECT_EQ(index.nearest(1000)->snap, 3); // past the last
    EXPECT_EQ(index.size(), 3u);
}

// ---------------------------------------------------------------------
// Machine-level capture/restore: warm == cold.
// ---------------------------------------------------------------------

/** A program whose prelude does real work (heap, globals, caps) so
 *  the snapshot actually carries state into main(). */
const char *kWarmSource = R"(
#include <stdlib.h>
#include <stdio.h>

int scale;
int *table;

void __prelude(void)
{
    scale = 3;
    table = malloc(4 * sizeof(int));
    for (int i = 0; i < 4; i++)
        table[i] = i * i;
}

int main(void)
{
    int sum = 0;
    for (int i = 0; i < 4; i++)
        sum += table[i] * scale;
    printf("sum=%d\n", sum);
    free(table);
    return sum == 42 ? 0 : 1;
}
)";

/** 256 KiB global table + 64 KiB heap buffer, both filled by the
 *  prelude; main() reads a handful of entries.  The shape every warm
 *  workload shares: a heavy shared prefix, a light per-request tail. */
const char *kHeavyPreludeSource = R"(int table[65536];
int *heap;
void __prelude(void) {
    int i;
    for (i = 0; i < 65536; i++) table[i] = i * 3;
    heap = (int *)malloc(16384 * sizeof(int));
    for (i = 0; i < 16384; i++) heap[i] = table[i * 4];
}
int main(void) {
    long sum = 0;
    int i;
    for (i = 0; i < 64; i++) sum += table[i * 1024] + heap[i * 256];
    return (int)(sum % 256);
}
)";

/** Holds every event of either program's cold run. */
constexpr size_t kRingCapacity = size_t(1) << 20;

sema::Program
analyze(const std::string &src)
{
    frontend::TranslationUnit unit = frontend::parse(src, "<test>");
    ctype::MachineLayout machine{16, 8}; // Morello layout
    return sema::analyze(std::move(unit), machine);
}

/** Every warm fork of @p source's prelude snapshot replays its cold
 *  run exactly: outcome, output, steps, memory counters and the
 *  un-normalised event stream with the prelude's events re-emitted. */
void
checkWarmMatchesCold(const char *source)
{
    SCOPED_TRACE(source == kWarmSource ? "kWarmSource"
                                       : "kHeavyPreludeSource");
    sema::Program prog = analyze(source);
    EvalOptions opts = driver::referenceProfile().evalOptions();

    // Cold reference run, traced.
    Outcome cold;
    std::vector<obs::TraceEvent> coldEvents;
    {
        obs::RingBufferSink coldRing(kRingCapacity);
        EvalOptions o = opts;
        o.memConfig.traceSink = &coldRing;
        cold = Machine(prog, o).run();
        ASSERT_EQ(coldRing.dropped(), 0u);
        coldEvents = coldRing.snapshot();
    }
    ASSERT_EQ(cold.kind, Outcome::Kind::Exit);
    EXPECT_EQ(cold.exitCode, 0);

    // Warm build: run the prelude once, fork at the quiescent point.
    Machine::SnapshotPtr snap;
    std::vector<obs::TraceEvent> preludeEvents;
    {
        obs::RingBufferSink buildRing(kRingCapacity);
        EvalOptions o = opts;
        o.memConfig.traceSink = &buildRing;
        Machine m(prog, o);
        std::optional<Outcome> pre = m.runPrelude();
        ASSERT_FALSE(pre.has_value())
            << "prelude terminated: " << pre->summary();
        snap = m.capture();
        preludeEvents = buildRing.snapshot();
    }
    if (source == kHeavyPreludeSource) {
        // The fixture's shape: main runs at most a tenth of the
        // prelude's steps, so a warm run that redid the prelude would
        // show in the steps and events compared below.
        EXPECT_LE((cold.steps - snap->steps) * 10, snap->steps)
            << "main " << cold.steps - snap->steps << " vs prelude "
            << snap->steps;
    }

    // Two warm forks of the same snapshot: each must reproduce the
    // cold run exactly (the snapshot is not consumed by restoring).
    for (int fork = 0; fork < 2; ++fork) {
        obs::RingBufferSink warmRing(kRingCapacity);
        EvalOptions o = opts;
        o.memConfig.traceSink = &warmRing;
        Machine m(prog, o);
        m.restoreSnapshot(snap);
        for (const obs::TraceEvent &e : preludeEvents)
            warmRing.emit(e); // re-stamped 0..P-1, cold prefix
        Outcome warm = m.runMain();

        EXPECT_EQ(warm.summary(), cold.summary()) << "fork " << fork;
        EXPECT_EQ(warm.output, cold.output) << "fork " << fork;
        EXPECT_EQ(warm.steps, cold.steps) << "fork " << fork;
        EXPECT_EQ(warm.memStats.loads, cold.memStats.loads);
        EXPECT_EQ(warm.memStats.stores, cold.memStats.stores);

        obs::DiffResult d = obs::diffEventStreams(
            warmRing.snapshot(), coldEvents,
            obs::DiffOptions{});
        EXPECT_TRUE(d.equivalent)
            << "fork " << fork << ": " << d.summary();
    }
}

TEST(MachineSnapshot, WarmMatchesColdTreeWalker)
{
    for (const char *source : {kWarmSource, kHeavyPreludeSource})
        checkWarmMatchesCold(source);
}

TEST(MachineSnapshot, PokeGlobalIntForksVariants)
{
    sema::Program prog = analyze(kWarmSource);
    EvalOptions opts = driver::referenceProfile().evalOptions();

    Machine base(prog, opts);
    ASSERT_FALSE(base.runPrelude().has_value());
    Machine::SnapshotPtr snap = base.capture();

    // scale=3 is the prelude's value; poking 0 zeroes every term.
    auto runVariant = [&](std::optional<int64_t> poke) {
        Machine m(prog, opts);
        m.restoreSnapshot(snap);
        if (poke) {
            EXPECT_TRUE(m.pokeGlobalInt("scale", *poke));
        }
        return m.runMain();
    };

    Outcome unpoked = runVariant(std::nullopt);
    EXPECT_EQ(unpoked.output, "sum=42\n");
    Outcome zero = runVariant(0);
    EXPECT_EQ(zero.output, "sum=0\n");
    EXPECT_EQ(zero.exitCode, 1);
    // Unknown global: rejected, run unaffected.
    Machine m(prog, opts);
    m.restoreSnapshot(snap);
    EXPECT_FALSE(m.pokeGlobalInt("no_such_global", 1));
    EXPECT_EQ(m.runMain().output, "sum=42\n");
}

} // namespace
} // namespace cherisem::corelang
