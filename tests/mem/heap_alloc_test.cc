/**
 * @file
 * Unit tests for the heap placement policies (mem/heap_alloc.h) and
 * their integration with the memory object model:
 *
 *  - the sizeclass table is representability-exact under cc128 AND
 *    cc64 (every stride is a CRRL fixed point, every slot base meets
 *    the granule alignment of any request it can serve);
 *  - every allocation either gets a capability with *exact* bounds
 *    or (arena exhausted) a null pointer — never a footprint whose
 *    representable padding overlaps a live neighbour.  The cc64
 *    regression sequence below is the free-list correctness sweep's
 *    crafted case: near the top of a 32-bit address space the old
 *    bump path wrapped and handed out overlapping footprints;
 *  - malloc(0) / zero-size realloc pin to a distinct non-null
 *    zero-length capability under both allocators (DESIGN.md, "Heap
 *    allocator model");
 *  - quarantined footprints stay out of the slab freelists until
 *    swept;
 *  - snapshot/restore round-trips the whole allocator state.
 */
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cap/cc128.h"
#include "cap/cc64.h"
#include "mem/memory_model.h"
#include "obs/sinks.h"

namespace cherisem::cap {

// Print a parameter as its architecture name, not its address, so the
// listed test names are the same on every run.
static void
PrintTo(const CapArch *arch, std::ostream *os)
{
    *os << arch->name();
}

} // namespace cherisem::cap

namespace cherisem::mem {
namespace {

using cap::CapArch;

// -------------------------------------------------------------------
// Sizeclass table properties.
// -------------------------------------------------------------------

class SizeclassTableTest : public ::testing::TestWithParam<const CapArch *>
{
};

TEST_P(SizeclassTableTest, StridesAreRepresentableFixedPoints)
{
    const CapArch &arch = *GetParam();
    SizeclassAllocator a(0x01000000, 0x7f000000, arch);
    ASSERT_FALSE(a.classStrides().empty());
    uint64_t prev = 0;
    for (uint64_t stride : a.classStrides()) {
        EXPECT_GT(stride, prev) << "table must be strictly increasing";
        prev = stride;
        EXPECT_EQ(stride % arch.capSize(), 0u)
            << "stride " << stride << " not capability-slot aligned";
        EXPECT_EQ(arch.representableLength(stride), stride)
            << "stride " << stride << " is not a CRRL fixed point";
    }
    EXPECT_EQ(a.classStrides().front(), arch.capSize());
}

TEST_P(SizeclassTableTest, EverySmallRequestGetsAnExactlyBoundedSlot)
{
    const CapArch &arch = *GetParam();
    SizeclassAllocator a(0x01000000, 0x7f000000, arch);
    // Exhaustive over all small request lengths: the class serving a
    // request must have room for its representable padding and meet
    // its representable-granule alignment, or no malloc'd capability
    // would have exact bounds.
    for (uint64_t len = 1; len <= SizeclassAllocator::kMaxSmall;
         ++len) {
        uint64_t repr = arch.representableLength(len);
        uint64_t mask = arch.representableAlignmentMask(len);
        uint64_t align = std::max<uint64_t>(
            arch.capSize(), mask != ~uint64_t(0) ? ~mask + 1 : 1);
        if (repr < len || repr > SizeclassAllocator::kMaxSmall)
            continue; // served by the large path
        auto cls = a.classFor(repr, align);
        ASSERT_TRUE(cls.has_value())
            << "no class for len=" << len << " repr=" << repr
            << " align=" << align;
        EXPECT_GE(a.classStrides()[*cls], repr);
    }
}

INSTANTIATE_TEST_SUITE_P(BothFormats, SizeclassTableTest,
                         ::testing::Values(&cap::morello(),
                                           &cap::cheriot()),
                         [](const auto &info) {
                             return info.param == &cap::morello()
                                        ? "cc128"
                                        : "cc64";
                         });

// -------------------------------------------------------------------
// Model-level fixtures.
// -------------------------------------------------------------------

struct LiveRegion
{
    uint64_t base;
    uint64_t size;
};

/** Padded (representable) footprint of an allocation. */
uint64_t
paddedLen(const CapArch &arch, uint64_t size)
{
    return arch.representableLength(std::max<uint64_t>(size, 1));
}

/** Assert that no two live regions' padded footprints overlap. */
void
assertDisjointFootprints(const CapArch &arch,
                         const std::vector<LiveRegion> &live)
{
    for (size_t i = 0; i < live.size(); ++i) {
        for (size_t j = i + 1; j < live.size(); ++j) {
            uint128 ai = uint128(live[i].base);
            uint128 ti = ai + paddedLen(arch, live[i].size);
            uint128 aj = uint128(live[j].base);
            uint128 tj = aj + paddedLen(arch, live[j].size);
            EXPECT_TRUE(ti <= aj || tj <= ai)
                << "padded footprints overlap: [" << live[i].base
                << "+" << live[i].size << "] vs [" << live[j].base
                << "+" << live[j].size << "]";
        }
    }
}

class HeapAllocModelTest
    : public ::testing::TestWithParam<HeapAllocatorKind>
{
  protected:
    MemoryModel::Config config_;

    std::unique_ptr<MemoryModel>
    makeModel()
    {
        config_.heapAllocator = GetParam();
        return std::make_unique<MemoryModel>(config_);
    }
};

TEST_P(HeapAllocModelTest, RepresentableBoundsForASizeSweep)
{
    auto mm = makeModel();
    const CapArch &arch = cap::morello();
    for (uint64_t size : {1ull, 3ull, 16ull, 17ull, 24ull, 100ull,
                          511ull, 512ull, 513ull, 4095ull, 4096ull,
                          4097ull, 8192ull, 20000ull, 70000ull}) {
        auto p = mm->allocateRegion("malloc", size, 16);
        ASSERT_TRUE(p.ok());
        ASSERT_FALSE(p.value().isNull()) << "size " << size;
        const auto &c = *p.value().cap;
        EXPECT_TRUE(c.tag());
        // Base stays exact; the top carries exactly the CRRL padding
        // for this size — never more (that slack would be the reused
        // neighbour's bytes) and never less (the encoding would round
        // and clear the tag).
        EXPECT_EQ(c.base(), uint128(p.value().address()));
        EXPECT_EQ(c.top(), uint128(p.value().address()) +
                               arch.representableLength(size))
            << "unexpected padding for size " << size;
    }
}

TEST_P(HeapAllocModelTest, MallocZeroIsDistinctNonNullZeroLength)
{
    auto mm = makeModel();
    auto p = mm->allocateRegion("malloc", 0, 16);
    auto q = mm->allocateRegion("malloc", 0, 16);
    ASSERT_TRUE(p.ok() && q.ok());
    ASSERT_FALSE(p.value().isNull());
    ASSERT_FALSE(q.value().isNull());
    EXPECT_NE(p.value().address(), q.value().address())
        << "zero-size allocations must be distinct";
    EXPECT_TRUE(p.value().cap->tag());
    EXPECT_EQ(p.value().cap->length(), uint128(0));
    // Both are real allocations: free must succeed, double free must
    // not.
    EXPECT_TRUE(mm->kill({}, true, p.value()).ok());
    EXPECT_FALSE(mm->kill({}, true, p.value()).ok());
    EXPECT_TRUE(mm->kill({}, true, q.value()).ok());
}

TEST_P(HeapAllocModelTest, ZeroSizeReallocPinsToZeroLengthCapability)
{
    auto mm = makeModel();
    auto p = mm->allocateRegion("malloc", 64, 16);
    ASSERT_TRUE(p.ok());
    auto r = mm->reallocRegion({}, p.value(), 0);
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r.value().isNull())
        << "realloc(p, 0) pins to a non-null zero-length capability";
    EXPECT_TRUE(r.value().cap->tag());
    EXPECT_EQ(r.value().cap->length(), uint128(0));
    // The old region was freed by the realloc.
    EXPECT_FALSE(mm->kill({}, true, p.value()).ok());
    EXPECT_TRUE(mm->kill({}, true, r.value()).ok());
}

TEST_P(HeapAllocModelTest, ExhaustionReturnsNullNeverOverlap)
{
    // The satellite regression: a cc64 heap parked right under the
    // top of the 32-bit address space.  The old bump path computed
    // `base + repr_len` in 64-bit and kept going past 2^32 — the
    // compression layer then rounded/clamped those bounds onto
    // footprints overlapping earlier live allocations.  Now the
    // arena limit refuses the placement and malloc returns NULL.
    config_.arch = &cap::cheriot();
    config_.globalBase = 0x00010000;
    config_.codeBase = 0x00001000;
    config_.stackBase = 0x7ffff000;
    config_.heapBase = 0xfff00000; // 1 MiB below the 2^32 top
    auto mm = makeModel();
    const CapArch &arch = mm->arch();

    std::vector<LiveRegion> live;
    bool sawNull = false;
    for (int i = 0; i < 64; ++i) {
        auto p = mm->allocateRegion("malloc", 0x38000, 16); // 224 KiB
        ASSERT_TRUE(p.ok());
        if (p.value().isNull()) {
            sawNull = true;
            break;
        }
        live.push_back({p.value().address(), 0x38000});
        // Every handed-out capability keeps exact bounds...
        EXPECT_EQ(p.value().cap->base(),
                  uint128(p.value().address()));
        EXPECT_EQ(p.value().cap->top(),
                  uint128(p.value().address()) + 0x38000);
        // ...inside the 32-bit address space.
        EXPECT_LE(p.value().cap->top(), arch.addrSpaceTop());
    }
    ASSERT_TRUE(sawNull) << "1 MiB arena served 64 x 224 KiB";
    ASSERT_GE(live.size(), 3u);
    assertDisjointFootprints(arch, live);
    EXPECT_GE(mm->stats().heap.exhaustions, 1u);
}

TEST_P(HeapAllocModelTest, FreeListReuseNeverOverlapsUnderCc64)
{
    // Crafted free/alloc sequence under cc64: free a block, then
    // request sizes whose representable padding (granule > 8) is
    // wider than the request, and check the reused placement's
    // *padded* footprint stays disjoint from every live neighbour.
    config_.arch = &cap::cheriot();
    config_.globalBase = 0x00010000;
    config_.codeBase = 0x00001000;
    config_.stackBase = 0x7ffff000;
    config_.heapBase = 0x00100000;
    auto mm = makeModel();
    const CapArch &arch = mm->arch();

    std::map<uint64_t, LiveRegion> live; // base -> region
    auto alloc = [&](uint64_t size) {
        auto p = mm->allocateRegion("malloc", size, 16);
        ASSERT_TRUE(p.ok());
        ASSERT_FALSE(p.value().isNull());
        live[p.value().address()] = {p.value().address(), size};
    };
    std::vector<PointerValue> handles;
    auto allocKeep = [&](uint64_t size) {
        auto p = mm->allocateRegion("malloc", size, 16);
        ASSERT_TRUE(p.ok());
        ASSERT_FALSE(p.value().isNull());
        live[p.value().address()] = {p.value().address(), size};
        handles.push_back(p.value());
    };

    // Neighbouring blocks; free the middle ones to seed the free
    // lists, then come back with granule-padded sizes (cc64 CRRL is
    // inexact above 511 bytes).
    for (uint64_t s : {520ull, 1000ull, 520ull, 2000ull, 520ull})
        allocKeep(s);
    ASSERT_EQ(handles.size(), 5u);
    for (size_t i : {1u, 3u}) {
        ASSERT_TRUE(mm->kill({}, true, handles[i]).ok());
        live.erase(handles[i].address());
    }
    // 513..1000 all pad past their request under cc64; some fit the
    // freed 1000/2000-byte holes, some don't.
    for (uint64_t s : {513ull, 700ull, 768ull, 900ull, 1990ull})
        alloc(s);

    std::vector<LiveRegion> regions;
    for (const auto &[b, r] : live)
        regions.push_back(r);
    assertDisjointFootprints(arch, regions);
}

TEST_P(HeapAllocModelTest, ReallocExhaustionKeepsOldBlockLive)
{
    config_.heapLimit = config_.heapBase + 0x10000; // 64 KiB arena
    auto mm = makeModel();
    auto p = mm->allocateRegion("malloc", 128, 16);
    ASSERT_TRUE(p.ok());
    ASSERT_FALSE(p.value().isNull());
    // Growing far past the arena fails with NULL per C semantics;
    // the old block must stay live and freeable.
    auto r = mm->reallocRegion({}, p.value(), 0x40000);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().isNull());
    EXPECT_TRUE(mm->validForDeref(p.value(), 128));
    EXPECT_TRUE(mm->kill({}, true, p.value()).ok());
}

TEST_P(HeapAllocModelTest, SnapshotRestoreReplaysIdenticalPlacement)
{
    auto mm = makeModel();
    std::vector<uint64_t> first, second;
    auto churn = [&](std::vector<uint64_t> &addrs) {
        std::vector<PointerValue> ps;
        for (uint64_t s : {24ull, 100ull, 24ull, 9000ull, 48ull}) {
            auto p = mm->allocateRegion("malloc", s, 16);
            ASSERT_TRUE(p.ok());
            ASSERT_FALSE(p.value().isNull());
            ps.push_back(p.value());
            addrs.push_back(p.value().address());
        }
        ASSERT_TRUE(mm->kill({}, true, ps[1]).ok());
        auto q = mm->allocateRegion("malloc", 100, 16);
        ASSERT_TRUE(q.ok());
        addrs.push_back(q.value().address());
    };
    MemorySnapshotPtr snap = mm->snapshot();
    churn(first);
    uint64_t mallocsAfter = mm->stats().heap.mallocCalls;
    mm->restore(snap);
    EXPECT_EQ(mm->stats().heap.mallocCalls, 0u)
        << "allocator counters must rewind with the snapshot";
    churn(second);
    EXPECT_EQ(first, second)
        << "restored allocator state must replay placements exactly";
    EXPECT_EQ(mm->stats().heap.mallocCalls, mallocsAfter);
}

INSTANTIATE_TEST_SUITE_P(
    BothAllocators, HeapAllocModelTest,
    ::testing::Values(HeapAllocatorKind::FirstFit,
                      HeapAllocatorKind::Sizeclass),
    [](const auto &info) { return heapAllocatorName(info.param); });

// -------------------------------------------------------------------
// Sizeclass-specific behaviour.
// -------------------------------------------------------------------

TEST(SizeclassModelTest, SlabFreelistIsLifoPerClass)
{
    MemoryModel::Config cfg;
    cfg.heapAllocator = HeapAllocatorKind::Sizeclass;
    MemoryModel mm(cfg);
    auto a = mm.allocateRegion("malloc", 40, 16).value();
    auto b = mm.allocateRegion("malloc", 40, 16).value();
    // Same class, consecutive slots in one slab.
    EXPECT_EQ(b.address() - a.address(),
              mm.stats().heap.bytesReserved / 2);
    ASSERT_TRUE(mm.kill({}, true, a).ok());
    ASSERT_TRUE(mm.kill({}, true, b).ok());
    // LIFO: the most recently freed slot comes back first.
    auto c = mm.allocateRegion("malloc", 40, 16).value();
    EXPECT_EQ(c.address(), b.address());
    auto d = mm.allocateRegion("malloc", 40, 16).value();
    EXPECT_EQ(d.address(), a.address());
    // A different class never aliases those slots.
    auto e = mm.allocateRegion("malloc", 200, 16).value();
    EXPECT_NE(e.address(), a.address());
    EXPECT_NE(e.address(), b.address());
}

TEST(SizeclassModelTest, QuarantinedSlotStaysOutOfSlabFreelist)
{
    MemoryModel::Config cfg;
    cfg.heapAllocator = HeapAllocatorKind::Sizeclass;
    cfg.revoke.policy = revoke::RevokePolicy::Quarantine;
    cfg.revoke.quarantineMaxBytes = 1 << 20;
    cfg.revoke.quarantineMaxRegions = 1024;
    MemoryModel mm(cfg);
    auto a = mm.allocateRegion("malloc", 48, 16).value();
    uint64_t aAddr = a.address();
    ASSERT_TRUE(mm.kill({}, true, a).ok());
    // The freed slot sits in quarantine, not in the slab freelist:
    // a same-class malloc must NOT reuse it.
    auto b = mm.allocateRegion("malloc", 48, 16).value();
    EXPECT_NE(b.address(), aAddr)
        << "quarantined slot reused before the sweep";
    // After the sweep the slot is released to the class freelist and
    // is the next LIFO candidate.
    mm.flushQuarantine();
    auto c = mm.allocateRegion("malloc", 48, 16).value();
    EXPECT_EQ(c.address(), aAddr);
}

TEST(SizeclassModelTest, StatsCountSlabsChunksAndReuse)
{
    MemoryModel::Config cfg;
    cfg.heapAllocator = HeapAllocatorKind::Sizeclass;
    MemoryModel mm(cfg);
    auto a = mm.allocateRegion("malloc", 32, 16).value();
    auto b = mm.allocateRegion("malloc", 32, 16).value();
    (void)b;
    ASSERT_TRUE(mm.kill({}, true, a).ok());
    auto c = mm.allocateRegion("malloc", 32, 16).value();
    (void)c;
    // Large path: above kMaxSmall.
    auto big =
        mm.allocateRegion("malloc", SizeclassAllocator::kMaxSmall + 1,
                          16)
            .value();
    (void)big;
    const HeapStats &hs = mm.stats().heap;
    EXPECT_EQ(hs.mallocCalls, 4u);
    EXPECT_EQ(hs.frees, 1u);
    EXPECT_EQ(hs.reuses, 1u);
    EXPECT_EQ(hs.slabsCarved, 1u);
    EXPECT_EQ(hs.largeAllocs, 1u);
    EXPECT_GE(hs.chunksReserved, 1u);
}

TEST(SizeclassModelTest, EmptySlabReclaimsToChunkPoolAndRecycles)
{
    // Slab reclamation: retire a slab by bumping into a second chunk,
    // free everything, and the retired chunk must return to the chunk
    // pool (its freelist slots purged) while the active bump slab —
    // which still has unbumped space — is kept with its slot on the
    // LIFO freelist.  The next carve recycles the pooled chunk at its
    // old address instead of moving the arena cursor.
    const CapArch &arch = cap::morello();
    SizeclassAllocator a(0x01000000, 0x7f000000, arch);
    constexpr uint64_t kStride = 64;
    const uint64_t slots = SizeclassAllocator::kChunkSize / kStride;
    std::vector<uint64_t> bases;
    for (uint64_t i = 0; i < slots + 1; ++i) {
        auto b = a.allocate(kStride, 16, kStride);
        ASSERT_TRUE(b.has_value());
        bases.push_back(*b);
    }
    EXPECT_EQ(a.stats().slabsCarved, 2u);
    EXPECT_EQ(a.stats().chunksReserved, 2u);
    EXPECT_EQ(a.liveChunks(), 2u);

    for (uint64_t b : bases)
        a.release(b, kStride);
    EXPECT_EQ(a.stats().slabsReclaimed, 1u);
    EXPECT_EQ(a.poolChunks(), 1u);
    EXPECT_EQ(a.liveChunks(), 0u);

    // The kept slab serves first: its freed slot off the freelist,
    // then its remaining bump space.
    auto again = a.allocate(kStride, 16, kStride);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, bases[slots]);
    for (uint64_t i = 1; i < slots; ++i)
        ASSERT_TRUE(a.allocate(kStride, 16, kStride).has_value());
    // Exhausted: the next allocation carves — from the pool, at the
    // reclaimed chunk's base, without reserving a fresh chunk.
    auto recycled = a.allocate(kStride, 16, kStride);
    ASSERT_TRUE(recycled.has_value());
    EXPECT_EQ(*recycled, bases[0]);
    EXPECT_EQ(a.stats().chunksRecycled, 1u);
    EXPECT_EQ(a.stats().chunksReserved, 2u)
        << "recycling must not move the arena cursor";
    EXPECT_EQ(a.poolChunks(), 0u);

    // Snapshot/restore round-trips the pool and occupancy state.
    HeapSnapshot snap = a.snapshot();
    auto x = a.allocate(kStride, 16, kStride);
    ASSERT_TRUE(x.has_value());
    a.restore(snap);
    auto y = a.allocate(kStride, 16, kStride);
    ASSERT_TRUE(y.has_value());
    EXPECT_EQ(*x, *y);
}

TEST(ReallocEventOrderTest, GrowthEmitsSameEventOrderUnderBoth)
{
    // Satellite contract (fuzz_03): a growing realloc emits the same
    // Alloc/Free/Realloc witness order whichever placement policy is
    // active — new region's Alloc, copy, old region's Free, then the
    // Realloc record.  Addresses legitimately differ; the *event
    // kind sequence* may not.
    auto run = [](HeapAllocatorKind kind) {
        obs::RingBufferSink sink;
        MemoryModel::Config cfg;
        cfg.heapAllocator = kind;
        cfg.traceSink = &sink;
        MemoryModel mm(cfg);
        auto p = mm.allocateRegion("malloc", 8, 16).value();
        EXPECT_TRUE(mm.memsetOp({}, p, 0x41, 8).ok());
        auto r = mm.reallocRegion({}, p, 24);
        EXPECT_TRUE(r.ok());
        EXPECT_FALSE(r.value().isNull());
        EXPECT_TRUE(mm.kill({}, true, r.value()).ok());
        std::vector<obs::EventKind> kinds;
        for (const obs::TraceEvent &e : sink.snapshot()) {
            if (e.kind == obs::EventKind::Alloc ||
                e.kind == obs::EventKind::Free ||
                e.kind == obs::EventKind::Realloc)
                kinds.push_back(e.kind);
        }
        return kinds;
    };
    std::vector<obs::EventKind> ff = run(HeapAllocatorKind::FirstFit);
    std::vector<obs::EventKind> sc = run(HeapAllocatorKind::Sizeclass);
    EXPECT_EQ(ff, sc);
    ASSERT_EQ(ff.size(), 5u);
    EXPECT_EQ(ff[0], obs::EventKind::Alloc);   // malloc(8)
    EXPECT_EQ(ff[1], obs::EventKind::Alloc);   // realloc's new region
    EXPECT_EQ(ff[2], obs::EventKind::Free);    // old block dies after copy
    EXPECT_EQ(ff[3], obs::EventKind::Realloc); // the resize record
    EXPECT_EQ(ff[4], obs::EventKind::Free);    // final free
}

TEST(FirstFitModelTest, PlacementMatchesHistoricalFirstFit)
{
    // The FirstFit policy must stay bit-compatible with the seed
    // allocator: reuse scans the free list in order, keeps >=16-byte
    // tails, and bumps otherwise.  These addresses are load-bearing
    // for every recorded trace baseline.
    MemoryModel::Config cfg;
    MemoryModel mm(cfg);
    auto a = mm.allocateRegion("malloc", 64, 16).value();
    EXPECT_EQ(a.address(), cfg.heapBase);
    auto b = mm.allocateRegion("malloc", 64, 16).value();
    EXPECT_EQ(b.address(), cfg.heapBase + 64);
    ASSERT_TRUE(mm.kill({}, true, a).ok());
    // 32 <= 64: first fit reuses a's block and keeps the 32-byte
    // tail.
    auto c = mm.allocateRegion("malloc", 32, 16).value();
    EXPECT_EQ(c.address(), a.address());
    auto d = mm.allocateRegion("malloc", 32, 16).value();
    EXPECT_EQ(d.address(), a.address() + 32);
}

} // namespace
} // namespace cherisem::mem
