/**
 * @file
 * Direct unit tests of the AbstractStore primitives on both backends
 * (page-boundary crossing, overlap-safe copies, the ghost/hard
 * invalidation transition, range visitors).
 *
 * The granule-transition cases drive the parametrised backend and a
 * MapStore reference in lockstep, for both capability granule sizes,
 * and compare every abstract byte, every slot's metadata and granule
 * read, and the counters: they pin PagedStore's whole-granule records
 * (a capability stored as one record, split into per-byte entries
 * when a write covers only part of it) to the literal B and C maps.
 *
 * These are the fast-tier complement of the randomized
 * backend-equivalence soak in store_equivalence_test.cc (which runs
 * under the `soak` ctest label).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "mem/store.h"

namespace cherisem::mem {
namespace {

class StorePrimitiveTest
    : public ::testing::TestWithParam<StoreBackend>
{
  protected:
    void SetUp() override { store_ = makeStore(GetParam(), 16); }

    AbsByte
    byteOf(uint8_t v, uint64_t prov_id = 0)
    {
        AbsByte b;
        b.value = v;
        if (prov_id)
            b.prov = Provenance::alloc(prov_id);
        return b;
    }

    std::unique_ptr<AbstractStore> store_;
};

TEST_P(StorePrimitiveTest, UnwrittenBytesReadUninitialised)
{
    std::vector<AbsByte> out = store_->readBytes(0x12345, 8);
    for (const AbsByte &b : out) {
        EXPECT_FALSE(b.value.has_value());
        EXPECT_TRUE(b.prov.isEmpty());
        EXPECT_FALSE(b.index.has_value());
    }
}

TEST_P(StorePrimitiveTest, WriteReadRoundTripAcrossPageBoundary)
{
    // Straddle the 4 KiB page boundary at 0x2000.
    const uint64_t addr = 0x2000 - 5;
    std::vector<AbsByte> in(11);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = byteOf(static_cast<uint8_t>(0x40 + i), /*prov=*/7);
    store_->writeBytes(addr, in.data(), in.size());

    std::vector<AbsByte> out = store_->readBytes(addr, in.size());
    for (size_t i = 0; i < in.size(); ++i) {
        ASSERT_TRUE(out[i].value.has_value());
        EXPECT_EQ(*out[i].value, 0x40 + i);
        EXPECT_EQ(out[i].prov, Provenance::alloc(7));
    }
    // Neighbours untouched.
    EXPECT_FALSE(store_->readBytes(addr - 1, 1)[0].value.has_value());
    EXPECT_FALSE(
        store_->readBytes(addr + in.size(), 1)[0].value.has_value());
}

TEST_P(StorePrimitiveTest, FillAndClearRange)
{
    store_->fillRange(0x1000, 8192, byteOf(0xAB));
    EXPECT_EQ(*store_->readBytes(0x1000, 1)[0].value, 0xAB);
    EXPECT_EQ(*store_->readBytes(0x2FFF, 1)[0].value, 0xAB);
    store_->clearRange(0x1004, 4096);
    EXPECT_EQ(*store_->readBytes(0x1003, 1)[0].value, 0xAB);
    EXPECT_FALSE(store_->readBytes(0x1004, 1)[0].value.has_value());
    EXPECT_FALSE(store_->readBytes(0x2003, 1)[0].value.has_value());
    EXPECT_EQ(*store_->readBytes(0x2004, 1)[0].value, 0xAB);
}

TEST_P(StorePrimitiveTest, CopyRangeOverlapBothDirections)
{
    for (size_t i = 0; i < 64; ++i)
        store_->writeByte(0x3000 + i, byteOf(static_cast<uint8_t>(i)));
    // Forward overlap (dst > src).
    store_->copyRange(0x3010, 0x3000, 64);
    for (size_t i = 0; i < 64; ++i)
        EXPECT_EQ(*store_->readBytes(0x3010 + i, 1)[0].value, i);
    // Backward overlap (dst < src).
    store_->copyRange(0x3008, 0x3010, 64);
    for (size_t i = 0; i < 64; ++i)
        EXPECT_EQ(*store_->readBytes(0x3008 + i, 1)[0].value, i);
}

TEST_P(StorePrimitiveTest, CapMetaPresenceIsDistinctFromClearTag)
{
    EXPECT_FALSE(store_->capMetaAt(0x4000).has_value());
    store_->setCapMeta(0x4000, CapMeta{});
    ASSERT_TRUE(store_->capMetaAt(0x4000).has_value());
    EXPECT_FALSE(store_->capMetaAt(0x4000)->tag);
    store_->eraseCapMeta(0x4000);
    EXPECT_FALSE(store_->capMetaAt(0x4000).has_value());
}

TEST_P(StorePrimitiveTest, InvalidateGhostVsHard)
{
    store_->setCapMeta(0x5000, CapMeta{true, {}});
    store_->setCapMeta(0x5010, CapMeta{true, {}});
    store_->setCapMeta(0x5020, CapMeta{false, {}});

    // Ghost mode: tags stay set, tagUnspec raised; the recorded-but-
    // clear slot does not transition.
    EXPECT_EQ(store_->invalidateCapRange(0x5005, 0x30, true), 2u);
    EXPECT_TRUE(store_->capMetaAt(0x5000)->tag);
    EXPECT_TRUE(store_->capMetaAt(0x5000)->ghost.tagUnspec);
    EXPECT_TRUE(store_->capMetaAt(0x5010)->ghost.tagUnspec);
    EXPECT_FALSE(store_->capMetaAt(0x5020)->ghost.tagUnspec);

    // Hard mode: deterministic clear of tag and ghost state.
    EXPECT_EQ(store_->invalidateCapRange(0x5000, 0x20, false), 2u);
    EXPECT_FALSE(store_->capMetaAt(0x5000)->tag);
    EXPECT_FALSE(store_->capMetaAt(0x5000)->ghost.tagUnspec);
}

TEST_P(StorePrimitiveTest, ForEachCapInRangeWindows)
{
    for (uint64_t slot = 0x6000; slot < 0x6100; slot += 16)
        store_->setCapMeta(slot, CapMeta{true, {}});

    size_t seen = 0;
    store_->forEachCapInRange(0x6020, 0x40,
                              [&](uint64_t, CapMeta &) { ++seen; });
    EXPECT_EQ(seen, 4u);

    // Whole-store sweep, mutating through the visitor.
    seen = 0;
    store_->forEachCapInRange(0, ~uint64_t(0),
                              [&](uint64_t, CapMeta &m) {
                                  m.tag = false;
                                  ++seen;
                              });
    EXPECT_EQ(seen, 16u);
    EXPECT_FALSE(store_->capMetaAt(0x6000)->tag);
}

/** The backend under test beside a MapStore reference with the same
 *  granule size, driven in lockstep.  After the transitions below
 *  PagedStore holds a record wherever the reference reads a whole
 *  granule, so the two granule reads agree exactly (in general a
 *  backend may decline a whole granule; see
 *  GranuleBuiltByteByByteIsReadStaged). */
struct Lockstep
{
    Lockstep(StoreBackend backend, unsigned cap_size)
        : test(makeStore(backend, cap_size)),
          ref(makeStore(StoreBackend::Map, cap_size)), cs(cap_size)
    {
    }

    template <typename F>
    void
    apply(F f)
    {
        f(*test);
        f(*ref);
    }

    /** Store one tagged capability at @p slot: raw bytes seed, seed+1,
     *  ..., provenance @@prov_id. */
    void
    writeCap(uint64_t slot, uint64_t prov_id, uint8_t seed)
    {
        uint8_t raw[16];
        for (unsigned i = 0; i < cs; ++i)
            raw[i] = static_cast<uint8_t>(seed + i);
        apply([&](AbstractStore &s) {
            s.writeCapGranule(slot, raw, Provenance::alloc(prov_id),
                              CapMeta{true, {}});
        });
    }

    /** A capability-shaped run of abstract bytes (byte i has index i)
     *  written with writeBytes at any alignment. */
    void
    writeCapBytes(uint64_t addr, uint64_t prov_id, uint8_t seed)
    {
        std::vector<AbsByte> bs(cs);
        for (unsigned i = 0; i < cs; ++i) {
            bs[i] = AbsByte{Provenance::alloc(prov_id),
                            static_cast<uint8_t>(seed + i), i};
        }
        apply([&](AbstractStore &s) {
            s.writeBytes(addr, bs.data(), bs.size());
        });
    }

    /** Every byte, slot metadata, granule read and counter of
     *  [lo, hi) agrees between the two stores. */
    void
    expectSame(uint64_t lo, uint64_t hi)
    {
        std::vector<AbsByte> a = test->readBytes(lo, hi - lo);
        std::vector<AbsByte> b = ref->readBytes(lo, hi - lo);
        for (uint64_t i = 0; i < a.size(); ++i) {
            SCOPED_TRACE("byte " + std::to_string(lo + i));
            EXPECT_EQ(a[i].value, b[i].value);
            EXPECT_EQ(a[i].prov, b[i].prov);
            EXPECT_EQ(a[i].index, b[i].index);
        }
        for (uint64_t slot = lo / cs * cs; slot < hi; slot += cs) {
            SCOPED_TRACE("slot " + std::to_string(slot));
            std::optional<CapMeta> ma = test->capMetaAt(slot);
            std::optional<CapMeta> mb = ref->capMetaAt(slot);
            ASSERT_EQ(ma.has_value(), mb.has_value());
            if (ma) {
                EXPECT_EQ(ma->tag, mb->tag);
                EXPECT_EQ(ma->ghost, mb->ghost);
            }
            uint8_t ra[16] = {}, rb[16] = {};
            Provenance pa, pb;
            bool wa = test->readCapGranule(slot, ra, pa);
            bool wb = ref->readCapGranule(slot, rb, pb);
            ASSERT_EQ(wa, wb);
            if (wa) {
                EXPECT_EQ(pa, pb);
                EXPECT_EQ(0, std::memcmp(ra, rb, cs));
            }
        }
        const StoreStats &sa = test->stats();
        const StoreStats &sb = ref->stats();
        EXPECT_EQ(sa.rangeReads, sb.rangeReads);
        EXPECT_EQ(sa.rangeWrites, sb.rangeWrites);
        EXPECT_EQ(sa.rangeCopies, sb.rangeCopies);
        EXPECT_EQ(sa.rangeFills, sb.rangeFills);
        EXPECT_EQ(sa.bytesRead, sb.bytesRead);
        EXPECT_EQ(sa.bytesWritten, sb.bytesWritten);
        EXPECT_EQ(sa.bytesCopied, sb.bytesCopied);
        EXPECT_EQ(sa.capMetaReads, sb.capMetaReads);
        EXPECT_EQ(sa.capMetaWrites, sb.capMetaWrites);
    }

    /** The test store's byte at @p addr (read from both stores, so
     *  the counters stay in lockstep). */
    AbsByte
    byteAt(uint64_t addr)
    {
        ref->readBytes(addr, 1);
        return test->readBytes(addr, 1)[0];
    }

    /** The test store's readCapGranule (read from both stores). */
    bool
    granule(uint64_t slot, uint8_t *raw, Provenance &prov)
    {
        uint8_t ref_raw[16];
        Provenance ref_prov;
        ref->readCapGranule(slot, ref_raw, ref_prov);
        return test->readCapGranule(slot, raw, prov);
    }

    /** The test store's byte at @p addr is byte @p i of a capability
     *  with provenance @@prov_id. */
    void
    expectCapByte(uint64_t addr, uint64_t prov_id, uint32_t i)
    {
        AbsByte b = byteAt(addr);
        EXPECT_TRUE(b.value.has_value()) << addr;
        EXPECT_EQ(b.prov, Provenance::alloc(prov_id)) << addr;
        EXPECT_EQ(b.index, std::optional<uint32_t>(i)) << addr;
    }

    std::unique_ptr<AbstractStore> test, ref;
    unsigned cs;
};

constexpr unsigned kGranuleSizes[] = {8, 16};

TEST_P(StorePrimitiveTest, GranuleWholeWriteThenRead)
{
    for (unsigned cs : kGranuleSizes) {
        SCOPED_TRACE("capSize " + std::to_string(cs));
        Lockstep ls(GetParam(), cs);
        const uint64_t s0 = 0x1000, s1 = s0 + cs;
        ls.writeCap(s0, 3, 0x10);
        ls.writeCap(s1, 4, 0x20);
        uint8_t raw[16];
        Provenance prov;
        ASSERT_TRUE(ls.granule(s0, raw, prov));
        EXPECT_EQ(prov, Provenance::alloc(3));
        EXPECT_EQ(raw[cs - 1], 0x10 + cs - 1);
        ls.expectSame(s0 - cs, s1 + 2 * cs);

        // A misaligned capability-shaped write over the second half of
        // s0 and the first half of s1, then a whole-granule write
        // over s1 again: s0's first half keeps its own bytes.
        ls.writeCapBytes(s0 + cs / 2, 5, 0x30);
        ls.writeCap(s1, 6, 0x40);
        for (unsigned i = 0; i < cs / 2; ++i)
            ls.expectCapByte(s0 + i, 3, i);
        ls.expectCapByte(s0 + cs / 2, 5, 0);
        EXPECT_FALSE(ls.granule(s0, raw, prov));
        EXPECT_TRUE(ls.granule(s1, raw, prov));
        EXPECT_EQ(prov, Provenance::alloc(6));
        ls.expectSame(s0 - cs, s1 + 2 * cs);
    }
}

TEST_P(StorePrimitiveTest, GranuleOneByteOverwriteKeepsTheRest)
{
    for (unsigned cs : kGranuleSizes) {
        SCOPED_TRACE("capSize " + std::to_string(cs));
        Lockstep ls(GetParam(), cs);
        const uint64_t s0 = 0x2000, s1 = s0 + cs, s2 = s1 + cs;
        ls.writeCap(s0, 3, 0x10);
        ls.writeCap(s1, 4, 0x20);
        ls.writeCap(s2, 5, 0x30);
        // A plain byte store, a clean scalar store and a heavy byte
        // (byte 0 of another capability, as a byte-wise copy writes
        // it), each into the middle of its own granule.
        ls.apply([&](AbstractStore &s) {
            s.writeByte(s0 + 3, AbsByte{{}, 0xEE, std::nullopt});
            uint8_t v = 0xDD;
            s.writeScalarClean(s1 + 5, &v, 1, /*ghost=*/true);
            s.writeByte(s2 + 2,
                        AbsByte{Provenance::alloc(9), 0xCC, 0u});
        });
        for (unsigned i = 0; i < cs; ++i) {
            if (i != 3)
                ls.expectCapByte(s0 + i, 3, i);
            if (i != 5)
                ls.expectCapByte(s1 + i, 4, i);
            if (i != 2)
                ls.expectCapByte(s2 + i, 5, i);
        }
        AbsByte b = ls.byteAt(s0 + 3);
        EXPECT_TRUE(b.prov.isEmpty());
        EXPECT_FALSE(b.index.has_value());
        EXPECT_EQ(ls.byteAt(s2 + 2).prov,
                  Provenance::alloc(9));
        ls.expectSame(s0, s2 + cs);
    }
}

TEST_P(StorePrimitiveTest, GranuleFillAndClearHalf)
{
    for (unsigned cs : kGranuleSizes) {
        SCOPED_TRACE("capSize " + std::to_string(cs));
        Lockstep ls(GetParam(), cs);
        const uint64_t s0 = 0x3000, s1 = s0 + cs;
        ls.writeCap(s0, 3, 0x10);
        ls.writeCap(s1, 4, 0x20);
        ls.apply([&](AbstractStore &s) {
            s.fillRange(s0, cs / 2, AbsByte{{}, 0xAB, std::nullopt});
            s.clearRange(s1 + cs / 2, cs / 2);
        });
        for (unsigned i = cs / 2; i < cs; ++i)
            ls.expectCapByte(s0 + i, 3, i);
        for (unsigned i = 0; i < cs / 2; ++i)
            ls.expectCapByte(s1 + i, 4, i);
        EXPECT_FALSE(ls.byteAt(s1 + cs / 2).value.has_value());
        ls.expectSame(s0, s1 + cs);
    }
}

TEST_P(StorePrimitiveTest, GranuleCopyAlignedMisalignedAndOverlapping)
{
    for (unsigned cs : kGranuleSizes) {
        SCOPED_TRACE("capSize " + std::to_string(cs));
        Lockstep ls(GetParam(), cs);
        const uint64_t src = 0x4000, dst = 0x5000;
        ls.writeCap(src, 3, 0x10);
        ls.writeCap(src + cs, 4, 0x20);
        for (uint64_t slot = dst; slot < dst + 4 * cs; slot += cs)
            ls.writeCap(slot, 7, 0x70);

        // Disjoint: a granule and a half to an aligned destination
        // (the half lands on part of a destination granule), then one
        // granule to a misaligned destination.
        ls.apply([&](AbstractStore &s) {
            s.copyRange(dst, src, cs + cs / 2);
            s.copyRange(dst + 2 * cs + 3, src + cs, cs);
        });
        for (unsigned i = 0; i < cs; ++i)
            ls.expectCapByte(dst + i, 3, i);
        for (unsigned i = cs / 2; i < cs; ++i)
            ls.expectCapByte(dst + cs + i, 7, i);
        for (unsigned i = 0; i < 3; ++i)
            ls.expectCapByte(dst + 2 * cs + i, 7, i);
        ls.expectSame(dst, dst + 4 * cs);

        // Overlapping, both directions, aligned and misaligned.
        ls.apply([&](AbstractStore &s) {
            s.copyRange(src + cs, src, 2 * cs);     // forward, aligned
            s.copyRange(src, src + cs, 2 * cs);     // backward, aligned
            s.copyRange(src + 5, src, 2 * cs);      // forward, misaligned
            s.copyRange(src + cs, src + cs + 3, cs); // backward, misaligned
        });
        ls.expectSame(src, src + 4 * cs);
    }
}

TEST_P(StorePrimitiveTest, GranuleWriteToSnapshotSharedPage)
{
    for (unsigned cs : kGranuleSizes) {
        SCOPED_TRACE("capSize " + std::to_string(cs));
        Lockstep ls(GetParam(), cs);
        const uint64_t s0 = 0x6000, s1 = s0 + cs;
        ls.writeCap(s0, 3, 0x10);
        ls.writeCap(s1, 4, 0x20);
        StoreSnapshotPtr snap_test = ls.test->snapshot();
        StoreSnapshotPtr snap_ref = ls.ref->snapshot();

        // Diverge on the shared page: a new record over s0 and a
        // partial overwrite of s1.
        ls.writeCap(s0, 8, 0x80);
        ls.apply([&](AbstractStore &s) {
            s.writeByte(s1 + 1, AbsByte{{}, 0xEE, std::nullopt});
        });
        ls.expectCapByte(s0, 8, 0);
        ls.expectSame(s0, s1 + cs);

        ls.test->restore(snap_test);
        ls.ref->restore(snap_ref);
        uint8_t raw[16];
        Provenance prov;
        ASSERT_TRUE(ls.granule(s0, raw, prov));
        EXPECT_EQ(prov, Provenance::alloc(3));
        EXPECT_EQ(raw[0], 0x10);
        for (unsigned i = 0; i < cs; ++i)
            ls.expectCapByte(s1 + i, 4, i);
        ls.expectSame(s0, s1 + cs);
    }
}

TEST_P(StorePrimitiveTest, GranuleBuiltByteByByteIsReadStaged)
{
    for (unsigned cs : kGranuleSizes) {
        SCOPED_TRACE("capSize " + std::to_string(cs));
        Lockstep ls(GetParam(), cs);
        const uint64_t s0 = 0x7000, s1 = s0 + cs;
        ls.writeCap(s0, 3, 0x10);
        // A char-by-char copy of the capability's representation.
        ls.apply([&](AbstractStore &s) {
            for (unsigned i = 0; i < cs; ++i)
                s.writeByte(s1 + i, s.readBytes(s0 + i, 1)[0]);
        });
        for (unsigned i = 0; i < cs; ++i)
            ls.expectCapByte(s1 + i, 3, i);
        uint8_t raw[16], ref_raw[16];
        Provenance prov, ref_prov;
        bool whole = ls.test->readCapGranule(s1, raw, prov);
        ASSERT_TRUE(ls.ref->readCapGranule(s1, ref_raw, ref_prov));
        if (GetParam() == StoreBackend::Paged) {
            // Held as per-byte entries: declined, and not counted.
            EXPECT_FALSE(whole);
            ls.test->readBytes(s1, cs);
        } else {
            EXPECT_TRUE(whole);
        }
        EXPECT_EQ(ls.test->stats().rangeReads, ls.ref->stats().rangeReads);
        EXPECT_EQ(ls.test->stats().bytesRead, ls.ref->stats().bytesRead);
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, StorePrimitiveTest,
                         ::testing::Values(StoreBackend::Map,
                                           StoreBackend::Paged),
                         [](const auto &info) {
                             return std::string(
                                 storeBackendName(info.param));
                         });

} // namespace
} // namespace cherisem::mem
