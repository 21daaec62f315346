/**
 * @file
 * Unit tests for COW page snapshots and state forking: the
 * store-level snapshot()/restore() contract on both backends, the
 * Paged backend's clone accounting (O(pages touched), untouched
 * pages stay shared), and the MemoryModel-level fork of the whole
 * (A, S, (B, C)) state — including the revocation engine's pending
 * quarantine under the Quarantine policy.
 *
 * The randomized lockstep coverage lives in the store-equivalence
 * soak (store_equivalence_test.cc, `soak` label); these are the
 * fast-tier cases pinning the shapes the soak would only hit by
 * chance: double restores, snapshot-of-snapshot chains, and
 * snapshot-under-quarantine.
 */
#include <gtest/gtest.h>

#include "mem/memory_model.h"
#include "mem/store.h"
#include "revoke/revocation.h"

namespace cherisem::mem {
namespace {

using ctype::IntKind;
using ctype::intType;
using ctype::TypeRef;
using revoke::RevokePolicy;

class StoreSnapshotTest : public ::testing::TestWithParam<StoreBackend>
{
  protected:
    void SetUp() override { store_ = makeStore(GetParam(), 16); }

    void
    writeByte(uint64_t addr, uint8_t v)
    {
        AbsByte b;
        b.value = v;
        store_->writeBytes(addr, &b, 1);
    }

    uint8_t
    readByte(uint64_t addr)
    {
        std::vector<AbsByte> out = store_->readBytes(addr, 1);
        return out[0].value.value_or(0xee);
    }

    std::unique_ptr<AbstractStore> store_;
};

TEST_P(StoreSnapshotTest, RestoreRewindsBytesMetaAndStats)
{
    writeByte(0x1000, 0x11);
    CapMeta m;
    m.tag = true;
    store_->setCapMeta(0x1000, m);
    StoreStats before = store_->stats();

    StoreSnapshotPtr snap = store_->snapshot();

    writeByte(0x1000, 0x22);          // overwrite
    writeByte(0x5000, 0x33);          // new page
    store_->eraseCapMeta(0x1000);     // kill the cap
    store_->clearRange(0x1000, 64);

    store_->restore(snap);

    // Counter-identical to the moment the snapshot was taken: a
    // restored run must be indistinguishable from one that never
    // diverged.  (Sampled before this test's own checks below add
    // reads of their own.)
    StoreStats after = store_->stats();

    EXPECT_EQ(readByte(0x1000), 0x11);
    std::vector<AbsByte> fresh = store_->readBytes(0x5000, 1);
    EXPECT_FALSE(fresh[0].value.has_value());
    ASSERT_TRUE(store_->capMetaAt(0x1000).has_value());
    EXPECT_TRUE(store_->capMetaAt(0x1000)->tag);
    EXPECT_EQ(after.rangeWrites, before.rangeWrites);
    EXPECT_EQ(after.rangeReads, before.rangeReads);
    EXPECT_EQ(after.bytesWritten, before.bytesWritten);
    EXPECT_EQ(after.capMetaWrites, before.capMetaWrites);
    EXPECT_EQ(after.pagesAllocated, before.pagesAllocated);
}

TEST_P(StoreSnapshotTest, DoubleRestoreIsIdempotent)
{
    writeByte(0x2000, 0xaa);
    StoreSnapshotPtr snap = store_->snapshot();

    writeByte(0x2000, 0xbb);
    store_->restore(snap);
    EXPECT_EQ(readByte(0x2000), 0xaa);

    // Diverge again and rewind to the *same* snapshot: restoring is
    // not consuming.
    writeByte(0x2000, 0xcc);
    writeByte(0x2008, 0xdd);
    store_->restore(snap);
    EXPECT_EQ(readByte(0x2000), 0xaa);
    EXPECT_FALSE(store_->readBytes(0x2008, 1)[0].value.has_value());
}

TEST_P(StoreSnapshotTest, SnapshotOfSnapshotChains)
{
    writeByte(0x3000, 0x01);
    StoreSnapshotPtr a = store_->snapshot();

    writeByte(0x3000, 0x02);
    writeByte(0x3001, 0x12);
    StoreSnapshotPtr b = store_->snapshot(); // snapshot of diverged state

    writeByte(0x3000, 0x03);

    // The chain restores in any order, any number of times.
    store_->restore(a);
    EXPECT_EQ(readByte(0x3000), 0x01);
    EXPECT_FALSE(store_->readBytes(0x3001, 1)[0].value.has_value());

    store_->restore(b);
    EXPECT_EQ(readByte(0x3000), 0x02);
    EXPECT_EQ(readByte(0x3001), 0x12);

    store_->restore(a);
    EXPECT_EQ(readByte(0x3000), 0x01);
}

INSTANTIATE_TEST_SUITE_P(Backends, StoreSnapshotTest,
                         ::testing::Values(StoreBackend::Map,
                                           StoreBackend::Paged),
                         [](const auto &info) {
                             return info.param == StoreBackend::Map
                                        ? "MapStore"
                                        : "PagedStore";
                         });

// ---------------------------------------------------------------------
// Paged-specific COW accounting.
// ---------------------------------------------------------------------

TEST(PagedCow, ClonesOnlyTouchedPages)
{
    auto store = makeStore(StoreBackend::Paged, 16);
    auto *paged = dynamic_cast<PagedStore *>(store.get());
    ASSERT_NE(paged, nullptr);

    // Populate 8 pages.
    for (uint64_t p = 0; p < 8; ++p) {
        AbsByte b;
        b.value = static_cast<uint8_t>(p);
        store->writeBytes(p * 4096, &b, 1);
    }
    EXPECT_EQ(paged->cowClones(), 0u);
    EXPECT_EQ(paged->sharedPages(), 0u);

    StoreSnapshotPtr snap = store->snapshot();
    EXPECT_EQ(paged->sharedPages(), 8u);

    // First write to one page clones exactly that page.
    AbsByte b;
    b.value = 0xff;
    store->writeBytes(3 * 4096 + 7, &b, 1);
    EXPECT_EQ(paged->cowClones(), 1u);
    EXPECT_EQ(paged->sharedPages(), 7u);

    // More writes to the now-unique page clone nothing further.
    store->writeBytes(3 * 4096 + 100, &b, 1);
    EXPECT_EQ(paged->cowClones(), 1u);

    // The snapshot still sees the original byte.
    store->restore(snap);
    std::vector<AbsByte> out = store->readBytes(3 * 4096 + 7, 1);
    EXPECT_FALSE(out[0].value.has_value());
    EXPECT_EQ(store->readBytes(3 * 4096, 1)[0].value.value_or(0), 3);
    // Untouched pages came back shared with the snapshot.
    EXPECT_EQ(paged->sharedPages(), 8u);
}

// ---------------------------------------------------------------------
// MemoryModel-level forking.
// ---------------------------------------------------------------------

TEST(ModelSnapshot, RestoreIsBitIdentical)
{
    MemoryModel::Config cfg;
    MemoryModel mm(cfg);
    TypeRef longTy = intType(IntKind::Long);

    auto region = mm.allocateRegion("r", 4096, 16).value();
    uint64_t base = region.address();
    auto at = [&](uint64_t off) {
        PointerValue p = region;
        p.cap = region.cap->withAddress(base + off);
        return p;
    };
    for (uint64_t off = 0; off < 512; off += 8) {
        ASSERT_TRUE(mm.store({}, longTy, at(off),
                             MemValue(IntegerValue::ofNum(
                                 IntKind::Long,
                                 static_cast<int64_t>(off))))
                        .ok());
    }
    std::vector<std::optional<uint8_t>> want;
    for (uint64_t i = 0; i < 512; ++i)
        want.push_back(mm.peekByte(base + i));
    MemStats statsBefore = mm.stats();
    uint64_t loadsBefore = statsBefore.loads;
    uint64_t storesBefore = statsBefore.stores;

    MemorySnapshotPtr snap = mm.snapshot();

    // Diverge: overwrite, allocate, free.
    ASSERT_TRUE(mm.memsetOp({}, at(0), 0x5a, 512).ok());
    auto extra = mm.allocateRegion("x", 128, 16).value();
    ASSERT_TRUE(mm.kill({}, true, extra).ok());

    mm.restore(snap);

    for (uint64_t i = 0; i < 512; ++i)
        EXPECT_EQ(mm.peekByte(base + i), want[i]) << "offset " << i;
    const MemStats &s = mm.stats();
    EXPECT_EQ(s.loads, loadsBefore);
    EXPECT_EQ(s.stores, storesBefore);

    // The allocator rewound too: the next allocation lands exactly
    // where the diverged run's extra did.
    auto again = mm.allocateRegion("x", 128, 16).value();
    EXPECT_EQ(again.address(), extra.address());
}

TEST(ModelSnapshot, RestoredRunClonesOnlyThePagesItWrites)
{
    // The model-level twin of PagedCow.ClonesOnlyTouchedPages, and the
    // count warm serving and fork fuzzing rest on: a run forked from a
    // snapshot copies exactly the pages it writes and shares the rest,
    // never deep-copying the store.
    MemoryModel::Config cfg;
    ASSERT_EQ(cfg.storeBackend, StoreBackend::Paged);
    MemoryModel mm(cfg);
    const auto *paged = dynamic_cast<const PagedStore *>(&mm.store());
    ASSERT_NE(paged, nullptr);
    TypeRef longTy = intType(IntKind::Long);
    constexpr uint64_t kPage = PagedStore::kPageBytes;
    constexpr uint64_t kPages = 64;

    // "Prelude": a 256 KiB region, every page written.
    auto region = mm.allocateRegion("r", kPages * kPage, 16).value();
    ASSERT_TRUE(mm.memsetOp({}, region, 0x11, kPages * kPage).ok());
    MemorySnapshotPtr snap = mm.snapshot();
    uint64_t resident = paged->sharedPages();
    ASSERT_GE(resident, kPages);

    for (int fork = 0; fork < 2; ++fork) {
        mm.restore(snap);
        EXPECT_EQ(paged->sharedPages(), resident) << "fork " << fork;
        uint64_t clones = paged->cowClones();
        // "main": two stores into each of three distinct pages.
        for (uint64_t page : {1u, 17u, 40u}) {
            for (uint64_t off : {8u, 64u}) {
                PointerValue p = region;
                p.cap = region.cap->withAddress(region.address() +
                                                page * kPage + off);
                ASSERT_TRUE(mm.store({}, longTy, p,
                                     MemValue(IntegerValue::ofNum(
                                         IntKind::Long, 7)))
                                .ok());
            }
        }
        EXPECT_EQ(paged->cowClones() - clones, 3u) << "fork " << fork;
        EXPECT_EQ(paged->sharedPages(), resident - 3) << "fork " << fork;
    }
}

TEST(ModelSnapshot, SnapshotUnderQuarantine)
{
    MemoryModel::Config cfg;
    cfg.revoke.policy = RevokePolicy::Manual; // sweep only on flush
    MemoryModel mm(cfg);

    auto extra = mm.allocateRegion("q", 256, 16).value();
    ASSERT_TRUE(mm.kill({}, true, extra).ok());
    // The free is pending in quarantine, not yet swept.
    uint64_t pendingRegions = mm.stats().revoke.pendingRegions;
    uint64_t pendingBytes = mm.stats().revoke.pendingBytes;
    ASSERT_GE(pendingRegions, 1u);

    MemorySnapshotPtr snap = mm.snapshot();

    // Diverge: flush the quarantine (sweeps, empties the queue).
    mm.flushQuarantine();
    EXPECT_EQ(mm.stats().revoke.pendingRegions, 0u);

    // Restore: the pending quarantine is back, byte for byte.
    mm.restore(snap);
    EXPECT_EQ(mm.stats().revoke.pendingRegions, pendingRegions);
    EXPECT_EQ(mm.stats().revoke.pendingBytes, pendingBytes);

    // And it still sweeps identically after the rewind.
    uint64_t sweeps = mm.stats().revoke.sweeps;
    mm.flushQuarantine();
    EXPECT_EQ(mm.stats().revoke.pendingRegions, 0u);
    EXPECT_EQ(mm.stats().revoke.sweeps, sweeps + 1);
}

} // namespace
} // namespace cherisem::mem
