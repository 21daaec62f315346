/**
 * @file
 * Unit tests for the CHERI C memory object model (section 4.3),
 * covering the load/store rules, ghost state, PNVI-ae-udi provenance,
 * and the capability-preserving bulk operations.
 */
#include <gtest/gtest.h>

#include "cap/cc64.h"
#include "cap/cc128.h"
#include "mem/memory_model.h"

namespace cherisem::mem {
namespace {

using ctype::IntKind;
using ctype::intType;
using ctype::pointerTo;
using ctype::TypeRef;

class MemoryModelTest : public ::testing::Test
{
  protected:
    MemoryModel::Config config_;
    std::unique_ptr<MemoryModel> mm_;

    void
    SetUp() override
    {
        mm_ = std::make_unique<MemoryModel>(config_);
    }

    PointerValue
    allocInt(const std::string &name, bool ro = false)
    {
        auto p = mm_->allocateObject(name, intType(IntKind::Int), ro,
                                     false);
        EXPECT_TRUE(p.ok());
        return p.value();
    }

    void
    storeInt(const PointerValue &p, int v)
    {
        auto r = mm_->store({}, intType(IntKind::Int), p,
                            MemValue(IntegerValue::ofNum(IntKind::Int,
                                                         v)));
        ASSERT_TRUE(r.ok()) << r.error().str();
    }

    int
    loadInt(const PointerValue &p)
    {
        auto r = mm_->load({}, intType(IntKind::Int), p);
        EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().str());
        if (!r.ok())
            return -999;
        return static_cast<int>(r.value().asInteger().value());
    }
};

TEST_F(MemoryModelTest, StoreLoadRoundTrip)
{
    PointerValue p = allocInt("x");
    storeInt(p, 42);
    EXPECT_EQ(loadInt(p), 42);
}

TEST_F(MemoryModelTest, AllocationCapabilityIsExact)
{
    PointerValue p = allocInt("x");
    EXPECT_TRUE(p.cap->tag());
    EXPECT_EQ(p.cap->length(), 4u);
    EXPECT_EQ(p.cap->base(), p.cap->address());
}

TEST_F(MemoryModelTest, ReadUninitializedIsUb)
{
    PointerValue p = allocInt("x");
    auto r = mm_->load({}, intType(IntKind::Int), p);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().ub, Ub::ReadUninitialized);
}

TEST_F(MemoryModelTest, OutOfBoundsAccessIsCapabilityBoundsViolation)
{
    // The section 3.1 example: one-past pointer, then a write.
    PointerValue p = allocInt("x");
    auto q = mm_->arrayShift({}, p, intType(IntKind::Int), 1);
    ASSERT_TRUE(q.ok()) << q.error().str(); // One-past is legal.
    auto r = mm_->store({}, intType(IntKind::Int), q.value(),
                        MemValue(IntegerValue::ofNum(IntKind::Int, 1)));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().ub, Ub::CheriBoundsViolation);
}

TEST_F(MemoryModelTest, ArithBeyondOnePastIsUb)
{
    // Section 3.2 option (a): strict ISO rule.
    PointerValue p = allocInt("x");
    auto q = mm_->arrayShift({}, p, intType(IntKind::Int), 2);
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.error().ub, Ub::OutOfBoundsPtrArith);
}

TEST_F(MemoryModelTest, ArithBelowBaseIsUb)
{
    PointerValue p = allocInt("x");
    auto q = mm_->arrayShift({}, p, intType(IntKind::Int), -1);
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.error().ub, Ub::OutOfBoundsPtrArith);
}

TEST_F(MemoryModelTest, UseAfterFreeIsUbInAbstractSemantics)
{
    auto p = mm_->allocateRegion("malloc", 16, 16);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(mm_->kill({}, true, p.value()).ok());
    auto r = mm_->load({}, intType(IntKind::Int), p.value());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().ub, Ub::AccessDeadAllocation);
}

TEST_F(MemoryModelTest, DoubleFreeIsUb)
{
    auto p = mm_->allocateRegion("malloc", 16, 16);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(mm_->kill({}, true, p.value()).ok());
    auto r = mm_->kill({}, true, p.value());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().ub, Ub::DoubleFree);
}

TEST_F(MemoryModelTest, FreedAddressIsReused)
{
    // Section 3.11: without revocation, a freed address can coincide
    // with a new allocation (provenance stays temporally unique).
    auto p1 = mm_->allocateRegion("malloc", 32, 16);
    ASSERT_TRUE(p1.ok());
    uint64_t a1 = p1.value().address();
    ASSERT_TRUE(mm_->kill({}, true, p1.value()).ok());
    auto p2 = mm_->allocateRegion("malloc", 32, 16);
    ASSERT_TRUE(p2.ok());
    EXPECT_EQ(p2.value().address(), a1);
    EXPECT_NE(p2.value().prov, p1.value().prov);
}

TEST_F(MemoryModelTest, ConstObjectCapabilityLacksStorePermission)
{
    // Section 3.9.
    PointerValue p = allocInt("c", /*ro=*/true);
    EXPECT_FALSE(p.cap->canStore());
    auto r = mm_->store({}, intType(IntKind::Int), p,
                        MemValue(IntegerValue::ofNum(IntKind::Int, 1)));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().ub, Ub::CheriInsufficientPermissions);
}

TEST_F(MemoryModelTest, PointerStoreLoadPreservesCapability)
{
    PointerValue x = allocInt("x");
    storeInt(x, 7);
    TypeRef pp = pointerTo(intType(IntKind::Int));
    auto box = mm_->allocateObject("px", pp, false, false);
    ASSERT_TRUE(box.ok());
    ASSERT_TRUE(mm_->store({}, pp, box.value(), MemValue(x)).ok());
    auto r = mm_->load({}, pp, box.value());
    ASSERT_TRUE(r.ok()) << r.error().str();
    const PointerValue &x2 = r.value().asPointer();
    EXPECT_TRUE(x2.cap->tag());
    EXPECT_TRUE(x2.cap->equalExact(*x.cap));
    EXPECT_EQ(x2.prov, x.prov);
    EXPECT_EQ(loadInt(x2), 7);
}

TEST_F(MemoryModelTest, ByteWriteOverCapabilitySetsGhostTagUnspec)
{
    // The section 3.5 scenario: writing one representation byte of a
    // stored capability makes its tag unspecified (ghost state), and
    // a subsequent access via the loaded capability is
    // UB_CHERI_UndefinedTag.
    PointerValue x = allocInt("x");
    storeInt(x, 0);
    TypeRef pp = pointerTo(intType(IntKind::Int));
    auto box = mm_->allocateObject("px", pp, false, false);
    ASSERT_TRUE(box.ok());
    ASSERT_TRUE(mm_->store({}, pp, box.value(), MemValue(x)).ok());

    // p[0] = p[0] via an unsigned char* view of &px.
    TypeRef uchar = intType(IntKind::UChar);
    PointerValue bytep = PointerValue::object(
        box.value().prov,
        box.value().cap->withBounds(box.value().address(),
                                    box.value().cap->top()));
    auto b = mm_->load({}, uchar, bytep);
    ASSERT_TRUE(b.ok()) << b.error().str();
    ASSERT_TRUE(mm_->store({}, uchar, bytep, b.value()).ok());

    auto r = mm_->load({}, pp, box.value());
    ASSERT_TRUE(r.ok()) << r.error().str();
    const PointerValue &x2 = r.value().asPointer();
    EXPECT_TRUE(x2.cap->ghost().tagUnspec);

    auto acc = mm_->load({}, intType(IntKind::Int), x2);
    ASSERT_FALSE(acc.ok());
    EXPECT_EQ(acc.error().ub, Ub::CheriUndefinedTag);
}

TEST_F(MemoryModelTest, ByteWriteClearsTagInHardwareMode)
{
    config_.ghostState = false;
    config_.checkProvenance = false;
    config_.readUninitIsUb = false;
    mm_ = std::make_unique<MemoryModel>(config_);

    PointerValue x = allocInt("x");
    storeInt(x, 0);
    TypeRef pp = pointerTo(intType(IntKind::Int));
    auto box = mm_->allocateObject("px", pp, false, false);
    ASSERT_TRUE(box.ok());
    ASSERT_TRUE(mm_->store({}, pp, box.value(), MemValue(x)).ok());

    TypeRef uchar = intType(IntKind::UChar);
    ASSERT_TRUE(mm_->store({}, uchar, box.value(),
                           MemValue(IntegerValue::ofNum(IntKind::UChar,
                                                        0)))
                    .ok());
    auto r = mm_->load({}, pp, box.value());
    ASSERT_TRUE(r.ok()) << r.error().str();
    const PointerValue &x2 = r.value().asPointer();
    EXPECT_FALSE(x2.cap->tag());
    EXPECT_FALSE(x2.cap->ghost().any());

    auto acc = mm_->load({}, intType(IntKind::Int), x2);
    ASSERT_FALSE(acc.ok());
    EXPECT_EQ(acc.error().ub, Ub::CheriInvalidCap);
}

TEST_F(MemoryModelTest, AlignedMemcpyPreservesCapability)
{
    // Section 3.5: memcpy is implemented with capability-sized and
    // aligned accesses where possible, preserving tags.
    PointerValue x = allocInt("x");
    storeInt(x, 3);
    TypeRef pp = pointerTo(intType(IntKind::Int));
    auto src = mm_->allocateObject("p0", pp, false, false);
    auto dst = mm_->allocateObject("p1", pp, false, false);
    ASSERT_TRUE(src.ok() && dst.ok());
    ASSERT_TRUE(mm_->store({}, pp, src.value(), MemValue(x)).ok());
    ASSERT_TRUE(mm_->memcpyOp({}, dst.value(), src.value(),
                              mm_->arch().capSize())
                    .ok());
    auto r = mm_->load({}, pp, dst.value());
    ASSERT_TRUE(r.ok()) << r.error().str();
    EXPECT_TRUE(r.value().asPointer().cap->tag());
    EXPECT_EQ(loadInt(r.value().asPointer()), 3);
}

TEST_F(MemoryModelTest, OverlappingMemmovePreservesCapabilities)
{
    // Regression test: the capability-slot metadata transfer must be
    // staged through a temporary exactly like the byte copy, or an
    // overlapping memmove of capability-bearing structs propagates
    // already-overwritten slots.
    unsigned cs = mm_->arch().capSize();
    TypeRef pp = pointerTo(intType(IntKind::Int));
    PointerValue a = allocInt("a");
    PointerValue b = allocInt("b");
    PointerValue c = allocInt("c");
    storeInt(a, 1);
    storeInt(b, 2);
    storeInt(c, 3);

    auto arr = mm_->allocateRegion("arr", 4 * cs, 16);
    ASSERT_TRUE(arr.ok());
    auto slotPtr = [&](unsigned i) {
        PointerValue p = arr.value();
        p.cap = p.cap->withAddress(p.address() + i * cs);
        return p;
    };
    ASSERT_TRUE(mm_->store({}, pp, slotPtr(0), MemValue(a)).ok());
    ASSERT_TRUE(mm_->store({}, pp, slotPtr(1), MemValue(b)).ok());
    ASSERT_TRUE(mm_->store({}, pp, slotPtr(2), MemValue(c)).ok());

    // Forward overlap: arr[1..3] <- arr[0..2].
    ASSERT_TRUE(
        mm_->memmoveOp({}, slotPtr(1), slotPtr(0), 3 * cs).ok());
    int expect_fwd[] = {1, 1, 2, 3};
    for (unsigned i = 0; i < 4; ++i) {
        auto r = mm_->load({}, pp, slotPtr(i));
        ASSERT_TRUE(r.ok()) << "slot " << i << ": "
                            << r.error().str();
        const PointerValue &p = r.value().asPointer();
        ASSERT_TRUE(p.cap->tag()) << "tag lost in slot " << i;
        EXPECT_FALSE(p.cap->ghost().any()) << "slot " << i;
        EXPECT_EQ(loadInt(p), expect_fwd[i]) << "slot " << i;
    }

    // Backward overlap: arr[0..2] <- arr[1..3].
    ASSERT_TRUE(
        mm_->memmoveOp({}, slotPtr(0), slotPtr(1), 3 * cs).ok());
    int expect_bwd[] = {1, 2, 3, 3};
    for (unsigned i = 0; i < 4; ++i) {
        auto r = mm_->load({}, pp, slotPtr(i));
        ASSERT_TRUE(r.ok()) << "slot " << i << ": "
                            << r.error().str();
        const PointerValue &p = r.value().asPointer();
        ASSERT_TRUE(p.cap->tag()) << "tag lost in slot " << i;
        EXPECT_EQ(loadInt(p), expect_bwd[i]) << "slot " << i;
    }
}

TEST_F(MemoryModelTest, MisalignedOverlappingMemmoveGhostsTags)
{
    // An overlapping memmove whose src/dst are not capability-aligned
    // relative to each other must invalidate the destination slots
    // (section 3.5), never carry stale metadata.
    unsigned cs = mm_->arch().capSize();
    TypeRef pp = pointerTo(intType(IntKind::Int));
    PointerValue a = allocInt("a");
    storeInt(a, 1);
    auto arr = mm_->allocateRegion("arr", 4 * cs, 16);
    ASSERT_TRUE(arr.ok());
    PointerValue base = arr.value();
    ASSERT_TRUE(mm_->store({}, pp, base, MemValue(a)).ok());

    PointerValue dst = base;
    dst.cap = base.cap->withAddress(base.address() + 1);
    ASSERT_TRUE(mm_->memmoveOp({}, dst, base, 2 * cs).ok());

    CapMeta meta = mm_->peekCapMeta(base.address());
    EXPECT_TRUE(meta.ghost.tagUnspec || !meta.tag);
}

TEST_F(MemoryModelTest, PartialMemcpyOfCapabilityGhostsTheTag)
{
    PointerValue x = allocInt("x");
    storeInt(x, 3);
    TypeRef pp = pointerTo(intType(IntKind::Int));
    auto src = mm_->allocateObject("p0", pp, false, false);
    auto dst = mm_->allocateObject("p1", pp, false, false);
    ASSERT_TRUE(src.ok() && dst.ok());
    ASSERT_TRUE(mm_->store({}, pp, src.value(), MemValue(x)).ok());
    ASSERT_TRUE(mm_->store({}, pp, dst.value(), MemValue(x)).ok());
    // Copy only half the capability over the destination.
    ASSERT_TRUE(mm_->memcpyOp({}, dst.value(), src.value(),
                              mm_->arch().capSize() / 2)
                    .ok());
    auto r = mm_->load({}, pp, dst.value());
    ASSERT_TRUE(r.ok()) << r.error().str();
    EXPECT_TRUE(r.value().asPointer().cap->ghost().tagUnspec);
}

TEST_F(MemoryModelTest, IntFromPtrExposesAllocation)
{
    PointerValue x = allocInt("x");
    ASSERT_TRUE(x.prov.isAlloc());
    EXPECT_FALSE(mm_->findAllocation(x.prov.id)->exposed);
    auto iv = mm_->intFromPtr({}, IntKind::Uintptr, x);
    ASSERT_TRUE(iv.ok());
    EXPECT_TRUE(mm_->findAllocation(x.prov.id)->exposed);
    EXPECT_TRUE(iv.value().isCap());
    EXPECT_TRUE(iv.value().cap->tag());
}

TEST_F(MemoryModelTest, RoundTripThroughUintptrIsIdentity)
{
    // Sections 3.3/3.4.
    PointerValue x = allocInt("x");
    storeInt(x, 9);
    auto iv = mm_->intFromPtr({}, IntKind::Uintptr, x);
    ASSERT_TRUE(iv.ok());
    auto back = mm_->ptrFromInt({}, iv.value());
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(back.value().cap->equalExact(*x.cap));
    EXPECT_EQ(loadInt(back.value()), 9);
}

TEST_F(MemoryModelTest, PtrFromPureIntIsUntagged)
{
    PointerValue x = allocInt("x");
    auto addr = mm_->intFromPtr({}, IntKind::Ptraddr, x);
    ASSERT_TRUE(addr.ok());
    EXPECT_FALSE(addr.value().isCap());
    IntegerValue iv = IntegerValue::ofNum(
        IntKind::Long, addr.value().num);
    auto p = mm_->ptrFromInt({}, iv);
    ASSERT_TRUE(p.ok());
    // PNVI-ae attaches the provenance (the cast exposed it), but the
    // capability cannot be forged from a pure integer.
    EXPECT_EQ(p.value().prov, x.prov);
    EXPECT_FALSE(p.value().cap->tag());
    auto r = mm_->load({}, intType(IntKind::Int), p.value());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().ub, Ub::CheriInvalidCap);
}

TEST_F(MemoryModelTest, UnexposedAllocationGetsEmptyProvenance)
{
    PointerValue x = allocInt("x");
    IntegerValue iv =
        IntegerValue::ofNum(IntKind::Long,
                            static_cast<__int128>(x.address()));
    auto p = mm_->ptrFromInt({}, iv);
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(p.value().prov.isEmpty());
}

TEST_F(MemoryModelTest, AdjacentExposedAllocationsCreateIota)
{
    // PNVI-ae-udi: one-past of A == base of B (both exposed) makes
    // the provenance of an int-to-pointer cast ambiguous.
    auto a = mm_->allocateRegion("a", 16, 16);
    auto b = mm_->allocateRegion("b", 16, 16);
    ASSERT_TRUE(a.ok() && b.ok());
    uint64_t boundary = 0;
    if (a.value().address() + 16 == b.value().address())
        boundary = b.value().address();
    else if (b.value().address() + 16 == a.value().address())
        boundary = a.value().address();
    ASSERT_NE(boundary, 0u) << "allocator did not place adjacently";

    ASSERT_TRUE(mm_->intFromPtr({}, IntKind::Uintptr, a.value()).ok());
    ASSERT_TRUE(mm_->intFromPtr({}, IntKind::Uintptr, b.value()).ok());
    IntegerValue iv = IntegerValue::ofNum(
        IntKind::Long, static_cast<__int128>(boundary));
    auto p = mm_->ptrFromInt({}, iv);
    ASSERT_TRUE(p.ok());
    EXPECT_TRUE(p.value().prov.isIota());
}

TEST_F(MemoryModelTest, PtrEqIsAddressOnly)
{
    // Section 3.6 option (3).
    PointerValue x = allocInt("x");
    auto iv = mm_->intFromPtr({}, IntKind::Uintptr, x);
    ASSERT_TRUE(iv.ok());
    auto y = mm_->ptrFromInt(
        {}, IntegerValue::ofNum(
                IntKind::Long,
                static_cast<__int128>(x.address())));
    ASSERT_TRUE(y.ok());
    // y is untagged with (now) attached provenance but equal address.
    auto eq = mm_->ptrEq(x, y.value());
    ASSERT_TRUE(eq.ok());
    EXPECT_TRUE(eq.value());
}

TEST_F(MemoryModelTest, PtrDiffDifferentObjectsIsUb)
{
    PointerValue x = allocInt("x");
    PointerValue y = allocInt("y");
    auto d = mm_->ptrDiff({}, intType(IntKind::Int), x, y);
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.error().ub, Ub::PtrDiffDifferentObjects);
}

TEST_F(MemoryModelTest, RelationalDifferentObjectsIsUb)
{
    PointerValue x = allocInt("x");
    PointerValue y = allocInt("y");
    auto r = mm_->ptrRelational({}, RelOp::Lt, x, y);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().ub, Ub::RelationalDifferentObjects);
}

TEST_F(MemoryModelTest, NullDerefIsUb)
{
    auto r = mm_->load({}, intType(IntKind::Int),
                       PointerValue::null(mm_->arch()));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().ub, Ub::NullPointerDeref);
}

TEST_F(MemoryModelTest, MemsetInvalidatesCapabilities)
{
    PointerValue x = allocInt("x");
    TypeRef pp = pointerTo(intType(IntKind::Int));
    auto box = mm_->allocateObject("px", pp, false, false);
    ASSERT_TRUE(box.ok());
    ASSERT_TRUE(mm_->store({}, pp, box.value(), MemValue(x)).ok());
    ASSERT_TRUE(mm_->memsetOp({}, box.value(), 0,
                              mm_->arch().capSize())
                    .ok());
    auto r = mm_->load({}, pp, box.value());
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().asPointer().cap->ghost().tagUnspec);
}

TEST_F(MemoryModelTest, FunctionPointersAreSentries)
{
    PointerValue f = mm_->makeFunctionPointer(3, "f");
    EXPECT_TRUE(f.isFunc());
    EXPECT_TRUE(f.cap->tag());
    EXPECT_TRUE(f.cap->isSentry());
    EXPECT_EQ(mm_->functionAt(f.address()), std::optional<uint32_t>(3));
    // Data access through a function pointer is UB.
    auto r = mm_->load({}, intType(IntKind::Int), f);
    EXPECT_FALSE(r.ok());
}

TEST_F(MemoryModelTest, ReallocPreservesContents)
{
    auto p = mm_->allocateRegion("malloc", 8, 16);
    ASSERT_TRUE(p.ok());
    storeInt(p.value(), 11);
    auto q = mm_->reallocRegion({}, p.value(), 64);
    ASSERT_TRUE(q.ok()) << q.error().str();
    EXPECT_EQ(loadInt(q.value()), 11);
    // Old pointer is now dead.
    auto r = mm_->load({}, intType(IntKind::Int), p.value());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().ub, Ub::AccessDeadAllocation);
}

TEST_F(MemoryModelTest, BoolTrapRepresentation)
{
    // UB012 via _Bool: write 2 as a char, read as _Bool.
    auto p = mm_->allocateObject("b", intType(IntKind::Bool), false,
                                 false);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(mm_->store({}, intType(IntKind::UChar), p.value(),
                           MemValue(IntegerValue::ofNum(IntKind::UChar,
                                                        2)))
                    .ok());
    auto r = mm_->load({}, intType(IntKind::Bool), p.value());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().ub, Ub::LvalueReadTrapRepresentation);
}

TEST_F(MemoryModelTest, CheriotArchWorksToo)
{
    config_.arch = &cap::cheriot();
    config_.globalBase = 0x10000;
    config_.heapBase = 0x100000;
    config_.stackBase = 0x7ffff000;
    config_.codeBase = 0x1000;
    mm_ = std::make_unique<MemoryModel>(config_);
    PointerValue p = allocInt("x");
    EXPECT_EQ(p.cap->arch().capSize(), 8u);
    storeInt(p, 5);
    EXPECT_EQ(loadInt(p), 5);
    TypeRef pp = pointerTo(intType(IntKind::Int));
    auto box = mm_->allocateObject("px", pp, false, false);
    ASSERT_TRUE(box.ok());
    ASSERT_TRUE(mm_->store({}, pp, box.value(), MemValue(p)).ok());
    auto r = mm_->load({}, pp, box.value());
    ASSERT_TRUE(r.ok()) << r.error().str();
    EXPECT_TRUE(r.value().asPointer().cap->tag());
}

TEST_F(MemoryModelTest, KillOfHandleMintedAfterSnapshotReportsItGone)
{
    allocInt("x");
    MemorySnapshotPtr snap = mm_->snapshot();
    PointerValue y = allocInt("y");
    auto heap = mm_->allocateRegion("malloc", 8, 16);
    ASSERT_TRUE(heap.ok());
    mm_->restore(snap);

    // Both handles name allocations the restored table no longer has.
    auto scope_exit = mm_->kill({}, /*dyn=*/false, y);
    ASSERT_FALSE(scope_exit.ok());
    EXPECT_EQ(scope_exit.error().ub, Ub::AccessDeadAllocation);
    EXPECT_EQ(scope_exit.error().message, "allocation no longer exists");
    auto freed = mm_->kill({}, /*dyn=*/true, heap.value());
    ASSERT_FALSE(freed.ok());
    EXPECT_EQ(freed.error().ub, Ub::DoubleFree);
    EXPECT_EQ(freed.error().message, "allocation no longer exists");
}

TEST_F(MemoryModelTest, RestoreRewindsAllocationIds)
{
    PointerValue x = allocInt("x");
    MemorySnapshotPtr snap = mm_->snapshot();
    PointerValue y = allocInt("y");
    allocInt("w");
    mm_->restore(snap);
    EXPECT_EQ(mm_->findAllocation(y.prov.id), nullptr);

    // The next allocation takes the rewound id, and the table names it.
    PointerValue z = allocInt("z");
    EXPECT_EQ(z.prov.id, y.prov.id);
    const Allocation *a = mm_->findAllocation(z.prov.id);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->prefix, "z");
    EXPECT_TRUE(a->alive);
    EXPECT_EQ(a->base, z.address());
    EXPECT_EQ(mm_->findAllocation(z.prov.id + 1), nullptr);
    EXPECT_EQ(mm_->findAllocation(0), nullptr);
    EXPECT_EQ(mm_->findAllocation(x.prov.id)->prefix, "x");
    EXPECT_EQ(mm_->liveAllocationCount(), 2u);
}

TEST_F(MemoryModelTest, LoadOfNullRepresentationIsCanonicalNull)
{
    TypeRef pp = pointerTo(intType(IntKind::Int));
    auto box = mm_->allocateObject("px", pp, false, false);
    ASSERT_TRUE(box.ok());
    Capability null_cap = Capability::null(mm_->arch());

    // A stored null pointer, and all-zero bytes written by memset.
    ASSERT_TRUE(mm_->store({}, pp, box.value(),
                           MemValue(PointerValue::null(mm_->arch())))
                    .ok());
    for (int round = 0; round < 2; ++round) {
        auto r = mm_->load({}, pp, box.value());
        ASSERT_TRUE(r.ok()) << r.error().str();
        const PointerValue &q = r.value().asPointer();
        EXPECT_TRUE(q.isNull());
        EXPECT_TRUE(q.prov.isEmpty());
        ASSERT_TRUE(q.cap);
        EXPECT_TRUE(q.cap->equalExact(null_cap));
        EXPECT_FALSE(q.cap->ghost().any());
        ASSERT_TRUE(mm_->memsetOp({}, box.value(), 0,
                                  mm_->layout().sizeOf(pp))
                        .ok());
    }
}

TEST_F(MemoryModelTest, LoadOfFunctionSentryIsFunctionPointer)
{
    PointerValue f = mm_->makeFunctionPointer(3, "f");
    TypeRef fp = pointerTo(intType(IntKind::Int));
    auto box = mm_->allocateObject("pf", fp, false, false);
    ASSERT_TRUE(box.ok());
    ASSERT_TRUE(mm_->store({}, fp, box.value(), MemValue(f)).ok());
    auto r = mm_->load({}, fp, box.value());
    ASSERT_TRUE(r.ok()) << r.error().str();
    const PointerValue &g = r.value().asPointer();
    EXPECT_EQ(g.kind, PointerValue::Kind::Func);
    EXPECT_EQ(g.funcId, 3u);
    EXPECT_TRUE(g.prov.isEmpty());
    ASSERT_TRUE(g.cap);
    EXPECT_TRUE(g.cap->isSentry());
    EXPECT_TRUE(g.cap->equalExact(*f.cap));
}

} // namespace
} // namespace cherisem::mem
