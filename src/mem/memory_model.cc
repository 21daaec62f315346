#include "mem/memory_model.h"

#include <algorithm>
#include <cassert>

#include "support/format.h"

namespace cherisem::mem {

using cap::Capability;
using cap::Perm;
using cap::PermSet;
using ctype::TypeRef;

MemoryModel::MemoryModel(Config config)
    : config_(std::move(config)),
      tracer_(config_.traceSink),
      layout_(ctype::MachineLayout{config_.arch->capSize(),
                                   config_.arch->addrBits() / 8},
              &emptyTags_),
      store_(makeStore(config_.storeBackend, config_.arch->capSize())),
      globalPtr_(config_.globalBase),
      stackPtr_(config_.stackBase),
      codePtr_(config_.codeBase)
{
    if (config_.storeBackend == StoreBackend::Paged)
        pagedStore_ = static_cast<PagedStore *>(store_.get());

    // Segment limits.  Every layout in use places the heap below the
    // (downward-growing) stack; give the stack a fixed reserve and
    // end the heap arena there, clamped to the address space, so the
    // two can never carve overlapping footprints (the allocator
    // refuses, malloc returns NULL, and new stack objects past the
    // floor are a constraint failure).
    constexpr uint64_t kStackReserve = uint64_t(1) << 24; // 16 MiB
    uint64_t top = config_.arch->addrMask() == ~uint64_t(0)
                       ? ~uint64_t(0)
                       : config_.arch->addrMask() + 1;
    uint64_t heapLimit = config_.heapLimit;
    if (heapLimit == 0) {
        uint64_t floor = config_.stackBase > kStackReserve
                             ? config_.stackBase - kStackReserve
                             : config_.stackBase;
        heapLimit = std::min(floor, top);
        if (heapLimit <= config_.heapBase)
            heapLimit = top; // unusual layout: heap above the stack
    }
    stackFloor_ = std::max(
        heapLimit <= config_.stackBase ? heapLimit : 0,
        config_.stackBase > kStackReserve
            ? config_.stackBase - kStackReserve
            : 0);
    heap_ = makeHeapAllocator(config_.heapAllocator, config_.heapBase,
                              heapLimit, arch());

    if (config_.revoke.enabled()) {
        // Swept footprints come back through the release callback so
        // the quarantine, not kill(), decides when an address range
        // becomes reusable: a quarantined footprint is in no free
        // list (first-fit or slab) until the sweep releases it.
        revoker_ = std::make_unique<revoke::RevocationEngine>(
            config_.revoke, *store_, arch(), tracer_,
            &stats_.hardTagInvalidations,
            [this](uint64_t base, uint64_t size) {
                heap_->release(base, std::max<uint64_t>(size, 1));
            });
    }
}

void
MemoryModel::setTagTable(const ctype::TagTable *tags)
{
    layout_ = ctype::LayoutEngine(layout_.machine(),
                                  tags ? tags : &emptyTags_);
}

// ---------------------------------------------------------------------
// Snapshot / restore.
// ---------------------------------------------------------------------

MemorySnapshotPtr
MemoryModel::snapshot() const
{
    auto snap = std::make_shared<MemorySnapshot>();
    snap->store = store_->snapshot();
    snap->allocations = allocations_;
    snap->iotas = iotas_;
    if (revoker_)
        snap->revoke = revoker_->capture();
    snap->globalPtr = globalPtr_;
    snap->stackPtr = stackPtr_;
    snap->codePtr = codePtr_;
    snap->heap = heap_->snapshot();
    snap->functionsByAddr = functionsByAddr_;
    snap->stats = stats_;
    return snap;
}

void
MemoryModel::restore(const MemorySnapshotPtr &snap)
{
    assert(snap);
    store_->restore(snap->store);
    allocations_ = snap->allocations;
    iotas_ = snap->iotas;
    if (revoker_ && snap->revoke)
        revoker_->restoreFrom(*snap->revoke);
    globalPtr_ = snap->globalPtr;
    stackPtr_ = snap->stackPtr;
    codePtr_ = snap->codePtr;
    heap_->restore(snap->heap);
    functionsByAddr_ = snap->functionsByAddr;
    stats_ = snap->stats;
}

uint64_t
MemoryModel::alignUp(uint64_t v, uint64_t a) const
{
    return (v + a - 1) / a * a;
}

// ---------------------------------------------------------------------
// Allocation.
// ---------------------------------------------------------------------

MemResult<PointerValue>
MemoryModel::allocate(const std::string &prefix, uint64_t size,
                      unsigned align, AllocKind kind, bool read_only,
                      bool is_static)
{
    const cap::CapArch &a = arch();
    // Representability padding (section 3.2, last paragraph): the
    // allocator aligns and pads so the allocation's capability has
    // exact, non-overlapping bounds.
    uint64_t cap_len = std::max<uint64_t>(size, 1);
    uint64_t repr_len = a.representableLength(cap_len);
    uint64_t repr_mask = a.representableAlignmentMask(cap_len);
    // CRRL saturates (or truncates to 0) when no single region can
    // hold the request; without this check the allocator would carve
    // overlapping footprints out of the address space.
    if (repr_len < cap_len) {
        return Failure::constraint(
            "allocation of " + std::to_string(size) +
            " bytes exceeds the representable address space");
    }
    uint64_t eff_align = std::max<uint64_t>(align, 1);
    if (repr_mask != ~uint64_t(0))
        eff_align = std::max<uint64_t>(eff_align, ~repr_mask + 1);

    uint64_t base = 0;
    switch (kind) {
      case AllocKind::Object:
        if (is_static) {
            base = alignUp(globalPtr_, eff_align);
            globalPtr_ = base + repr_len;
        } else {
            // Stack grows down.  Refuse descent past the stack floor
            // (or an address-space wrap): a wrapped stack pointer
            // would carve footprints overlapping live heap or global
            // allocations.
            if (repr_len > stackPtr_)
                return Failure::constraint(
                    "stack overflow: " + std::to_string(size) +
                    " byte object wraps the address space");
            uint64_t next = stackPtr_ - repr_len;
            next &= ~(eff_align - 1);
            if (next < stackFloor_)
                return Failure::constraint(
                    "stack overflow: " + std::to_string(size) +
                    " byte object crosses the stack floor");
            stackPtr_ = next;
            base = next;
        }
        break;
      case AllocKind::Region: {
        // Placement is the active HeapAllocator policy's job —
        // first-fit free list or sizeclass slabs (heap_alloc.h); the
        // free lists are what let freed-and-reallocated heap
        // addresses coincide (section 3.11).  An exhausted arena
        // reports failure the way C malloc does: a null pointer, not
        // a footprint carved past the arena limit whose encoded
        // bounds would overlap a live neighbour.
        std::optional<uint64_t> placed =
            heap_->allocate(size, eff_align, repr_len);
        if (!placed)
            return PointerValue::null(a);
        base = *placed;
        break;
      }
      case AllocKind::Code:
        base = alignUp(codePtr_, std::max<uint64_t>(eff_align, 16));
        codePtr_ = base + std::max<uint64_t>(repr_len, 16);
        break;
    }

    Allocation &alloc = allocations_.emplace_back();
    AllocId id = allocations_.size();
    alloc.base = base;
    alloc.size = size;
    alloc.align = static_cast<unsigned>(eff_align);
    alloc.kind = kind;
    alloc.prefix = prefix;
    alloc.readOnly = read_only;
    ++stats_.allocations;
    if (tracer_.enabled()) {
        tracer_.emit({.kind = obs::EventKind::Alloc,
                      .addr = base,
                      .size = size,
                      .a = id,
                      .b = static_cast<uint64_t>(kind),
                      .label = prefix});
    }

    PermSet perms =
        read_only ? PermSet::readOnlyData() : PermSet::data();
    if (kind == AllocKind::Code)
        perms = PermSet::code();
    Capability c = Capability::make(a, base, uint128(base) + size,
                                    perms);
    return PointerValue::object(Provenance::alloc(id), c);
}

MemResult<PointerValue>
MemoryModel::allocateObject(const std::string &prefix, const TypeRef &ty,
                            bool read_only, bool is_static)
{
    uint64_t size = layout_.sizeOf(ty);
    unsigned align = layout_.alignOf(ty);
    return allocate(prefix, size, align, AllocKind::Object, read_only,
                    is_static);
}

MemResult<PointerValue>
MemoryModel::allocateRegion(const std::string &prefix, uint64_t size,
                            unsigned align)
{
    return allocate(prefix, size,
                    std::max(align, arch().capSize()),
                    AllocKind::Region, false, false);
}

MemResult<Unit>
MemoryModel::kill(const SourceLoc &loc, bool dyn, const PointerValue &p)
{
    if (p.isNull()) {
        if (dyn)
            return Unit{}; // free(NULL) is a no-op.
        return Failure::internal("kill of null pointer", loc);
    }
    if (!p.isObject())
        return Failure::undefined(Ub::FreeInvalidPointer, loc,
                                  "not an object pointer");

    std::optional<AllocId> id = peekProvenance(p.prov);
    if (!id) {
        // No provenance: with PNVI checks this free is UB; hardware
        // allocators would typically abort too.
        return Failure::undefined(Ub::FreeInvalidPointer, loc,
                                  "pointer has no provenance");
    }
    Allocation *found = allocAt(*id);
    if (!found) {
        // restore() rewinds the allocation table; a handle minted
        // after the snapshot then names no entry at all.  Observably
        // that allocation no longer exists, so report the same
        // verdict the dead-allocation branch below would.
        return Failure::undefined(dyn ? Ub::DoubleFree
                                      : Ub::AccessDeadAllocation,
                                  loc, "allocation no longer exists");
    }
    Allocation &alloc = *found;
    if (!alloc.alive) {
        return Failure::undefined(dyn ? Ub::DoubleFree
                                      : Ub::AccessDeadAllocation,
                                  loc, alloc.prefix);
    }
    if (dyn) {
        if (alloc.kind != AllocKind::Region)
            return Failure::undefined(Ub::FreeInvalidPointer, loc,
                                      "not a heap allocation");
        if (p.address() != alloc.base)
            return Failure::undefined(Ub::FreeInvalidPointer, loc,
                                      "not the start of the "
                                      "allocation");
        if (p.cap && !p.cap->tag())
            return Failure::undefined(Ub::CheriInvalidCap, loc,
                                      "free via untagged capability");
        if (revoker_) {
            // The engine quarantines the footprint (Eager flushes it
            // straight away) and releases it to the allocator once
            // swept; a quarantined footprint is never handed out by
            // allocate() because it is not on the free list.
            revoker_->onFree(alloc.base, alloc.size, *id);
        } else {
            heap_->release(alloc.base,
                           std::max<uint64_t>(alloc.size, 1));
        }
    }
    alloc.alive = false;
    ++stats_.kills;
    if (tracer_.enabled()) {
        tracer_.emit({.kind = obs::EventKind::Free,
                      .addr = alloc.base,
                      .size = alloc.size,
                      .a = *id,
                      .b = dyn ? 1u : 0u,
                      .label = alloc.prefix});
    }
    return Unit{};
}

MemResult<PointerValue>
MemoryModel::reallocRegion(const SourceLoc &loc, const PointerValue &p,
                           uint64_t new_size)
{
    // realloc(NULL, n) is malloc(n); witness it as a Realloc (old
    // base/size 0) so every successful realloc path emits the same
    // event sequence ending in Realloc.
    if (p.isNull()) {
        CHERISEM_TRY(np, allocateRegion("realloc", new_size,
                                        arch().capSize()));
        if (np.isNull()) // arena exhausted: no region, no events
            return np;
        if (tracer_.enabled()) {
            tracer_.emit({.kind = obs::EventKind::Realloc,
                          .addr = 0,
                          .size = new_size,
                          .a = 0,
                          .b = np.address()});
        }
        return np;
    }

    std::optional<AllocId> id = peekProvenance(p.prov);
    if (!id)
        return Failure::undefined(Ub::FreeInvalidPointer, loc,
                                  "realloc of unprovenanced pointer");
    // See kill(): restore() can drop post-snapshot allocations from
    // the table, and a stale handle behaves like a dead one.
    // Validate the old pointer fully *before* allocating the new
    // region: kill() would re-check all of this, but only after the
    // new allocation and the copy had already happened — leaking the
    // new region (and its Alloc/Load/Store trace events) on every UB
    // path.
    const Allocation *old = allocAt(*id);
    if (!old || !old->alive)
        return Failure::undefined(Ub::DoubleFree, loc, "realloc");
    if (old->kind != AllocKind::Region)
        return Failure::undefined(Ub::FreeInvalidPointer, loc,
                                  "not a heap allocation");
    if (p.address() != old->base)
        return Failure::undefined(Ub::FreeInvalidPointer, loc,
                                  "not the start of the allocation");
    if (p.cap && !p.cap->tag())
        return Failure::undefined(Ub::CheriInvalidCap, loc,
                                  "realloc via untagged capability");
    // Copied: the allocation below invalidates `old`.
    uint64_t old_size = old->size;
    uint64_t old_base = old->base;

    CHERISEM_TRY(np, allocateRegion("realloc", new_size,
                                    arch().capSize()));
    // Arena exhausted: per C semantics the old block stays live and
    // untouched, and the failed realloc is witnessed by no events.
    if (np.isNull())
        return np;
    uint64_t n = std::min(old_size, new_size);
    if (n > 0) {
        MemResult<Unit> copied = memcpyOp(loc, np, p, n);
        if (!copied.ok()) {
            // The old capability can still fail the copy (e.g. its
            // Load permission was dropped).  Release the new region
            // so the failed realloc does not leak a live allocation
            // with an unmatched Alloc event, then report the copy's
            // failure.
            MemResult<Unit> freed = kill(loc, true, np);
            assert(freed.ok());
            (void)freed;
            return std::move(copied).error();
        }
    }
    CHERISEM_TRYV(kill(loc, true, p));
    if (tracer_.enabled()) {
        tracer_.emit({.kind = obs::EventKind::Realloc,
                      .addr = old_base,
                      .size = new_size,
                      .a = old_size,
                      .b = np.address()});
    }
    return np;
}

// ---------------------------------------------------------------------
// Provenance machinery (PNVI-ae-udi).
// ---------------------------------------------------------------------

void
MemoryModel::exposeAllocation(AllocId id)
{
    Allocation *alloc = allocAt(id);
    if (!alloc)
        return;
    // Witness only the false->true transition so the event stream
    // stays independent of how often an already-exposed allocation is
    // re-exposed.
    if (!alloc->exposed && tracer_.enabled()) {
        tracer_.emit({.kind = obs::EventKind::Expose,
                      .addr = alloc->base,
                      .size = alloc->size,
                      .a = id,
                      .label = alloc->prefix});
    }
    alloc->exposed = true;
}

void
MemoryModel::exposeByteProvenance(const AbsByte &b)
{
    if (b.prov.isAlloc()) {
        exposeAllocation(b.prov.id);
    } else if (b.prov.isIota()) {
        auto [first, second] = iotas_.candidates(b.prov.id);
        exposeAllocation(first);
        if (second)
            exposeAllocation(*second);
    }
}

Provenance
MemoryModel::attachProvenance(uint64_t a)
{
    // PNVI-ae-udi: an int-to-pointer cast picks up the provenance of
    // an *exposed*, live allocation whose footprint (including
    // one-past) contains the address.  Two matches (the one-past /
    // first-byte boundary) produce a symbolic iota.
    AllocId found[2];
    int nfound = 0;
    for (size_t i = 0; i < allocations_.size(); ++i) {
        const Allocation &alloc = allocations_[i];
        if (!alloc.alive || !alloc.exposed)
            continue;
        if (alloc.containsForArith(a)) {
            if (nfound < 2)
                found[nfound] = i + 1;
            ++nfound;
        }
    }
    Provenance prov = Provenance::empty();
    if (nfound == 1) {
        prov = Provenance::alloc(found[0]);
    } else if (nfound == 2) {
        ++stats_.iotasCreated;
        prov = Provenance::iota(iotas_.create(found[0], found[1]));
    }
    if (tracer_.enabled()) {
        tracer_.emit({.kind = obs::EventKind::Attach,
                      .addr = a,
                      .a = static_cast<uint64_t>(prov.kind),
                      .b = prov.isEmpty() ? 0 : prov.id});
    }
    return prov;
}

std::optional<AllocId>
MemoryModel::peekProvenance(const Provenance &p) const
{
    if (p.isAlloc())
        return p.id;
    if (p.isIota() && iotas_.isResolved(p.id))
        return iotas_.candidates(p.id).first;
    return std::nullopt;
}

MemResult<MemoryModel::AccessInfo>
MemoryModel::resolveForAccess(const SourceLoc &loc, const Provenance &prov,
                              uint64_t addr, uint64_t n)
{
    AccessInfo info;
    if (!config_.checkProvenance) {
        // Hardware view: no abstract provenance; capability checks
        // were already done.  Still try to find the allocation for
        // diagnostics without failing.  Live allocations never
        // overlap, so when the pointer's own allocation is live and
        // contains the footprint it is the one the scan would find.
        if (prov.isAlloc()) {
            const Allocation *own = allocAt(prov.id);
            if (own && own->alive && own->containsFootprint(addr, n)) {
                info.alloc = prov.id;
                info.haveAlloc = true;
                return info;
            }
        }
        for (size_t i = 0; i < allocations_.size(); ++i) {
            const Allocation &alloc = allocations_[i];
            if (alloc.alive && alloc.containsFootprint(addr, n)) {
                info.alloc = i + 1;
                info.haveAlloc = true;
                break;
            }
        }
        return info;
    }

    AllocId id;
    if (prov.isEmpty()) {
        return Failure::undefined(Ub::AccessEmptyProvenance, loc,
                                  "address " + hexStr(addr));
    } else if (prov.isAlloc()) {
        id = prov.id;
    } else {
        // Iota: the access disambiguates (udi).
        auto [first, second] = iotas_.candidates(prov.id);
        if (!second) {
            id = first;
        } else {
            // Disambiguate by footprint containment alone.  Liveness
            // must NOT enter the choice: a dead candidate that
            // contains the footprint is the object this access is
            // *to* (the section 3.11 boundary-cast cases), and the
            // shared liveness check below then raises the precise
            // AccessDeadAllocation — not a silent resolution to the
            // surviving neighbour, nor a generic bounds failure.
            const Allocation *a1 = allocAt(first);
            const Allocation *a2 = allocAt(*second);
            if (!a1 || !a2)
                return Failure::internal("unknown allocation", loc);
            bool in1 = a1->containsFootprint(addr, n);
            bool in2 = a2->containsFootprint(addr, n);
            if (in1 && in2) {
                return Failure::undefined(
                    Ub::AccessOutOfBounds, loc,
                    "ambiguous iota resolution");
            }
            if (!in1 && !in2) {
                return Failure::undefined(
                    Ub::AccessOutOfBounds, loc,
                    "address " + hexStr(addr) +
                        " in neither iota candidate");
            }
            id = in1 ? first : *second;
            iotas_.resolve(prov.id, id);
        }
    }

    const Allocation *alloc = allocAt(id);
    if (!alloc)
        return Failure::internal("unknown allocation", loc);
    if (!alloc->alive) {
        return Failure::undefined(Ub::AccessDeadAllocation, loc,
                                  alloc->prefix);
    }
    if (!alloc->containsFootprint(addr, n)) {
        return Failure::undefined(
            Ub::AccessOutOfBounds, loc,
            alloc->prefix + ": " + hexStr(addr) + "+" +
                std::to_string(n) + " outside [" + hexStr(alloc->base) +
                "," + hexStr(alloc->base + alloc->size) + ")");
    }
    info.alloc = id;
    info.haveAlloc = true;
    return info;
}

MemResult<MemoryModel::AccessInfo>
MemoryModel::accessCheck(const SourceLoc &loc, const PointerValue &p,
                         uint64_t n, unsigned align_req, bool want_store,
                         bool initializing)
{
    // Order follows the paper's load rule (section 4.3): null check,
    // then the capability bounds_check (ghost tag known, tag set,
    // permission, bounds), then the PNVI allocation checks.
    if (p.isNull())
        return Failure::undefined(Ub::NullPointerDeref, loc);
    if (p.isFunc())
        return Failure::undefined(Ub::AccessOutOfBounds, loc,
                                  "data access via function pointer");
    assert(p.cap.has_value());
    const Capability &c = *p.cap;

    if (c.ghost().tagUnspec || c.ghost().boundsUnspec) {
        return Failure::undefined(Ub::CheriUndefinedTag, loc,
                                  "capability ghost state is "
                                  "unspecified");
    }
    if (!c.tag())
        return Failure::undefined(Ub::CheriInvalidCap, loc);
    if (c.isSealed())
        return Failure::undefined(Ub::CheriSealViolation, loc);
    if (want_store ? !c.canStore() : !c.canLoad()) {
        return Failure::undefined(Ub::CheriInsufficientPermissions, loc,
                                  want_store ? "missing Store"
                                             : "missing Load");
    }
    if (!c.inBounds(c.address(), n)) {
        return Failure::undefined(
            Ub::CheriBoundsViolation, loc,
            hexStr(c.address()) + "+" + std::to_string(n) +
                " outside [" + hexStr(c.base()) + "," +
                hexStr(c.top()) + ")");
    }
    if (config_.checkAlignment && align_req > 1 &&
        (c.address() % align_req) != 0) {
        return Failure::undefined(Ub::MisalignedAccess, loc,
                                  hexStr(c.address()) + " % " +
                                      std::to_string(align_req));
    }

    CHERISEM_TRY(info,
                 resolveForAccess(loc, p.prov, c.address(), n));
    if (want_store && !initializing && info.haveAlloc) {
        const Allocation &alloc = *allocAt(info.alloc);
        if (alloc.readOnly)
            return Failure::undefined(Ub::ModifyingConstObject, loc,
                                      alloc.prefix);
    }
    return info;
}

// ---------------------------------------------------------------------
// Pointer operations.
// ---------------------------------------------------------------------

MemResult<PointerValue>
MemoryModel::arrayShift(const SourceLoc &loc, const PointerValue &p,
                        const TypeRef &elem, __int128 idx)
{
    if (p.isFunc())
        return Failure::undefined(Ub::OutOfBoundsPtrArith, loc,
                                  "arithmetic on function pointer");
    uint64_t esize = layout_.sizeOf(elem);
    __int128 delta = idx * static_cast<__int128>(esize);

    if (p.isNull()) {
        if (delta == 0)
            return p;
        return Failure::undefined(Ub::OutOfBoundsPtrArith, loc,
                                  "arithmetic on null pointer");
    }

    const Capability &c = *p.cap;
    uint64_t new_addr =
        static_cast<uint64_t>(static_cast<__int128>(c.address()) +
                              delta);

    // The strict ISO rule (section 3.2, option (a)): the result must
    // stay within [base, one-past] of the provenance allocation.
    if (config_.strictPtrArith && config_.checkProvenance) {
        std::optional<AllocId> id = peekProvenance(p.prov);
        if (id) {
            const Allocation *alloc = allocAt(*id);
            if (!alloc)
                return Failure::internal("unknown allocation", loc);
            if (!alloc->containsForArith(new_addr)) {
                return Failure::undefined(
                    Ub::OutOfBoundsPtrArith, loc,
                    alloc->prefix + ": " + hexStr(new_addr) +
                        " outside [" + hexStr(alloc->base) + "," +
                        hexStr(alloc->base + alloc->size) + "]");
            }
        }
    }

    // Hardware address update (may clear the tag on
    // non-representability).
    Capability nc = c.withAddress(new_addr);
    PointerValue out = p;
    out.cap = nc;
    return out;
}

PointerValue
MemoryModel::memberShift(const PointerValue &p, ctype::TagId tag,
                         uint32_t index) const
{
    ctype::FieldLoc fl = layout_.fieldAt(tag, index);
    if (p.isNull()) {
        // offsetof-style computation on null: produce a null-derived
        // pointer at the offset (used by the offsetof builtin).
        PointerValue out = p;
        out.kind = PointerValue::Kind::Object;
        out.cap = p.cap->withAddress(fl.offset);
        return out;
    }
    PointerValue out = p;
    uint64_t member_addr = p.cap->address() + fl.offset;
    if (config_.subobjectBounds && p.cap->tag() &&
        !p.cap->isSealed()) {
        // Opt-in stricter mode (section 3.8): narrow the capability
        // to exactly the member's footprint.
        uint64_t msize = layout_.sizeOf(*fl.type);
        out.cap = p.cap->withAddress(member_addr)
                      .withBounds(member_addr,
                                  uint128(member_addr) + msize);
        return out;
    }
    out.cap = p.cap->withAddress(member_addr);
    return out;
}

MemResult<bool>
MemoryModel::ptrEq(const PointerValue &a, const PointerValue &b)
{
    // Section 3.6, option (3): equality of address fields only.
    return a.address() == b.address();
}

MemResult<bool>
MemoryModel::ptrRelational(const SourceLoc &loc, RelOp op,
                           const PointerValue &a, const PointerValue &b)
{
    if (config_.checkProvenance) {
        std::optional<AllocId> ia = peekProvenance(a.prov);
        std::optional<AllocId> ib = peekProvenance(b.prov);
        if (!a.isNull() && !b.isNull() && (!ia || !ib || *ia != *ib)) {
            return Failure::undefined(Ub::RelationalDifferentObjects,
                                      loc);
        }
    }
    uint64_t x = a.address();
    uint64_t y = b.address();
    switch (op) {
      case RelOp::Lt: return x < y;
      case RelOp::Gt: return x > y;
      case RelOp::Le: return x <= y;
      case RelOp::Ge: return x >= y;
    }
    return false;
}

MemResult<IntegerValue>
MemoryModel::ptrDiff(const SourceLoc &loc, const TypeRef &elem,
                     const PointerValue &a, const PointerValue &b)
{
    if (config_.checkProvenance) {
        std::optional<AllocId> ia = peekProvenance(a.prov);
        std::optional<AllocId> ib = peekProvenance(b.prov);
        if (!ia || !ib || *ia != *ib)
            return Failure::undefined(Ub::PtrDiffDifferentObjects, loc);
    }
    __int128 diff = static_cast<__int128>(a.address()) -
        static_cast<__int128>(b.address());
    uint64_t esize = layout_.sizeOf(elem);
    return IntegerValue::ofNum(ctype::IntKind::Long,
                               diff / static_cast<__int128>(esize));
}

bool
MemoryModel::validForDeref(const PointerValue &p, uint64_t size) const
{
    if (!p.isObject() || !p.cap)
        return false;
    const Capability &c = *p.cap;
    return c.tag() && !c.ghost().any() && !c.isSealed() &&
        c.inBounds(c.address(), size);
}

// ---------------------------------------------------------------------
// Pointer/integer conversions.
// ---------------------------------------------------------------------

MemResult<IntegerValue>
MemoryModel::intFromPtr(const SourceLoc &loc, ctype::IntKind dst,
                        const PointerValue &p)
{
    (void)loc;
    // PNVI-ae: the cast exposes the allocation's address.
    if (config_.checkProvenance) {
        if (p.prov.isAlloc()) {
            exposeAllocation(p.prov.id);
        } else if (p.prov.isIota()) {
            auto [first, second] = iotas_.candidates(p.prov.id);
            exposeAllocation(first);
            if (second)
                exposeAllocation(*second);
        }
    }

    if (dst == ctype::IntKind::Intptr || dst == ctype::IntKind::Uintptr) {
        // The whole capability is the integer value (section 3.3).
        return IntegerValue::ofCap(dst, *p.cap, p.prov);
    }

    // Narrowing to a plain integer: the address value, truncated to
    // the destination's width (implementation-defined, not UB).
    uint64_t a = p.address();
    unsigned bits = layout_.intValueBytes(dst) * 8;
    __int128 v = a;
    if (bits < 128) {
        uint128 mask = (uint128(1) << bits) - 1;
        v = static_cast<__int128>(uint128(a) & mask);
        if (ctype::isSignedIntKind(dst) &&
            (uint128(v) >> (bits - 1)) != 0) {
            v -= static_cast<__int128>(uint128(1) << bits);
        }
    }
    return IntegerValue::ofNum(dst, v);
}

MemResult<PointerValue>
MemoryModel::ptrFromInt(const SourceLoc &loc, const IntegerValue &iv)
{
    (void)loc;
    const cap::CapArch &a = arch();
    if (iv.isCap()) {
        // (u)intptr_t -> pointer: a capability no-op (sections 3.3,
        // 3.4); ghost state travels with the value.
        const Capability &c = *iv.cap;
        if (!c.tag() && !c.ghost().any() && c.address() == 0 &&
            iv.prov.isEmpty()) {
            return PointerValue::null(a);
        }
        // isSentry() first: an otype compare; functionAt() is a map find.
        if (c.isSentry()) {
            if (std::optional<uint32_t> func = functionAt(c.address()))
                return PointerValue::function(*func, c);
        }
        return PointerValue::object(iv.prov, c);
    }

    uint64_t addr = static_cast<uint64_t>(iv.num) & a.addrMask();
    if (addr == 0)
        return PointerValue::null(a);
    // A pure integer can never materialise a valid capability: the
    // result is a null-derived, untagged capability.  PNVI-ae-udi
    // still attaches abstract provenance from exposed allocations.
    Capability c = Capability::null(a).withAddress(addr);
    Provenance prov = config_.checkProvenance ? attachProvenance(addr)
                                              : Provenance::empty();
    return PointerValue::object(prov, c);
}

// ---------------------------------------------------------------------
// Function pointers.
// ---------------------------------------------------------------------

PointerValue
MemoryModel::makeFunctionPointer(uint32_t func_id,
                                 const std::string &name)
{
    for (const auto &[addr, id] : functionsByAddr_) {
        if (id == func_id) {
            auto it = std::find_if(
                allocations_.begin(), allocations_.end(),
                [&](const Allocation &alloc) {
                    return alloc.kind == AllocKind::Code &&
                        alloc.base == addr;
                });
            assert(it != allocations_.end());
            Capability c = Capability::make(
                arch(), addr, uint128(addr) + it->size,
                PermSet::code());
            return PointerValue::function(
                func_id, c.sealed(cap::OTYPE_SENTRY));
        }
    }
    MemResult<PointerValue> p =
        allocate(name, 16, 16, AllocKind::Code, true, true);
    assert(p.ok());
    uint64_t addr = p.value().address();
    functionsByAddr_[addr] = func_id;
    Capability c = p.value().cap->sealed(cap::OTYPE_SENTRY);
    return PointerValue::function(func_id, c);
}

std::optional<uint32_t>
MemoryModel::functionAt(uint64_t addr) const
{
    auto it = functionsByAddr_.find(addr);
    if (it == functionsByAddr_.end())
        return std::nullopt;
    return it->second;
}

// ---------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------

std::optional<uint8_t>
MemoryModel::peekByte(uint64_t addr) const
{
    AbsByte b;
    store_->readBytes(addr, 1, &b);
    return b.value;
}

CapMeta
MemoryModel::peekCapMeta(uint64_t addr) const
{
    uint64_t slot = addr / arch().capSize() * arch().capSize();
    return store_->peekCapMeta(slot).value_or(CapMeta{});
}

size_t
MemoryModel::liveAllocationCount() const
{
    return std::count_if(allocations_.begin(), allocations_.end(),
                         [](const Allocation &a) { return a.alive; });
}

} // namespace cherisem::mem
