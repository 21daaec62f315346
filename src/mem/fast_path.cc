/**
 * @file
 * The fast-path scalar pipeline: MemoryModel::load()/store() live
 * here as thin dispatchers that run fastGuard() and, for clean scalar
 * accesses, serve the access inline against the AbstractStore
 * readScalarClean/writeScalarClean range primitives.  Anything the
 * guard cannot prove falls back to slowLoad()/slowStore() — the full
 * UB/provenance rules in load_store.cc.
 *
 * fastGuard() checks exactly the conjunction of accessCheck()'s
 * success conditions — every individual check is the same predicate
 * accessCheck() tests, so a passing guard proves the slow path could
 * not have failed, and the shortcut can only skip work, never change
 * an outcome:
 *
 *  - tracing off        => no Load/Store/Expose/GhostMark events are
 *                          owed, so eliding their emission points is
 *                          unobservable;
 *  - clean bytes        => the PNVI expose step (load rule 2f) is a
 *                          no-op, and abst() reconstructs the value
 *                          from the raw bytes alone;
 *  - allocation prov    => resolveForAccess() cannot create or
 *                          resolve an iota, so skipping it leaves the
 *                          iota table untouched.
 *
 * In hardware mode (checkProvenance off) resolveForAccess() scans for
 * *some* live allocation containing the footprint; live allocations
 * never overlap, so when the pointer's own allocation is live and
 * contains the footprint it is the unique allocation that scan would
 * find — the guard's readOnly decision matches the slow path's.
 *
 * Counter discipline: the fast path bumps exactly the counters the
 * slow path would (loads/stores, one range read or write of n bytes,
 * the tag-invalidation tallies), so MemStats are bit-identical
 * whichever path served an access — the differential and soak suites
 * rely on this.
 */
#include <cstring>
#include <utility>

#include "mem/memory_model.h"
#include "support/format.h"

namespace cherisem::mem {

using ctype::IntKind;
using ctype::Type;
using ctype::TypeRef;

const Allocation *
MemoryModel::cachedAlloc(AllocId id) const
{
    if (id == fastAllocId_ && fastAlloc_)
        return fastAlloc_;
    auto it = allocations_.find(id);
    if (it == allocations_.end())
        return nullptr;
    // Node pointers into allocations_ are stable: entries are only
    // ever inserted (kill() flips `alive` in place).
    fastAllocId_ = id;
    fastAlloc_ = &it->second;
    return fastAlloc_;
}

const Allocation *
MemoryModel::fastGuard(const PointerValue &p, uint64_t n, unsigned align,
                       bool want_store)
{
    // Trace identity: any enabled tracer owes events the fast path
    // does not emit, so traced runs always take the slow path.
    if (tracer_.enabled())
        return nullptr;
    if (!p.isObject() || !p.cap)
        return nullptr;
    const cap::Capability &c = *p.cap;
    if (c.ghost().tagUnspec || c.ghost().boundsUnspec)
        return nullptr;
    if (!c.tag() || c.isSealed())
        return nullptr;
    if (want_store ? !c.canStore() : !c.canLoad())
        return nullptr;
    uint64_t addr = c.address();
    if (!c.inBounds(addr, n))
        return nullptr;
    if (config_.checkAlignment && align > 1 && (addr % align) != 0)
        return nullptr;
    // Concrete allocation provenance only: empty provenance is UB and
    // iotas need the full disambiguation machinery.
    if (!p.prov.isAlloc())
        return nullptr;
    const Allocation *a = cachedAlloc(p.prov.id);
    if (!a || !a->alive || !a->containsFootprint(addr, n))
        return nullptr;
    // Fast stores are never initializing stores, so read-only objects
    // always go slow (where `initializing` may permit the write).
    if (want_store && a->readOnly)
        return nullptr;
    return a;
}

MemResult<MemValue>
MemoryModel::load(const SourceLoc &loc, const TypeRef &ty, const PointerValue &p)
{
    uint64_t n = layout_.sizeOf(ty);
    if (!ty->isScalar())
        return slowLoad(loc, ty, p, n, 1);
    unsigned align = layout_.alignOf(ty);
    if (!fastGuard(p, n, align, /*want_store=*/false))
        return slowLoad(loc, ty, p, n, align);
    uint64_t addr = p.cap->address();
    ++stats_.loads;

    switch (ty->kind) {
      case Type::Kind::Integer: {
        if (ty->isCapInteger()) {
            // Capability-typed integer: the guard replaced
            // accessCheck; abst() does the slot reconstruction.
            return abstValue(loc, addr, ty);
        }
        uint8_t buf[16];
        if (n > sizeof(buf) ||
            !(pagedStore_
                  ? pagedStore_->readScalarClean(
                        addr, static_cast<unsigned>(n), buf)
                  : store_->readScalarClean(
                        addr, static_cast<unsigned>(n), buf))) {
            // Uninitialised or heavy bytes: full abst() (which also
            // performs the expose step those bytes require).
            return abstValue(loc, addr, ty);
        }
        __int128 num;
        if (n <= 8) {
            // 64-bit assembly and sign-extension; widening to 128 bits
            // afterwards is a single sign extension.
            uint64_t raw64 = 0;
            for (uint64_t i = 0; i < n; ++i)
                raw64 |= uint64_t(buf[i]) << (8 * i);
            unsigned shift = 64 - static_cast<unsigned>(n) * 8;
            if (ctype::isSignedIntKind(ty->intKind)) {
                num = static_cast<int64_t>(raw64 << shift) >>
                    shift;
            } else {
                num = raw64;
            }
            if (ty->intKind == IntKind::Bool && raw64 > 1) {
                return Failure::undefined(
                    Ub::LvalueReadTrapRepresentation, loc);
            }
        } else {
            uint128 raw = 0;
            for (uint64_t i = 0; i < n; ++i)
                raw |= uint128(buf[i]) << (8 * i);
            num = static_cast<__int128>(raw);
            unsigned bits = static_cast<unsigned>(n) * 8;
            if (ctype::isSignedIntKind(ty->intKind) && bits < 128 &&
                ((raw >> (bits - 1)) & 1)) {
                num -= static_cast<__int128>(uint128(1) << bits);
            }
        }
        IntegerValue out = IntegerValue::ofNum(ty->intKind, num);
        if (n == 1) {
            // Clean byte: what abst() would have recorded.
            out.byteCopy =
                AbsByte{Provenance::empty(), buf[0], std::nullopt};
        }
        return MemResult<MemValue>(
            std::in_place, std::in_place_type<IntegerValue>,
            std::move(out));
      }

      case Type::Kind::Floating: {
        uint8_t buf[8];
        if (n > sizeof(buf) ||
            !(pagedStore_
                  ? pagedStore_->readScalarClean(
                        addr, static_cast<unsigned>(n), buf)
                  : store_->readScalarClean(
                        addr, static_cast<unsigned>(n), buf))) {
            return abstValue(loc, addr, ty);
        }
        FloatingValue fv;
        fv.kind = ty->floatKind;
        if (ty->floatKind == ctype::FloatKind::Float) {
            float f;
            std::memcpy(&f, buf, 4);
            fv.value = f;
        } else {
            std::memcpy(&fv.value, buf, 8);
        }
        return MemResult<MemValue>(
            std::in_place, std::in_place_type<FloatingValue>, fv);
      }

      default:
        // Pointer loads need the slot-metadata + provenance
        // reconstruction, which abst() serves from the store's
        // whole-granule record when there is one (readCapGranule);
        // the guard still spares accessCheck.
        return abstValue(loc, addr, ty);
    }
}

MemResult<Unit>
MemoryModel::store(const SourceLoc &loc, const TypeRef &ty,
                   const PointerValue &p, const MemValue &v,
                   bool initializing)
{
    uint64_t n = layout_.sizeOf(ty);
    if (!ty->isScalar())
        return slowStore(loc, ty, p, v, initializing, n, 1);
    unsigned align = layout_.alignOf(ty);

    // Serialise the value into clean bytes first; anything that repr()
    // would not store as plain clean bytes falls back.
    uint8_t buf[16];
    switch (ty->kind) {
      case Type::Kind::Integer: {
        if (ty->isCapInteger() || !v.isInteger() || n > sizeof(buf))
            return slowStore(loc, ty, p, v, initializing, n, align);
        const IntegerValue &iv = v.asInteger();
        uint128 raw = static_cast<uint128>(iv.value());
        if (n == 1 && iv.byteCopy &&
            iv.byteCopy.value() == static_cast<uint8_t>(raw) &&
            (!iv.byteCopy.prov().isEmpty() || iv.byteCopy.index())) {
            // repr() writes the original heavy byte back verbatim
            // (capability-representation copy); must go slow.
            return slowStore(loc, ty, p, v, initializing, n, align);
        }
        if (n <= 8) {
            uint64_t raw64 = static_cast<uint64_t>(raw);
            for (uint64_t i = 0; i < n; ++i)
                buf[i] = static_cast<uint8_t>(raw64 >> (8 * i));
        } else {
            for (uint64_t i = 0; i < n; ++i)
                buf[i] = static_cast<uint8_t>(raw >> (8 * i));
        }
        break;
      }
      case Type::Kind::Floating: {
        if (!v.isFloating() || n > 8)
            return slowStore(loc, ty, p, v, initializing, n, align);
        double d = v.asFloating().value;
        if (ty->floatKind == ctype::FloatKind::Float) {
            float f = static_cast<float>(d);
            std::memcpy(buf, &f, 4);
        } else {
            std::memcpy(buf, &d, 8);
        }
        break;
      }
      default:
        // Pointer stores deposit capability metadata: slow path.
        return slowStore(loc, ty, p, v, initializing, n, align);
    }

    if (!fastGuard(p, n, align, /*want_store=*/true))
        return slowStore(loc, ty, p, v, initializing, n, align);

    ++stats_.stores;
    uint64_t touched =
        pagedStore_ ? pagedStore_->writeScalarClean(
                          p.cap->address(), buf,
                          static_cast<unsigned>(n), config_.ghostState)
                    : store_->writeScalarClean(
                          p.cap->address(), buf,
                          static_cast<unsigned>(n), config_.ghostState);
    if (config_.ghostState)
        stats_.ghostTagInvalidations += touched;
    else
        stats_.hardTagInvalidations += touched;
    return Unit{};
}

} // namespace cherisem::mem
