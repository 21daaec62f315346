/**
 * @file
 * Typed load/store (the paper's load rule, section 4.3), the
 * abst()/repr() value<->representation functions, and the
 * capability-preserving bulk operations (section 3.5).
 *
 * All byte and capability-metadata access goes through the
 * AbstractStore range primitives (mem/store.h); this file owns the
 * *policy* (ghost-state transitions, slot carry rules) and the store
 * owns the mechanics.
 */
#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "mem/memory_model.h"
#include "support/format.h"

namespace cherisem::mem {

using cap::Capability;
using ctype::IntKind;
using ctype::Type;
using ctype::TypeRef;

/** Upper bound on a scalar representation: the widest integer
 *  (uintcap) and the pointer representation are both one capability,
 *  at most 16 bytes on any supported format.  Scalar abst()/repr()
 *  paths stage bytes in stack buffers of this size instead of
 *  heap-allocating a std::vector per access. */
constexpr unsigned kMaxScalarBytes = 16;

// ---------------------------------------------------------------------
// Capability metadata helpers.
// ---------------------------------------------------------------------

void
MemoryModel::writeCapability(uint64_t addr, const Capability &c,
                             const Provenance &prov)
{
    assert(arch().capSize() <= kMaxScalarBytes);
    uint8_t repr[kMaxScalarBytes];
    arch().toBytes(c, repr);
    CapMeta meta{c.tag(), c.ghost()};
    if (pagedStore_)
        pagedStore_->writeCapGranule(addr, repr, prov, meta);
    else
        store_->writeCapGranule(addr, repr, prov, meta);
}

void
MemoryModel::invalidateCapMeta(uint64_t addr, uint64_t n)
{
    // Section 3.5: a non-capability write marks previously set tags
    // *unspecified* in ghost state (so optimisations that remove the
    // write stay sound); the hardware view deterministically clears.
    uint64_t touched =
        store_->invalidateCapRange(addr, n, config_.ghostState);
    if (config_.ghostState)
        stats_.ghostTagInvalidations += touched;
    else
        stats_.hardTagInvalidations += touched;
    // Witness the transition only when some stored capability was
    // actually affected — a representation write over plain data is
    // not an observable capability effect.
    if (touched > 0 && tracer_.enabled()) {
        tracer_.emit({.kind = config_.ghostState
                          ? obs::EventKind::GhostMark
                          : obs::EventKind::TagClear,
                      .addr = addr,
                      .size = n,
                      .a = touched,
                      .label = "repr-write"});
    }
}

void
MemoryModel::copyBytesAndMeta(uint64_t d, uint64_t s, uint64_t n)
{
    // Capability metadata: a destination slot receives the source
    // slot's tag/ghost only if it is fully covered by the copy and
    // the copy is capability-aligned; any partially covered slot is
    // invalidated like a representation write (section 3.5).
    //
    // Every source-slot read is staged *before* any write so the
    // routine is correct for overlapping ranges (memmove) — the same
    // discipline copyRange applies to the abstract bytes.
    unsigned cs = arch().capSize();
    struct SlotPlan
    {
        uint64_t slot;
        bool carry;
        std::optional<CapMeta> meta; // staged source meta when carried
        uint64_t lo, hi;             // partial coverage to invalidate
    };
    std::vector<SlotPlan> plan;
    uint64_t first = d / cs * cs;
    for (uint64_t slot = first; slot < d + n; slot += cs) {
        bool fully = slot >= d && slot + cs <= d + n;
        bool aligned_pair = ((slot - d + s) % cs) == 0;
        if (fully && aligned_pair) {
            plan.push_back({slot, true,
                            store_->capMetaAt(slot - d + s), 0, 0});
        } else {
            uint64_t lo = std::max(slot, d);
            uint64_t hi = std::min(slot + cs, d + n);
            plan.push_back({slot, false, std::nullopt, lo, hi});
        }
    }

    // Copy the abstract bytes verbatim (provenance and pointer
    // indices travel with them); copyRange is overlap-safe.
    store_->copyRange(d, s, n);

    for (const SlotPlan &sp : plan) {
        if (sp.carry) {
            if (sp.meta)
                store_->setCapMeta(sp.slot, *sp.meta);
            else
                store_->eraseCapMeta(sp.slot);
        } else if (sp.lo < sp.hi) {
            invalidateCapMeta(sp.lo, sp.hi - sp.lo);
        }
    }
}

// ---------------------------------------------------------------------
// repr(): value -> representation.
// ---------------------------------------------------------------------

MemResult<Unit>
MemoryModel::reprValue(const SourceLoc &loc, uint64_t addr, const TypeRef &ty,
                       const MemValue &v)
{
    uint64_t n = layout_.sizeOf(ty);

    if (v.isUnspec()) {
        store_->clearRange(addr, n);
        invalidateCapMeta(addr, n);
        return Unit{};
    }

    switch (ty->kind) {
      case Type::Kind::Integer: {
        if (!v.isInteger())
            return Failure::internal("repr: integer expected", loc);
        const IntegerValue &iv = v.asInteger();
        if (ty->isCapInteger()) {
            if (!iv.isCap())
                return Failure::internal("repr: capability integer "
                                         "without capability", loc);
            if (addr % arch().capSize() != 0) {
                // Can only happen with alignment checks off: the
                // representation is stored, the tag cannot be.
                uint8_t repr[kMaxScalarBytes];
                arch().toBytes(*iv.cap, repr);
                AbsByte bs[kMaxScalarBytes];
                for (uint64_t i = 0; i < n; ++i) {
                    bs[i] = AbsByte{iv.prov, repr[i],
                                    static_cast<uint32_t>(i)};
                }
                store_->writeBytes(addr, bs, n);
                invalidateCapMeta(addr, n);
                return Unit{};
            }
            writeCapability(addr, *iv.cap, iv.prov);
            return Unit{};
        }
        uint128 raw = static_cast<uint128>(iv.value());
        if (n == 1 && iv.byteCopy &&
            iv.byteCopy.value() == static_cast<uint8_t>(raw)) {
            // Byte-wise copy of (possibly) capability representation
            // bytes: write the original abstract byte back verbatim,
            // preserving provenance and pointer index so a later
            // pointer-typed load can recognise the copy (PNVI /
            // section 3.5).
            store_->writeByte(addr, *iv.byteCopy);
            invalidateCapMeta(addr, 1);
            return Unit{};
        }
        assert(n <= kMaxScalarBytes);
        AbsByte bs[kMaxScalarBytes];
        for (uint64_t i = 0; i < n; ++i) {
            bs[i] = AbsByte{Provenance::empty(),
                            static_cast<uint8_t>(raw >> (8 * i)),
                            std::nullopt};
        }
        store_->writeBytes(addr, bs, n);
        invalidateCapMeta(addr, n);
        return Unit{};
      }

      case Type::Kind::Floating: {
        if (!v.isFloating())
            return Failure::internal("repr: float expected", loc);
        double d = v.asFloating().value;
        uint8_t buf[8];
        uint64_t m = n;
        if (ty->floatKind == ctype::FloatKind::Float) {
            float f = static_cast<float>(d);
            std::memcpy(buf, &f, 4);
        } else {
            std::memcpy(buf, &d, 8);
        }
        AbsByte bs[8];
        for (uint64_t i = 0; i < m; ++i)
            bs[i] = AbsByte{Provenance::empty(), buf[i], std::nullopt};
        store_->writeBytes(addr, bs, m);
        invalidateCapMeta(addr, n);
        return Unit{};
      }

      case Type::Kind::Pointer: {
        if (!v.isPointer())
            return Failure::internal("repr: pointer expected", loc);
        const PointerValue &pv = v.asPointer();
        assert(pv.cap.has_value());
        if (addr % arch().capSize() != 0) {
            uint8_t repr[kMaxScalarBytes];
            arch().toBytes(*pv.cap, repr);
            AbsByte bs[kMaxScalarBytes];
            for (uint64_t i = 0; i < n; ++i) {
                bs[i] = AbsByte{pv.prov, repr[i],
                                static_cast<uint32_t>(i)};
            }
            store_->writeBytes(addr, bs, n);
            invalidateCapMeta(addr, n);
            return Unit{};
        }
        writeCapability(addr, *pv.cap, pv.prov);
        return Unit{};
      }

      case Type::Kind::Array: {
        const auto *av = std::get_if<ArrayValue>(&v.v);
        if (!av)
            return Failure::internal("repr: array expected", loc);
        uint64_t esize = layout_.sizeOf(ty->element);
        for (uint64_t i = 0; i < ty->arraySize; ++i) {
            if (i < av->elems.size()) {
                CHERISEM_TRYV(reprValue(loc, addr + i * esize,
                                        ty->element, av->elems[i]));
            } else {
                CHERISEM_TRYV(reprValue(loc, addr + i * esize,
                                        ty->element, MemValue()));
            }
        }
        return Unit{};
      }

      case Type::Kind::StructOrUnion: {
        const ctype::TagDef &def = layout_.tags()->get(ty->tag);
        if (def.isUnion) {
            const auto *uv = std::get_if<UnionValue>(&v.v);
            if (!uv)
                return Failure::internal("repr: union expected", loc);
            uint64_t m = std::min<uint64_t>(n, uv->bytes.size());
            if (m > 0)
                store_->writeBytes(addr, uv->bytes.data(), m);
            invalidateCapMeta(addr, n);
            // Re-deposit capability metadata for aligned slots.
            for (const auto &[off, meta] : uv->metas) {
                if ((addr + off) % arch().capSize() == 0)
                    store_->setCapMeta(addr + off, meta);
            }
            return Unit{};
        }
        const auto *sv = std::get_if<StructValue>(&v.v);
        if (!sv)
            return Failure::internal("repr: struct expected", loc);
        for (const auto &[name, mv] : sv->members) {
            ctype::FieldLoc fl = layout_.fieldOf(ty->tag, name);
            if (!fl.found)
                return Failure::internal("repr: no member " + name,
                                         loc);
            CHERISEM_TRYV(reprValue(loc, addr + fl.offset, *fl.type,
                                    mv));
        }
        return Unit{};
      }

      default:
        return Failure::internal("repr: cannot represent type", loc);
    }
}

// ---------------------------------------------------------------------
// abst(): representation -> value.
// ---------------------------------------------------------------------

bool
MemoryModel::stageBytes(uint64_t addr, uint64_t n, AbsByte *out)
{
    store_->readBytes(addr, n, out);
    bool all_present = true;
    for (uint64_t i = 0; i < n; ++i) {
        if (!out[i].value)
            all_present = false;
    }
    if (!all_present && !config_.readUninitIsUb) {
        // Hardware view: memory always holds *some* byte; model it as
        // zero so concrete profiles read deterministically.
        for (uint64_t i = 0; i < n; ++i) {
            if (!out[i].value)
                out[i].value = 0;
        }
        return true;
    }
    return all_present;
}

std::optional<Capability>
MemoryModel::abstCap(uint64_t addr, uint64_t n, Provenance &prov)
{
    assert(n <= kMaxScalarBytes);
    uint8_t raw[kMaxScalarBytes];
    bool aligned = addr % arch().capSize() == 0;
    // A whole granule (what writeCapability stores) comes back as one
    // record; anything else is staged byte by byte.
    bool prov_ok = aligned && n == arch().capSize() &&
        (pagedStore_ ? pagedStore_->readCapGranule(addr, raw, prov)
                     : store_->readCapGranule(addr, raw, prov));
    if (!prov_ok) {
        AbsByte bs[kMaxScalarBytes];
        if (!stageBytes(addr, n, bs))
            return std::nullopt;
        prov = bs[0].prov;
        prov_ok = true;
        for (uint64_t i = 0; i < n; ++i) {
            raw[i] = *bs[i].value;
            if (!(bs[i].prov == prov) || !bs[i].index ||
                *bs[i].index != i) {
                prov_ok = false;
            }
        }
    }
    std::optional<CapMeta> meta_opt =
        aligned ? store_->capMetaAt(addr) : std::nullopt;
    CapMeta meta = meta_opt.value_or(CapMeta{});
    cap::GhostState ghost = aligned ? meta.ghost : cap::GhostState{};
    if (config_.ghostState && prov_ok && !prov.isEmpty() && aligned &&
        !meta_opt) {
        // The bytes are a verbatim copy of some capability's
        // representation made with non-capability stores: an optimiser
        // may turn that copy into a tag-preserving one (section 3.5),
        // so the tag is unspecified.
        ghost.tagUnspec = true;
    }
    if (!prov_ok)
        prov = Provenance::empty();
    return arch().fromBytes(raw, aligned && meta.tag).withGhost(ghost);
}

MemResult<MemValue>
MemoryModel::abstValue(const SourceLoc &loc, uint64_t addr, const TypeRef &ty)
{
    uint64_t n = layout_.sizeOf(ty);

    switch (ty->kind) {
      case Type::Kind::Integer: {
        assert(n <= kMaxScalarBytes);
        if (ty->isCapInteger()) {
            Provenance prov;
            std::optional<Capability> c = abstCap(addr, n, prov);
            if (!c) {
                return Failure::undefined(Ub::ReadUninitialized, loc,
                                          "at " + hexStr(addr));
            }
            return MemValue(IntegerValue::ofCap(ty->intKind, *c, prov));
        }
        AbsByte bs[kMaxScalarBytes];
        if (!stageBytes(addr, n, bs)) {
            return Failure::undefined(Ub::ReadUninitialized, loc,
                                      "at " + hexStr(addr));
        }

        // The load rule's expose step (2f): reading pointer bytes at
        // a non-pointer integer type taints/exposes their
        // allocations.
        if (config_.checkProvenance) {
            for (uint64_t i = 0; i < n; ++i)
                exposeByteProvenance(bs[i]);
        }

        uint128 raw = 0;
        for (uint64_t i = 0; i < n; ++i)
            raw |= uint128(*bs[i].value) << (8 * i);
        __int128 num = static_cast<__int128>(raw);
        unsigned bits = static_cast<unsigned>(n) * 8;
        if (ctype::isSignedIntKind(ty->intKind) && bits < 128 &&
            ((raw >> (bits - 1)) & 1)) {
            num -= static_cast<__int128>(uint128(1) << bits);
        }
        if (ty->intKind == IntKind::Bool && raw > 1) {
            // The ISO trap-representation UB the paper lists
            // (UB012): _Bool has trap representations.
            return Failure::undefined(
                Ub::LvalueReadTrapRepresentation, loc);
        }
        IntegerValue out = IntegerValue::ofNum(ty->intKind, num);
        if (n == 1)
            out.byteCopy = bs[0];
        return MemValue(out);
      }

      case Type::Kind::Floating: {
        assert(n <= 8);
        AbsByte bs[8];
        if (!stageBytes(addr, n, bs)) {
            return Failure::undefined(Ub::ReadUninitialized, loc,
                                      "at " + hexStr(addr));
        }
        uint8_t buf[8] = {};
        for (uint64_t i = 0; i < n && i < 8; ++i)
            buf[i] = *bs[i].value;
        FloatingValue fv;
        fv.kind = ty->floatKind;
        if (ty->floatKind == ctype::FloatKind::Float) {
            float f;
            std::memcpy(&f, buf, 4);
            fv.value = f;
        } else {
            std::memcpy(&fv.value, buf, 8);
        }
        return MemValue(fv);
      }

      case Type::Kind::Pointer: {
        Provenance prov;
        std::optional<Capability> c = abstCap(addr, n, prov);
        if (!c) {
            return Failure::undefined(Ub::ReadUninitialized, loc,
                                      "at " + hexStr(addr));
        }
        if (!c->tag() && !c->ghost().any() && c->address() == 0 &&
            prov.isEmpty()) {
            return MemValue(PointerValue::null(arch()));
        }
        // isSentry() first: an otype compare; functionAt() is a map find.
        if (c->isSentry()) {
            if (std::optional<uint32_t> func = functionAt(c->address()))
                return MemValue(PointerValue::function(*func, *c));
        }
        return MemValue(PointerValue::object(prov, *c));
      }

      case Type::Kind::Array: {
        ArrayValue av;
        av.element = ty->element;
        uint64_t esize = layout_.sizeOf(ty->element);
        av.elems.reserve(ty->arraySize);
        for (uint64_t i = 0; i < ty->arraySize; ++i) {
            CHERISEM_TRY(ev,
                         abstValue(loc, addr + i * esize, ty->element));
            av.elems.push_back(std::move(ev));
        }
        return MemValue(std::move(av));
      }

      case Type::Kind::StructOrUnion: {
        const ctype::TagDef &def = layout_.tags()->get(ty->tag);
        if (def.isUnion) {
            UnionValue uv;
            uv.tag = ty->tag;
            std::vector<AbsByte> bs(n);
            stageBytes(addr, n, bs.data());
            uv.bytes = std::move(bs);
            unsigned cs = arch().capSize();
            for (uint64_t off = 0; off + cs <= n; off += cs) {
                if ((addr + off) % cs == 0) {
                    if (std::optional<CapMeta> m =
                            store_->capMetaAt(addr + off)) {
                        uv.metas.emplace_back(off, *m);
                    }
                }
            }
            return MemValue(std::move(uv));
        }
        StructValue sv;
        sv.tag = ty->tag;
        for (const ctype::Member &m : def.members) {
            ctype::FieldLoc fl = layout_.fieldOf(ty->tag, m.name);
            CHERISEM_TRY(mv, abstValue(loc, addr + fl.offset, *fl.type));
            sv.members.emplace_back(m.name, std::move(mv));
        }
        return MemValue(std::move(sv));
      }

      default:
        return Failure::internal("abst: cannot load type", loc);
    }
}

// ---------------------------------------------------------------------
// Typed load/store.
// ---------------------------------------------------------------------

/** Pack the capability metadata at @p addr (if the footprint holds a
 *  whole, aligned slot) for the Load/Store event payload:
 *  bit0 = slot metadata present, bit1 = tag, bits 2-3 = ghost.  An
 *  uncounted read: tracing must not move MemStats. */
uint64_t
MemoryModel::packedCapMeta(uint64_t addr, uint64_t n) const
{
    unsigned cs = arch().capSize();
    if (addr % cs != 0 || n < cs)
        return 0;
    std::optional<CapMeta> meta = store_->peekCapMeta(addr);
    if (!meta)
        return 0;
    return 1u | (meta->tag ? 2u : 0u) |
        (meta->ghost.tagUnspec ? 4u : 0u) |
        (meta->ghost.boundsUnspec ? 8u : 0u);
}

MemResult<MemValue>
MemoryModel::slowLoad(const SourceLoc &loc, const TypeRef &ty,
                      const PointerValue &p, uint64_t n, unsigned align)
{
    CHERISEM_TRY(info,
                 accessCheck(loc, p, n, align, /*want_store=*/false));
    ++stats_.loads;
    if (tracer_.enabled()) {
        tracer_.emit({.kind = obs::EventKind::Load,
                      .addr = p.address(),
                      .size = n,
                      .a = info.haveAlloc ? info.alloc : 0,
                      .b = packedCapMeta(p.address(), n)});
    }
    return abstValue(loc, p.address(), ty);
}

MemResult<Unit>
MemoryModel::slowStore(const SourceLoc &loc, const TypeRef &ty,
                       const PointerValue &p, const MemValue &v,
                       bool initializing, uint64_t n, unsigned align)
{
    CHERISEM_TRY(info,
                 accessCheck(loc, p, n, align, /*want_store=*/true,
                             initializing));
    ++stats_.stores;
    CHERISEM_TRYV(reprValue(loc, p.address(), ty, v));
    // Witness after the write so the packed metadata reflects the
    // stored value (tag deposited or invalidated per section 3.5).
    if (tracer_.enabled()) {
        tracer_.emit({.kind = obs::EventKind::Store,
                      .addr = p.address(),
                      .size = n,
                      .a = info.haveAlloc ? info.alloc : 0,
                      .b = packedCapMeta(p.address(), n)});
    }
    return Unit{};
}

// ---------------------------------------------------------------------
// Bulk operations.
// ---------------------------------------------------------------------

MemResult<Unit>
MemoryModel::memcpyOp(const SourceLoc &loc, const PointerValue &dst,
                      const PointerValue &src, uint64_t n)
{
    if (n == 0)
        return Unit{};
    CHERISEM_TRYV(accessCheck(loc, src, n, 1, false));
    CHERISEM_TRYV(accessCheck(loc, dst, n, 1, true));
    uint64_t s = src.address();
    uint64_t d = dst.address();
    if ((s < d && s + n > d) || (d < s && d + n > s) || s == d) {
        if (s == d)
            return Unit{}; // Degenerate self-copy: nothing to do.
        return Failure::undefined(Ub::MemcpyOverlap, loc);
    }
    copyBytesAndMeta(d, s, n);
    return Unit{};
}

MemResult<Unit>
MemoryModel::memmoveOp(const SourceLoc &loc, const PointerValue &dst,
                       const PointerValue &src, uint64_t n)
{
    if (n == 0)
        return Unit{};
    CHERISEM_TRYV(accessCheck(loc, src, n, 1, false));
    CHERISEM_TRYV(accessCheck(loc, dst, n, 1, true));
    uint64_t s = src.address();
    uint64_t d = dst.address();
    if (s == d)
        return Unit{};
    // Overlap is fine: copyBytesAndMeta stages all source state
    // (bytes and capability metadata) before writing.
    copyBytesAndMeta(d, s, n);
    return Unit{};
}

MemResult<IntegerValue>
MemoryModel::memcmpOp(const SourceLoc &loc, const PointerValue &a,
                      const PointerValue &b, uint64_t n)
{
    CHERISEM_TRYV(accessCheck(loc, a, n, 1, false));
    CHERISEM_TRYV(accessCheck(loc, b, n, 1, false));
    std::vector<AbsByte> ba(n), bb(n);
    store_->readBytes(a.address(), n, ba.data());
    store_->readBytes(b.address(), n, bb.data());
    for (uint64_t i = 0; i < n; ++i) {
        bool ua = !ba[i].value;
        bool ub_ = !bb[i].value;
        if (ua || ub_) {
            if (config_.readUninitIsUb) {
                return Failure::undefined(Ub::ReadUninitialized, loc,
                                          "memcmp of uninitialized "
                                          "bytes");
            }
            continue; // Hardware view: garbage compares as equal-ish.
        }
        uint8_t x = *ba[i].value;
        uint8_t y = *bb[i].value;
        if (x != y) {
            return IntegerValue::ofNum(IntKind::Int,
                                       x < y ? -1 : 1);
        }
    }
    return IntegerValue::ofNum(IntKind::Int, 0);
}

MemResult<Unit>
MemoryModel::memsetOp(const SourceLoc &loc, const PointerValue &dst,
                      uint8_t byte, uint64_t n, bool initializing)
{
    if (n == 0)
        return Unit{};
    CHERISEM_TRYV(accessCheck(loc, dst, n, 1, true, initializing));
    uint64_t d = dst.address();
    store_->fillRange(d, n,
                      AbsByte{Provenance::empty(), byte, std::nullopt});
    invalidateCapMeta(d, n);
    return Unit{};
}

} // namespace cherisem::mem
