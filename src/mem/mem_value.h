/**
 * @file
 * Abstract memory values (the Cerberus "mem_value" universe).
 *
 * The key CHERI C twist (section 4.3):
 *
 *     integer_value  =  Z  (+)  (signedness x Capability)
 *
 * i.e. values of (u)intptr_t are full capabilities (with a PNVI
 * provenance alongside), so pointer -> (u)intptr_t -> pointer round
 * trips preserve every capability field (sections 3.3, 3.4).
 */
#ifndef CHERISEM_MEM_MEM_VALUE_H
#define CHERISEM_MEM_MEM_VALUE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "cap/capability.h"
#include "ctype/ctype.h"
#include "mem/provenance.h"
#include "support/boxed.h"

namespace cherisem::mem {

using cap::Capability;

/** One byte of abstract memory (the paper's AbsByte): provenance, an
 *  optional byte value (absent = uninitialised), and an optional index
 *  within a stored capability representation (for pointer-copy
 *  detection, PNVI). */
struct AbsByte
{
    Provenance prov;
    std::optional<uint8_t> value;
    std::optional<uint32_t> index;
};

/** Per-capability-slot out-of-band metadata (the C dictionary of the
 *  memory state): the tag plus the two-bit ghost state. */
struct CapMeta
{
    bool tag = false;
    cap::GhostState ghost;
};

/**
 * IntegerValue::byteCopy: an optional AbsByte packed into 24 bytes
 * (the provenance, then the byte value and the pointer index with
 * their presence bits), against 40 for std::optional<AbsByte>.
 */
class PackedByte
{
  public:
    PackedByte &
    operator=(const AbsByte &b)
    {
        prov_ = b.prov;
        value_ = b.value.value_or(0);
        index_ = b.index.value_or(0);
        flags_ = kEngaged | (b.value ? kHasValue : 0) |
            (b.index ? kHasIndex : 0);
        return *this;
    }

    explicit operator bool() const { return flags_ & kEngaged; }
    const Provenance &prov() const { return prov_; }
    std::optional<uint8_t>
    value() const
    {
        if (flags_ & kHasValue)
            return value_;
        return std::nullopt;
    }
    std::optional<uint32_t>
    index() const
    {
        if (flags_ & kHasIndex)
            return index_;
        return std::nullopt;
    }
    /** The byte, unpacked (only meaningful when engaged). */
    AbsByte operator*() const { return AbsByte{prov_, value(), index()}; }

  private:
    static constexpr uint8_t kEngaged = 1;
    static constexpr uint8_t kHasValue = 2;
    static constexpr uint8_t kHasIndex = 4;

    Provenance prov_;
    uint32_t index_ = 0;
    uint8_t value_ = 0;
    uint8_t flags_ = 0;
};

/**
 * An integer value: either a pure mathematical integer, or — for the
 * capability-carrying (u)intptr_t types — a capability plus
 * provenance.
 *
 * Only (u)intptr_t values carry a capability, so it lives out of
 * line (Boxed): an ordinary integer is the number, a null box, the
 * provenance and the packed byte-copy record — a fraction of the
 * capability's own size.
 */
struct IntegerValue
{
    /** Numeric value when this is a pure integer. */
    __int128 num = 0;
    /** Engaged exactly when kind is Intptr/Uintptr. */
    Boxed<Capability> cap;
    /** PNVI provenance (meaningful for capability values). */
    Provenance prov;
    /**
     * When a character-typed load produced this value, the original
     * abstract byte (provenance + pointer index).  A store of the
     * unmodified value writes it back verbatim, which is what lets
     * user-written byte-copy loops move capability representations
     * (and lets the ghost-state rule of section 3.5 recognise the
     * copy).  Any arithmetic drops it.
     */
    PackedByte byteCopy;
    ctype::IntKind kind = ctype::IntKind::Int;

    bool isCap() const { return cap.has_value(); }

    /** The arithmetic value: the capability's address, or num. */
    __int128
    value() const
    {
        if (!cap)
            return num;
        __int128 a = static_cast<__int128>(cap->address());
        if (kind == ctype::IntKind::Intptr) {
            // intptr_t: interpret the address as signed.
            unsigned bits = cap->arch().addrBits();
            __int128 sign = __int128(1) << (bits - 1);
            if (a & sign)
                a -= (__int128(1) << bits);
        }
        return a;
    }

    static IntegerValue
    ofNum(ctype::IntKind k, __int128 v)
    {
        IntegerValue iv;
        iv.kind = k;
        iv.num = v;
        return iv;
    }
    static IntegerValue
    ofCap(ctype::IntKind k, Capability c, Provenance p)
    {
        IntegerValue iv;
        iv.kind = k;
        iv.cap = std::move(c);
        iv.prov = p;
        return iv;
    }
};

/** A pointer value: provenance plus a capability (or null / function
 *  designator, both of which still carry a capability view). */
struct PointerValue
{
    enum class Kind { Null, Func, Object };

    Kind kind = Kind::Null;
    Provenance prov;
    std::optional<Capability> cap;
    /** Function index for Kind::Func. */
    uint32_t funcId = 0;

    bool isNull() const { return kind == Kind::Null; }
    bool isFunc() const { return kind == Kind::Func; }
    bool isObject() const { return kind == Kind::Object; }

    uint64_t address() const { return cap ? cap->address() : 0; }

    static PointerValue
    null(const cap::CapArch &arch)
    {
        PointerValue p;
        p.kind = Kind::Null;
        p.cap = Capability::null(arch);
        return p;
    }
    static PointerValue
    object(Provenance prov, Capability c)
    {
        PointerValue p;
        p.kind = Kind::Object;
        p.prov = prov;
        p.cap = std::move(c);
        return p;
    }
    static PointerValue
    function(uint32_t id, Capability c)
    {
        PointerValue p;
        p.kind = Kind::Func;
        p.funcId = id;
        p.cap = std::move(c);
        return p;
    }
};

struct MemValue;

/** Unspecified value of a given type (uninitialised reads etc.). */
struct UnspecValue
{
    ctype::TypeRef type;
};

struct FloatingValue
{
    ctype::FloatKind kind = ctype::FloatKind::Double;
    double value = 0;
};

struct ArrayValue
{
    ctype::TypeRef element;
    std::vector<MemValue> elems;
};

struct StructValue
{
    ctype::TagId tag = 0;
    std::vector<std::pair<std::string, MemValue>> members;
};

/**
 * Whole-union values are kept as their raw representation — abstract
 * bytes plus capability-slot metadata — so that copying a union
 * preserves any capability stored through a member (the type-punning
 * guarantee of section 3.4).  Loads/stores through members use the
 * member type directly and never build a UnionValue.
 */
struct UnionValue
{
    ctype::TagId tag = 0;
    /** Raw bytes, indexed from the union's start. */
    std::vector<AbsByte> bytes;
    /** Capability metadata for each capSize-aligned slot fully inside
     *  the union, keyed by byte offset. */
    std::vector<std::pair<uint64_t, CapMeta>> metas;
};

/** The Cerberus-style abstract memory value. */
struct MemValue
{
    std::variant<UnspecValue, IntegerValue, FloatingValue, PointerValue,
                 ArrayValue, StructValue, UnionValue>
        v;

    MemValue() : v(UnspecValue{}) {}
    /** In-place alternative construction (hot paths: skips the
     *  intermediate alternative object and its variant move). */
    template <typename T, typename... Args>
    explicit MemValue(std::in_place_type_t<T> t, Args &&...args)
        : v(t, std::forward<Args>(args)...)
    {}
    MemValue(IntegerValue iv) : v(std::move(iv)) {}
    MemValue(FloatingValue fv) : v(std::move(fv)) {}
    MemValue(PointerValue pv) : v(std::move(pv)) {}
    MemValue(ArrayValue av) : v(std::move(av)) {}
    MemValue(StructValue sv) : v(std::move(sv)) {}
    MemValue(UnionValue uv) : v(std::move(uv)) {}
    MemValue(UnspecValue uv) : v(std::move(uv)) {}

    bool isUnspec() const { return std::holds_alternative<UnspecValue>(v); }
    bool isInteger() const
    {
        return std::holds_alternative<IntegerValue>(v);
    }
    bool isPointer() const
    {
        return std::holds_alternative<PointerValue>(v);
    }
    bool isFloating() const
    {
        return std::holds_alternative<FloatingValue>(v);
    }

    const IntegerValue &asInteger() const
    {
        return std::get<IntegerValue>(v);
    }
    IntegerValue &asInteger() { return std::get<IntegerValue>(v); }
    const PointerValue &asPointer() const
    {
        return std::get<PointerValue>(v);
    }
    PointerValue &asPointer() { return std::get<PointerValue>(v); }
    const FloatingValue &asFloating() const
    {
        return std::get<FloatingValue>(v);
    }
};

// Size budgets of the value representation: every int temporary of
// the evaluator is an IntegerValue inside a MemValue, so these sizes
// are paid per step.  PointerValue (176 B) bounds MemValue.
static_assert(sizeof(PackedByte) <= 24, "PackedByte grew");
static_assert(sizeof(IntegerValue) <= 96, "IntegerValue grew");
static_assert(sizeof(MemValue) <= 192, "MemValue grew");

/** Debug/diagnostic rendering of a value. */
std::string memValueStr(const MemValue &v);

} // namespace cherisem::mem

#endif // CHERISEM_MEM_MEM_VALUE_H
