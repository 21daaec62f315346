/**
 * @file
 * Architecture-dependent type layout (sizes, alignment, offsets).
 *
 * Pointer representation size equals the architecture's capability
 * size (16 bytes on Morello, 8 on CHERIoT-style 32-bit cores), while
 * the *value range* of (u)intptr_t is the address width — the split
 * the paper's integer_value = Z (+) (B x Cap) representation relies on.
 *
 * Every layout fact is computed once: the integer-kind facts (byte
 * width, value width, range) are a per-engine table filled at
 * construction, and each struct/union tag's size, alignment and
 * member offsets are computed on the tag's first query and cached.
 * The scalar cases of sizeOf()/alignOf() are inline table reads, so
 * the memory model's load/store fast path makes no out-of-line layout
 * call for a scalar access.
 */
#ifndef CHERISEM_CTYPE_LAYOUT_H
#define CHERISEM_CTYPE_LAYOUT_H

#include <array>
#include <cstdint>
#include <vector>

#include "ctype/ctype.h"

namespace cherisem::ctype {

/** The layout-relevant parameters of a target architecture. */
struct MachineLayout
{
    /** Size of one capability in bytes (16 Morello, 8 CHERIoT). */
    unsigned capSize = 16;
    /** Address width in bytes (8 / 4). */
    unsigned addrBytes = 8;

    unsigned addrBits() const { return addrBytes * 8; }
};

/** Offset+type of a member inside a struct/union.  The type is the
 *  member's own, in the TagTable (null when not found), so locating a
 *  member copies no TypeRef. */
struct FieldLoc
{
    uint64_t offset = 0;
    const TypeRef *type = nullptr;
    bool found = false;
    /** Position in the tag's member list (fieldAt's argument). */
    uint32_t index = 0;
};

/** Number of IntKind enumerators (the per-kind table size). */
inline constexpr size_t kNumIntKinds =
    static_cast<size_t>(IntKind::Uintptr) + 1;

/**
 * Computes sizeof/alignof/offsetof for MiniC types on a given machine.
 *
 * Standard C struct layout: members at aligned offsets, struct aligned
 * to max member alignment, unions sized to max member (padded).
 *
 * The per-tag cache assumes a tag's definition does not change once
 * it has been queried complete; every engine that outlives a parse
 * (sema, the optimizer, the memory model) sees a finished TagTable.
 * An engine is not safe to share between threads.
 */
class LayoutEngine
{
  public:
    LayoutEngine(MachineLayout machine, const TagTable *tags);

    uint64_t
    sizeOf(const TypeRef &t) const
    {
        switch (t->kind) {
          case Type::Kind::Integer:
            return kinds_[static_cast<size_t>(t->intKind)].width;
          case Type::Kind::Floating:
            return t->floatKind == FloatKind::Float ? 4 : 8;
          case Type::Kind::Pointer:
            return machine_.capSize;
          default:
            return sizeOfAggregate(t);
        }
    }
    unsigned
    alignOf(const TypeRef &t) const
    {
        switch (t->kind) {
          case Type::Kind::Integer:
            return kinds_[static_cast<size_t>(t->intKind)].width;
          case Type::Kind::Floating:
            return t->floatKind == FloatKind::Float ? 4 : 8;
          case Type::Kind::Pointer:
            return machine_.capSize;
          default:
            return alignOfAggregate(t);
        }
    }
    /** Byte width of an integer kind's value representation. Note that
     *  for (u)intptr_t this is the capability size, not addrBytes. */
    unsigned
    intByteWidth(IntKind k) const
    {
        return kinds_[static_cast<size_t>(k)].width;
    }
    /** Width in bytes of the numeric range of an integer kind (for
     *  (u)intptr_t: the address width). */
    unsigned
    intValueBytes(IntKind k) const
    {
        return kinds_[static_cast<size_t>(k)].valueBytes;
    }
    /** Minimum / maximum representable value of an integer kind. */
    __int128 intMin(IntKind k) const
    {
        return kinds_[static_cast<size_t>(k)].min;
    }
    __int128 intMax(IntKind k) const
    {
        return kinds_[static_cast<size_t>(k)].max;
    }
    /** Locate @p member in struct/union @p tag (search is flat). */
    FieldLoc fieldOf(TagId tag, const std::string &member) const;
    /** The member at @p index of struct/union @p tag, which must
     *  exist (sema records it as FieldLoc::index). */
    FieldLoc fieldAt(TagId tag, uint32_t index) const;

    const MachineLayout &machine() const { return machine_; }
    const TagTable *tags() const { return tags_; }

  private:
    struct KindFacts
    {
        __int128 min = 0;
        __int128 max = 0;
        uint8_t width = 0;
        uint8_t valueBytes = 0;
    };
    /** A complete tag's layout, computed on its first query. */
    struct TagFacts
    {
        bool computed = false;
        unsigned align = 1;
        uint64_t size = 0;
        /** Byte offset of each member, in declaration order. */
        std::vector<uint64_t> offsets;
    };

    uint64_t sizeOfAggregate(const TypeRef &t) const;
    unsigned alignOfAggregate(const TypeRef &t) const;
    const TagFacts &tagFacts(TagId tag) const;

    MachineLayout machine_;
    const TagTable *tags_;
    std::array<KindFacts, kNumIntKinds> kinds_;
    mutable std::vector<TagFacts> tagFacts_;
};

} // namespace cherisem::ctype

#endif // CHERISEM_CTYPE_LAYOUT_H
