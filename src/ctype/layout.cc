#include "ctype/layout.h"

#include <algorithm>
#include <cassert>

namespace cherisem::ctype {

namespace {

uint64_t
alignUp(uint64_t v, uint64_t a)
{
    return (v + a - 1) / a * a;
}

} // namespace

LayoutEngine::LayoutEngine(MachineLayout machine, const TagTable *tags)
    : machine_(machine), tags_(tags)
{
    for (size_t i = 0; i < kNumIntKinds; ++i) {
        IntKind k = static_cast<IntKind>(i);
        unsigned width = 4;
        switch (k) {
          case IntKind::Bool:
          case IntKind::Char:
          case IntKind::SChar:
          case IntKind::UChar:
            width = 1;
            break;
          case IntKind::Short:
          case IntKind::UShort:
            width = 2;
            break;
          case IntKind::Int:
          case IntKind::UInt:
            width = 4;
            break;
          case IntKind::Long:
          case IntKind::ULong:
          case IntKind::LongLong:
          case IntKind::ULongLong:
            width = 8;
            break;
          case IntKind::Ptraddr:
            width = machine_.addrBytes;
            break;
          case IntKind::Intptr:
          case IntKind::Uintptr:
            // Capability representation (section 3.3): the full cap.
            width = machine_.capSize;
            break;
        }
        unsigned value_bytes =
            k == IntKind::Intptr || k == IntKind::Uintptr
                ? machine_.addrBytes
                : width;
        unsigned bits = value_bytes * 8;
        KindFacts &f = kinds_[i];
        f.width = static_cast<uint8_t>(width);
        f.valueBytes = static_cast<uint8_t>(value_bytes);
        if (isSignedIntKind(k)) {
            f.min = -(static_cast<__int128>(1) << (bits - 1));
            f.max = (static_cast<__int128>(1) << (bits - 1)) - 1;
        } else {
            f.min = 0;
            f.max = k == IntKind::Bool
                        ? 1
                        : (static_cast<__int128>(1) << bits) - 1;
        }
    }
}

const LayoutEngine::TagFacts &
LayoutEngine::tagFacts(TagId tag) const
{
    if (tag >= tagFacts_.size())
        tagFacts_.resize(tag + 1);
    if (tagFacts_[tag].computed)
        return tagFacts_[tag];
    const TagDef &def = tags_->get(tag);
    TagFacts f;
    uint64_t size = 0;
    f.offsets.reserve(def.members.size());
    for (const Member &m : def.members) {
        uint64_t msize = sizeOf(m.type);
        unsigned malign = alignOf(m.type);
        f.align = std::max(f.align, malign);
        if (def.isUnion) {
            f.offsets.push_back(0);
            size = std::max(size, msize);
        } else {
            size = alignUp(size, malign);
            f.offsets.push_back(size);
            size += msize;
        }
    }
    if (size == 0)
        size = 1;
    f.size = alignUp(size, f.align);
    // Only a finished definition is final; an incomplete tag (a
    // parse-time query) is recomputed on every call.  The recursive
    // member queries above may have grown the cache, so index afresh.
    f.computed = def.complete;
    tagFacts_[tag] = std::move(f);
    return tagFacts_[tag];
}

uint64_t
LayoutEngine::sizeOfAggregate(const TypeRef &t) const
{
    assert(t);
    switch (t->kind) {
      case Type::Kind::Void:
        return 1; // GNU-style: sizeof(void) == 1 for pointer arith.
      case Type::Kind::Array:
        return sizeOf(t->element) * t->arraySize;
      case Type::Kind::Function:
        return 1;
      case Type::Kind::StructOrUnion:
        assert(tags_->get(t->tag).complete &&
               "sizeof incomplete struct/union");
        return tagFacts(t->tag).size;
      default:
        return sizeOf(t);
    }
}

unsigned
LayoutEngine::alignOfAggregate(const TypeRef &t) const
{
    assert(t);
    switch (t->kind) {
      case Type::Kind::Void:
        return 1;
      case Type::Kind::Array:
        return alignOf(t->element);
      case Type::Kind::Function:
        return 1;
      case Type::Kind::StructOrUnion:
        return tagFacts(t->tag).align;
      default:
        return alignOf(t);
    }
}

FieldLoc
LayoutEngine::fieldOf(TagId tag, const std::string &member) const
{
    const TagDef &def = tags_->get(tag);
    for (size_t i = 0; i < def.members.size(); ++i) {
        if (def.members[i].name == member)
            return fieldAt(tag, static_cast<uint32_t>(i));
    }
    return FieldLoc{};
}

FieldLoc
LayoutEngine::fieldAt(TagId tag, uint32_t index) const
{
    return FieldLoc{tagFacts(tag).offsets[index],
                    &tags_->get(tag).members[index].type, true, index};
}

} // namespace cherisem::ctype
