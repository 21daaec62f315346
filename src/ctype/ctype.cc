#include "ctype/ctype.h"

#include <array>
#include <cassert>

namespace cherisem::ctype {

TagId
TagTable::declare(const std::string &name, bool is_union)
{
    for (TagId i = 0; i < defs_.size(); ++i) {
        if (!name.empty() && defs_[i].name == name &&
            defs_[i].isUnion == is_union) {
            return i;
        }
    }
    TagDef def;
    def.name = name;
    def.isUnion = is_union;
    defs_.push_back(std::move(def));
    return static_cast<TagId>(defs_.size() - 1);
}

void
TagTable::complete(TagId id, std::vector<Member> members)
{
    TagDef &def = defs_.at(id);
    def.members = std::move(members);
    def.complete = true;
}

namespace {

TypeRef
makeType(Type t)
{
    return std::make_shared<const Type>(std::move(t));
}

} // namespace

const TypeRef &
voidType()
{
    static const TypeRef t = makeType(Type{});
    return t;
}

// The scalar tables are magic statics: built once, then read-only, so
// concurrent first touches from several threads are safe.

const TypeRef &
intType(IntKind k)
{
    constexpr size_t n = static_cast<size_t>(IntKind::Uintptr) + 1;
    static const std::array<TypeRef, n> table = [] {
        std::array<TypeRef, n> out;
        for (size_t i = 0; i < n; ++i) {
            Type t;
            t.kind = Type::Kind::Integer;
            t.intKind = static_cast<IntKind>(i);
            out[i] = makeType(std::move(t));
        }
        return out;
    }();
    auto idx = static_cast<size_t>(k);
    assert(idx < n);
    return table[idx];
}

const TypeRef &
floatType(FloatKind k)
{
    static const std::array<TypeRef, 2> table = [] {
        std::array<TypeRef, 2> out;
        for (FloatKind fk : {FloatKind::Float, FloatKind::Double}) {
            Type t;
            t.kind = Type::Kind::Floating;
            t.floatKind = fk;
            out[static_cast<size_t>(fk)] = makeType(std::move(t));
        }
        return out;
    }();
    return table[static_cast<size_t>(k)];
}

TypeRef
pointerTo(TypeRef pointee)
{
    Type t;
    t.kind = Type::Kind::Pointer;
    t.pointee = std::move(pointee);
    return makeType(std::move(t));
}

TypeRef
arrayOf(TypeRef element, uint64_t n)
{
    Type t;
    t.kind = Type::Kind::Array;
    t.element = std::move(element);
    t.arraySize = n;
    return makeType(std::move(t));
}

TypeRef
functionType(TypeRef ret, std::vector<TypeRef> params, bool variadic)
{
    Type t;
    t.kind = Type::Kind::Function;
    t.returnType = std::move(ret);
    t.params = std::move(params);
    t.variadic = variadic;
    return makeType(std::move(t));
}

TypeRef
structOrUnionType(TagId tag)
{
    Type t;
    t.kind = Type::Kind::StructOrUnion;
    t.tag = tag;
    return makeType(std::move(t));
}

TypeRef
withConst(TypeRef t, bool is_const)
{
    if (t->isConst == is_const)
        return t;
    Type copy = *t;
    copy.isConst = is_const;
    return makeType(std::move(copy));
}

bool
isSignedIntKind(IntKind k)
{
    switch (k) {
      case IntKind::Char:
      case IntKind::SChar:
      case IntKind::Short:
      case IntKind::Int:
      case IntKind::Long:
      case IntKind::LongLong:
      case IntKind::Intptr:
        return true;
      default:
        return false;
    }
}

int
intRank(IntKind k)
{
    switch (k) {
      case IntKind::Bool:
        return 1;
      case IntKind::Char:
      case IntKind::SChar:
      case IntKind::UChar:
        return 2;
      case IntKind::Short:
      case IntKind::UShort:
        return 3;
      case IntKind::Int:
      case IntKind::UInt:
        return 4;
      case IntKind::Long:
      case IntKind::ULong:
      case IntKind::Ptraddr:
        return 5;
      case IntKind::LongLong:
      case IntKind::ULongLong:
        return 6;
      // Section 3.7: "no other standard integer type shall have a
      // higher integer conversion rank than intptr_t and uintptr_t".
      case IntKind::Intptr:
      case IntKind::Uintptr:
        return 7;
    }
    return 0;
}

IntKind
toUnsigned(IntKind k)
{
    switch (k) {
      case IntKind::Char:
      case IntKind::SChar:
        return IntKind::UChar;
      case IntKind::Short:
        return IntKind::UShort;
      case IntKind::Int:
        return IntKind::UInt;
      case IntKind::Long:
        return IntKind::ULong;
      case IntKind::LongLong:
        return IntKind::ULongLong;
      case IntKind::Intptr:
        return IntKind::Uintptr;
      default:
        return k;
    }
}

bool
sameType(const TypeRef &a, const TypeRef &b)
{
    if (a.get() == b.get())
        return true;
    if (!a || !b || a->kind != b->kind)
        return false;
    switch (a->kind) {
      case Type::Kind::Void:
        return true;
      case Type::Kind::Integer:
        return a->intKind == b->intKind;
      case Type::Kind::Floating:
        return a->floatKind == b->floatKind;
      case Type::Kind::Pointer:
        return sameType(a->pointee, b->pointee);
      case Type::Kind::Array:
        return a->arraySize == b->arraySize &&
            sameType(a->element, b->element);
      case Type::Kind::Function: {
        if (!sameType(a->returnType, b->returnType) ||
            a->variadic != b->variadic ||
            a->params.size() != b->params.size()) {
            return false;
        }
        for (size_t i = 0; i < a->params.size(); ++i) {
            if (!sameType(a->params[i], b->params[i]))
                return false;
        }
        return true;
      }
      case Type::Kind::StructOrUnion:
        return a->tag == b->tag;
    }
    return false;
}

std::string
typeStr(const TypeRef &t, const TagTable *tags)
{
    if (!t)
        return "<null-type>";
    std::string c = t->isConst ? "const " : "";
    switch (t->kind) {
      case Type::Kind::Void:
        return c + "void";
      case Type::Kind::Integer:
        switch (t->intKind) {
          case IntKind::Bool: return c + "_Bool";
          case IntKind::Char: return c + "char";
          case IntKind::SChar: return c + "signed char";
          case IntKind::UChar: return c + "unsigned char";
          case IntKind::Short: return c + "short";
          case IntKind::UShort: return c + "unsigned short";
          case IntKind::Int: return c + "int";
          case IntKind::UInt: return c + "unsigned int";
          case IntKind::Long: return c + "long";
          case IntKind::ULong: return c + "unsigned long";
          case IntKind::LongLong: return c + "long long";
          case IntKind::ULongLong: return c + "unsigned long long";
          case IntKind::Ptraddr: return c + "ptraddr_t";
          case IntKind::Intptr: return c + "intptr_t";
          case IntKind::Uintptr: return c + "uintptr_t";
        }
        return c + "<int?>";
      case Type::Kind::Floating:
        return c + (t->floatKind == FloatKind::Float ? "float" : "double");
      case Type::Kind::Pointer:
        return typeStr(t->pointee, tags) + "*" + (t->isConst ? " const" : "");
      case Type::Kind::Array:
        return typeStr(t->element, tags) + "[" +
            std::to_string(t->arraySize) + "]";
      case Type::Kind::Function: {
        std::string s = typeStr(t->returnType, tags) + "(";
        for (size_t i = 0; i < t->params.size(); ++i) {
            if (i)
                s += ", ";
            s += typeStr(t->params[i], tags);
        }
        if (t->variadic)
            s += t->params.empty() ? "..." : ", ...";
        return s + ")";
      }
      case Type::Kind::StructOrUnion: {
        std::string name = tags ? tags->get(t->tag).name : "";
        bool is_union = tags && tags->get(t->tag).isUnion;
        return c + (is_union ? "union " : "struct ") +
            (name.empty() ? ("#" + std::to_string(t->tag)) : name);
      }
    }
    return "<type?>";
}

} // namespace cherisem::ctype
