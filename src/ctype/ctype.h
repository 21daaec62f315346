/**
 * @file
 * Representation of MiniC (CHERI C subset) types.
 *
 * CHERI C specifics encoded here (paper sections 3.3, 3.7, 3.10):
 *  - (u)intptr_t are distinct, capability-carrying integer kinds;
 *  - no standard integer type has a higher conversion rank than
 *    (u)intptr_t;
 *  - ptraddr_t is an ordinary (non-capability) integer of address width
 *    (we model it as a distinct kind so intrinsics can name it).
 *
 * Struct/union member lists live in a TagTable rather than inline, so
 * recursive types need no mutation of shared Type nodes.
 */
#ifndef CHERISEM_CTYPE_CTYPE_H
#define CHERISEM_CTYPE_CTYPE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cherisem::ctype {

/** Integer kinds. size_t/ptrdiff_t are parsed as aliases of
 *  ULong/Long; ptraddr_t is its own kind (address width, unsigned). */
enum class IntKind
{
    Bool,
    Char,
    SChar,
    UChar,
    Short,
    UShort,
    Int,
    UInt,
    Long,
    ULong,
    LongLong,
    ULongLong,
    Ptraddr,
    Intptr,
    Uintptr,
};

enum class FloatKind { Float, Double };

struct Type;
using TypeRef = std::shared_ptr<const Type>;

/** Identifier of a struct/union definition inside a TagTable. */
using TagId = uint32_t;

/** A struct or union member. */
struct Member
{
    std::string name;
    TypeRef type;
};

/** A completed (or pending) struct/union definition. */
struct TagDef
{
    std::string name;
    bool isUnion = false;
    bool complete = false;
    std::vector<Member> members;
};

/**
 * Program-wide table of struct/union definitions.
 *
 * Mirrors the Cerberus "tag definitions" environment: layout queries
 * take the table so Type nodes stay immutable.
 */
class TagTable
{
  public:
    TagId declare(const std::string &name, bool is_union);
    void complete(TagId id, std::vector<Member> members);
    const TagDef &get(TagId id) const { return defs_.at(id); }
    size_t size() const { return defs_.size(); }

  private:
    std::vector<TagDef> defs_;
};

/** An immutable MiniC type node. */
struct Type
{
    enum class Kind
    {
        Void,
        Integer,
        Floating,
        Pointer,
        Array,
        Function,
        StructOrUnion,
    };

    Kind kind = Kind::Void;
    /** Top-level const qualification (section 3.9). */
    bool isConst = false;

    IntKind intKind = IntKind::Int;      // Kind::Integer
    FloatKind floatKind = FloatKind::Double; // Kind::Floating
    TypeRef pointee;                     // Kind::Pointer
    TypeRef element;                     // Kind::Array
    uint64_t arraySize = 0;              // Kind::Array
    TypeRef returnType;                  // Kind::Function
    std::vector<TypeRef> params;         // Kind::Function
    bool variadic = false;               // Kind::Function
    TagId tag = 0;                       // Kind::StructOrUnion

    bool isVoid() const { return kind == Kind::Void; }
    bool isInteger() const { return kind == Kind::Integer; }
    bool isFloating() const { return kind == Kind::Floating; }
    bool isArithmetic() const { return isInteger() || isFloating(); }
    bool isPointer() const { return kind == Kind::Pointer; }
    bool isArray() const { return kind == Kind::Array; }
    bool isFunction() const { return kind == Kind::Function; }
    bool isStructOrUnion() const { return kind == Kind::StructOrUnion; }
    bool isScalar() const { return isArithmetic() || isPointer(); }
    /** Does this integer type carry a capability at runtime? */
    bool isCapInteger() const
    {
        return isInteger() &&
            (intKind == IntKind::Intptr || intKind == IntKind::Uintptr);
    }
    /** Pointer or (u)intptr_t: represented by a capability. */
    bool isCapCarrying() const { return isPointer() || isCapInteger(); }
};

/// @name Type factories.  The scalar types are built once, in
/// immutable tables, and shared by every caller on every thread.
/// @{
const TypeRef &voidType();
const TypeRef &intType(IntKind k);
const TypeRef &floatType(FloatKind k);
TypeRef pointerTo(TypeRef pointee);
TypeRef arrayOf(TypeRef element, uint64_t n);
TypeRef functionType(TypeRef ret, std::vector<TypeRef> params,
                     bool variadic);
TypeRef structOrUnionType(TagId tag);
/** Copy of @p t with isConst set to @p is_const. */
TypeRef withConst(TypeRef t, bool is_const);
/// @}

/** True for the signed integer kinds. Plain char is signed here. */
bool isSignedIntKind(IntKind k);

/**
 * Integer conversion rank (section 3.7): strictly increasing order;
 * (u)intptr_t rank exceeds every standard integer type.
 */
int intRank(IntKind k);

/** The unsigned counterpart of @p k (identity for unsigned kinds). */
IntKind toUnsigned(IntKind k);

/** Structural equality modulo top-level const. */
bool sameType(const TypeRef &a, const TypeRef &b);

/** Human-readable type spelling for diagnostics. */
std::string typeStr(const TypeRef &t, const TagTable *tags = nullptr);

} // namespace cherisem::ctype

#endif // CHERISEM_CTYPE_CTYPE_H
