/**
 * @file
 * Abstract syntax tree for MiniC.
 *
 * One node type per syntactic class, with the fields the type checker
 * (sema) fills in: every expression gets a type, an lvalue flag, and —
 * the CHERI C specific part — binary operations get a *derivation
 * source* recording which operand the result capability derives from
 * (sections 3.7, 4.4 of the paper: derivation is an explicit
 * elaboration step).
 */
#ifndef CHERISEM_FRONTEND_AST_H
#define CHERISEM_FRONTEND_AST_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ctype/ctype.h"
#include "support/source_loc.h"

namespace cherisem::frontend {

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

enum class UnOp
{
    Plus, Minus, LogNot, BitNot, Deref, AddrOf,
    PreInc, PreDec, PostInc, PostDec,
};

enum class BinOp
{
    Add, Sub, Mul, Div, Rem,
    Shl, Shr,
    Lt, Gt, Le, Ge, Eq, Ne,
    BitAnd, BitXor, BitOr,
    LogAnd, LogOr,
    Comma,
};

/** Which operand a binary op's result capability derives from
 *  (section 3.7). */
enum class DerivSource { Left, Right, None };

/** What an identifier names, resolved once by sema.  Enumerator
 *  constants keep their own flag (Expr::isEnumConst). */
enum class NameKind : uint8_t
{
    None,     ///< unresolved: a builtin callee, or an enumerator
    Local,    ///< Expr::slot is a slot of the enclosing call frame
    Global,   ///< Expr::slot indexes the program's global slots
    Function, ///< Expr::slot indexes TranslationUnit::functions
};

struct Expr
{
    enum class Kind
    {
        IntLit,
        FloatLit,
        StringLit,
        Ident,
        Unary,
        Binary,
        Assign,      ///< op == BinOp::Comma means plain '='.
        Cond,        ///< c ? a : b
        Cast,        ///< explicit cast, or sema-inserted implicit one
        Call,
        Index,       ///< a[i]
        Member,      ///< a.m / a->m (arrow flag)
        SizeofExpr,
        SizeofType,
        AlignofType,
        OffsetOf,    ///< offsetof(struct, member) builtin
    };

    Kind kind;
    SourceLoc loc;

    // Literals / identifiers.
    uint64_t intValue = 0;
    bool litUnsigned = false;
    bool litLong = false;
    double floatValue = 0;
    std::string text; ///< identifier, string value, or member name.

    // Operators and operands.
    UnOp unop = UnOp::Plus;
    BinOp binop = BinOp::Add;
    bool isArrow = false;
    ExprPtr lhs;
    ExprPtr rhs;
    ExprPtr cond;
    std::vector<ExprPtr> args;

    // Cast / sizeof / offsetof type operand.
    ctype::TypeRef typeOperand;

    // ---- Filled by sema ----
    ctype::TypeRef type;
    bool isLValue = false;
    /** For Cast: inserted implicitly by the usual conversions. */
    bool implicitCast = false;
    /** For Binary/Assign on capability-carrying types. */
    DerivSource deriv = DerivSource::None;
    /** Resolved identifier (Ident); see NameKind for what slot
     *  indexes.  For StringLit, slot is the literal's program-wide
     *  index, which gives each literal expression its one object.
     *  For Member, it is the member's index in its struct/union. */
    NameKind nameKind = NameKind::None;
    uint32_t slot = 0;
    /** Resolved enumerator constant (Ident naming an enum value). */
    bool isEnumConst = false;
    __int128 enumValue = 0;
    /** Resolved builtin/intrinsic call (Call with Ident callee). */
    int builtinId = -1;

    static ExprPtr
    make(Kind k, SourceLoc loc)
    {
        auto e = std::make_unique<Expr>();
        e->kind = k;
        e->loc = std::move(loc);
        return e;
    }
};

/** An initializer: a single expression or a brace-enclosed list. */
struct Initializer
{
    ExprPtr expr;                          // when scalar
    std::vector<Initializer> list;         // when braced
    bool isList = false;
    SourceLoc loc;
};

/** One declared variable (local or global). */
struct VarDecl
{
    std::string name;
    ctype::TypeRef type;
    Initializer init;
    bool hasInit = false;
    bool isStatic = false;
    bool isExtern = false;
    SourceLoc loc;
    /** Filled by sema: a local's frame slot, or a global's slot (all
     *  declarations of one global name share it). */
    uint32_t slot = 0;
    /** Filled by sema for a static local: its program-wide index. */
    uint32_t staticSlot = 0;
};

struct Stmt
{
    enum class Kind
    {
        Expr,
        Decl,
        Block,
        If,
        While,
        DoWhile,
        For,
        Return,
        Break,
        Continue,
        Switch,
        Empty,
    };

    Kind kind;
    SourceLoc loc;

    ExprPtr expr;                 // Expr, Return (may be null), If cond...
    std::vector<VarDecl> decls;   // Decl
    std::vector<StmtPtr> body;    // Block
    StmtPtr thenStmt;             // If / loop body
    StmtPtr elseStmt;             // If
    // For: init (Decl/Expr stmt), cond expr, step expr.
    StmtPtr forInit;
    ExprPtr forCond;
    ExprPtr forStep;
    // Labels attached to this statement inside a switch body
    // (constant expressions), plus the default marker.
    std::vector<ExprPtr> caseExprs;
    bool isDefault = false;

    static StmtPtr
    make(Kind k, SourceLoc loc)
    {
        auto s = std::make_unique<Stmt>();
        s->kind = k;
        s->loc = std::move(loc);
        return s;
    }
};

struct FunctionDef
{
    std::string name;
    ctype::TypeRef type; ///< Kind::Function
    std::vector<std::string> paramNames;
    StmtPtr body;        ///< null for a prototype
    SourceLoc loc;
    /** Filled by sema: frame slots one call needs.  Parameters take
     *  slots 0..params-1, each block-scope declaration one more. */
    uint32_t numSlots = 0;
};

/** A parsed translation unit. */
struct TranslationUnit
{
    ctype::TagTable tags;
    std::vector<FunctionDef> functions;
    std::vector<VarDecl> globals;
    /** Enumerator constants (sema resolves Ident against these). */
    std::map<std::string, long long> enumConstants;
};

} // namespace cherisem::frontend

#endif // CHERISEM_FRONTEND_AST_H
