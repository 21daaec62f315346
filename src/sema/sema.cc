#include "sema/sema.h"

#include <cassert>
#include <vector>

#include "intrinsics/intrinsics.h"

namespace cherisem::sema {

using frontend::BinOp;
using frontend::DerivSource;
using frontend::Expr;
using frontend::ExprPtr;
using frontend::Stmt;
using frontend::UnOp;
using ctype::IntKind;
using ctype::intType;
using ctype::pointerTo;
using ctype::Type;
using ctype::TypeRef;

namespace {

class Analyzer
{
  public:
    Analyzer(Program &prog)
        : prog_(prog),
          layout_(prog.machine, &prog.unit.tags)
    {}

    void
    run()
    {
        // Index functions (last definition wins over prototypes).
        for (uint32_t i = 0; i < prog_.unit.functions.size(); ++i) {
            const auto &fn = prog_.unit.functions[i];
            auto it = prog_.functionIndex.find(fn.name);
            if (it == prog_.functionIndex.end() || fn.body)
                prog_.functionIndex[fn.name] = i;
        }
        // Globals form the outermost scope.  Every declaration of one
        // name shares its slot.
        pushScope();
        for (frontend::VarDecl &g : prog_.unit.globals) {
            auto [it, fresh] = prog_.globalSlots.try_emplace(
                g.name, prog_.numGlobalSlots);
            if (fresh)
                ++prog_.numGlobalSlots;
            g.slot = it->second;
            declare(g.name, Var{g.type, frontend::NameKind::Global, g.slot},
                    g.loc);
            if (g.hasInit)
                checkInitializer(g.init, g.type);
        }
        for (frontend::FunctionDef &fn : prog_.unit.functions) {
            if (!fn.body)
                continue;
            currentReturn_ = fn.type->returnType;
            pushScope();
            // Parameters take the first slots, named or not.
            nextSlot_ = static_cast<uint32_t>(fn.type->params.size());
            for (size_t i = 0; i < fn.type->params.size(); ++i) {
                std::string name = i < fn.paramNames.size()
                                       ? fn.paramNames[i]
                                       : "";
                if (!name.empty()) {
                    declare(name,
                            Var{fn.type->params[i],
                                frontend::NameKind::Local,
                                static_cast<uint32_t>(i)},
                            fn.loc);
                }
            }
            checkStmt(*fn.body);
            fn.numSlots = nextSlot_;
            popScope();
        }
        popScope();
    }

  private:
    [[noreturn]] void
    fail(const SourceLoc &loc, const std::string &msg) const
    {
        throw SemaError{loc, msg};
    }

    // ---- scopes ----

    /** A declared variable: its type and where the evaluator finds
     *  it (a frame slot or a global slot). */
    struct Var
    {
        TypeRef type;
        frontend::NameKind kind = frontend::NameKind::None;
        uint32_t slot = 0;
    };

    void pushScope() { scopes_.emplace_back(); }
    void popScope() { scopes_.pop_back(); }

    void
    declare(const std::string &name, Var var, const SourceLoc &loc)
    {
        if (name.empty())
            fail(loc, "missing declarator name");
        scopes_.back()[name] = std::move(var);
    }

    const Var *
    lookupVar(const std::string &name) const
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto f = it->find(name);
            if (f != it->end())
                return &f->second;
        }
        return nullptr;
    }

    // ---- conversions ----

    /** Wrap @p e in an implicit cast to @p to (no-op if same type). */
    ExprPtr
    convert(ExprPtr e, TypeRef to)
    {
        if (ctype::sameType(e->type, to))
            return e;
        ExprPtr c = Expr::make(Expr::Kind::Cast, e->loc);
        c->typeOperand = to;
        c->type = to;
        c->implicitCast = true;
        c->lhs = std::move(e);
        return c;
    }

    /** Array-to-pointer and function-to-pointer decay. */
    ExprPtr
    decay(ExprPtr e)
    {
        if (e->type->isArray()) {
            TypeRef to = pointerTo(e->type->element);
            ExprPtr c = Expr::make(Expr::Kind::Cast, e->loc);
            c->typeOperand = to;
            c->type = to;
            c->implicitCast = true;
            c->lhs = std::move(e);
            return c;
        }
        if (e->type->isFunction()) {
            TypeRef to = pointerTo(e->type);
            ExprPtr c = Expr::make(Expr::Kind::Cast, e->loc);
            c->typeOperand = to;
            c->type = to;
            c->implicitCast = true;
            c->lhs = std::move(e);
            return c;
        }
        return e;
    }

    /** Integer promotions: types of rank < int promote to int. */
    TypeRef
    promoted(const TypeRef &t) const
    {
        if (!t->isInteger())
            return t;
        if (ctype::intRank(t->intKind) <
            ctype::intRank(IntKind::Int)) {
            return intType(IntKind::Int);
        }
        return ctype::withConst(t, false);
    }

    /**
     * The usual arithmetic conversions with the CHERI C rank rule
     * (section 3.7): (u)intptr_t outranks every standard integer, so
     * mixed arithmetic converts the other operand *to* the
     * capability-carrying type and never loses the capability.
     */
    TypeRef
    usualArithmetic(const TypeRef &a, const TypeRef &b) const
    {
        if (a->isFloating() || b->isFloating()) {
            if ((a->isFloating() &&
                 a->floatKind == ctype::FloatKind::Double) ||
                (b->isFloating() &&
                 b->floatKind == ctype::FloatKind::Double)) {
                return ctype::floatType(ctype::FloatKind::Double);
            }
            return ctype::floatType(ctype::FloatKind::Float);
        }
        TypeRef pa = promoted(a);
        TypeRef pb = promoted(b);
        IntKind ka = pa->intKind;
        IntKind kb = pb->intKind;
        if (ka == kb)
            return pa;
        int ra = ctype::intRank(ka);
        int rb = ctype::intRank(kb);
        bool sa = ctype::isSignedIntKind(ka);
        bool sb = ctype::isSignedIntKind(kb);
        if (sa == sb)
            return ra >= rb ? pa : pb;
        // Unsigned operand with rank >= signed operand's: unsigned
        // wins; otherwise the signed type (same width here) wins via
        // its unsigned counterpart per 6.3.1.8.
        const TypeRef &u = sa ? pb : pa;
        const TypeRef &s = sa ? pa : pb;
        int ru = ctype::intRank(u->intKind);
        int rs = ctype::intRank(s->intKind);
        if (ru >= rs)
            return u;
        if (layout_.intValueBytes(s->intKind) >
            layout_.intValueBytes(u->intKind)) {
            return s;
        }
        return intType(ctype::toUnsigned(s->intKind));
    }

    /** Is @p e a conversion from a non-capability-carrying type
     *  (section 3.7's derivation criterion)? */
    static bool
    convertedFromNonCap(const ExprPtr &e)
    {
        return e->kind == Expr::Kind::Cast && e->type->isCapCarrying() &&
            e->lhs->type && !e->lhs->type->isCapCarrying();
    }

    /** Can @p from be implicitly assigned to @p to? */
    bool
    assignable(const TypeRef &to, const TypeRef &from) const
    {
        if (ctype::sameType(to, from))
            return true;
        if (to->isArithmetic() && from->isArithmetic())
            return true;
        if (to->isPointer() && from->isPointer()) {
            // void* converts freely; const mismatches are tolerated
            // (CHERI C makes const casts capability no-ops, 3.9).
            return true;
        }
        if (to->isPointer() && from->isInteger())
            return true; // constant 0 etc.; warned in real compilers.
        if (to->isInteger() && from->isPointer())
            return false;
        if (to->isStructOrUnion() && from->isStructOrUnion())
            return to->tag == from->tag;
        return false;
    }

    // ---- expression checking ----

    /** Check as rvalue: full check + decay. */
    ExprPtr
    checkRValue(ExprPtr e)
    {
        checkExpr(e);
        return decay(std::move(e));
    }

    void
    checkExpr(ExprPtr &e)
    {
        switch (e->kind) {
          case Expr::Kind::IntLit: {
            uint64_t v = e->intValue;
            IntKind k;
            if (e->litUnsigned) {
                k = (v <= 0xffffffffull && !e->litLong)
                        ? IntKind::UInt
                        : IntKind::ULong;
            } else if (e->litLong) {
                k = v <= 0x7fffffffffffffffull ? IntKind::Long
                                               : IntKind::ULong;
            } else if (v <= 0x7fffffffull) {
                k = IntKind::Int;
            } else if (v <= 0x7fffffffffffffffull) {
                k = IntKind::Long;
            } else {
                k = IntKind::ULong;
            }
            e->type = intType(k);
            return;
          }
          case Expr::Kind::FloatLit:
            e->type = ctype::floatType(ctype::FloatKind::Double);
            return;
          case Expr::Kind::StringLit:
            e->type = ctype::arrayOf(
                ctype::withConst(intType(IntKind::Char), true),
                e->text.size() + 1);
            e->isLValue = true;
            e->slot = prog_.numStringLits++;
            return;
          case Expr::Kind::Ident: {
            if (const Var *v = lookupVar(e->text)) {
                e->type = v->type;
                e->isLValue = true;
                e->nameKind = v->kind;
                e->slot = v->slot;
                return;
            }
            auto fi = prog_.functionIndex.find(e->text);
            if (fi != prog_.functionIndex.end()) {
                e->type = prog_.unit.functions[fi->second].type;
                e->nameKind = frontend::NameKind::Function;
                e->slot = fi->second;
                return;
            }
            auto ei = prog_.unit.enumConstants.find(e->text);
            if (ei != prog_.unit.enumConstants.end()) {
                e->isEnumConst = true;
                e->enumValue = ei->second;
                e->type = intType(IntKind::Int);
                return;
            }
            if (intrinsics::lookupBuiltin(e->text)) {
                // Builtin used as a call target; typed at the Call.
                e->type = ctype::voidType();
                return;
            }
            fail(e->loc, "use of undeclared identifier '" + e->text +
                             "'");
          }
          case Expr::Kind::Unary:
            checkUnary(e);
            return;
          case Expr::Kind::Binary:
            checkBinary(e);
            return;
          case Expr::Kind::Assign:
            checkAssign(e);
            return;
          case Expr::Kind::Cond: {
            e->cond = checkRValue(std::move(e->cond));
            e->lhs = checkRValue(std::move(e->lhs));
            e->rhs = checkRValue(std::move(e->rhs));
            if (e->lhs->type->isArithmetic() &&
                e->rhs->type->isArithmetic()) {
                TypeRef common =
                    usualArithmetic(e->lhs->type, e->rhs->type);
                e->lhs = convert(std::move(e->lhs), common);
                e->rhs = convert(std::move(e->rhs), common);
                e->type = common;
            } else if (e->lhs->type->isPointer()) {
                e->rhs = convert(std::move(e->rhs), e->lhs->type);
                e->type = e->lhs->type;
            } else {
                e->type = e->lhs->type;
            }
            return;
          }
          case Expr::Kind::Cast: {
            e->lhs = checkRValue(std::move(e->lhs));
            TypeRef to = e->typeOperand;
            TypeRef from = e->lhs->type;
            if (!to->isVoid() && !to->isScalar())
                fail(e->loc, "cast to non-scalar type");
            if (!from->isScalar() && !to->isVoid())
                fail(e->loc, "cast of non-scalar value");
            e->type = to;
            return;
          }
          case Expr::Kind::Call:
            checkCall(e);
            return;
          case Expr::Kind::Index: {
            e->lhs = checkRValue(std::move(e->lhs));
            e->rhs = checkRValue(std::move(e->rhs));
            ExprPtr *ptr = &e->lhs;
            ExprPtr *idx = &e->rhs;
            if (!(*ptr)->type->isPointer() &&
                (*idx)->type->isPointer()) {
                std::swap(ptr, idx);
            }
            if (!(*ptr)->type->isPointer())
                fail(e->loc, "subscripted value is not a pointer");
            if (!(*idx)->type->isInteger())
                fail(e->loc, "array subscript is not an integer");
            e->type = (*ptr)->type->pointee;
            e->isLValue = true;
            return;
          }
          case Expr::Kind::Member: {
            if (e->isArrow) {
                e->lhs = checkRValue(std::move(e->lhs));
                if (!e->lhs->type->isPointer() ||
                    !e->lhs->type->pointee->isStructOrUnion()) {
                    fail(e->loc, "-> on non-struct-pointer");
                }
            } else {
                checkExpr(e->lhs);
                if (!e->lhs->type->isStructOrUnion())
                    fail(e->loc, ". on non-struct value");
            }
            ctype::TagId tag = e->isArrow ? e->lhs->type->pointee->tag
                                          : e->lhs->type->tag;
            ctype::FieldLoc fl = layout_.fieldOf(tag, e->text);
            if (!fl.found)
                fail(e->loc, "no member named '" + e->text + "'");
            e->type = *fl.type;
            e->isLValue = true;
            return;
          }
          case Expr::Kind::SizeofExpr:
            checkExpr(e->lhs);
            e->type = intType(IntKind::ULong);
            return;
          case Expr::Kind::SizeofType:
          case Expr::Kind::AlignofType:
            e->type = intType(IntKind::ULong);
            return;
          case Expr::Kind::OffsetOf: {
            if (!e->typeOperand->isStructOrUnion())
                fail(e->loc, "offsetof requires a struct/union type");
            ctype::FieldLoc fl =
                layout_.fieldOf(e->typeOperand->tag, e->text);
            if (!fl.found)
                fail(e->loc, "offsetof: no member '" + e->text + "'");
            e->type = intType(IntKind::ULong);
            return;
          }
        }
        fail(e->loc, "unhandled expression kind");
    }

    void
    checkUnary(ExprPtr &e)
    {
        switch (e->unop) {
          case UnOp::Deref: {
            e->lhs = checkRValue(std::move(e->lhs));
            if (!e->lhs->type->isPointer())
                fail(e->loc, "dereference of non-pointer");
            e->type = e->lhs->type->pointee;
            e->isLValue = !e->type->isFunction();
            return;
          }
          case UnOp::AddrOf: {
            checkExpr(e->lhs);
            if (e->lhs->type->isFunction()) {
                e->type = pointerTo(e->lhs->type);
                return;
            }
            if (!e->lhs->isLValue)
                fail(e->loc, "address of non-lvalue");
            e->type = pointerTo(e->lhs->type);
            return;
          }
          case UnOp::Plus:
          case UnOp::Minus:
          case UnOp::BitNot: {
            e->lhs = checkRValue(std::move(e->lhs));
            if (!e->lhs->type->isArithmetic())
                fail(e->loc, "unary arithmetic on non-arithmetic");
            TypeRef p = promoted(e->lhs->type);
            e->lhs = convert(std::move(e->lhs), p);
            e->type = p;
            return;
          }
          case UnOp::LogNot:
            e->lhs = checkRValue(std::move(e->lhs));
            if (!e->lhs->type->isScalar())
                fail(e->loc, "! on non-scalar");
            e->type = intType(IntKind::Int);
            return;
          case UnOp::PreInc:
          case UnOp::PreDec:
          case UnOp::PostInc:
          case UnOp::PostDec: {
            checkExpr(e->lhs);
            if (!e->lhs->isLValue || !e->lhs->type->isScalar())
                fail(e->loc, "++/-- requires a scalar lvalue");
            if (e->lhs->type->isConst)
                fail(e->loc, "++/-- on const lvalue");
            e->type = ctype::withConst(e->lhs->type, false);
            return;
          }
        }
    }

    void
    checkBinary(ExprPtr &e)
    {
        if (e->binop == BinOp::Comma) {
            e->lhs = checkRValue(std::move(e->lhs));
            e->rhs = checkRValue(std::move(e->rhs));
            e->type = e->rhs->type;
            return;
        }
        if (e->binop == BinOp::LogAnd || e->binop == BinOp::LogOr) {
            e->lhs = checkRValue(std::move(e->lhs));
            e->rhs = checkRValue(std::move(e->rhs));
            if (!e->lhs->type->isScalar() || !e->rhs->type->isScalar())
                fail(e->loc, "logical op on non-scalar");
            e->type = intType(IntKind::Int);
            return;
        }

        e->lhs = checkRValue(std::move(e->lhs));
        e->rhs = checkRValue(std::move(e->rhs));
        TypeRef lt = e->lhs->type;
        TypeRef rt = e->rhs->type;

        // Pointer arithmetic and comparisons.
        if (lt->isPointer() || rt->isPointer()) {
            switch (e->binop) {
              case BinOp::Add:
                if (lt->isPointer() && rt->isInteger()) {
                    e->type = lt;
                } else if (lt->isInteger() && rt->isPointer()) {
                    e->type = rt;
                } else {
                    fail(e->loc, "invalid pointer addition");
                }
                return;
              case BinOp::Sub:
                if (lt->isPointer() && rt->isInteger()) {
                    e->type = lt;
                } else if (lt->isPointer() && rt->isPointer()) {
                    e->type = intType(IntKind::Long); // ptrdiff_t
                } else {
                    fail(e->loc, "invalid pointer subtraction");
                }
                return;
              case BinOp::Eq:
              case BinOp::Ne:
              case BinOp::Lt:
              case BinOp::Gt:
              case BinOp::Le:
              case BinOp::Ge: {
                // Allow ptr-vs-ptr and ptr-vs-null/integer-0.
                if (lt->isInteger())
                    e->lhs = convert(std::move(e->lhs), rt);
                else if (rt->isInteger())
                    e->rhs = convert(std::move(e->rhs), lt);
                e->type = intType(IntKind::Int);
                return;
              }
              default:
                fail(e->loc, "invalid operands to binary operator");
            }
        }

        if (!lt->isArithmetic() || !rt->isArithmetic())
            fail(e->loc, "binary operator on non-arithmetic operands");

        switch (e->binop) {
          case BinOp::Shl:
          case BinOp::Shr: {
            // Shifts promote each operand separately.
            TypeRef pl = promoted(lt);
            e->lhs = convert(std::move(e->lhs), pl);
            e->rhs = convert(std::move(e->rhs), promoted(rt));
            e->type = pl;
            if (pl->isCapInteger())
                e->deriv = DerivSource::Left;
            return;
          }
          default:
            break;
        }

        TypeRef common = usualArithmetic(lt, rt);
        e->lhs = convert(std::move(e->lhs), common);
        e->rhs = convert(std::move(e->rhs), common);
        switch (e->binop) {
          case BinOp::Lt: case BinOp::Gt: case BinOp::Le:
          case BinOp::Ge: case BinOp::Eq: case BinOp::Ne:
            e->type = intType(IntKind::Int);
            return;
          default:
            e->type = common;
            break;
        }

        // Capability derivation (sections 3.7, 4.4): pick the operand
        // that was not converted from a non-capability type; ties go
        // to the left.
        if (common->isCapInteger()) {
            bool lconv = convertedFromNonCap(e->lhs);
            bool rconv = convertedFromNonCap(e->rhs);
            if (!lconv)
                e->deriv = DerivSource::Left;
            else if (!rconv)
                e->deriv = DerivSource::Right;
            else
                e->deriv = DerivSource::Left;
        }
    }

    void
    checkAssign(ExprPtr &e)
    {
        checkExpr(e->lhs);
        if (!e->lhs->isLValue)
            fail(e->loc, "assignment to non-lvalue");
        if (e->lhs->type->isConst)
            fail(e->loc, "assignment to const-qualified lvalue");
        e->rhs = checkRValue(std::move(e->rhs));
        TypeRef lt = ctype::withConst(e->lhs->type, false);
        if (e->binop == BinOp::Comma) {
            // Plain '='.
            if (!assignable(lt, e->rhs->type)) {
                fail(e->loc,
                     "incompatible types in assignment: " +
                         ctype::typeStr(lt) + " = " +
                         ctype::typeStr(e->rhs->type));
            }
            if (lt->isScalar())
                e->rhs = convert(std::move(e->rhs), lt);
        } else {
            // Compound assignment: the evaluator performs
            // load-op-store; here we only sanity check and type the
            // rhs.
            if (lt->isPointer()) {
                if (e->binop != BinOp::Add && e->binop != BinOp::Sub)
                    fail(e->loc, "invalid compound op on pointer");
                if (!e->rhs->type->isInteger())
                    fail(e->loc, "pointer += requires integer");
            } else if (!lt->isArithmetic() ||
                       !e->rhs->type->isArithmetic()) {
                fail(e->loc, "compound assignment on non-arithmetic");
            }
        }
        e->type = lt;
        return;
    }

    void
    checkCall(ExprPtr &e)
    {
        // Builtin / intrinsic calls: resolve via the DSL.
        if (e->lhs->kind == Expr::Kind::Ident &&
            !lookupVar(e->lhs->text) &&
            prog_.functionIndex.find(e->lhs->text) ==
                prog_.functionIndex.end()) {
            auto sig = intrinsics::lookupBuiltin(e->lhs->text);
            if (!sig)
                fail(e->loc, "call to undeclared function '" +
                                 e->lhs->text + "'");
            std::vector<TypeRef> arg_types;
            for (ExprPtr &a : e->args) {
                a = checkRValue(std::move(a));
                arg_types.push_back(a->type);
            }
            auto resolved = intrinsics::resolveBuiltin(
                *sig, arg_types, prog_.machine);
            if (!resolved) {
                fail(e->loc, e->lhs->text + ": " + resolved.error());
            }
            const auto &rs = resolved.value();
            for (size_t i = 0; i < rs.params.size(); ++i) {
                if (rs.params[i]->isScalar() &&
                    e->args[i]->type->isScalar()) {
                    e->args[i] =
                        convert(std::move(e->args[i]), rs.params[i]);
                }
            }
            e->builtinId = static_cast<int>(sig->id);
            e->lhs->type = ctype::voidType();
            e->type = rs.ret;
            return;
        }

        // Ordinary call: function designator or function pointer.
        checkExpr(e->lhs);
        TypeRef fty = e->lhs->type;
        if (fty->isPointer())
            fty = fty->pointee;
        if (!fty->isFunction())
            fail(e->loc, "called object is not a function");
        if (e->args.size() < fty->params.size() ||
            (!fty->variadic && e->args.size() > fty->params.size())) {
            fail(e->loc, "wrong number of arguments");
        }
        for (size_t i = 0; i < e->args.size(); ++i) {
            e->args[i] = checkRValue(std::move(e->args[i]));
            if (i < fty->params.size()) {
                TypeRef pt = ctype::withConst(fty->params[i], false);
                if (!assignable(pt, e->args[i]->type)) {
                    fail(e->args[i]->loc,
                         "incompatible argument type: " +
                             ctype::typeStr(e->args[i]->type) +
                             " -> " + ctype::typeStr(pt));
                }
                if (pt->isScalar())
                    e->args[i] = convert(std::move(e->args[i]), pt);
            } else {
                // Default argument promotions for variadic extras.
                TypeRef at = e->args[i]->type;
                if (at->isInteger())
                    e->args[i] =
                        convert(std::move(e->args[i]), promoted(at));
                else if (at->isFloating())
                    e->args[i] = convert(
                        std::move(e->args[i]),
                        ctype::floatType(ctype::FloatKind::Double));
            }
        }
        e->type = fty->returnType;
    }

    // ---- initializers & statements ----

    void
    checkInitializer(frontend::Initializer &init, const TypeRef &ty)
    {
        if (!init.isList) {
            init.expr = checkRValue(std::move(init.expr));
            if (ty->isScalar()) {
                if (!assignable(ctype::withConst(ty, false),
                                init.expr->type)) {
                    fail(init.loc, "incompatible initializer for " +
                                       ctype::typeStr(ty));
                }
                init.expr = convert(std::move(init.expr),
                                    ctype::withConst(ty, false));
            } else if (ty->isArray() && ty->element->isInteger() &&
                       init.expr->kind == Expr::Kind::Cast &&
                       init.expr->lhs->kind ==
                           Expr::Kind::StringLit) {
                // char a[] = "..." — keep the decayed literal; the
                // evaluator copies the bytes.
            }
            return;
        }
        if (ty->isArray()) {
            if (init.list.size() > ty->arraySize && ty->arraySize != 0)
                fail(init.loc, "too many array initializers");
            for (auto &sub : init.list)
                checkInitializer(sub, ty->element);
            return;
        }
        if (ty->isStructOrUnion()) {
            const ctype::TagDef &def =
                prog_.unit.tags.get(ty->tag);
            size_t limit = def.isUnion ? 1 : def.members.size();
            if (init.list.size() > limit)
                fail(init.loc, "too many struct initializers");
            for (size_t i = 0; i < init.list.size(); ++i)
                checkInitializer(init.list[i], def.members[i].type);
            return;
        }
        // Scalar with braces: {x}.
        if (init.list.size() != 1)
            fail(init.loc, "invalid scalar initializer list");
        checkInitializer(init.list[0], ty);
    }

    void
    checkStmt(Stmt &s)
    {
        for (auto &label : s.caseExprs)
            label = checkRValue(std::move(label));
        switch (s.kind) {
          case Stmt::Kind::Expr:
            s.expr = checkRValue(std::move(s.expr));
            return;
          case Stmt::Kind::Decl:
            for (frontend::VarDecl &d : s.decls) {
                // Unsized arrays take their size from the
                // initializer.
                if (d.type->isArray() && d.type->arraySize == 0 &&
                    d.hasInit) {
                    if (d.init.isList) {
                        d.type = ctype::arrayOf(d.type->element,
                                                d.init.list.size());
                    } else if (d.init.expr &&
                               d.init.expr->kind ==
                                   Expr::Kind::StringLit) {
                        d.type = ctype::arrayOf(
                            d.type->element,
                            d.init.expr->text.size() + 1);
                    }
                }
                d.slot = nextSlot_++;
                if (d.isStatic)
                    d.staticSlot = prog_.numStaticLocals++;
                declare(d.name,
                        Var{d.type, frontend::NameKind::Local, d.slot},
                        d.loc);
                if (d.hasInit)
                    checkInitializer(d.init, d.type);
            }
            return;
          case Stmt::Kind::Block:
            pushScope();
            for (auto &sub : s.body)
                checkStmt(*sub);
            popScope();
            return;
          case Stmt::Kind::If:
            s.expr = checkRValue(std::move(s.expr));
            checkStmt(*s.thenStmt);
            if (s.elseStmt)
                checkStmt(*s.elseStmt);
            return;
          case Stmt::Kind::While:
          case Stmt::Kind::DoWhile:
            s.expr = checkRValue(std::move(s.expr));
            checkStmt(*s.thenStmt);
            return;
          case Stmt::Kind::Switch:
            s.expr = checkRValue(std::move(s.expr));
            if (!s.expr->type->isInteger())
                fail(s.loc, "switch requires an integer expression");
            checkStmt(*s.thenStmt);
            return;
          case Stmt::Kind::For:
            pushScope();
            if (s.forInit)
                checkStmt(*s.forInit);
            if (s.forCond)
                s.forCond = checkRValue(std::move(s.forCond));
            if (s.forStep)
                s.forStep = checkRValue(std::move(s.forStep));
            checkStmt(*s.thenStmt);
            popScope();
            return;
          case Stmt::Kind::Return:
            if (s.expr) {
                s.expr = checkRValue(std::move(s.expr));
                if (currentReturn_ && currentReturn_->isScalar())
                    s.expr = convert(std::move(s.expr),
                                     ctype::withConst(currentReturn_,
                                                      false));
            }
            return;
          case Stmt::Kind::Break:
          case Stmt::Kind::Continue:
          case Stmt::Kind::Empty:
            return;
        }
    }

    Program &prog_;
    ctype::LayoutEngine layout_;
    std::vector<std::map<std::string, Var>> scopes_;
    TypeRef currentReturn_;
    /** Next free frame slot of the function being checked. */
    uint32_t nextSlot_ = 0;
};

} // namespace

Program
analyze(frontend::TranslationUnit unit,
        const ctype::MachineLayout &machine)
{
    Program prog;
    prog.unit = std::move(unit);
    prog.machine = machine;
    Analyzer a(prog);
    a.run();
    return prog;
}

} // namespace cherisem::sema
