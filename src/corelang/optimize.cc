#include "corelang/optimize.h"

#include <optional>

#include "intrinsics/intrinsics.h"

namespace cherisem::corelang {

using frontend::BinOp;
using frontend::Expr;
using frontend::ExprPtr;
using frontend::Stmt;
using frontend::StmtPtr;
using frontend::UnOp;
using ctype::IntKind;
using ctype::TypeRef;

namespace {

class Optimizer
{
  public:
    Optimizer(sema::Program &prog, const OptimizeOptions &opts)
        : prog_(prog), opts_(opts),
          layout_(prog.machine, &prog.unit.tags)
    {}

    OptimizeStats
    run()
    {
        for (auto &fn : prog_.unit.functions) {
            if (fn.body)
                walkStmt(*fn.body);
        }
        return stats_;
    }

  private:
    // ---- constant evaluation over the typed AST ----

    std::optional<__int128>
    constEval(const Expr &e) const
    {
        switch (e.kind) {
          case Expr::Kind::IntLit:
            return static_cast<__int128>(e.intValue);
          case Expr::Kind::Ident:
            if (e.isEnumConst)
                return e.enumValue;
            return std::nullopt;
          case Expr::Kind::SizeofType:
            return static_cast<__int128>(
                layout_.sizeOf(e.typeOperand));
          case Expr::Kind::SizeofExpr:
            return static_cast<__int128>(layout_.sizeOf(e.lhs->type));
          case Expr::Kind::Cast: {
            // Fold numeric casts; casts *to* (u)intptr_t from a
            // constant produce a null-derived value whose numeric
            // value is the constant, so folding is value-preserving.
            if (!e.type->isInteger())
                return std::nullopt;
            return constEval(*e.lhs);
          }
          case Expr::Kind::Unary:
            if (e.unop == UnOp::Minus) {
                auto v = constEval(*e.lhs);
                if (v)
                    return -*v;
            }
            if (e.unop == UnOp::Plus)
                return constEval(*e.lhs);
            return std::nullopt;
          case Expr::Kind::Binary: {
            auto a = constEval(*e.lhs);
            auto b = constEval(*e.rhs);
            if (!a || !b)
                return std::nullopt;
            switch (e.binop) {
              case BinOp::Add: return *a + *b;
              case BinOp::Sub: return *a - *b;
              case BinOp::Mul: return *a * *b;
              default: return std::nullopt;
            }
          }
          default:
            return std::nullopt;
        }
    }

    // ---- pass 1: fold transient out-of-bounds arithmetic ----

    /** Is this an Add/Sub of a capability-carrying lhs and a constant
     *  rhs? (The shape compilers reassociate.) */
    bool
    capPlusConst(const Expr &e, __int128 &delta) const
    {
        if (e.kind != Expr::Kind::Binary ||
            (e.binop != BinOp::Add && e.binop != BinOp::Sub)) {
            return false;
        }
        if (!e.type || !e.type->isCapCarrying())
            return false;
        if (!e.lhs->type || !e.lhs->type->isCapCarrying())
            return false;
        auto c = constEval(*e.rhs);
        if (!c)
            return false;
        delta = e.binop == BinOp::Add ? *c : -*c;
        return true;
    }

    void
    foldTransient(ExprPtr &e)
    {
        __int128 outer = 0, inner = 0;
        if (!capPlusConst(*e, outer))
            return;
        if (!capPlusConst(*e->lhs, inner))
            return;
        __int128 total = inner + outer;
        // (p + c1) - c2  ==>  p + (c1 - c2): drop the intermediate
        // value that may be non-representable.
        ExprPtr base = std::move(e->lhs->lhs);
        ExprPtr lit = Expr::make(Expr::Kind::IntLit, e->loc);
        bool neg = total < 0;
        lit->intValue = static_cast<uint64_t>(neg ? -total : total);
        lit->type = ctype::intType(IntKind::Long);
        ExprPtr n = Expr::make(Expr::Kind::Binary, e->loc);
        n->binop = neg ? BinOp::Sub : BinOp::Add;
        n->type = e->type;
        n->deriv = frontend::DerivSource::Left;
        n->lhs = std::move(base);
        n->rhs = std::move(lit);
        e = std::move(n);
        ++stats_.foldedArith;
    }

    // ---- pass 2: identity representation writes ----

    bool
    sameLValue(const Expr &a, const Expr &b) const
    {
        if (a.kind != b.kind)
            return false;
        switch (a.kind) {
          case Expr::Kind::Ident:
            return a.text == b.text;
          case Expr::Kind::IntLit:
            return a.intValue == b.intValue;
          case Expr::Kind::Index:
            return sameLValue(*a.lhs, *b.lhs) &&
                sameLValue(*a.rhs, *b.rhs);
          case Expr::Kind::Member:
            return a.text == b.text && a.isArrow == b.isArrow &&
                sameLValue(*a.lhs, *b.lhs);
          case Expr::Kind::Unary:
            return a.unop == b.unop && a.lhs && b.lhs &&
                sameLValue(*a.lhs, *b.lhs);
          case Expr::Kind::Cast:
            return b.lhs && a.lhs && sameLValue(*a.lhs, *b.lhs);
          default:
            return false;
        }
    }

    bool
    isIdentityWrite(const Stmt &s) const
    {
        if (s.kind != Stmt::Kind::Expr || !s.expr)
            return false;
        const Expr &e = *s.expr;
        if (e.kind != Expr::Kind::Assign || e.binop != BinOp::Comma)
            return false;
        // rhs may be wrapped in an implicit conversion.
        const Expr *rhs = e.rhs.get();
        while (rhs->kind == Expr::Kind::Cast && rhs->implicitCast)
            rhs = rhs->lhs.get();
        return sameLValue(*e.lhs, *rhs);
    }

    // ---- pass 3: byte-copy loops to memcpy ----

    /** Match `for (i = 0; i < N; i++) dst[i] = src[i];` over
     *  character types with constant N. */
    bool
    matchCopyLoop(const Stmt &s, const Expr *&dst, const Expr *&src,
                  uint64_t &n) const
    {
        if (s.kind != Stmt::Kind::For || !s.forCond || !s.forStep ||
            !s.thenStmt) {
            return false;
        }
        // Condition: i < const.
        const Expr &cond = *s.forCond;
        if (cond.kind != Expr::Kind::Binary ||
            cond.binop != BinOp::Lt) {
            return false;
        }
        auto bound = constEval(*cond.rhs);
        if (!bound || *bound <= 0)
            return false;
        // Body: single expression statement (possibly in a block).
        const Stmt *body = s.thenStmt.get();
        while (body->kind == Stmt::Kind::Block &&
               body->body.size() == 1) {
            body = body->body[0].get();
        }
        if (body->kind != Stmt::Kind::Expr || !body->expr)
            return false;
        const Expr &as = *body->expr;
        if (as.kind != Expr::Kind::Assign || as.binop != BinOp::Comma)
            return false;
        if (as.lhs->kind != Expr::Kind::Index)
            return false;
        const Expr *rhs = as.rhs.get();
        while (rhs->kind == Expr::Kind::Cast && rhs->implicitCast)
            rhs = rhs->lhs.get();
        if (rhs->kind != Expr::Kind::Index)
            return false;
        // Byte-sized element type on both sides.
        if (!as.lhs->type->isInteger() ||
            layout_.sizeOf(as.lhs->type) != 1 ||
            layout_.sizeOf(rhs->type) != 1) {
            return false;
        }
        dst = as.lhs->lhs.get();
        src = rhs->lhs.get();
        n = static_cast<uint64_t>(*bound);
        return true;
    }

    ExprPtr
    cloneSimple(const Expr &e) const
    {
        ExprPtr n = Expr::make(e.kind, e.loc);
        n->text = e.text;
        n->intValue = e.intValue;
        n->type = e.type;
        n->isLValue = e.isLValue;
        n->unop = e.unop;
        n->binop = e.binop;
        n->isArrow = e.isArrow;
        n->implicitCast = e.implicitCast;
        n->typeOperand = e.typeOperand;
        n->nameKind = e.nameKind;
        n->slot = e.slot;
        n->isEnumConst = e.isEnumConst;
        n->enumValue = e.enumValue;
        if (e.lhs)
            n->lhs = cloneSimple(*e.lhs);
        if (e.rhs)
            n->rhs = cloneSimple(*e.rhs);
        if (e.cond)
            n->cond = cloneSimple(*e.cond);
        for (const auto &a : e.args)
            n->args.push_back(cloneSimple(*a));
        return n;
    }

    StmtPtr
    makeMemcpyStmt(const Stmt &loop, const Expr &dst, const Expr &src,
                   uint64_t n)
    {
        ExprPtr call = Expr::make(Expr::Kind::Call, loop.loc);
        call->builtinId = static_cast<int>(
            intrinsics::Builtin::Memcpy);
        ExprPtr callee = Expr::make(Expr::Kind::Ident, loop.loc);
        callee->text = "memcpy";
        callee->type = ctype::voidType();
        call->lhs = std::move(callee);
        call->args.push_back(cloneSimple(dst));
        call->args.push_back(cloneSimple(src));
        ExprPtr len = Expr::make(Expr::Kind::IntLit, loop.loc);
        len->intValue = n;
        len->type = ctype::intType(IntKind::ULong);
        call->args.push_back(std::move(len));
        call->type = ctype::pointerTo(ctype::voidType());
        StmtPtr st = Stmt::make(Stmt::Kind::Expr, loop.loc);
        st->expr = std::move(call);
        return st;
    }

    // ---- traversal ----

    void
    walkExpr(ExprPtr &e)
    {
        if (!e)
            return;
        walkExpr(e->lhs);
        walkExpr(e->rhs);
        walkExpr(e->cond);
        for (auto &a : e->args)
            walkExpr(a);
        if (opts_.foldTransientArith)
            foldTransient(e);
    }

    void
    walkStmt(Stmt &s)
    {
        if (opts_.loopsToMemcpy) {
            for (auto &sub : s.body) {
                const Expr *dst;
                const Expr *src;
                uint64_t n;
                if (matchCopyLoop(*sub, dst, src, n)) {
                    sub = makeMemcpyStmt(*sub, *dst, *src, n);
                    ++stats_.loopsRewritten;
                }
            }
        }
        if (opts_.elideIdentityWrites) {
            for (auto &sub : s.body) {
                if (isIdentityWrite(*sub)) {
                    sub = Stmt::make(Stmt::Kind::Empty, sub->loc);
                    ++stats_.elidedWrites;
                }
            }
        }
        walkExpr(s.expr);
        walkExpr(s.forCond);
        walkExpr(s.forStep);
        if (s.forInit)
            walkStmt(*s.forInit);
        for (auto &d : s.decls) {
            if (d.hasInit)
                walkInit(d.init);
        }
        for (auto &sub : s.body)
            walkStmt(*sub);
        if (s.thenStmt)
            walkStmt(*s.thenStmt);
        if (s.elseStmt)
            walkStmt(*s.elseStmt);
    }

    void
    walkInit(frontend::Initializer &init)
    {
        if (init.expr)
            walkExpr(init.expr);
        for (auto &sub : init.list)
            walkInit(sub);
    }

    sema::Program &prog_;
    const OptimizeOptions &opts_;
    ctype::LayoutEngine layout_;
    OptimizeStats stats_;
};

} // namespace

OptimizeStats
optimize(sema::Program &prog, const OptimizeOptions &opts)
{
    Optimizer o(prog, opts);
    return o.run();
}

} // namespace cherisem::corelang
