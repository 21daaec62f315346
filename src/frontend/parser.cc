#include "frontend/parser.h"

#include "ctype/layout.h"

#include <cassert>
#include <map>
#include <string_view>
#include <unordered_map>

namespace cherisem::frontend {

using ctype::IntKind;
using ctype::TypeRef;

namespace {

/** One type derivation of a declarator: `*`, `[n]` or `(params)`. */
struct Derivation
{
    enum class Kind { Pointer, Array, Function };

    explicit Derivation(Kind k) : kind(k) {}

    Kind kind;
    bool ptrConst = false;          // Pointer
    uint64_t arraySize = 0;         // Array
    std::vector<TypeRef> params;    // Function
    bool variadic = false;          // Function

    TypeRef
    apply(TypeRef t) const
    {
        switch (kind) {
          case Kind::Pointer: {
            TypeRef p = ctype::pointerTo(std::move(t));
            return ptrConst ? ctype::withConst(p, true) : p;
          }
          case Kind::Array:
            return ctype::arrayOf(std::move(t), arraySize);
          case Kind::Function:
            return ctype::functionType(std::move(t), params, variadic);
        }
        return t;
    }
};

/** A parsed declarator: name (may be empty for abstract declarators)
 *  plus the derivations composing its type around a base. */
struct Decltor
{
    std::string name;
    /** Outermost first: build() applies them from the back, so
     *  `int *a[3]` is {Array 3, Pointer} and `int (*p)[3]` is
     *  {Pointer, Array 3}. */
    std::vector<Derivation> derivs;
    /** Parameter names of the outermost function suffix attached
     *  directly to the identifier (for function definitions). */
    std::vector<std::string> paramNames;
    SourceLoc loc;

    TypeRef
    build(TypeRef t) const
    {
        for (auto it = derivs.rbegin(); it != derivs.rend(); ++it)
            t = it->apply(std::move(t));
        return t;
    }
};

/** Builtin typedef names (stdint/stddef subset), immutable. */
const std::unordered_map<std::string_view, TypeRef> &
builtinTypedefs()
{
    static const std::unordered_map<std::string_view, TypeRef> table = {
        {"size_t", ctype::intType(IntKind::ULong)},
        {"ssize_t", ctype::intType(IntKind::Long)},
        {"ptrdiff_t", ctype::intType(IntKind::Long)},
        {"ptraddr_t", ctype::intType(IntKind::Ptraddr)},
        {"vaddr_t", ctype::intType(IntKind::Ptraddr)},
        {"intptr_t", ctype::intType(IntKind::Intptr)},
        {"uintptr_t", ctype::intType(IntKind::Uintptr)},
        {"intmax_t", ctype::intType(IntKind::LongLong)},
        {"uintmax_t", ctype::intType(IntKind::ULongLong)},
        {"int8_t", ctype::intType(IntKind::SChar)},
        {"uint8_t", ctype::intType(IntKind::UChar)},
        {"int16_t", ctype::intType(IntKind::Short)},
        {"uint16_t", ctype::intType(IntKind::UShort)},
        {"int32_t", ctype::intType(IntKind::Int)},
        {"uint32_t", ctype::intType(IntKind::UInt)},
        {"int64_t", ctype::intType(IntKind::Long)},
        {"uint64_t", ctype::intType(IntKind::ULong)},
    };
    return table;
}

class Parser
{
  public:
    Parser(std::vector<Token> toks, std::vector<FileName> files)
        : toks_(std::move(toks)), files_(std::move(files))
    {
    }

    TranslationUnit
    run()
    {
        while (!at(Tok::End))
            topLevel();
        return std::move(unit_);
    }

  private:
    // ---- token helpers ----

    const Token &cur() const { return toks_[pos_]; }
    const Token &peekTok(size_t off = 1) const
    {
        size_t i = pos_ + off;
        return i < toks_.size() ? toks_[i] : toks_.back();
    }
    bool at(Tok k) const { return cur().kind == k; }

    const Token &
    advance()
    {
        const Token &t = toks_[pos_];
        if (pos_ + 1 < toks_.size())
            ++pos_;
        return t;
    }

    SourceLoc locOf(const Token &t) const
    {
        return SourceLoc{files_[t.file], t.line, t.column};
    }

    /** The type a typedef name denotes: the user's own typedefs first,
     *  then the builtin table; null when @p name is not one. */
    const TypeRef *
    findTypedef(std::string_view name) const
    {
        auto user = typedefs_.find(name);
        if (user != typedefs_.end())
            return &user->second;
        auto builtin = builtinTypedefs().find(name);
        return builtin != builtinTypedefs().end() ? &builtin->second
                                                  : nullptr;
    }

    bool
    accept(Tok k)
    {
        if (at(k)) {
            advance();
            return true;
        }
        return false;
    }

    const Token &
    expect(Tok k, const char *what)
    {
        if (!at(k)) {
            fail(std::string("expected ") + tokName(k) + " (" + what +
                 "), got " + tokName(cur().kind));
        }
        return advance();
    }

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw FrontendError{locOf(cur()), msg};
    }

    // ---- type parsing ----

    bool
    isTypeStart(const Token &t) const
    {
        switch (t.kind) {
          case Tok::KwVoid: case Tok::KwChar: case Tok::KwShort:
          case Tok::KwInt: case Tok::KwLong: case Tok::KwSigned:
          case Tok::KwUnsigned: case Tok::KwFloat: case Tok::KwDouble:
          case Tok::KwBool: case Tok::KwStruct: case Tok::KwUnion:
          case Tok::KwEnum: case Tok::KwConst: case Tok::KwVolatile:
          case Tok::KwStatic: case Tok::KwExtern: case Tok::KwTypedef:
            return true;
          case Tok::Ident:
            return findTypedef(t.text) != nullptr;
          default:
            return false;
        }
    }

    struct DeclSpec
    {
        TypeRef type;
        bool isTypedef = false;
        bool isStatic = false;
        bool isExtern = false;
        bool isConst = false;
    };

    DeclSpec
    parseDeclSpecifiers()
    {
        DeclSpec ds;
        int n_long = 0;
        bool is_unsigned = false, is_signed = false;
        bool saw_base = false;
        TypeRef base;
        for (;;) {
            switch (cur().kind) {
              case Tok::KwTypedef: ds.isTypedef = true; advance(); break;
              case Tok::KwStatic: ds.isStatic = true; advance(); break;
              case Tok::KwExtern: ds.isExtern = true; advance(); break;
              case Tok::KwConst: ds.isConst = true; advance(); break;
              case Tok::KwVolatile: advance(); break;
              case Tok::KwVoid:
                base = ctype::voidType(); saw_base = true; advance();
                break;
              case Tok::KwChar:
                base = ctype::intType(IntKind::Char); saw_base = true;
                advance();
                break;
              case Tok::KwShort:
                base = ctype::intType(IntKind::Short); saw_base = true;
                advance();
                break;
              case Tok::KwInt:
                if (!base)
                    base = ctype::intType(IntKind::Int);
                saw_base = true;
                advance();
                break;
              case Tok::KwLong:
                ++n_long; saw_base = true; advance();
                break;
              case Tok::KwSigned:
                is_signed = true; saw_base = true; advance();
                break;
              case Tok::KwUnsigned:
                is_unsigned = true; saw_base = true; advance();
                break;
              case Tok::KwFloat:
                base = ctype::floatType(ctype::FloatKind::Float);
                saw_base = true; advance();
                break;
              case Tok::KwDouble:
                base = ctype::floatType(ctype::FloatKind::Double);
                saw_base = true; advance();
                break;
              case Tok::KwBool:
                base = ctype::intType(IntKind::Bool); saw_base = true;
                advance();
                break;
              case Tok::KwStruct:
              case Tok::KwUnion:
                base = parseStructOrUnion(); saw_base = true;
                break;
              case Tok::KwEnum:
                base = parseEnum(); saw_base = true;
                break;
              case Tok::Ident: {
                const TypeRef *td = findTypedef(cur().text);
                if (td && !saw_base && !base) {
                    base = *td;
                    saw_base = true;
                    advance();
                    break;
                }
                goto done;
              }
              default:
                goto done;
            }
        }
      done:
        if (!saw_base)
            fail("expected type specifier");
        if (!base || (base->isInteger() &&
                      (n_long || is_unsigned || is_signed))) {
            IntKind k = IntKind::Int;
            if (base && base->isInteger())
                k = base->intKind;
            if (n_long == 1)
                k = IntKind::Long;
            else if (n_long >= 2)
                k = IntKind::LongLong;
            if (is_unsigned)
                k = ctype::toUnsigned(k);
            else if (is_signed && k == IntKind::Char)
                k = IntKind::SChar;
            base = ctype::intType(k);
        }
        if (!base)
            base = ctype::intType(IntKind::Int);
        if (ds.isConst)
            base = ctype::withConst(base, true);
        ds.type = base;
        return ds;
    }

    TypeRef
    parseStructOrUnion()
    {
        bool is_union = cur().kind == Tok::KwUnion;
        advance();
        std::string tag_name;
        if (at(Tok::Ident))
            tag_name = advance().text;
        ctype::TagId tag = unit_.tags.declare(tag_name, is_union);
        if (accept(Tok::LBrace)) {
            std::vector<ctype::Member> members;
            while (!accept(Tok::RBrace)) {
                DeclSpec ds = parseDeclSpecifiers();
                if (accept(Tok::Semi))
                    continue; // Anonymous member-less decl.
                for (;;) {
                    Decltor d = parseDeclarator(false);
                    members.push_back(
                        ctype::Member{d.name, d.build(ds.type)});
                    if (!accept(Tok::Comma))
                        break;
                }
                expect(Tok::Semi, "after struct member");
            }
            unit_.tags.complete(tag, std::move(members));
        }
        return ctype::structOrUnionType(tag);
    }

    TypeRef
    parseEnum()
    {
        advance(); // 'enum'
        if (at(Tok::Ident))
            advance();
        if (accept(Tok::LBrace)) {
            long long next = 0;
            while (!accept(Tok::RBrace)) {
                std::string name = expect(Tok::Ident,
                                          "enumerator").text;
                if (accept(Tok::Assign)) {
                    // Constant expressions: integer literals with an
                    // optional sign (the corpus needs no more).
                    bool neg = accept(Tok::Minus);
                    uint64_t v =
                        expect(Tok::IntLit, "enumerator value").intValue;
                    next = static_cast<long long>(v);
                    if (neg)
                        next = -next;
                }
                unit_.enumConstants[name] = next++;
                if (!accept(Tok::Comma))
                    expect(Tok::RBrace, "after enumerators"), --pos_;
            }
        }
        return ctype::intType(IntKind::Int);
    }

    /** Parse a declarator; @p abstract_ok allows a missing name. */
    Decltor
    parseDeclarator(bool abstract_ok)
    {
        if (accept(Tok::Star)) {
            bool ptr_const = false;
            while (at(Tok::KwConst) || at(Tok::KwVolatile)) {
                if (cur().kind == Tok::KwConst)
                    ptr_const = true;
                advance();
            }
            Decltor inner = parseDeclarator(abstract_ok);
            Derivation ptr(Derivation::Kind::Pointer);
            ptr.ptrConst = ptr_const;
            inner.derivs.push_back(std::move(ptr));
            return inner;
        }
        return parseDirectDeclarator(abstract_ok);
    }

    Decltor
    parseDirectDeclarator(bool abstract_ok)
    {
        Decltor d;
        d.loc = locOf(cur());
        bool is_ident_core = false;
        if (at(Tok::Ident) && !findTypedef(cur().text)) {
            d.name = advance().text;
            is_ident_core = true;
        } else if (at(Tok::LParen) &&
                   (peekTok().kind == Tok::Star ||
                    (peekTok().kind == Tok::Ident &&
                     !findTypedef(peekTok().text)))) {
            advance();
            d = parseDeclarator(abstract_ok);
            expect(Tok::RParen, "after nested declarator");
        } else if (!abstract_ok) {
            fail("expected declarator name");
        }

        // Postfix suffixes wrap the base before the nested
        // declarator's derivations (int (*p)[3]), in source order.
        for (;;) {
            if (accept(Tok::LBracket)) {
                uint64_t n = 0;
                if (!at(Tok::RBracket))
                    n = parseConstArraySize();
                expect(Tok::RBracket, "after array size");
                Derivation arr(Derivation::Kind::Array);
                arr.arraySize = n;
                d.derivs.push_back(std::move(arr));
            } else if (at(Tok::LParen)) {
                advance();
                std::vector<TypeRef> params;
                std::vector<std::string> names;
                bool variadic = false;
                if (at(Tok::KwVoid) &&
                    peekTok().kind == Tok::RParen) {
                    advance();
                } else if (!at(Tok::RParen)) {
                    for (;;) {
                        if (accept(Tok::Ellipsis)) {
                            variadic = true;
                            break;
                        }
                        DeclSpec ps = parseDeclSpecifiers();
                        Decltor pd = parseDeclarator(true);
                        TypeRef pt = pd.build(ps.type);
                        // Array/function params decay.
                        if (pt->isArray())
                            pt = ctype::pointerTo(pt->element);
                        else if (pt->isFunction())
                            pt = ctype::pointerTo(pt);
                        params.push_back(pt);
                        names.push_back(pd.name);
                        if (!accept(Tok::Comma))
                            break;
                    }
                }
                expect(Tok::RParen, "after parameter list");
                if (is_ident_core && d.paramNames.empty())
                    d.paramNames = names;
                Derivation fn(Derivation::Kind::Function);
                fn.params = std::move(params);
                fn.variadic = variadic;
                d.derivs.push_back(std::move(fn));
            } else {
                break;
            }
        }
        return d;
    }

    uint64_t
    parseConstArraySize()
    {
        // Array sizes in the corpus are integer literals or trivial
        // products/sums of them, or sizeof(type).
        uint64_t v = parseConstPrimary();
        for (;;) {
            if (accept(Tok::Star))
                v *= parseConstPrimary();
            else if (accept(Tok::Plus))
                v += parseConstPrimary();
            else if (accept(Tok::Minus))
                v -= parseConstPrimary();
            else
                break;
        }
        return v;
    }

    uint64_t
    parseConstPrimary()
    {
        if (at(Tok::IntLit))
            return advance().intValue;
        if (at(Tok::KwSizeof)) {
            advance();
            expect(Tok::LParen, "after sizeof");
            TypeRef t = parseTypeName();
            expect(Tok::RParen, "after sizeof type");
            // Layout needs the machine; use the Morello layout (a
            // constant array size cannot depend on the profile in
            // the corpus).
            ctype::LayoutEngine le(ctype::MachineLayout{16, 8},
                                   &unit_.tags);
            return le.sizeOf(t);
        }
        if (accept(Tok::LParen)) {
            uint64_t v = parseConstArraySize();
            expect(Tok::RParen, "in constant expression");
            return v;
        }
        fail("expected constant array size");
    }

    TypeRef
    parseTypeName()
    {
        DeclSpec ds = parseDeclSpecifiers();
        Decltor d = parseDeclarator(true);
        if (!d.name.empty())
            fail("unexpected name in type name");
        return d.build(ds.type);
    }

    // ---- expressions ----

    ExprPtr
    parseExpr()
    {
        ExprPtr e = parseAssign();
        while (at(Tok::Comma)) {
            SourceLoc loc = locOf(advance());
            ExprPtr rhs = parseAssign();
            ExprPtr n = Expr::make(Expr::Kind::Binary, loc);
            n->binop = BinOp::Comma;
            n->lhs = std::move(e);
            n->rhs = std::move(rhs);
            e = std::move(n);
        }
        return e;
    }

    ExprPtr
    parseAssign()
    {
        ExprPtr lhs = parseConditional();
        BinOp op;
        switch (cur().kind) {
          case Tok::Assign: op = BinOp::Comma; break; // plain '='
          case Tok::PlusAssign: op = BinOp::Add; break;
          case Tok::MinusAssign: op = BinOp::Sub; break;
          case Tok::StarAssign: op = BinOp::Mul; break;
          case Tok::SlashAssign: op = BinOp::Div; break;
          case Tok::PercentAssign: op = BinOp::Rem; break;
          case Tok::AmpAssign: op = BinOp::BitAnd; break;
          case Tok::PipeAssign: op = BinOp::BitOr; break;
          case Tok::CaretAssign: op = BinOp::BitXor; break;
          case Tok::ShlAssign: op = BinOp::Shl; break;
          case Tok::ShrAssign: op = BinOp::Shr; break;
          default:
            return lhs;
        }
        SourceLoc loc = locOf(advance());
        ExprPtr rhs = parseAssign();
        ExprPtr n = Expr::make(Expr::Kind::Assign, loc);
        n->binop = op;
        n->lhs = std::move(lhs);
        n->rhs = std::move(rhs);
        return n;
    }

    ExprPtr
    parseConditional()
    {
        ExprPtr c = parseBinary(0);
        if (!at(Tok::Question))
            return c;
        SourceLoc loc = locOf(advance());
        ExprPtr t = parseExpr();
        expect(Tok::Colon, "in conditional expression");
        ExprPtr f = parseConditional();
        ExprPtr n = Expr::make(Expr::Kind::Cond, loc);
        n->cond = std::move(c);
        n->lhs = std::move(t);
        n->rhs = std::move(f);
        return n;
    }

    static int
    precedence(Tok t)
    {
        switch (t) {
          case Tok::PipePipe: return 1;
          case Tok::AmpAmp: return 2;
          case Tok::Pipe: return 3;
          case Tok::Caret: return 4;
          case Tok::Amp: return 5;
          case Tok::EqEq: case Tok::NotEq: return 6;
          case Tok::Lt: case Tok::Gt: case Tok::Le: case Tok::Ge:
            return 7;
          case Tok::Shl: case Tok::Shr: return 8;
          case Tok::Plus: case Tok::Minus: return 9;
          case Tok::Star: case Tok::Slash: case Tok::Percent:
            return 10;
          default:
            return -1;
        }
    }

    static BinOp
    tokToBinOp(Tok t)
    {
        switch (t) {
          case Tok::PipePipe: return BinOp::LogOr;
          case Tok::AmpAmp: return BinOp::LogAnd;
          case Tok::Pipe: return BinOp::BitOr;
          case Tok::Caret: return BinOp::BitXor;
          case Tok::Amp: return BinOp::BitAnd;
          case Tok::EqEq: return BinOp::Eq;
          case Tok::NotEq: return BinOp::Ne;
          case Tok::Lt: return BinOp::Lt;
          case Tok::Gt: return BinOp::Gt;
          case Tok::Le: return BinOp::Le;
          case Tok::Ge: return BinOp::Ge;
          case Tok::Shl: return BinOp::Shl;
          case Tok::Shr: return BinOp::Shr;
          case Tok::Plus: return BinOp::Add;
          case Tok::Minus: return BinOp::Sub;
          case Tok::Star: return BinOp::Mul;
          case Tok::Slash: return BinOp::Div;
          case Tok::Percent: return BinOp::Rem;
          default:
            assert(false);
            return BinOp::Add;
        }
    }

    ExprPtr
    parseBinary(int min_prec)
    {
        ExprPtr lhs = parseUnary();
        for (;;) {
            int prec = precedence(cur().kind);
            if (prec < 0 || prec < min_prec)
                return lhs;
            Tok op = cur().kind;
            SourceLoc loc = locOf(advance());
            ExprPtr rhs = parseBinary(prec + 1);
            ExprPtr n = Expr::make(Expr::Kind::Binary, loc);
            n->binop = tokToBinOp(op);
            n->lhs = std::move(lhs);
            n->rhs = std::move(rhs);
            lhs = std::move(n);
        }
    }

    ExprPtr
    parseUnary()
    {
        SourceLoc loc = locOf(cur());
        switch (cur().kind) {
          case Tok::Plus: case Tok::Minus: case Tok::Bang:
          case Tok::Tilde: case Tok::Star: case Tok::Amp: {
            Tok t = advance().kind;
            ExprPtr e = Expr::make(Expr::Kind::Unary, loc);
            switch (t) {
              case Tok::Plus: e->unop = UnOp::Plus; break;
              case Tok::Minus: e->unop = UnOp::Minus; break;
              case Tok::Bang: e->unop = UnOp::LogNot; break;
              case Tok::Tilde: e->unop = UnOp::BitNot; break;
              case Tok::Star: e->unop = UnOp::Deref; break;
              case Tok::Amp: e->unop = UnOp::AddrOf; break;
              default: break;
            }
            e->lhs = parseUnary();
            return e;
          }
          case Tok::PlusPlus:
          case Tok::MinusMinus: {
            bool inc = advance().kind == Tok::PlusPlus;
            ExprPtr e = Expr::make(Expr::Kind::Unary, loc);
            e->unop = inc ? UnOp::PreInc : UnOp::PreDec;
            e->lhs = parseUnary();
            return e;
          }
          case Tok::KwSizeof: {
            advance();
            if (at(Tok::LParen) && isTypeStart(peekTok())) {
                advance();
                ExprPtr e = Expr::make(Expr::Kind::SizeofType, loc);
                e->typeOperand = parseTypeName();
                expect(Tok::RParen, "after sizeof type");
                return e;
            }
            ExprPtr e = Expr::make(Expr::Kind::SizeofExpr, loc);
            e->lhs = parseUnary();
            return e;
          }
          case Tok::KwAlignof: {
            advance();
            expect(Tok::LParen, "after _Alignof");
            ExprPtr e = Expr::make(Expr::Kind::AlignofType, loc);
            e->typeOperand = parseTypeName();
            expect(Tok::RParen, "after _Alignof type");
            return e;
          }
          case Tok::LParen:
            if (isTypeStart(peekTok())) {
                advance();
                TypeRef t = parseTypeName();
                expect(Tok::RParen, "after cast type");
                ExprPtr e = Expr::make(Expr::Kind::Cast, loc);
                e->typeOperand = t;
                e->lhs = parseUnary();
                return e;
            }
            return parsePostfix();
          default:
            return parsePostfix();
        }
    }

    ExprPtr
    parsePostfix()
    {
        ExprPtr e = parsePrimary();
        for (;;) {
            SourceLoc loc = locOf(cur());
            if (accept(Tok::LBracket)) {
                ExprPtr idx = parseExpr();
                expect(Tok::RBracket, "after index");
                ExprPtr n = Expr::make(Expr::Kind::Index, loc);
                n->lhs = std::move(e);
                n->rhs = std::move(idx);
                e = std::move(n);
            } else if (accept(Tok::LParen)) {
                ExprPtr n = Expr::make(Expr::Kind::Call, loc);
                n->lhs = std::move(e);
                if (!at(Tok::RParen)) {
                    for (;;) {
                        n->args.push_back(parseAssign());
                        if (!accept(Tok::Comma))
                            break;
                    }
                }
                expect(Tok::RParen, "after call arguments");
                e = std::move(n);
            } else if (at(Tok::Dot) || at(Tok::Arrow)) {
                bool arrow = advance().kind == Tok::Arrow;
                std::string m = expect(Tok::Ident, "member name").text;
                ExprPtr n = Expr::make(Expr::Kind::Member, loc);
                n->isArrow = arrow;
                n->text = m;
                n->lhs = std::move(e);
                e = std::move(n);
            } else if (at(Tok::PlusPlus) || at(Tok::MinusMinus)) {
                bool inc = advance().kind == Tok::PlusPlus;
                ExprPtr n = Expr::make(Expr::Kind::Unary, loc);
                n->unop = inc ? UnOp::PostInc : UnOp::PostDec;
                n->lhs = std::move(e);
                e = std::move(n);
            } else {
                return e;
            }
        }
    }

    ExprPtr
    parsePrimary()
    {
        SourceLoc loc = locOf(cur());
        switch (cur().kind) {
          case Tok::IntLit: {
            const Token &t = advance();
            ExprPtr e = Expr::make(Expr::Kind::IntLit, loc);
            e->intValue = t.intValue;
            e->litUnsigned = t.litUnsigned;
            e->litLong = t.litLong;
            return e;
          }
          case Tok::CharLit: {
            const Token &t = advance();
            ExprPtr e = Expr::make(Expr::Kind::IntLit, loc);
            e->intValue = t.intValue;
            return e;
          }
          case Tok::FloatLit: {
            const Token &t = advance();
            ExprPtr e = Expr::make(Expr::Kind::FloatLit, loc);
            e->floatValue = t.floatValue;
            return e;
          }
          case Tok::StringLit: {
            const Token &t = advance();
            ExprPtr e = Expr::make(Expr::Kind::StringLit, loc);
            e->text = t.text;
            // Adjacent string literals concatenate.
            while (at(Tok::StringLit))
                e->text += advance().text;
            return e;
          }
          case Tok::Ident: {
            const Token &t = advance();
            if (t.text == "offsetof" && at(Tok::LParen)) {
                advance();
                ExprPtr e = Expr::make(Expr::Kind::OffsetOf, loc);
                e->typeOperand = parseTypeName();
                expect(Tok::Comma, "in offsetof");
                e->text = expect(Tok::Ident, "offsetof member").text;
                expect(Tok::RParen, "after offsetof");
                return e;
            }
            ExprPtr e = Expr::make(Expr::Kind::Ident, loc);
            e->text = t.text;
            return e;
          }
          case Tok::LParen: {
            advance();
            ExprPtr e = parseExpr();
            expect(Tok::RParen, "after parenthesised expression");
            return e;
          }
          default:
            fail(std::string("expected expression, got ") +
                 tokName(cur().kind));
        }
    }

    // ---- statements ----

    Initializer
    parseInitializer()
    {
        Initializer init;
        init.loc = locOf(cur());
        if (accept(Tok::LBrace)) {
            init.isList = true;
            if (!at(Tok::RBrace)) {
                for (;;) {
                    init.list.push_back(parseInitializer());
                    if (!accept(Tok::Comma))
                        break;
                    if (at(Tok::RBrace))
                        break; // trailing comma
                }
            }
            expect(Tok::RBrace, "after initializer list");
        } else {
            init.expr = parseAssign();
        }
        return init;
    }

    std::vector<VarDecl>
    parseDeclBody(const DeclSpec &ds)
    {
        std::vector<VarDecl> out;
        for (;;) {
            Decltor d = parseDeclarator(false);
            VarDecl vd;
            vd.name = d.name;
            vd.type = d.build(ds.type);
            vd.isStatic = ds.isStatic;
            vd.isExtern = ds.isExtern;
            vd.loc = d.loc;
            if (accept(Tok::Assign)) {
                vd.init = parseInitializer();
                vd.hasInit = true;
            }
            out.push_back(std::move(vd));
            if (!accept(Tok::Comma))
                break;
        }
        expect(Tok::Semi, "after declaration");
        return out;
    }

    StmtPtr
    parseStmt()
    {
        SourceLoc loc = locOf(cur());
        switch (cur().kind) {
          case Tok::LBrace:
            return parseBlock();
          case Tok::Semi:
            advance();
            return Stmt::make(Stmt::Kind::Empty, loc);
          case Tok::KwIf: {
            advance();
            expect(Tok::LParen, "after if");
            StmtPtr s = Stmt::make(Stmt::Kind::If, loc);
            s->expr = parseExpr();
            expect(Tok::RParen, "after if condition");
            s->thenStmt = parseStmt();
            if (accept(Tok::KwElse))
                s->elseStmt = parseStmt();
            return s;
          }
          case Tok::KwWhile: {
            advance();
            expect(Tok::LParen, "after while");
            StmtPtr s = Stmt::make(Stmt::Kind::While, loc);
            s->expr = parseExpr();
            expect(Tok::RParen, "after while condition");
            s->thenStmt = parseStmt();
            return s;
          }
          case Tok::KwDo: {
            advance();
            StmtPtr s = Stmt::make(Stmt::Kind::DoWhile, loc);
            s->thenStmt = parseStmt();
            expect(Tok::KwWhile, "after do body");
            expect(Tok::LParen, "after while");
            s->expr = parseExpr();
            expect(Tok::RParen, "after do-while condition");
            expect(Tok::Semi, "after do-while");
            return s;
          }
          case Tok::KwFor: {
            advance();
            expect(Tok::LParen, "after for");
            StmtPtr s = Stmt::make(Stmt::Kind::For, loc);
            if (!accept(Tok::Semi)) {
                if (isTypeStart(cur())) {
                    DeclSpec ds = parseDeclSpecifiers();
                    StmtPtr d = Stmt::make(Stmt::Kind::Decl, loc);
                    d->decls = parseDeclBody(ds);
                    s->forInit = std::move(d);
                } else {
                    StmtPtr e = Stmt::make(Stmt::Kind::Expr, loc);
                    e->expr = parseExpr();
                    expect(Tok::Semi, "after for init");
                    s->forInit = std::move(e);
                }
            }
            if (!at(Tok::Semi))
                s->forCond = parseExpr();
            expect(Tok::Semi, "after for condition");
            if (!at(Tok::RParen))
                s->forStep = parseExpr();
            expect(Tok::RParen, "after for step");
            s->thenStmt = parseStmt();
            return s;
          }
          case Tok::KwSwitch: {
            advance();
            expect(Tok::LParen, "after switch");
            StmtPtr s = Stmt::make(Stmt::Kind::Switch, loc);
            s->expr = parseExpr();
            expect(Tok::RParen, "after switch expression");
            s->thenStmt = parseStmt();
            return s;
          }
          case Tok::KwCase:
          case Tok::KwDefault: {
            // Labeled statement: collect stacked labels, then the
            // statement they prefix.
            std::vector<ExprPtr> labels;
            bool is_default = false;
            while (at(Tok::KwCase) || at(Tok::KwDefault)) {
                if (accept(Tok::KwDefault)) {
                    is_default = true;
                } else {
                    advance();
                    labels.push_back(parseConditional());
                }
                expect(Tok::Colon, "after case label");
            }
            StmtPtr s = parseStmt();
            s->caseExprs = std::move(labels);
            s->isDefault = is_default;
            return s;
          }
          case Tok::KwReturn: {
            advance();
            StmtPtr s = Stmt::make(Stmt::Kind::Return, loc);
            if (!at(Tok::Semi))
                s->expr = parseExpr();
            expect(Tok::Semi, "after return");
            return s;
          }
          case Tok::KwBreak:
            advance();
            expect(Tok::Semi, "after break");
            return Stmt::make(Stmt::Kind::Break, loc);
          case Tok::KwContinue:
            advance();
            expect(Tok::Semi, "after continue");
            return Stmt::make(Stmt::Kind::Continue, loc);
          default:
            if (isTypeStart(cur())) {
                DeclSpec ds = parseDeclSpecifiers();
                StmtPtr s = Stmt::make(Stmt::Kind::Decl, loc);
                s->decls = parseDeclBody(ds);
                return s;
            }
            {
                StmtPtr s = Stmt::make(Stmt::Kind::Expr, loc);
                s->expr = parseExpr();
                expect(Tok::Semi, "after expression");
                return s;
            }
        }
    }

    StmtPtr
    parseBlock()
    {
        SourceLoc loc = locOf(cur());
        expect(Tok::LBrace, "block");
        StmtPtr s = Stmt::make(Stmt::Kind::Block, loc);
        while (!accept(Tok::RBrace))
            s->body.push_back(parseStmt());
        return s;
    }

    // ---- top level ----

    void
    topLevel()
    {
        DeclSpec ds = parseDeclSpecifiers();
        if (ds.isTypedef) {
            for (;;) {
                Decltor d = parseDeclarator(false);
                typedefs_[d.name] = d.build(ds.type);
                if (!accept(Tok::Comma))
                    break;
            }
            expect(Tok::Semi, "after typedef");
            return;
        }
        if (accept(Tok::Semi))
            return; // struct/union/enum declaration only

        Decltor d = parseDeclarator(false);
        TypeRef ty = d.build(ds.type);
        if (ty->isFunction() && at(Tok::LBrace)) {
            FunctionDef fn;
            fn.name = d.name;
            fn.type = ty;
            fn.paramNames = d.paramNames;
            fn.loc = d.loc;
            fn.body = parseBlock();
            unit_.functions.push_back(std::move(fn));
            return;
        }
        if (ty->isFunction()) {
            // Prototype.
            FunctionDef fn;
            fn.name = d.name;
            fn.type = ty;
            fn.paramNames = d.paramNames;
            fn.loc = d.loc;
            unit_.functions.push_back(std::move(fn));
            while (accept(Tok::Comma)) {
                Decltor d2 = parseDeclarator(false);
                FunctionDef fn2;
                fn2.name = d2.name;
                fn2.type = d2.build(ds.type);
                fn2.loc = d2.loc;
                unit_.functions.push_back(std::move(fn2));
            }
            expect(Tok::Semi, "after function prototype");
            return;
        }

        // Global variable(s).
        VarDecl vd;
        vd.name = d.name;
        vd.type = ty;
        vd.isStatic = ds.isStatic;
        vd.isExtern = ds.isExtern;
        vd.loc = d.loc;
        if (accept(Tok::Assign)) {
            vd.init = parseInitializer();
            vd.hasInit = true;
        }
        unit_.globals.push_back(std::move(vd));
        while (accept(Tok::Comma)) {
            Decltor d2 = parseDeclarator(false);
            VarDecl v2;
            v2.name = d2.name;
            v2.type = d2.build(ds.type);
            v2.isStatic = ds.isStatic;
            v2.isExtern = ds.isExtern;
            v2.loc = d2.loc;
            if (accept(Tok::Assign)) {
                v2.init = parseInitializer();
                v2.hasInit = true;
            }
            unit_.globals.push_back(std::move(v2));
        }
        expect(Tok::Semi, "after global declaration");
    }

    const std::vector<Token> toks_;
    /** The lexer's file table (Token::file indexes it). */
    const std::vector<FileName> files_;
    size_t pos_ = 0;
    TranslationUnit unit_;
    /** The user's own typedefs; they shadow the builtin ones. */
    std::map<std::string, TypeRef, std::less<>> typedefs_;
};

} // namespace

TranslationUnit
parse(const std::string &source, const std::string &filename)
{
    std::vector<FileName> files;
    std::vector<Token> toks = lex(source, makeFileName(filename), &files);
    Parser p(std::move(toks), std::move(files));
    return p.run();
}

} // namespace cherisem::frontend
