/**
 * @file
 * Machine method bodies: the tree-walking evaluator and every
 * semantic rule of the abstract machine.  The post-operand value
 * transformations (binaryOp, castValueOp, incDecNext, compoundNext,
 * builtinCall) are separate methods from the Expr-walking code that
 * evaluates their operands.
 */
#include "corelang/machine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <string_view>

#include "obs/sinks.h"
#include "support/format.h"

namespace cherisem::corelang {

namespace {

/** @p t without top-level const; allocates (into @p storage) only
 *  when @p t has it, so the common case copies no TypeRef. */
const ctype::TypeRef &
unqualified(const ctype::TypeRef &t, ctype::TypeRef &storage)
{
    if (!t->isConst)
        return t;
    storage = ctype::withConst(t, false);
    return storage;
}

} // namespace

using frontend::BinOp;
using frontend::DerivSource;
using frontend::Expr;
using frontend::Stmt;
using frontend::UnOp;
using ctype::IntKind;
using ctype::intType;
using ctype::Type;
using ctype::TypeRef;
using mem::Failure;
using mem::IntegerValue;
using mem::MemValue;
using mem::PointerValue;
using mem::Provenance;
using mem::Ub;
using cap::Capability;
using intrinsics::Builtin;

Machine::Machine(const sema::Program &prog, const EvalOptions &opts)
    : prog_(prog), opts_(opts), mm_(opts.memConfig),
      globals_(prog.numGlobalSlots), stringLits_(prog.numStringLits),
      staticLocals_(prog.numStaticLocals),
      funcPtrs_(prog.unit.functions.size())
{
    mm_.setTagTable(&prog_.unit.tags);
    checkAt_ = nextCheckAt();
}

uint64_t
Machine::nextCheckAt() const
{
    // Saturate: maxSteps == UINT64_MAX means "unlimited".
    uint64_t limit = opts_.maxSteps == UINT64_MAX
                         ? UINT64_MAX
                         : opts_.maxSteps + 1;
    if (!opts_.hasWatchdog())
        return limit;
    return std::min(limit, steps_ + kWatchdogPollSteps);
}

bool
Machine::pollWatchdog(const SourceLoc &loc)
{
    if (opts_.cancel &&
        opts_.cancel->load(std::memory_order_relaxed)) {
        fail(mem::Failure::resourceExhausted("cancelled", loc));
        return false;
    }
    if (opts_.deadline.time_since_epoch().count() != 0 &&
        std::chrono::steady_clock::now() >= opts_.deadline) {
        fail(mem::Failure::resourceExhausted(
            "wall-clock deadline exceeded", loc));
        return false;
    }
    return true;
}

bool
Machine::stepSlow(const SourceLoc &loc)
{
    if (steps_ > opts_.maxSteps) {
        fail(mem::Failure::resourceExhausted(
            "step limit exceeded (non-terminating program?)", loc));
        return false;
    }
    if (!pollWatchdog(loc))
        return false;
    checkAt_ = nextCheckAt();
    return true;
}

// The raise paths are cold: kept out of line, they leave the
// evaluator's hot frames one predictable branch per check.

[[gnu::cold, gnu::noinline]] void
Machine::halt(Verdict v)
{
    assert(!halted() && "a second verdict after the first");
    verdict_ = std::move(v);
}

[[gnu::cold, gnu::noinline]] void
Machine::fail(Failure f)
{
    halt(std::move(f));
}

[[gnu::cold, gnu::noinline]] void
Machine::failUb(Ub ub, const SourceLoc &loc, std::string msg)
{
    halt(Failure::undefined(ub, loc, std::move(msg)));
}

void
Machine::verdictOutcome(Outcome &out)
{
    Verdict v = std::exchange(verdict_, std::monostate{});
    if (const auto *e = std::get_if<Exited>(&v)) {
        out.kind = Outcome::Kind::Exit;
        out.exitCode = e->code;
        return;
    }
    if (auto *a = std::get_if<Aborted>(&v)) {
        out.kind = Outcome::Kind::AssertFail;
        out.message = std::move(a->message);
        return;
    }
    Failure &f = std::get<Failure>(v);
    out.kind = f.isUb() ? Outcome::Kind::Undefined
        : f.kind == Failure::Kind::ResourceExhausted
        ? Outcome::Kind::ResourceExhausted
        : Outcome::Kind::Error;
    out.message = f.str();
    // Witness the UB verdict with its source location; this
    // is the stream's terminal event for undefined runs.
    if (f.isUb() && mm_.tracer().enabled()) {
        mm_.tracer().emit(
            {.kind = obs::EventKind::UbRaise,
             .a = static_cast<uint64_t>(f.ub),
             .line = f.loc.line,
             .label = mem::ubName(f.ub)});
    }
    out.failure = std::move(f);
}

void
Machine::finalizeOutcome(Outcome &out)
{
    out.output = output_;
    out.memStats = mm_.stats();
    out.steps = steps_;
    for (size_t i = 0; i < kNumBuiltins; ++i) {
        const char *name =
            intrinsics::builtinName(static_cast<Builtin>(i));
        if (intrinsicCount_[i] > 0)
            out.intrinsicCalls[name] = intrinsicCount_[i];
        if (intrinsicNs_[i] > 0)
            out.intrinsicNanos[name] = intrinsicNs_[i];
    }
}

Outcome
Machine::run()
{
    if (std::optional<Outcome> out = runPrelude())
        return *out;
    return runMain();
}

std::optional<Outcome>
Machine::runPrelude()
{
    if (initGlobals()) {
        auto it = prog_.functionIndex.find(kPreludeFunction);
        if (it != prog_.functionIndex.end() &&
            prog_.unit.functions[it->second].body) {
            callFunction(it->second, {});
        }
        if (!halted())
            return std::nullopt;
    }
    Outcome out;
    verdictOutcome(out);
    finalizeOutcome(out);
    return out;
}

Outcome
Machine::runMain()
{
    Outcome out;
    auto it = prog_.functionIndex.find("main");
    if (it == prog_.functionIndex.end() ||
        !prog_.unit.functions[it->second].body) {
        out.kind = Outcome::Kind::Error;
        out.message = "no main function";
    } else {
        MemValue r = callFunction(it->second, {});
        if (halted()) {
            verdictOutcome(out);
        } else {
            out.kind = Outcome::Kind::Exit;
            out.exitCode = r.isInteger()
                               ? static_cast<int>(r.asInteger().value())
                               : 0;
        }
    }
    finalizeOutcome(out);
    return out;
}

// ---- snapshot / restore ----

Machine::SnapshotPtr
Machine::capture() const
{
    // Quiescent point only: no live frames means every piece of
    // machine state that matters is in the members captured below.
    assert(scopeMarks_.empty() && locals_.empty() && frame_.empty() &&
           callDepth_ == 0 && "capture() outside a quiescent point");
    auto snap = std::make_shared<Snapshot>();
    snap->mem = mm_.snapshot();
    snap->globals = globals_;
    snap->stringLits = stringLits_;
    snap->staticLocals = staticLocals_;
    snap->funcPtrs = funcPtrs_;
    snap->output = output_;
    snap->steps = steps_;
    snap->intrinsicCount = intrinsicCount_;
    snap->intrinsicNs = intrinsicNs_;
    return snap;
}

void
Machine::restoreSnapshot(const SnapshotPtr &snap)
{
    assert(snap);
    mm_.restore(snap->mem);
    globals_ = snap->globals;
    stringLits_ = snap->stringLits;
    staticLocals_ = snap->staticLocals;
    funcPtrs_ = snap->funcPtrs;
    output_ = snap->output;
    steps_ = snap->steps;
    intrinsicCount_ = snap->intrinsicCount;
    intrinsicNs_ = snap->intrinsicNs;
    frame_.clear();
    frameBase_ = 0;
    locals_.clear();
    scopeMarks_.clear();
    callDepth_ = 0;
    verdict_ = std::monostate{};
    // steps_ moved: recompute the step/watchdog poll boundary.
    checkAt_ = nextCheckAt();
}

namespace {

std::shared_ptr<WarmEntry>
buildEntry(Machine &m)
{
    auto entry = std::make_shared<WarmEntry>();
    std::optional<Outcome> pre = m.runPrelude();
    if (pre) {
        entry->terminal = true;
        entry->preludeOutcome = std::move(*pre);
    } else {
        entry->snap = m.capture();
    }
    return entry;
}

} // namespace

WarmPtr
buildWarm(Machine &m)
{
    return buildEntry(m);
}

WarmPtr
buildWarm(Machine &m, const obs::RingBufferSink &ring)
{
    std::shared_ptr<WarmEntry> entry = buildEntry(m);
    entry->preludeEvents = ring.snapshot();
    return entry;
}

Outcome
runWarm(const sema::Program &prog, const EvalOptions &opts,
        const WarmEntry &entry,
        const std::function<void(Machine &)> &hook)
{
    obs::TraceSink *sink = opts.memConfig.traceSink;
    // Either the entry re-emits the prelude's events or the sink has
    // them already; never both, never neither.
    assert(!sink || sink->resumed() != entry.preludeEvents.has_value());
    auto replayPrelude = [&] {
        if (sink && entry.preludeEvents)
            for (const obs::TraceEvent &e : *entry.preludeEvents)
                sink->emit(e);
    };
    if (entry.terminal) {
        replayPrelude();
        return entry.preludeOutcome;
    }
    Machine m(prog, opts);
    m.restoreSnapshot(entry.snap);
    replayPrelude();
    if (hook)
        hook(m);
    return m.runMain();
}

bool
Machine::pokeGlobalInt(const std::string &name, int64_t value)
{
    auto it = prog_.globalSlots.find(name);
    if (it == prog_.globalSlots.end())
        return false;
    const GlobalBinding &b = globals_[it->second];
    if (!b.bound() || !globalDef(b).type->isInteger())
        return false;
    const TypeRef &ty = globalDef(b).type;
    SourceLoc loc{};
    return mm_.store(loc, ty, writablePlace(b.place),
                     MemValue(makeInt(loc, ty->intKind, value)))
        .ok();
}

// ---- globals ----

bool
Machine::initGlobals()
{
    const std::vector<frontend::VarDecl> &defs = prog_.unit.globals;
    // One static object per global slot, at the name's defining
    // declaration: the one with an initializer, else the last one
    // (a bare `extern` defines nothing).
    for (uint32_t i = 0; i < defs.size(); ++i) {
        const frontend::VarDecl &g = defs[i];
        if (g.isExtern && !g.hasInit)
            continue;
        GlobalBinding &b = globals_[g.slot];
        if (!b.bound() || !defs[b.def].hasInit)
            b.def = i;
    }
    auto defining = [&](uint32_t i) {
        return globals_[defs[i].slot].def == i;
    };
    // Objects are laid out, zeroed and initialized in declaration
    // order.  Two passes so address-of-global initializers see every
    // global; static storage is zero-initialized first.
    for (uint32_t i = 0; i < defs.size(); ++i) {
        const frontend::VarDecl &g = defs[i];
        if (!defining(i))
            continue;
        PointerValue place = take(mm_.allocateObject(
            g.name, g.type, g.type->isConst, /*is_static=*/true));
        if (halted())
            return false;
        globals_[g.slot].place = std::move(place);
    }
    for (uint32_t i = 0; i < defs.size(); ++i) {
        if (defining(i) &&
            !storeZero(defs[i].loc, globals_[defs[i].slot].place,
                       defs[i].type))
            return false;
    }
    for (uint32_t i = 0; i < defs.size(); ++i) {
        const frontend::VarDecl &g = defs[i];
        if (defining(i) && g.hasInit &&
            !storeInitializer(g.loc, globals_[g.slot].place, g.type,
                              g.init))
            return false;
    }
    return true;
}

bool
Machine::storeZero(const SourceLoc &loc, const PointerValue &place,
                   const TypeRef &ty)
{
    // Static zero-initialization: write zero bytes for the whole
    // footprint (null caps for pointer members fall out of the
    // all-zero representation plus absent tags).
    uint64_t n = mm_.layout().sizeOf(ty);
    return check(mm_.memsetOp(loc, writablePlace(place), 0, n,
                              /*initializing=*/true));
}

PointerValue
Machine::writablePlace(const PointerValue &p) const
{
    if (!p.cap || p.cap->canStore())
        return p;
    PointerValue q = p;
    q.cap = p.cap->withPerms(cap::PermSet::all())
                .withTag(p.cap->tag());
    // withPerms intersects; rebuild from a fresh data-perm cap.
    Capability c = Capability::make(
        mm_.arch(), static_cast<uint64_t>(p.cap->base()),
        p.cap->top(), cap::PermSet::data());
    q.cap = c.withAddress(p.cap->address());
    return q;
}

bool
Machine::storeInitializer(const SourceLoc &loc, const PointerValue &place,
                          const TypeRef &ty,
                          const frontend::Initializer &init)
{
    PointerValue wplace = writablePlace(place);
    if (!init.isList) {
        // char a[N] = "literal";
        if (ty->isArray() && init.expr->kind == Expr::Kind::Cast &&
            init.expr->lhs->kind == Expr::Kind::StringLit) {
            return storeStringInto(loc, wplace, ty,
                                   init.expr->lhs->text);
        }
        if (ty->isArray() &&
            init.expr->kind == Expr::Kind::StringLit) {
            return storeStringInto(loc, wplace, ty, init.expr->text);
        }
        MemValue v = evalExpr(*init.expr);
        if (halted())
            return false;
        return check(mm_.store(loc, ty, wplace, v,
                               /*initializing=*/true));
    }
    if (ty->isArray()) {
        uint64_t esize = mm_.layout().sizeOf(ty->element);
        for (uint64_t i = 0; i < ty->arraySize; ++i) {
            PointerValue ep = wplace;
            ep.cap = wplace.cap->withAddress(wplace.address() +
                                             i * esize);
            bool stored = i < init.list.size()
                ? storeInitializer(loc, ep, ty->element, init.list[i])
                : storeZero(loc, ep, ty->element);
            if (!stored)
                return false;
        }
        return true;
    }
    if (ty->isStructOrUnion()) {
        const ctype::TagDef &def = prog_.unit.tags.get(ty->tag);
        size_t limit = def.isUnion
                           ? std::min<size_t>(1, init.list.size())
                           : def.members.size();
        for (size_t i = 0; i < limit; ++i) {
            ctype::FieldLoc fl = mm_.layout().fieldAt(
                ty->tag, static_cast<uint32_t>(i));
            PointerValue mp = wplace;
            mp.cap = wplace.cap->withAddress(wplace.address() +
                                             fl.offset);
            bool stored = i < init.list.size()
                ? storeInitializer(loc, mp, *fl.type, init.list[i])
                : storeZero(loc, mp, *fl.type);
            if (!stored)
                return false;
        }
        return true;
    }
    // Scalar with braces.
    if (!init.list.empty())
        return storeInitializer(loc, wplace, ty, init.list[0]);
    return true;
}

bool
Machine::storeStringInto(const SourceLoc &loc, const PointerValue &place,
                         const TypeRef &ty, const std::string &s)
{
    uint64_t n = ty->arraySize;
    for (uint64_t i = 0; i < n; ++i) {
        uint8_t byte = i < s.size() ? s[i] : 0;
        PointerValue bp = place;
        bp.cap = place.cap->withAddress(place.address() + i);
        if (!check(mm_.store(loc, intType(IntKind::Char), bp,
                             MemValue(IntegerValue::ofNum(
                                 IntKind::Char, byte)),
                             /*initializing=*/true)))
            return false;
    }
    return true;
}

PointerValue
Machine::stringLiteralPlace(const Expr &e)
{
    if (stringLits_[e.slot].cap)
        return stringLits_[e.slot];
    PointerValue place = take(mm_.allocateObject(
        "\"" + e.text.substr(0, 8) + "\"", e.type, /*read_only=*/true,
        /*is_static=*/true));
    if (halted() ||
        !storeStringInto(e.loc, writablePlace(place), e.type, e.text))
        return {};
    stringLits_[e.slot] = place;
    return place;
}

// ---- integer helpers ----

__int128
Machine::fitInt(const SourceLoc &loc, IntKind k, __int128 v,
                bool check_overflow)
{
    unsigned bits = mm_.layout().intValueBytes(k) * 8;
    if (k == IntKind::Bool)
        return v != 0 ? 1 : 0;
    if (isSignedKind(k)) {
        __int128 lo = mm_.layout().intMin(k);
        __int128 hi = mm_.layout().intMax(k);
        if (v < lo || v > hi) {
            if (check_overflow) {
                failUb(Ub::SignedOverflow, loc);
                return 0;
            }
            // Implementation-defined conversion: wrap.
            cherisem::uint128 m =
                static_cast<cherisem::uint128>(v) &
                ((cherisem::uint128(1) << bits) - 1);
            __int128 r = static_cast<__int128>(m);
            if ((m >> (bits - 1)) & 1)
                r -= static_cast<__int128>(cherisem::uint128(1)
                                           << bits);
            return r;
        }
        return v;
    }
    cherisem::uint128 m = static_cast<cherisem::uint128>(v);
    if (bits < 128)
        m &= (cherisem::uint128(1) << bits) - 1;
    return static_cast<__int128>(m);
}

int64_t
Machine::fitNarrow(const SourceLoc &loc, IntKind k, int64_t v,
                   bool check_overflow)
{
    // Same rule as fitInt, in 64 bits: the kind's values have at
    // most 32 bits, so every wrap below is exact.
    if (k == IntKind::Bool)
        return v != 0 ? 1 : 0;
    unsigned shift = 64 - mm_.layout().intValueBytes(k) * 8;
    if (isSignedKind(k)) {
        int64_t r = static_cast<int64_t>(static_cast<uint64_t>(v)
                                         << shift) >>
            shift;
        if (r != v && check_overflow) {
            failUb(Ub::SignedOverflow, loc);
            return 0;
        }
        return r;
    }
    return static_cast<int64_t>((static_cast<uint64_t>(v) << shift) >>
                                shift);
}

IntegerValue
Machine::fittedInt(IntKind k, __int128 v)
{
    if (k == IntKind::Intptr || k == IntKind::Uintptr) {
        Capability c = Capability::null(mm_.arch())
                           .withAddress(static_cast<uint64_t>(v));
        return IntegerValue::ofCap(k, c, Provenance::empty());
    }
    return IntegerValue::ofNum(k, v);
}

bool
Machine::truthy(const SourceLoc &loc, const MemValue &v)
{
    if (v.isInteger())
        return v.asInteger().value() != 0;
    if (v.isPointer())
        return !v.asPointer().isNull() &&
            v.asPointer().address() != 0;
    if (v.isFloating())
        return v.asFloating().value != 0;
    if (v.isUnspec())
        failUb(Ub::UseOfIndeterminateValue, loc);
    else
        fail(Failure::constraint("non-scalar condition", loc));
    return false;
}

bool
Machine::test(const Expr &c, const SourceLoc &loc)
{
    MemValue v = evalExpr(c);
    return !halted() && truthy(loc, v);
}

// ---- environment ----

void
Machine::unbound(const Expr &e)
{
    fail(Failure::internal("unbound identifier " + e.text, e.loc));
}

const PointerValue *
Machine::namedPlace(const Expr &e)
{
    const PointerValue *p = nullptr;
    if (e.nameKind == frontend::NameKind::Local)
        p = &frame_[frameBase_ + e.slot];
    else if (e.nameKind == frontend::NameKind::Global)
        p = &globals_[e.slot].place;
    // An unbound slot: a global with no definition, or a local whose
    // declaration a switch jumped over.
    if (__builtin_expect(!p || !p->cap, 0)) {
        unbound(e);
        return nullptr;
    }
    return p;
}

void
Machine::bindLocal(uint32_t slot, const PointerValue &place, bool owned)
{
    size_t at = frameBase_ + slot;
    frame_[at] = place;
    locals_.push_back(Local{place, at, owned});
}

bool
Machine::popScope(const SourceLoc &loc)
{
    size_t mark = scopeMarks_.back();
    for (size_t i = locals_.size(); i-- > mark;) {
        if (locals_[i].owned &&
            !check(mm_.kill(loc, false, locals_[i].place)))
            return false;
    }
    // A caller on the terminal path may pop a scope of a callee whose
    // frame is already gone; only slots still on the stack are
    // unbound.
    for (size_t i = mark; i < locals_.size(); ++i) {
        if (locals_[i].slot < frame_.size())
            frame_[locals_[i].slot] = PointerValue();
    }
    locals_.resize(mark);
    scopeMarks_.pop_back();
    return true;
}

// ---- lvalues ----

PointerValue
Machine::evalLValue(const Expr &e)
{
    if (!step(e.loc))
        return {};
    switch (e.kind) {
      case Expr::Kind::Ident: {
        const PointerValue *p = namedPlace(e);
        return p ? *p : PointerValue();
      }
      case Expr::Kind::StringLit:
        return stringLiteralPlace(e);
      case Expr::Kind::Unary:
        if (e.unop == UnOp::Deref) {
            MemValue p = evalExpr(*e.lhs);
            if (halted())
                return {};
            return pointerOf(e.loc, p);
        }
        break;
      case Expr::Kind::Index: {
        const Expr &pe =
            e.lhs->type->isPointer() ? *e.lhs : *e.rhs;
        const Expr &ie =
            e.lhs->type->isPointer() ? *e.rhs : *e.lhs;
        MemValue pv = evalExpr(pe);
        if (halted())
            return {};
        MemValue iv = evalExpr(ie);
        if (halted())
            return {};
        PointerValue p = pointerOf(e.loc, pv);
        if (halted())
            return {};
        __int128 idx = iv.asInteger().value();
        return take(mm_.arrayShift(e.loc, p, e.type, idx));
      }
      case Expr::Kind::Member: {
        PointerValue base;
        if (e.isArrow) {
            MemValue v = evalExpr(*e.lhs);
            if (halted())
                return {};
            base = pointerOf(e.loc, v);
        } else {
            base = evalLValue(*e.lhs);
        }
        if (halted())
            return {};
        ctype::TagId tag = e.isArrow
                               ? e.lhs->type->pointee->tag
                               : e.lhs->type->tag;
        return mm_.memberShift(base, tag, e.slot);
      }
      default:
        break;
    }
    fail(Failure::internal("expression is not an lvalue", e.loc));
    return {};
}

PointerValue
Machine::pointerOf(const SourceLoc &loc, const MemValue &v)
{
    if (v.isPointer())
        return v.asPointer();
    if (v.isUnspec())
        failUb(Ub::UseOfIndeterminateValue, loc);
    else
        fail(Failure::internal("pointer value expected", loc));
    return {};
}

// ---- expressions ----

MemValue
Machine::evalExpr(const Expr &e)
{
    if (!step(e.loc))
        return {};
    switch (e.kind) {
      case Expr::Kind::IntLit:
        return MemValue(makeInt(e.loc, e.type->intKind,
                                static_cast<__int128>(e.intValue)));
      case Expr::Kind::FloatLit: {
        mem::FloatingValue fv;
        fv.kind = e.type->floatKind;
        fv.value = e.floatValue;
        return MemValue(fv);
      }
      case Expr::Kind::StringLit: {
        // Only reachable for whole-array loads; normally wrapped
        // in a decay cast.
        PointerValue place = stringLiteralPlace(e);
        if (halted())
            return {};
        return take(mm_.load(e.loc, e.type, place));
      }
      case Expr::Kind::Ident:
        switch (e.nameKind) {
          case frontend::NameKind::Local: {
            const PointerValue *place = namedPlace(e);
            if (!place)
                return {};
            return take(mm_.load(e.loc, e.type, *place));
          }
          case frontend::NameKind::Global: {
            const GlobalBinding &b = globals_[e.slot];
            if (__builtin_expect(!b.bound(), 0)) {
                unbound(e);
                return {};
            }
            return take(mm_.load(e.loc, globalDef(b).type, b.place));
          }
          case frontend::NameKind::Function:
            return MemValue(functionPointer(e.slot));
          case frontend::NameKind::None:
            break;
        }
        if (e.isEnumConst) {
            return MemValue(
                makeInt(e.loc, IntKind::Int, e.enumValue));
        }
        unbound(e);
        return {};
      case Expr::Kind::Unary:
        return evalUnary(e);
      case Expr::Kind::Binary:
        return evalBinary(e);
      case Expr::Kind::Assign:
        return evalAssign(e);
      case Expr::Kind::Cond: {
        bool c = test(*e.cond, e.cond->loc);
        if (halted())
            return {};
        return evalExpr(c ? *e.lhs : *e.rhs);
      }
      case Expr::Kind::Cast:
        return evalCast(e);
      case Expr::Kind::Call:
        return evalCall(e);
      case Expr::Kind::Index:
      case Expr::Kind::Member: {
        PointerValue place = evalLValue(e);
        if (halted())
            return {};
        return take(mm_.load(e.loc, e.type, place));
      }
      case Expr::Kind::SizeofExpr:
        return MemValue(makeInt(
            e.loc, IntKind::ULong,
            static_cast<__int128>(
                mm_.layout().sizeOf(e.lhs->type))));
      case Expr::Kind::SizeofType:
        return MemValue(makeInt(
            e.loc, IntKind::ULong,
            static_cast<__int128>(
                mm_.layout().sizeOf(e.typeOperand))));
      case Expr::Kind::AlignofType:
        return MemValue(makeInt(
            e.loc, IntKind::ULong,
            static_cast<__int128>(
                mm_.layout().alignOf(e.typeOperand))));
      case Expr::Kind::OffsetOf: {
        ctype::FieldLoc fl =
            mm_.layout().fieldOf(e.typeOperand->tag, e.text);
        return MemValue(makeInt(
            e.loc, IntKind::ULong,
            static_cast<__int128>(fl.offset)));
      }
    }
    fail(Failure::internal("unhandled expression", e.loc));
    return {};
}

PointerValue
Machine::functionPointer(uint32_t idx)
{
    if (!funcPtrs_[idx].cap) {
        funcPtrs_[idx] = mm_.makeFunctionPointer(
            idx, prog_.unit.functions[idx].name);
    }
    return funcPtrs_[idx];
}

MemValue
Machine::evalUnary(const Expr &e)
{
    switch (e.unop) {
      case UnOp::Deref: {
        MemValue p = evalExpr(*e.lhs);
        if (halted() || e.type->isFunction())
            return p; // *fp is the function designator.
        PointerValue place = pointerOf(e.loc, p);
        if (halted())
            return {};
        return take(mm_.load(e.loc, e.type, place));
      }
      case UnOp::AddrOf: {
        if (e.lhs->type->isFunction()) {
            if (e.lhs->kind == Expr::Kind::Ident &&
                e.lhs->nameKind == frontend::NameKind::Function)
                return MemValue(functionPointer(e.lhs->slot));
            return evalExpr(*e.lhs);
        }
        PointerValue place = evalLValue(*e.lhs);
        return MemValue(place);
      }
      case UnOp::Plus:
      case UnOp::Minus:
      case UnOp::BitNot:
      case UnOp::LogNot: {
        MemValue v = evalExpr(*e.lhs);
        if (halted())
            return {};
        return unaryValueOp(e, v);
      }
      case UnOp::PreInc:
      case UnOp::PreDec:
      case UnOp::PostInc:
      case UnOp::PostDec: {
        bool pre = e.unop == UnOp::PreInc ||
            e.unop == UnOp::PreDec;
        PointerValue place = evalLValue(*e.lhs);
        if (halted())
            return {};
        TypeRef storage;
        const TypeRef &ty = unqualified(e.lhs->type, storage);
        MemValue old = take(mm_.load(e.loc, ty, place));
        if (halted())
            return {};
        MemValue next = incDecNext(e, ty, old);
        if (halted() || !check(mm_.store(e.loc, ty, place, next)))
            return {};
        return pre ? next : old;
      }
    }
    fail(Failure::internal("unhandled unary op", e.loc));
    return {};
}

MemValue
Machine::unaryValueOp(const Expr &e, const MemValue &v)
{
    switch (e.unop) {
      case UnOp::Plus:
        return v;
      case UnOp::Minus: {
        if (v.isFloating()) {
            mem::FloatingValue fv = v.asFloating();
            fv.value = -fv.value;
            return MemValue(fv);
        }
        return MemValue(intArith(e.loc, BinOp::Sub, e.type,
                                 makeInt(e.loc, e.type->intKind, 0),
                                 v.asInteger(),
                                 DerivSource::Right));
      }
      case UnOp::BitNot: {
        const IntegerValue &iv = v.asInteger();
        __int128 r = ~iv.value();
        return MemValue(capPreservingInt(e.loc, e.type->intKind,
                                         r, iv));
      }
      case UnOp::LogNot: {
        bool t = truthy(e.loc, v);
        return MemValue(makeInt(e.loc, IntKind::Int, t ? 0 : 1));
      }
      default:
        break;
    }
    fail(Failure::internal("unhandled unary op", e.loc));
    return {};
}

MemValue
Machine::incDecNext(const Expr &e, const TypeRef &ty, const MemValue &old)
{
    bool inc = e.unop == UnOp::PreInc || e.unop == UnOp::PostInc;
    if (ty->isPointer()) {
        PointerValue p = pointerOf(e.loc, old);
        if (halted())
            return {};
        return MemValue(take(mm_.arrayShift(
            e.loc, p, ty->pointee, inc ? 1 : -1)));
    }
    if (ty->isFloating()) {
        mem::FloatingValue fv = old.asFloating();
        fv.value += inc ? 1 : -1;
        return MemValue(fv);
    }
    return MemValue(intArith(
        e.loc, inc ? BinOp::Add : BinOp::Sub, ty,
        old.asInteger(),
        makeInt(e.loc, ty->intKind, 1),
        DerivSource::Left));
}

Capability
Machine::addressArith(const Capability &c, uint64_t a) const
{
    return mm_.config().ghostState ? c.withAddressGhost(a)
                                   : c.withAddress(a);
}

IntegerValue
Machine::capPreservingInt(const SourceLoc &loc, IntKind k, __int128 v,
                          const IntegerValue &src)
{
    v = fitInt(loc, k, v, /*check_overflow=*/false);
    if ((k == IntKind::Intptr || k == IntKind::Uintptr) &&
        src.isCap()) {
        Capability c = addressArith(*src.cap,
                                    static_cast<uint64_t>(v));
        return IntegerValue::ofCap(k, c, src.prov);
    }
    return makeInt(loc, k, v);
}

IntegerValue
Machine::intArith(const SourceLoc &loc, BinOp op, const TypeRef &ty,
                  const IntegerValue &a, const IntegerValue &b,
                  DerivSource deriv)
{
    IntKind k = ty->intKind;
    bool is_signed = isSignedKind(k);
    const ctype::LayoutEngine &layout = mm_.layout();
    // Narrow fast path: a result kind of at most 32 value bits
    // (never (u)intptr_t, which carries a capability) on operands
    // that are plain numbers within 64 bits.  Whenever the exact
    // result fits 64 bits — always, for operands of such kinds — the
    // 64-bit operation followed by the same fit is the 128-bit rule;
    // otherwise the wide path below computes it.
    if (layout.intValueBytes(k) <= 4 && k != IntKind::Intptr &&
        k != IntKind::Uintptr && !a.isCap() && !b.isCap() &&
        a.num == static_cast<int64_t>(a.num) &&
        b.num == static_cast<int64_t>(b.num)) {
        int64_t x = static_cast<int64_t>(a.num);
        int64_t y = static_cast<int64_t>(b.num);
        int64_t r = 0;
        bool narrow = true;
        switch (op) {
          case BinOp::Add:
            narrow = !__builtin_add_overflow(x, y, &r);
            break;
          case BinOp::Sub:
            narrow = !__builtin_sub_overflow(x, y, &r);
            break;
          case BinOp::Mul:
            narrow = !__builtin_mul_overflow(x, y, &r);
            break;
          case BinOp::Div:
          case BinOp::Rem:
            if (y == 0) {
                failUb(Ub::DivisionByZero, loc);
                return {};
            }
            if (x == INT64_MIN && y == -1) {
                narrow = false;
                break;
            }
            r = op == BinOp::Div ? x / y : x % y;
            break;
          case BinOp::BitAnd: r = x & y; break;
          case BinOp::BitOr: r = x | y; break;
          case BinOp::BitXor: r = x ^ y; break;
          default: narrow = false; break;
        }
        if (narrow)
            return IntegerValue::ofNum(
                k, fitNarrow(loc, k, r, /*check_overflow=*/is_signed));
    }

    __int128 x = a.value();
    __int128 y = b.value();
    __int128 r = 0;
    switch (op) {
      case BinOp::Add: r = x + y; break;
      case BinOp::Sub: r = x - y; break;
      case BinOp::Mul: r = x * y; break;
      case BinOp::Div:
      case BinOp::Rem:
        if (y == 0) {
            failUb(Ub::DivisionByZero, loc);
            return {};
        }
        r = op == BinOp::Div ? x / y : x % y;
        break;
      case BinOp::BitAnd: r = x & y; break;
      case BinOp::BitOr: r = x | y; break;
      case BinOp::BitXor: r = x ^ y; break;
      case BinOp::Shl:
      case BinOp::Shr: {
        unsigned bits = mm_.layout().intValueBytes(k) * 8;
        if (y < 0 || y >= bits) {
            failUb(Ub::ShiftOutOfRange, loc);
            return {};
        }
        if (op == BinOp::Shl) {
            r = static_cast<__int128>(
                static_cast<cherisem::uint128>(x)
                << static_cast<unsigned>(y));
        } else {
            r = is_signed
                    ? (x >> static_cast<unsigned>(y))
                    : static_cast<__int128>(
                          (static_cast<cherisem::uint128>(x) &
                           ((cherisem::uint128(1) << bits) - 1)) >>
                          static_cast<unsigned>(y));
        }
        break;
      }
      default:
        fail(Failure::internal("bad arithmetic op", loc));
        return {};
    }
    r = fitInt(loc, k, r, /*check_overflow=*/is_signed);
    if (halted())
        return {};

    if (k == IntKind::Intptr || k == IntKind::Uintptr) {
        const IntegerValue &src =
            deriv == DerivSource::Right ? b : a;
        if (src.isCap()) {
            Capability c = addressArith(*src.cap,
                                        static_cast<uint64_t>(r));
            // Once the value is non-representable, its abstract
            // provenance is gone too (Appendix A: "@empty").
            Provenance prov = c.ghost().boundsUnspec
                                  ? Provenance::empty()
                                  : src.prov;
            return IntegerValue::ofCap(k, c, prov);
        }
    }
    return fittedInt(k, r);
}

MemValue
Machine::evalBinary(const Expr &e)
{
    switch (e.binop) {
      case BinOp::LogAnd:
      case BinOp::LogOr: {
        // The right operand runs only when the left one does not
        // decide: false decides &&, true decides ||.
        bool decides = e.binop == BinOp::LogOr;
        bool l = test(*e.lhs, e.loc);
        if (halted())
            return {};
        bool r = l == decides ? l : test(*e.rhs, e.loc);
        return MemValue(makeInt(e.loc, IntKind::Int, r ? 1 : 0));
      }
      case BinOp::Comma:
        evalExpr(*e.lhs);
        if (halted())
            return {};
        return evalExpr(*e.rhs);
      default:
        break;
    }

    MemValue lv = evalExpr(*e.lhs);
    if (halted())
        return {};
    MemValue rv = evalExpr(*e.rhs);
    if (halted())
        return {};
    return binaryOp(e, lv, rv);
}

MemValue
Machine::binaryOp(const Expr &e, const MemValue &lv, const MemValue &rv)
{
    const TypeRef &lt = e.lhs->type;
    const TypeRef &rt = e.rhs->type;

    // Pointer arithmetic / comparison.
    if (lt->isPointer() || rt->isPointer()) {
        switch (e.binop) {
          case BinOp::Add: {
            const MemValue &pv = lt->isPointer() ? lv : rv;
            const MemValue &iv = lt->isPointer() ? rv : lv;
            PointerValue p = pointerOf(e.loc, pv);
            if (halted())
                return {};
            return MemValue(take(mm_.arrayShift(
                e.loc, p, e.type->pointee,
                iv.asInteger().value())));
          }
          case BinOp::Sub:
            if (!rt->isPointer()) {
                PointerValue p = pointerOf(e.loc, lv);
                if (halted())
                    return {};
                return MemValue(take(mm_.arrayShift(
                    e.loc, p, e.type->pointee,
                    -rv.asInteger().value())));
            }
            break;
          case BinOp::Eq:
          case BinOp::Ne:
          case BinOp::Lt:
          case BinOp::Gt:
          case BinOp::Le:
          case BinOp::Ge:
            break;
          default:
            fail(Failure::internal("bad pointer op", e.loc));
            return {};
        }
        // Both operands are pointers.
        PointerValue p = pointerOf(e.loc, lv);
        if (halted())
            return {};
        PointerValue q = pointerOf(e.loc, rv);
        if (halted())
            return {};
        if (e.binop == BinOp::Sub)
            return MemValue(take(mm_.ptrDiff(e.loc, lt->pointee, p, q)));
        bool r;
        if (e.binop == BinOp::Eq || e.binop == BinOp::Ne) {
            bool eq = take(mm_.ptrEq(p, q));
            r = e.binop == BinOp::Eq ? eq : !eq;
        } else {
            mem::RelOp op = e.binop == BinOp::Lt ? mem::RelOp::Lt
                : e.binop == BinOp::Gt           ? mem::RelOp::Gt
                : e.binop == BinOp::Le           ? mem::RelOp::Le
                                                 : mem::RelOp::Ge;
            r = take(mm_.ptrRelational(e.loc, op, p, q));
        }
        return MemValue(makeInt(e.loc, IntKind::Int, r ? 1 : 0));
    }

    if (lv.isFloating() || rv.isFloating()) {
        double x = lv.asFloating().value;
        double y = rv.asFloating().value;
        switch (e.binop) {
          case BinOp::Add: return floatVal(x + y);
          case BinOp::Sub: return floatVal(x - y);
          case BinOp::Mul: return floatVal(x * y);
          case BinOp::Div: return floatVal(x / y);
          case BinOp::Lt: return boolVal(e.loc, x < y);
          case BinOp::Gt: return boolVal(e.loc, x > y);
          case BinOp::Le: return boolVal(e.loc, x <= y);
          case BinOp::Ge: return boolVal(e.loc, x >= y);
          case BinOp::Eq: return boolVal(e.loc, x == y);
          case BinOp::Ne: return boolVal(e.loc, x != y);
          default:
            fail(Failure::internal("bad float op", e.loc));
            return {};
        }
    }

    if (lv.isUnspec() || rv.isUnspec()) {
        failUb(Ub::UseOfIndeterminateValue, e.loc);
        return {};
    }

    const IntegerValue &a = lv.asInteger();
    const IntegerValue &b = rv.asInteger();
    switch (e.binop) {
      case BinOp::Lt: return boolVal(e.loc, cmp(a, b) < 0);
      case BinOp::Gt: return boolVal(e.loc, cmp(a, b) > 0);
      case BinOp::Le: return boolVal(e.loc, cmp(a, b) <= 0);
      case BinOp::Ge: return boolVal(e.loc, cmp(a, b) >= 0);
      // Section 3.6: == on capability-carrying values compares
      // address fields only, which cmp() implements via value().
      case BinOp::Eq: return boolVal(e.loc, cmp(a, b) == 0);
      case BinOp::Ne: return boolVal(e.loc, cmp(a, b) != 0);
      default:
        return MemValue(
            intArith(e.loc, e.binop, e.type, a, b, e.deriv));
    }
}

int
Machine::cmp(const IntegerValue &a, const IntegerValue &b)
{
    __int128 x = a.value();
    __int128 y = b.value();
    return x < y ? -1 : (x > y ? 1 : 0);
}

MemValue
Machine::floatVal(double d)
{
    mem::FloatingValue fv;
    fv.value = d;
    return MemValue(fv);
}

MemValue
Machine::boolVal(const SourceLoc &loc, bool b)
{
    (void)loc;
    return MemValue(fittedInt(IntKind::Int, b ? 1 : 0));
}

MemValue
Machine::evalAssign(const Expr &e)
{
    PointerValue place = evalLValue(*e.lhs);
    if (halted())
        return {};
    TypeRef storage;
    const TypeRef &ty = unqualified(e.lhs->type, storage);
    if (e.binop == BinOp::Comma) {
        MemValue v = evalExpr(*e.rhs);
        if (halted() || !check(mm_.store(e.loc, ty, place, v)))
            return {};
        return v;
    }
    // Compound assignment: load, op, store.
    MemValue old = take(mm_.load(e.loc, ty, place));
    if (halted())
        return {};
    MemValue rv = evalExpr(*e.rhs);
    if (halted())
        return {};
    MemValue next = compoundNext(e, ty, old, rv);
    if (halted() || !check(mm_.store(e.loc, ty, place, next)))
        return {};
    return next;
}

MemValue
Machine::compoundNext(const Expr &e, const TypeRef &ty,
                      const MemValue &old, const MemValue &rv)
{
    if (ty->isPointer()) {
        __int128 delta = rv.asInteger().value();
        if (e.binop == BinOp::Sub)
            delta = -delta;
        PointerValue p = pointerOf(e.loc, old);
        if (halted())
            return {};
        return MemValue(take(mm_.arrayShift(e.loc, p, ty->pointee,
                                            delta)));
    }
    if (ty->isFloating() || rv.isFloating()) {
        double x = old.asFloating().value;
        double y = rv.isFloating()
                       ? rv.asFloating().value
                       : static_cast<double>(
                             rv.asInteger().value());
        double r = 0;
        switch (e.binop) {
          case BinOp::Add: r = x + y; break;
          case BinOp::Sub: r = x - y; break;
          case BinOp::Mul: r = x * y; break;
          case BinOp::Div: r = x / y; break;
          default:
            fail(Failure::internal("bad float compound op", e.loc));
            return {};
        }
        mem::FloatingValue fv = old.asFloating();
        fv.value = r;
        return MemValue(fv);
    }
    // As-if: (T)((UAC)lhs op rhs); the capability derives
    // from the left (the lhs is never a converted operand).
    IntegerValue a = old.asInteger();
    IntegerValue b = rv.asInteger();
    // Compute at the wider of the two kinds.
    const TypeRef &common =
        ctype::intRank(a.kind) >= ctype::intRank(b.kind)
            ? intType(a.kind)
            : intType(b.kind);
    IntegerValue r = intArith(e.loc, e.binop, common,
                              a, b, DerivSource::Left);
    if (halted())
        return {};
    return MemValue(capPreservingInt(e.loc, ty->intKind,
                                     r.value(), r));
}

MemValue
Machine::evalCast(const Expr &e)
{
    const TypeRef &from = e.lhs->type;

    // Array-to-pointer decay: the operand is an lvalue.
    if (from->isArray()) {
        PointerValue place = evalLValue(*e.lhs);
        PointerValue p = place;
        p.kind = PointerValue::Kind::Object;
        return MemValue(p);
    }
    if (from->isFunction())
        return evalExpr(*e.lhs);

    MemValue v = evalExpr(*e.lhs);
    if (halted())
        return {};
    return castValueOp(e, std::move(v));
}

MemValue
Machine::castValueOp(const Expr &e, MemValue v)
{
    const TypeRef &to = e.typeOperand;
    const TypeRef &from = e.lhs->type;

    if (to->isVoid())
        return MemValue(mem::UnspecValue{to});
    if (v.isUnspec())
        return MemValue(mem::UnspecValue{to});

    if (to->isPointer()) {
        if (from->isPointer()) {
            // Pointer-to-pointer casts (including const casts,
            // section 3.9, and unsigned char* views) are
            // capability no-ops.
            return v;
        }
        // Integer to pointer (PNVI-ae-udi attach; (u)intptr_t is
        // a capability no-op, section 3.3).
        return MemValue(
            take(mm_.ptrFromInt(e.loc, v.asInteger())));
    }
    if (to->isInteger()) {
        if (from->isPointer()) {
            PointerValue p = pointerOf(e.loc, v);
            if (halted())
                return {};
            return MemValue(take(mm_.intFromPtr(e.loc, to->intKind, p)));
        }
        if (from->isFloating()) {
            return MemValue(makeInt(
                e.loc, to->intKind,
                static_cast<__int128>(v.asFloating().value)));
        }
        const IntegerValue &iv = v.asInteger();
        if (to->isCapInteger()) {
            if (iv.isCap()) {
                // (u)intptr_t <-> (u)intptr_t: keep the cap.
                IntegerValue out = iv;
                out.kind = to->intKind;
                return MemValue(out);
            }
            return MemValue(
                makeInt(e.loc, to->intKind, iv.value()));
        }
        // Narrowing from a capability integer takes the address
        // value (implementation-defined, sections 3.3/3.5).
        return MemValue(makeInt(e.loc, to->intKind, iv.value()));
    }
    if (to->isFloating()) {
        double d = v.isFloating()
                       ? v.asFloating().value
                       : static_cast<double>(
                             v.asInteger().value());
        mem::FloatingValue fv;
        fv.kind = to->floatKind;
        fv.value = to->floatKind == ctype::FloatKind::Float
                       ? static_cast<float>(d)
                       : d;
        return MemValue(fv);
    }
    fail(Failure::internal("unsupported cast", e.loc));
    return {};
}

// ---- calls ----

uint32_t
Machine::resolveIndirectCallee(const Expr &e, const MemValue &fv)
{
    PointerValue fp = pointerOf(e.loc, fv);
    if (halted())
        return 0;
    if (fp.isFunc())
        return fp.funcId;
    // Indirect call through a capability: resolve the
    // address back to a function.
    if (!fp.cap || !fp.cap->tag()) {
        failUb(Ub::CheriInvalidCap, e.loc,
               "call via untagged capability");
        return 0;
    }
    auto f = mm_.functionAt(fp.cap->address());
    if (!f) {
        failUb(Ub::CallTypeMismatch, e.loc,
               "no function at target address");
        return 0;
    }
    return *f;
}

bool
Machine::checkCallable(uint32_t idx, const SourceLoc &loc)
{
    const frontend::FunctionDef &fn = prog_.unit.functions[idx];
    if (!fn.body) {
        fail(Failure::constraint(
            "call to undefined function " + fn.name, loc));
        return false;
    }
    return true;
}

bool
Machine::evalArgs(const Expr &e, std::vector<MemValue> &args)
{
    args.reserve(e.args.size());
    for (const auto &a : e.args) {
        args.push_back(evalExpr(*a));
        if (halted())
            return false;
    }
    return true;
}

MemValue
Machine::evalCall(const Expr &e)
{
    if (e.builtinId >= 0)
        return evalBuiltin(e);

    // Resolve the callee.
    uint32_t idx;
    if (e.lhs->kind == Expr::Kind::Ident &&
        e.lhs->nameKind == frontend::NameKind::Function) {
        idx = e.lhs->slot;
    } else {
        MemValue fv = evalExpr(*e.lhs);
        if (halted())
            return {};
        idx = resolveIndirectCallee(e, fv);
        if (halted())
            return {};
    }
    if (!checkCallable(idx, e.loc))
        return {};
    // Dynamic call-type check (UB_call_type_mismatch): tolerated —
    // sema already checked direct calls; function pointer casts can
    // still mismatch, which real CHERI C leaves undetected until the
    // call.
    std::vector<MemValue> args;
    if (!evalArgs(e, args))
        return {};
    return callFunction(idx, std::move(args));
}

MemValue
Machine::callFunction(uint32_t idx, std::vector<MemValue> args)
{
    const frontend::FunctionDef &fn = prog_.unit.functions[idx];
    if (++callDepth_ > 1000) {
        --callDepth_;
        fail(Failure::constraint("call depth limit (stack overflow)",
                                 fn.loc));
        return {};
    }
    if (mm_.tracer().enabled()) {
        mm_.tracer().emit({.kind = obs::EventKind::FuncEnter,
                           .a = idx,
                           .b = static_cast<uint64_t>(callDepth_),
                           .label = fn.name});
    }
    uint64_t sp = mm_.stackSave();
    size_t callerBase = frameBase_;
    size_t base = frame_.size();
    frame_.resize(base + fn.numSlots);
    frameBase_ = base;
    // A failure while binding the parameters returns with this
    // call's frame, depth and scope still counted: the caller's
    // terminal path pops that scope, as each call on that path pops
    // the innermost one.
    pushScope();
    static const std::string kParam = "param";
    for (size_t i = 0; i < fn.type->params.size() &&
         i < args.size();
         ++i) {
        const std::string &name =
            i < fn.paramNames.size() && !fn.paramNames[i].empty()
                ? fn.paramNames[i]
                : kParam;
        const TypeRef &pty = fn.type->params[i];
        PointerValue place =
            take(mm_.allocateObject(name, pty, false, false));
        if (halted() ||
            !check(mm_.store(fn.loc, pty, writablePlace(place), args[i],
                             /*initializing=*/true)))
            return {};
        bindLocal(static_cast<uint32_t>(i), place, /*owned=*/true);
    }
    // Variadic extras are accessible via the builtin va-list
    // emulation (not exposed to the corpus beyond printf).

    // No return value leaves the result unspecified at the return
    // type (typed below, so a call that returns a value copies no
    // TypeRef).
    MemValue result;
    Flow flow = execStmt(*fn.body, &result);
    // Normal and terminal returns leave alike.  On the terminal path
    // the innermost open scope may be a nested block's, or a
    // callee's whose parameters failed to bind.
    frame_.resize(base);
    frameBase_ = callerBase;
    if (!popScope(fn.loc))
        return {};
    mm_.stackRestore(sp);
    // FuncEnter is balanced on the terminal path too, so duration
    // slices in the Chrome exporter stay well-nested.
    if (mm_.tracer().enabled()) {
        mm_.tracer().emit({.kind = obs::EventKind::FuncExit,
                           .a = idx,
                           .b = static_cast<uint64_t>(callDepth_),
                           .label = fn.name});
    }
    --callDepth_;
    if (flow == Flow::Terminal)
        return {};
    if (fn.name == "main" && result.isUnspec())
        return MemValue(makeInt(fn.loc, IntKind::Int, 0));
    if (result.isUnspec() && !std::get<mem::UnspecValue>(result.v).type)
        result = MemValue(mem::UnspecValue{fn.type->returnType});
    return result;
}

// ---- statements ----

Flow
Machine::execStmt(const Stmt &s, MemValue *ret)
{
    // On Flow::Terminal a statement returns at once: the scopes it
    // opened stay open for callFunction's terminal path.
    if (!step(s.loc))
        return Flow::Terminal;
    switch (s.kind) {
      case Stmt::Kind::Empty:
        return Flow::Normal;
      case Stmt::Kind::Expr:
        evalExpr(*s.expr);
        return halted() ? Flow::Terminal : Flow::Normal;
      case Stmt::Kind::Decl:
        for (const frontend::VarDecl &d : s.decls) {
            if (d.isStatic) {
                // Static locals: one allocation, initialized on
                // first execution only, surviving across calls.
                if (!staticLocals_[d.staticSlot].cap) {
                    PointerValue place =
                        take(mm_.allocateObject(
                            d.name, d.type, d.type->isConst,
                            /*is_static=*/true));
                    if (halted() || !storeZero(d.loc, place, d.type) ||
                        (d.hasInit &&
                         !storeInitializer(d.loc, place, d.type,
                                           d.init)))
                        return Flow::Terminal;
                    staticLocals_[d.staticSlot] = place;
                }
                bindLocal(d.slot, staticLocals_[d.staticSlot],
                          /*owned=*/false);
                continue;
            }
            PointerValue place = take(mm_.allocateObject(
                d.name, d.type, d.type->isConst,
                /*is_static=*/false));
            if (halted())
                return Flow::Terminal;
            bindLocal(d.slot, place, /*owned=*/true);
            if (d.hasInit &&
                !storeInitializer(d.loc, place, d.type, d.init))
                return Flow::Terminal;
        }
        return Flow::Normal;
      case Stmt::Kind::Block: {
        pushScope();
        Flow f = Flow::Normal;
        for (const auto &sub : s.body) {
            f = execStmt(*sub, ret);
            if (f != Flow::Normal)
                break;
        }
        if (f == Flow::Terminal || !popScope(s.loc))
            return Flow::Terminal;
        return f;
      }
      case Stmt::Kind::If: {
        bool c = test(*s.expr, s.expr->loc);
        if (halted())
            return Flow::Terminal;
        if (c)
            return execStmt(*s.thenStmt, ret);
        if (s.elseStmt)
            return execStmt(*s.elseStmt, ret);
        return Flow::Normal;
      }
      case Stmt::Kind::While:
        for (;;) {
            if (!step(s.loc))
                return Flow::Terminal;
            bool c = test(*s.expr, s.expr->loc);
            if (halted())
                return Flow::Terminal;
            if (!c)
                return Flow::Normal;
            Flow f = execStmt(*s.thenStmt, ret);
            if (f == Flow::Break)
                return Flow::Normal;
            if (f == Flow::Return || f == Flow::Terminal)
                return f;
        }
      case Stmt::Kind::DoWhile:
        for (;;) {
            if (!step(s.loc))
                return Flow::Terminal;
            Flow f = execStmt(*s.thenStmt, ret);
            if (f == Flow::Break)
                return Flow::Normal;
            if (f == Flow::Return || f == Flow::Terminal)
                return f;
            bool c = test(*s.expr, s.expr->loc);
            if (halted())
                return Flow::Terminal;
            if (!c)
                return Flow::Normal;
        }
      case Stmt::Kind::For: {
        pushScope();
        Flow result = Flow::Normal;
        if (s.forInit && execStmt(*s.forInit, ret) == Flow::Terminal)
            return Flow::Terminal;
        for (;;) {
            if (!step(s.loc))
                return Flow::Terminal;
            if (s.forCond) {
                bool c = test(*s.forCond, s.forCond->loc);
                if (halted())
                    return Flow::Terminal;
                if (!c)
                    break;
            }
            Flow f = execStmt(*s.thenStmt, ret);
            if (f == Flow::Break)
                break;
            if (f == Flow::Terminal)
                return f;
            if (f == Flow::Return) {
                result = f;
                break;
            }
            if (s.forStep) {
                evalExpr(*s.forStep);
                if (halted())
                    return Flow::Terminal;
            }
        }
        if (!popScope(s.loc))
            return Flow::Terminal;
        return result;
      }
      case Stmt::Kind::Switch: {
        __int128 control;
        {
            // Scoped, so its slot is shared with the labels' values.
            MemValue cv = evalExpr(*s.expr);
            if (halted())
                return Flow::Terminal;
            control = cv.asInteger().value();
        }
        // The body is (almost always) a block whose top-level
        // statements carry case labels; find the entry point and
        // fall through from there.
        if (s.thenStmt->kind != Stmt::Kind::Block) {
            fail(Failure::constraint(
                "switch body must be a block", s.loc));
            return Flow::Terminal;
        }
        const auto &stmts = s.thenStmt->body;
        size_t entry = stmts.size();
        size_t dflt = stmts.size();
        for (size_t i = 0; i < stmts.size(); ++i) {
            for (const auto &label : stmts[i]->caseExprs) {
                MemValue lv = evalExpr(*label);
                if (halted())
                    return Flow::Terminal;
                if (lv.asInteger().value() == control) {
                    entry = i;
                    break;
                }
            }
            if (entry != stmts.size())
                break;
            if (stmts[i]->isDefault && dflt == stmts.size())
                dflt = i;
        }
        if (entry == stmts.size()) {
            // Labels after the matching one were not scanned for
            // default above; complete the scan.
            for (size_t i = dflt; i < stmts.size(); ++i) {
                if (stmts[i]->isDefault) {
                    dflt = i;
                    break;
                }
            }
            entry = dflt;
        }
        pushScope();
        Flow result = Flow::Normal;
        for (size_t i = entry; i < stmts.size(); ++i) {
            Flow f = execStmt(*stmts[i], ret);
            if (f == Flow::Break)
                break;
            if (f != Flow::Normal) {
                result = f;
                break;
            }
        }
        if (result == Flow::Terminal || !popScope(s.loc))
            return Flow::Terminal;
        return result;
      }
      case Stmt::Kind::Return:
        if (s.expr && ret) {
            *ret = evalExpr(*s.expr);
            if (halted())
                return Flow::Terminal;
        }
        return Flow::Return;
      case Stmt::Kind::Break:
        return Flow::Break;
      case Stmt::Kind::Continue:
        return Flow::Continue;
    }
    return Flow::Normal;
}

// ---------------------------------------------------------------------
// Builtins and intrinsics.
// ---------------------------------------------------------------------

const Capability *
Machine::capOf(const MemValue &v)
{
    if (v.isPointer() && v.asPointer().cap)
        return &*v.asPointer().cap;
    if (v.isInteger() && v.asInteger().isCap())
        return &*v.asInteger().cap;
    return nullptr;
}

Provenance
Machine::provOf(const MemValue &v)
{
    if (v.isPointer())
        return v.asPointer().prov;
    if (v.isInteger())
        return v.asInteger().prov;
    return Provenance::empty();
}

/** Rebuild a value of the original capability-carrying type around a
 *  transformed capability (the intrinsics' "C -> C" shape). */
MemValue
Machine::capArgRebuild(const SourceLoc &loc, const MemValue &orig,
                       const Capability &c)
{
    (void)loc;
    if (orig.isPointer()) {
        PointerValue p = orig.asPointer();
        p.cap = c;
        if (p.isNull() && c.address() != 0)
            p.kind = PointerValue::Kind::Object;
        return MemValue(p);
    }
    IntegerValue iv = orig.asInteger();
    iv.cap = c;
    return MemValue(iv);
}

std::string
Machine::readCString(const SourceLoc &loc, const PointerValue &p)
{
    std::string out;
    PointerValue cur = p;
    for (uint64_t i = 0; i < 1u << 20; ++i) {
        MemValue b = take(mm_.load(loc, intType(IntKind::UChar), cur));
        if (halted())
            return {};
        uint8_t c = static_cast<uint8_t>(b.asInteger().value());
        if (c == 0)
            return out;
        out += static_cast<char>(c);
        cur.cap = cur.cap->withAddress(cur.address() + 1);
    }
    fail(Failure::constraint("unterminated string", loc));
    return {};
}

std::string
Machine::formatCapValue(const MemValue &v)
{
    const Capability *c = capOf(v);
    if (!c) {
        if (v.isInteger())
            return decStr(static_cast<cherisem::int128>(
                v.asInteger().value()));
        return "<?>";
    }
    std::string body = cap::formatCap(*c, opts_.capFormat);
    if (opts_.printProvenance)
        return "(" + provOf(v).str() + ", " + body + ")";
    return body;
}

std::string
Machine::formatPrintf(const SourceLoc &loc, const std::string &fmt,
                      const std::vector<MemValue> &args,
                      size_t first_arg)
{
    std::string out;
    size_t ai = first_arg;
    for (size_t i = 0; i < fmt.size(); ++i) {
        char c = fmt[i];
        if (c != '%') {
            out += c;
            continue;
        }
        ++i;
        if (i >= fmt.size())
            break;
        // Skip flags/width and parse length modifiers.
        while (i < fmt.size() &&
               (fmt[i] == '-' || fmt[i] == '+' || fmt[i] == ' ' ||
                fmt[i] == '#' || fmt[i] == '0' ||
                (fmt[i] >= '1' && fmt[i] <= '9') || fmt[i] == '.')) {
            ++i;
        }
        int longs = 0;
        bool size_mod = false;
        while (i < fmt.size() &&
               (fmt[i] == 'l' || fmt[i] == 'z' || fmt[i] == 'j' ||
                fmt[i] == 't' || fmt[i] == 'h')) {
            if (fmt[i] == 'l')
                ++longs;
            if (fmt[i] == 'z' || fmt[i] == 'j' || fmt[i] == 't')
                size_mod = true;
            ++i;
        }
        (void)longs;
        (void)size_mod;
        if (i >= fmt.size())
            break;
        char conv = fmt[i];
        if (std::string_view("diuxXacspfge").find(conv) ==
            std::string_view::npos) {
            out += conv;
            continue;
        }
        if (ai >= args.size()) {
            fail(Failure::constraint("printf: not enough arguments",
                                     loc));
            return {};
        }
        const MemValue &v = args[ai++];
        switch (conv) {
          case 'd':
          case 'i':
            out += decStr(static_cast<cherisem::int128>(
                v.asInteger().value()));
            break;
          case 'u':
            out += decStr(static_cast<cherisem::uint128>(
                v.asInteger().value()));
            break;
          case 'x':
          case 'X':
          case 'a': {
            std::string h = hexStr(static_cast<cherisem::uint128>(
                v.asInteger().value()));
            out += h.substr(2); // printf %x has no 0x prefix
            break;
          }
          case 'c':
            out += static_cast<char>(v.asInteger().value());
            break;
          case 's': {
            std::string str = readCString(loc, v.asPointer());
            if (halted())
                return {};
            out += str;
            break;
          }
          case 'p':
            out += formatCapValue(v);
            break;
          default: { // f, g, e
            double d = v.isFloating()
                           ? v.asFloating().value
                           : static_cast<double>(
                                 v.asInteger().value());
            out += strPrintf("%g", d);
            break;
          }
        }
    }
    return out;
}

MemValue
Machine::evalBuiltin(const Expr &e)
{
    // Count and witness the call *before* argument evaluation (the
    // event order is part of the trace contract).
    Builtin b = static_cast<Builtin>(e.builtinId);
    size_t idx = static_cast<size_t>(b);
    assert(idx < kNumBuiltins);
    ++intrinsicCount_[idx];
    const obs::Tracer &tr = mm_.tracer();
    if (tr.enabled()) {
        tr.emit({.kind = obs::EventKind::Intrinsic,
                 .a = static_cast<uint64_t>(idx),
                 .line = e.loc.line,
                 .label = intrinsics::builtinName(b)});
    }

    std::vector<MemValue> args;
    if (!mm_.tracer().enabled()) {
        if (!evalArgs(e, args))
            return {};
        return builtinCall(e, args);
    }
    // Scoped timer: accumulates on every return, terminal ones
    // included.  Argument evaluation is inside the timed region.
    ScopedIntrinsicTimer scoped{&intrinsicNs_[idx]};
    if (!evalArgs(e, args))
        return {};
    return builtinCall(e, args);
}

MemValue
Machine::builtinCall(const Expr &e, std::vector<MemValue> &args)
{
    Builtin b = static_cast<Builtin>(e.builtinId);
    const SourceLoc &loc = e.loc;
    auto void_result = [&]() {
        return MemValue(mem::UnspecValue{ctype::voidType()});
    };
    auto uintval = [&](size_t i) -> uint64_t {
        return static_cast<uint64_t>(args[i].asInteger().value());
    };

    switch (b) {
      case Builtin::Malloc:
        return MemValue(take(mm_.allocateRegion(
            "malloc", uintval(0), mm_.arch().capSize())));
      case Builtin::Calloc: {
        uint64_t n = uintval(0) * uintval(1);
        PointerValue p = take(mm_.allocateRegion(
            "calloc", n, mm_.arch().capSize()));
        // Exhausted arena: calloc returns NULL with nothing to zero.
        if (halted() ||
            (!p.isNull() && n > 0 && !check(mm_.memsetOp(loc, p, 0, n))))
            return {};
        return MemValue(p);
      }
      case Builtin::Free:
        check(mm_.kill(loc, true, args[0].asPointer()));
        return void_result();
      case Builtin::Realloc:
        return MemValue(take(mm_.reallocRegion(
            loc, args[0].asPointer(), uintval(1))));
      case Builtin::Memcpy:
      case Builtin::Memmove: {
        PointerValue dst = args[0].asPointer();
        PointerValue src = args[1].asPointer();
        uint64_t n = uintval(2);
        if (b == Builtin::Memmove && n > 0) {
            // memmove permits overlap: the memory model stages the
            // copy (bytes and capability metadata) internally.
            check(mm_.memmoveOp(loc, dst, src, n));
        } else if (n > 0) {
            check(mm_.memcpyOp(loc, dst, src, n));
        }
        return args[0];
      }
      case Builtin::Memset:
        check(mm_.memsetOp(loc, args[0].asPointer(),
                           static_cast<uint8_t>(uintval(1)),
                           uintval(2)));
        return args[0];
      case Builtin::Memcmp:
        return MemValue(take(mm_.memcmpOp(
            loc, args[0].asPointer(), args[1].asPointer(),
            uintval(2))));
      case Builtin::Strlen: {
        std::string s = readCString(loc, args[0].asPointer());
        return MemValue(makeInt(loc, IntKind::ULong,
                                static_cast<__int128>(s.size())));
      }
      case Builtin::Printf:
      case Builtin::Fprintf: {
        // fprintf's stream argument is ignored: both print to the
        // run's output.
        size_t first = b == Builtin::Printf ? 0 : 1;
        std::string fmt = readCString(loc, args[first].asPointer());
        if (halted())
            return {};
        std::string s = formatPrintf(loc, fmt, args, first + 1);
        if (halted())
            return {};
        output_ += s;
        return MemValue(makeInt(loc, IntKind::Int,
                                static_cast<__int128>(s.size())));
      }
      case Builtin::Assert: {
        bool holds = truthy(loc, args[0]);
        if (!halted() && !holds)
            halt(Aborted{"assertion failed at " + loc.str()});
        return void_result();
      }
      case Builtin::Abort:
        halt(Aborted{"abort() called at " + loc.str()});
        return {};
      case Builtin::Exit:
        halt(Exited{static_cast<int>(args[0].asInteger().value())});
        return {};
      case Builtin::CheriDdcGet: {
        // The DDC root capability: whole address space, every
        // permission.  PNVI provenance is empty — accesses through it
        // model legacy (non-capability-aware) code and are outside
        // the provenance discipline.
        Capability ddc = Capability::make(
            mm_.arch(), 0, mm_.arch().addrSpaceTop(),
            mm_.arch().allPerms());
        return MemValue(PointerValue::object(Provenance::empty(),
                                             ddc));
      }
      case Builtin::PrintCap: {
        std::string label = readCString(loc, args[0].asPointer());
        if (halted())
            return {};
        output_ += label + " " + formatCapValue(args[1]) + "\n";
        return void_result();
      }
      default:
        break;
    }

    // CHERI intrinsics: all take a capability-carrying first (or
    // only) argument.
    const Capability *c0 = capOf(args[0]);
    if (!c0) {
        // Fixed-type intrinsics (representable_length & mask).
        if (b == Builtin::CheriRepresentableLength) {
            return MemValue(makeInt(
                loc, IntKind::ULong,
                static_cast<__int128>(
                    mm_.arch().representableLength(uintval(0)))));
        }
        if (b == Builtin::CheriRepresentableAlignmentMask) {
            return MemValue(makeInt(
                loc, IntKind::ULong,
                static_cast<__int128>(
                    mm_.arch().representableAlignmentMask(
                        uintval(0)))));
        }
        fail(Failure::internal("intrinsic needs capability argument",
                               loc));
        return {};
    }

    switch (b) {
      case Builtin::CheriAddressGet:
        return MemValue(makeInt(loc, IntKind::Ptraddr,
                                static_cast<__int128>(c0->address())));
      case Builtin::CheriAddressSet: {
        uint64_t a = uintval(1);
        Capability nc = mm_.config().ghostState
                            ? c0->withAddressGhost(a)
                            : c0->withAddress(a);
        return capArgRebuild(loc, args[0], nc);
      }
      case Builtin::CheriBaseGet:
        return MemValue(makeInt(
            loc, IntKind::Ptraddr,
            static_cast<__int128>(
                static_cast<uint64_t>(c0->base()))));
      case Builtin::CheriLengthGet:
        return MemValue(makeInt(
            loc, IntKind::ULong,
            static_cast<__int128>(static_cast<cherisem::uint128>(
                c0->length()))));
      case Builtin::CheriOffsetGet:
        return MemValue(makeInt(
            loc, IntKind::ULong,
            static_cast<__int128>(
                c0->address() -
                static_cast<uint64_t>(c0->base()))));
      case Builtin::CheriOffsetSet: {
        uint64_t a = static_cast<uint64_t>(c0->base()) + uintval(1);
        Capability nc = mm_.config().ghostState
                            ? c0->withAddressGhost(a)
                            : c0->withAddress(a);
        return capArgRebuild(loc, args[0], nc);
      }
      case Builtin::CheriPermsGet:
        return MemValue(makeInt(
            loc, IntKind::ULong,
            static_cast<__int128>(c0->perms().bits())));
      case Builtin::CheriPermsAnd:
        return capArgRebuild(
            loc, args[0],
            c0->withPerms(cap::PermSet(
                static_cast<uint32_t>(uintval(1)))));
      case Builtin::CheriTagGet:
      case Builtin::CheriIsValid:
        // Section 3.5: if the ghost state marks the tag unspecified,
        // the result is an unspecified boolean; we return the stored
        // bit (a legitimate refinement) — cheri_ghost_state_get lets
        // tests observe the difference.
        return MemValue(makeInt(loc, IntKind::Bool,
                                c0->tag() ? 1 : 0));
      case Builtin::CheriTagClear:
        return capArgRebuild(loc, args[0], c0->withTagCleared());
      case Builtin::CheriBoundsSet:
      case Builtin::CheriBoundsSetExact: {
        uint64_t len = uintval(1);
        Capability nc = c0->withBounds(
            c0->address(), cherisem::uint128(c0->address()) + len);
        if (b == Builtin::CheriBoundsSetExact &&
            nc.length() != len) {
            failUb(Ub::CheriBoundsViolation, loc,
                   "cheri_bounds_set_exact: length not exactly "
                   "representable");
            return {};
        }
        return capArgRebuild(loc, args[0], nc);
      }
      case Builtin::CheriIsEqualExact: {
        const Capability *c1 = capOf(args[1]);
        bool eq = c1 && c0->equalExact(*c1);
        return MemValue(makeInt(loc, IntKind::Bool, eq ? 1 : 0));
      }
      case Builtin::CheriTypeGet:
        return MemValue(makeInt(
            loc, IntKind::Long,
            c0->isSealed() ? static_cast<__int128>(c0->otype())
                           : -1));
      case Builtin::CheriIsSealed:
        return MemValue(makeInt(loc, IntKind::Bool,
                                c0->isSealed() ? 1 : 0));
      case Builtin::CheriSeal: {
        const Capability *auth = capOf(args[1]);
        if (!auth || !auth->tag() ||
            !auth->perms().has(cap::Perm::Seal)) {
            return capArgRebuild(loc, args[0],
                                 c0->withTagCleared());
        }
        return capArgRebuild(loc, args[0],
                             c0->sealed(auth->address()));
      }
      case Builtin::CheriUnseal: {
        const Capability *auth = capOf(args[1]);
        if (!auth || !auth->tag() ||
            !auth->perms().has(cap::Perm::Unseal) ||
            !c0->isSealed() || c0->otype() != auth->address()) {
            return capArgRebuild(loc, args[0],
                                 c0->withTagCleared());
        }
        return capArgRebuild(loc, args[0], c0->unsealed());
      }
      case Builtin::CheriSentryCreate:
        return capArgRebuild(loc, args[0],
                             c0->sealed(cap::OTYPE_SENTRY));
      case Builtin::CheriGhostStateGet: {
        int bits = (c0->ghost().tagUnspec ? 1 : 0) |
            (c0->ghost().boundsUnspec ? 2 : 0);
        return MemValue(makeInt(loc, IntKind::Int, bits));
      }
      case Builtin::CheriRepresentableLength:
      case Builtin::CheriRepresentableAlignmentMask:
      default:
        fail(Failure::internal("unhandled builtin", loc));
        return {};
    }
}

} // namespace cherisem::corelang
