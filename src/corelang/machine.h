/**
 * @file
 * The abstract machine: the one evaluator of the executable
 * semantics.
 *
 * Machine is the complete tree-walking abstract machine of the paper
 * (section 4): expression evaluation, the statement machine, frames
 * with object lifetimes, the builtin/intrinsic implementations, and
 * undefined-behaviour propagation.  Every semantic rule has exactly
 * one implementation here; everything memory-shaped is delegated to
 * mem::MemoryModel.
 *
 * Besides run(), the machine exposes the prelude/main split and
 * capture()/restoreSnapshot().  Their one user is the warm fork point
 * at the end of this header (WarmEntry, buildWarm(), runWarm()),
 * shared by warm serving, the fuzz fork driver and
 * `cherisem_run --replay-to`.
 */
#ifndef CHERISEM_CORELANG_MACHINE_H
#define CHERISEM_CORELANG_MACHINE_H

#include <array>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "corelang/eval.h"
#include "intrinsics/intrinsics.h"
#include "obs/trace_event.h"

namespace cherisem::obs {
class RingBufferSink;
}

namespace cherisem::corelang {

/** Statement execution result.  Terminal: the run has a verdict
 *  (Machine's pending verdict slot) and the statement stopped where it
 *  was raised. */
enum class Flow { Normal, Break, Continue, Return, Terminal };

class Machine
{
  public:
    Machine(const sema::Program &prog, const EvalOptions &opts);

    /** Reserved function name: when a program defines `__prelude()`,
     *  run() executes it between global initialization and main().
     *  The machine is *quiescent* right after it returns (no scopes,
     *  no native recursion), which is the one point capture() may
     *  fork the state. */
    static constexpr const char *kPreludeFunction = "__prelude";

    /** Execute the program: globals, the optional __prelude(), then
     *  main().  Equivalent to runPrelude() + runMain(). */
    Outcome run();

    /** Initialise globals and execute the reserved __prelude()
     *  function if the program defines one.  Returns an Outcome iff
     *  the run already terminated (UB, exit(), assert failure,
     *  resource exhaustion — runMain() must not be called then);
     *  nullopt means the machine is quiescent and ready for
     *  capture() / runMain(). */
    std::optional<Outcome> runPrelude();
    /** Execute main() from the current state: either straight after
     *  runPrelude() or after restoreSnapshot(). */
    Outcome runMain();

    /**
     * A fork of the whole machine state at a quiescent point: the
     * memory model's (A, S, (B, C)) snapshot plus the machine-level
     * environment (global bindings, interned string literals, static
     * locals, function-pointer cache, accumulated output, step and
     * intrinsic counters).  Bindings name this program's slots and
     * definitions by index and hold no pointer into its AST, so a
     * snapshot is meaningful for any machine built over a compile of
     * the same source under the same profile (the serve layer keys
     * warm state by exactly that) and outlives the compile it came
     * from.
     */
    struct Snapshot;
    using SnapshotPtr = std::shared_ptr<const Snapshot>;

    /** Fork the current state.  Only valid at a quiescent point
     *  (after runPrelude() returned nullopt; scopes empty, no native
     *  recursion) — asserted. */
    SnapshotPtr capture() const;
    /** Rewind to @p snap (also valid after a terminal verdict). */
    void restoreSnapshot(const SnapshotPtr &snap);

    /** Overwrite an integer-typed global with @p value (the fuzz
     *  fork driver's variant injection).  Returns false when no such
     *  global exists or the store faults. */
    bool pokeGlobalInt(const std::string &name, int64_t value);

  private:
    // ---- terminal verdicts ----
    //
    // A run ends early on a failure (UB, a semantic error, an
    // exhausted budget), exit() or a failed assert()/abort().  Like
    // the memory model's MemResult (the paper's memM error monad),
    // the verdict is a value, not a C++ exception: the site that
    // raises it records it in verdict_ and returns a placeholder.
    // Every caller of a sub-evaluation that may raise checks halted()
    // before it uses the result or does anything observable, and
    // returns at once (statements return Flow::Terminal).  Block
    // scopes stay open on that path; each callFunction on it leaves
    // its frame, pops the innermost open scope, restores the stack,
    // witnesses FuncExit and leaves its depth, in that order
    // (ScopeSlots.FreeOrderAtBlockExit and TerminalPaths.* pin the
    // resulting kills).  runPrelude() and runMain() read the slot.
    // The one C++ exception that still crosses the machine is
    // obs::ReplayStop, raised by a replay sink, which skips all of it.

    /** exit(code). */
    struct Exited
    {
        int code;
    };
    /** A failed assert() or abort(). */
    struct Aborted
    {
        std::string message;
    };
    using Verdict =
        std::variant<std::monostate, mem::Failure, Exited, Aborted>;

    /** Whether a terminal verdict is pending. */
    bool
    halted() const
    {
        return __builtin_expect(verdict_.index() != 0, 0);
    }
    /** Record the run's terminal verdict; the caller then returns.
     *  Nothing is evaluated once a verdict is pending, so each run
     *  records at most one. */
    void halt(Verdict v);
    void fail(mem::Failure f);
    void failUb(mem::Ub ub, const SourceLoc &loc, std::string msg = "");

    /** The value of @p r; on a failure, record it as the verdict and
     *  return a placeholder the caller must not use. */
    template <typename T>
    T
    take(mem::MemResult<T> r)
    {
        if (__builtin_expect(!r.ok(), 0)) {
            fail(std::move(r).error());
            return T();
        }
        return std::move(r).value();
    }
    /** Whether @p r succeeded; a failure becomes the verdict. */
    bool
    check(mem::MemResult<Unit> r)
    {
        if (__builtin_expect(!r.ok(), 0)) {
            fail(std::move(r).error());
            return false;
        }
        return true;
    }

    /** Move the pending verdict into @p out (UB, resource, error,
     *  exit or assert-fail) and witness UbRaise as the stream's
     *  terminal event of an undefined run. */
    void verdictOutcome(Outcome &out);

    // ---- environment ----
    //
    // Sema resolved every identifier to a frame slot, a global slot
    // or a function index, so the environment is dense vectors and
    // no step looks a name up.  The frames of all active calls share
    // one slot stack (frame_, the current call's slots from
    // frameBase_); a slot whose declaration has not run in its scope
    // holds an unbound (capability-less) place.  Block scopes are
    // marks into locals_, the LIFO record of the objects to kill and
    // the slots to unbind at scope exit.

    /** A global's slot: its place and the index in prog_.unit.globals
     *  of the definition that allocated it (kUnbound while unbound).
     *  An index, not a pointer, so a snapshot holds nothing that
     *  points into the AST it was built over. */
    struct GlobalBinding
    {
        static constexpr uint32_t kUnbound = UINT32_MAX;
        mem::PointerValue place;
        uint32_t def = kUnbound;

        bool bound() const { return def != kUnbound; }
    };
    /** The definition that allocated bound global @p b. */
    const frontend::VarDecl &
    globalDef(const GlobalBinding &b) const
    {
        return prog_.unit.globals[b.def];
    }
    /** One declaration executed in the current scope stack. */
    struct Local
    {
        mem::PointerValue place;
        /** Absolute index into frame_ of the slot it bound. */
        size_t slot;
        /** Killed at scope exit (false for a static local). */
        bool owned;
    };

    /** Steps between cancellation/deadline polls.  Polling is
     *  side-effect free, so the interval only bounds reaction
     *  latency; it never changes a run's observable behaviour. */
    static constexpr uint64_t kWatchdogPollSteps = 8192;

    /** Count one step; false once the step budget or the watchdog
     *  ended the run. */
    bool
    step(const SourceLoc &loc)
    {
        // Single predictable compare on the hot path; checkAt_ is
        // maxSteps+1 when no watchdog is armed (the historical step
        // budget check), else the next poll boundary.
        if (__builtin_expect(++steps_ >= checkAt_, 0))
            return stepSlow(loc);
        return true;
    }

    /** Out-of-line step-budget verdict / watchdog poll. */
    bool stepSlow(const SourceLoc &loc);
    /** ResourceExhausted when cancelled or past the deadline. */
    bool pollWatchdog(const SourceLoc &loc);
    /** The next steps_ value at which step() must leave the fast
     *  path. */
    uint64_t nextCheckAt() const;

    /** The place an identifier denotes (Local or Global), or null
     *  with the unbound-identifier error recorded. */
    const mem::PointerValue *namedPlace(const frontend::Expr &e);
    /** Record the internal error for an identifier with no place. */
    void unbound(const frontend::Expr &e);

    void pushScope() { scopeMarks_.push_back(locals_.size()); }
    /** Kill the innermost scope's objects, last declared first, and
     *  unbind its slots.  False, with the scope left open, when a kill
     *  fails. */
    bool popScope(const SourceLoc &loc);
    /** Bind frame slot @p slot of the current call to @p place. */
    void bindLocal(uint32_t slot, const mem::PointerValue &place,
                   bool owned);

    /** Fill the outcome's output / stats / steps / intrinsic maps
     *  from the machine state. */
    void finalizeOutcome(Outcome &out);

    // ---- globals and initializers ----
    //
    // The bool-returning steps below return false once a verdict is
    // pending.

    bool initGlobals();
    bool storeZero(const SourceLoc &loc, const mem::PointerValue &place,
                   const ctype::TypeRef &ty);
    mem::PointerValue writablePlace(const mem::PointerValue &p) const;
    bool storeInitializer(const SourceLoc &loc,
                          const mem::PointerValue &place,
                          const ctype::TypeRef &ty,
                          const frontend::Initializer &init);
    bool storeStringInto(const SourceLoc &loc,
                         const mem::PointerValue &place,
                         const ctype::TypeRef &ty, const std::string &s);
    mem::PointerValue stringLiteralPlace(const frontend::Expr &e);

    // ---- integer helpers ----

    bool
    isSignedKind(ctype::IntKind k) const
    {
        return ctype::isSignedIntKind(k);
    }

    /** Fit @p v into kind @p k: signed overflow is UB when
     *  @p check_overflow, else both signednesses wrap. */
    __int128 fitInt(const SourceLoc &loc, ctype::IntKind k, __int128 v,
                    bool check_overflow);
    /** fitInt for a kind whose values have at most 32 bits, on a
     *  64-bit value. */
    int64_t fitNarrow(const SourceLoc &loc, ctype::IntKind k, int64_t v,
                      bool check_overflow);
    /** The value of kind @p k for @p v, which already fits. */
    mem::IntegerValue fittedInt(ctype::IntKind k, __int128 v);
    mem::IntegerValue
    makeInt(const SourceLoc &loc, ctype::IntKind k, __int128 v,
            bool check_overflow = false)
    {
        return fittedInt(k, fitInt(loc, k, v, check_overflow));
    }
    bool truthy(const SourceLoc &loc, const mem::MemValue &v);
    /** Evaluate the controlling expression @p c and test it at
     *  @p loc. */
    bool test(const frontend::Expr &c, const SourceLoc &loc);

    // ---- lvalues / expressions (tree walk) ----
    //
    // A value-returning step returns a placeholder once a verdict is
    // pending; its caller checks halted().

    mem::PointerValue evalLValue(const frontend::Expr &e);
    mem::PointerValue pointerOf(const SourceLoc &loc,
                                const mem::MemValue &v);
    mem::MemValue evalExpr(const frontend::Expr &e);
    mem::PointerValue functionPointer(uint32_t idx);
    mem::MemValue evalUnary(const frontend::Expr &e);
    mem::MemValue evalBinary(const frontend::Expr &e);
    mem::MemValue evalAssign(const frontend::Expr &e);
    mem::MemValue evalCast(const frontend::Expr &e);
    mem::MemValue evalCall(const frontend::Expr &e);

    /// @name Post-operand value transformations.
    /// The bodies the tree walker runs once an Expr node's operands
    /// are evaluated.
    /// @{
    cap::Capability addressArith(const cap::Capability &c,
                                 uint64_t a) const;
    mem::IntegerValue capPreservingInt(const SourceLoc &loc,
                                       ctype::IntKind k, __int128 v,
                                       const mem::IntegerValue &src);
    mem::IntegerValue intArith(const SourceLoc &loc, frontend::BinOp op,
                               const ctype::TypeRef &ty,
                               const mem::IntegerValue &a,
                               const mem::IntegerValue &b,
                               frontend::DerivSource deriv);
    /** Non-short-circuit binary operators on evaluated operands. */
    mem::MemValue binaryOp(const frontend::Expr &e, const mem::MemValue &lv,
                           const mem::MemValue &rv);
    /** Pure-value unary operators (Plus/Minus/BitNot/LogNot). */
    mem::MemValue unaryValueOp(const frontend::Expr &e,
                               const mem::MemValue &v);
    /** The ++/-- "next" value from the loaded old value. */
    mem::MemValue incDecNext(const frontend::Expr &e,
                             const ctype::TypeRef &ty,
                             const mem::MemValue &old);
    /** Compound-assignment "next" value from old and evaluated rhs. */
    mem::MemValue compoundNext(const frontend::Expr &e,
                               const ctype::TypeRef &ty,
                               const mem::MemValue &old,
                               const mem::MemValue &rv);
    /** Scalar cast on an evaluated operand (not array decay /
     *  function designators — evalCast handles those shapes). */
    mem::MemValue castValueOp(const frontend::Expr &e, mem::MemValue v);
    /** Resolve an indirect callee value to a function index (UB on
     *  untagged capability / non-function target). */
    uint32_t resolveIndirectCallee(const frontend::Expr &e,
                                   const mem::MemValue &fv);
    /** The constraint failure for calling an undefined body. */
    bool checkCallable(uint32_t idx, const SourceLoc &loc);
    /** Evaluate call @p e's arguments, left to right, into @p args. */
    bool evalArgs(const frontend::Expr &e, std::vector<mem::MemValue> &args);
    /// @}

    static int cmp(const mem::IntegerValue &a, const mem::IntegerValue &b);
    mem::MemValue floatVal(double d);
    mem::MemValue boolVal(const SourceLoc &loc, bool b);

    // ---- calls ----

    /** Execute function @p idx with evaluated arguments (the
     *  1000-frame call-depth limit lives here). */
    mem::MemValue callFunction(uint32_t idx,
                               std::vector<mem::MemValue> args);

    // ---- statements (tree walk) ----

    Flow execStmt(const frontend::Stmt &s, mem::MemValue *ret);

    // ---- builtins ----

    /** Counter + trace + timer wrapper; evaluates the arguments and
     *  dispatches to builtinCall. */
    mem::MemValue evalBuiltin(const frontend::Expr &e);
    /** Dispatch builtin @p e on already-evaluated arguments. */
    mem::MemValue builtinCall(const frontend::Expr &e,
                              std::vector<mem::MemValue> &args);
    std::string readCString(const SourceLoc &loc,
                            const mem::PointerValue &p);
    std::string formatPrintf(const SourceLoc &loc, const std::string &fmt,
                             const std::vector<mem::MemValue> &args,
                             size_t first_arg);
    std::string formatCapValue(const mem::MemValue &v);
    mem::MemValue capArgRebuild(const SourceLoc &loc,
                                const mem::MemValue &orig,
                                const cap::Capability &c);
    static const cap::Capability *capOf(const mem::MemValue &v);
    static mem::Provenance provOf(const mem::MemValue &v);

    /** RAII accumulator for the per-intrinsic nanosecond counters
     *  (constructed only on traced runs). */
    struct ScopedIntrinsicTimer
    {
        uint64_t *slot;
        std::chrono::steady_clock::time_point t0 =
            std::chrono::steady_clock::now();
        ~ScopedIntrinsicTimer()
        {
            *slot += static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        }
    };

    // ---- state ----

    const sema::Program &prog_;
    EvalOptions opts_;
    mem::MemoryModel mm_;

    std::vector<mem::PointerValue> frame_;
    size_t frameBase_ = 0;
    std::vector<Local> locals_;
    std::vector<size_t> scopeMarks_;
    /** Indexed by sema's slots; an unset entry has no capability. */
    std::vector<GlobalBinding> globals_;
    std::vector<mem::PointerValue> stringLits_;
    std::vector<mem::PointerValue> staticLocals_;
    /** Indexed by function; filled on first use. */
    std::vector<mem::PointerValue> funcPtrs_;
    std::string output_;
    uint64_t steps_ = 0;
    /** steps_ threshold at which step() takes the slow
     *  path: maxSteps+1 (saturated) without a watchdog, else the
     *  next poll boundary.  Maintained by stepSlow(). */
    uint64_t checkAt_ = 0;
    int callDepth_ = 0;
    Verdict verdict_;

    // Per-intrinsic counters (always on: one array increment per
    // call) and scoped-timer accumulators (tracing runs only).
    static constexpr size_t kNumBuiltins =
        static_cast<size_t>(intrinsics::Builtin::CheriDdcGet) + 1;
    std::array<uint64_t, kNumBuiltins> intrinsicCount_{};
    std::array<uint64_t, kNumBuiltins> intrinsicNs_{};
};

struct Machine::Snapshot
{
    mem::MemorySnapshotPtr mem;
    std::vector<GlobalBinding> globals;
    std::vector<mem::PointerValue> stringLits;
    std::vector<mem::PointerValue> staticLocals;
    std::vector<mem::PointerValue> funcPtrs;
    std::string output;
    uint64_t steps = 0;
    std::array<uint64_t, kNumBuiltins> intrinsicCount{};
    std::array<uint64_t, kNumBuiltins> intrinsicNs{};
};

/**
 * One program's post-prelude fork point.  A warm start must be
 * invisible: restoring the snapshot into a fresh machine leaves the
 * machine exactly where a cold run stands when __prelude() returns.
 * The witness stream must be continued too.  A recorded entry keeps
 * the build run's prelude events and re-emits them (sinks stamp
 * their own sequence numbers, so the replayed events are
 * byte-identical to a cold run's prefix).  An unrecorded entry keeps
 * none: a traced start from it needs a sink that resumes the stream
 * (obs::TraceSink::resumed()), its prefix accounted for elsewhere.
 * An entry holds no pointer into the AST it was built over; it is
 * meaningful for any compile of the same source under the same
 * profile.
 */
struct WarmEntry
{
    /** The prelude itself terminated the run (UB, exit(), assert
     *  failure, resource exhaustion): every warm start of this
     *  program gets preludeOutcome without executing anything. */
    bool terminal = false;
    Outcome preludeOutcome;
    /** Quiescent machine state right after __prelude() returned
     *  (null when terminal). */
    Machine::SnapshotPtr snap;
    /** The build run's witness events (global init + prelude),
     *  absent for an unrecorded entry.  A suffix of the real stream
     *  when the build ring wrapped (its dropped() tells). */
    std::optional<std::vector<obs::TraceEvent>> preludeEvents;

    /** Steps a cold run takes up to the fork point (or to the
     *  prelude's terminal verdict). */
    uint64_t
    preludeSteps() const
    {
        return terminal ? preludeOutcome.steps : snap->steps;
    }
};

using WarmPtr = std::shared_ptr<const WarmEntry>;

/** Build step: run globals + __prelude() on the fresh machine @p m
 *  and capture the fork point.  Unless the entry is terminal, @p m is
 *  left quiescent, so the caller may go on with m.runMain() —
 *  exactly a cold run.  The entry is unrecorded. */
WarmPtr buildWarm(Machine &m);

/** buildWarm(m) for a machine whose trace sink is @p ring, recording
 *  the ring's events into the entry. */
WarmPtr buildWarm(Machine &m, const obs::RingBufferSink &ring);

/** Fork step: a fresh machine over @p prog (which @p entry was built
 *  over) under @p opts restores the snapshot, re-emits a recorded
 *  entry's prelude events into opts' trace sink, runs @p hook (e.g.
 *  Machine::pokeGlobalInt), then main().  A terminal entry re-emits
 *  the events and returns the prelude's outcome.  The sink, if any,
 *  must be resumed exactly when the entry is unrecorded. */
Outcome runWarm(const sema::Program &prog, const EvalOptions &opts,
                const WarmEntry &entry,
                const std::function<void(Machine &)> &hook = {});

} // namespace cherisem::corelang

#endif // CHERISEM_CORELANG_MACHINE_H
