/**
 * @file
 * Sema-resolved identifiers and the machine's dense environment.
 *
 * Sema resolves each identifier once, to a frame slot, a global slot,
 * a function index or an enumerator; the machine then keeps frames,
 * globals, static locals, string literals and function designators
 * in vectors indexed by those slots.  These tests pin the scoping
 * rules that resolution must keep: lexical shadowing (a callee never
 * sees its caller's locals), per-iteration and per-call objects,
 * switch bodies, static locals, literal and function identity, and
 * the order in which block exit (and a terminal verdict) kills
 * objects.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corelang/machine.h"
#include "driver/profiles.h"
#include "frontend/parser.h"
#include "obs/sinks.h"
#include "sema/sema.h"

namespace cherisem::corelang {
namespace {

struct TracedRun
{
    Outcome outcome;
    /** Labels of the scope-exit kills (Free events with b == 0), in
     *  stream order. */
    std::vector<std::string> scopeFrees;
};

TracedRun
run(const std::string &src)
{
    frontend::TranslationUnit unit = frontend::parse(src, "<test>");
    sema::Program prog =
        sema::analyze(std::move(unit), ctype::MachineLayout{16, 8});
    obs::RingBufferSink ring;
    EvalOptions opts = driver::referenceProfile().evalOptions();
    opts.memConfig.traceSink = &ring;
    TracedRun r;
    r.outcome = Machine(prog, opts).run();
    for (const obs::TraceEvent &e : ring.snapshot()) {
        if (e.kind == obs::EventKind::Free && e.b == 0)
            r.scopeFrees.push_back(e.label);
    }
    return r;
}

void
expectExit(const std::string &src, int code)
{
    Outcome o = run(src).outcome;
    ASSERT_EQ(o.kind, Outcome::Kind::Exit) << o.message;
    EXPECT_EQ(o.exitCode, code);
}

void
expectUb(const std::string &src, mem::Ub ub)
{
    Outcome o = run(src).outcome;
    ASSERT_EQ(o.kind, Outcome::Kind::Undefined) << o.message;
    EXPECT_EQ(o.failure.ub, ub) << o.message;
}

TEST(ScopeSlots, ShadowingInNestedBlocks)
{
    expectExit("int x = 1;\n"
               "int main(void) {\n"
               "    int x = 2;\n"
               "    { int x = 3;\n"
               "      { int x = 4; if (x != 4) return 10; }\n"
               "      if (x != 3) return 11; }\n"
               "    return x;\n"
               "}\n",
               2);
    // Scoping is lexical: a callee's free identifier names the
    // global, never a local of the same name in its caller.
    expectExit("int x = 1;\n"
               "int f(void) { return x; }\n"
               "int main(void) { int x = 2; return f() * 10 + x; }\n",
               12);
}

TEST(ScopeSlots, DeclarationInsideLoopBody)
{
    expectExit("int main(void) {\n"
               "    int sum = 0;\n"
               "    for (int i = 0; i < 5; i++) { int v = i * 2; sum += v; }\n"
               "    return sum;\n"
               "}\n",
               20);
    // Each iteration's object is a new one; the previous one is dead.
    expectUb("int main(void) {\n"
             "    int *p = 0;\n"
             "    for (int i = 0; i < 2; i++) {\n"
             "        int v = i;\n"
             "        if (i == 0) p = &v; else return *p;\n"
             "    }\n"
             "    return 0;\n"
             "}\n",
             mem::Ub::AccessDeadAllocation);
}

TEST(ScopeSlots, DeclarationsInsideSwitchBody)
{
    expectExit("int f(int c) {\n"
               "    switch (c) {\n"
               "      case 0: { int y = 10; return y; }\n"
               "      case 1: int z = 5; return z + 1;\n"
               "      default: return 1;\n"
               "    }\n"
               "}\n"
               "int main(void) { return f(0) + f(1) + f(2); }\n",
               17);
    // Jumping over a declaration leaves its slot unbound.
    Outcome o = run("int f(int c) {\n"
                    "    switch (c) { case 0: int y = 1; case 1: return y; }\n"
                    "    return 9;\n"
                    "}\n"
                    "int main(void) { return f(1); }\n")
                    .outcome;
    EXPECT_EQ(o.kind, Outcome::Kind::Error);
    EXPECT_NE(o.message.find("unbound identifier y"), std::string::npos)
        << o.message;
}

TEST(ScopeSlots, RecursionWithAddressTakenLocals)
{
    // Every activation has its own slots: the pointer handed down
    // names the caller's object, not the callee's same-named one.
    expectExit("int depth(int n, int *outer) {\n"
               "    int local = n;\n"
               "    if (n == 0) return *outer;\n"
               "    int r = depth(n - 1, &local);\n"
               "    return r + (local == n);\n"
               "}\n"
               "int main(void) { int base = 7; return depth(5, &base); }\n",
               6);
    expectUb("int *leak(void) { int x = 3; return &x; }\n"
             "int main(void) { int *p = leak(); return *p; }\n",
             mem::Ub::AccessDeadAllocation);
}

TEST(ScopeSlots, StaticLocals)
{
    expectExit("int counter(void) { static int n = 10; return ++n; }\n"
               "int *addr(void) { static int s; return &s; }\n"
               "int main(void) {\n"
               "    counter(); counter();\n"
               "    return counter() * 2 + (addr() == addr());\n"
               "}\n",
               27);
}

TEST(ScopeSlots, StringLiteralIdentity)
{
    // One object per literal expression, however often it runs; two
    // expressions with equal text are two objects.
    expectExit("const char *lit(void) { return \"abc\"; }\n"
               "int main(void) {\n"
               "    const char *a = lit();\n"
               "    const char *b = lit();\n"
               "    const char *c = \"abc\";\n"
               "    return (a == b) * 2 + (a == c);\n"
               "}\n",
               2);
}

TEST(ScopeSlots, FunctionDesignators)
{
    expectExit("int add1(int x) { return x + 1; }\n"
               "int twice(int (*f)(int), int v) { return f(f(v)); }\n"
               "int main(void) {\n"
               "    int (*p)(int) = add1;\n"
               "    int (*q)(int) = &add1;\n"
               "    return twice(p, 3) + (p == q) * 10;\n"
               "}\n",
               15);
    // A local shadows a function of the same name.
    expectExit("int f(void) { return 1; }\n"
               "int main(void) { int f = 4; return f; }\n",
               4);
}

TEST(ScopeSlots, EnumConstants)
{
    expectExit("enum { A = 3, B = 7 };\n"
               "int main(void) { int a = A; return a + B; }\n",
               10);
    expectExit("enum { A = 3 };\n"
               "int main(void) { int A = 5; return A; }\n",
               5);
}

TEST(ScopeSlots, OneStaticObjectPerGlobal)
{
    // Every declaration of a global shares its slot and its one
    // object, laid out at the defining declaration.
    Outcome o = run("int x;\n"
                    "int x = 3;\n"
                    "int main(void) { return x; }\n")
                    .outcome;
    ASSERT_EQ(o.kind, Outcome::Kind::Exit) << o.message;
    EXPECT_EQ(o.exitCode, 3);
    EXPECT_EQ(o.memStats.allocations, 1u);

    // The initialized declaration defines the object even when a
    // tentative one follows it; a bare extern defines nothing.
    o = run("extern int y;\n"
            "int y = 5;\n"
            "int y;\n"
            "int *p = &y;\n"
            "int main(void) { return *p + y; }\n")
            .outcome;
    ASSERT_EQ(o.kind, Outcome::Kind::Exit) << o.message;
    EXPECT_EQ(o.exitCode, 10);
    EXPECT_EQ(o.memStats.allocations, 2u);
}

TEST(ScopeSlots, FreeOrderAtBlockExit)
{
    TracedRun r = run("int main(void) {\n"
                      "    int a = 1;\n"
                      "    { int b = 2; int c = 3; }\n"
                      "    int d = 4;\n"
                      "    return a + d;\n"
                      "}\n");
    ASSERT_EQ(r.outcome.kind, Outcome::Kind::Exit);
    EXPECT_EQ(r.scopeFrees,
              (std::vector<std::string>{"c", "b", "d", "a"}));

    // A terminal verdict: each call on the way out pops the
    // innermost open scope, so the callee's inner block and then its
    // body block are killed; the caller's scopes stay open when the
    // run ends.
    r = run("int g(void) { int u = 1; { int v = 2; int *p = 0; "
            "return *p + u + v; } }\n"
            "int main(void) { int m = 0; { int n = 1; return g() + m + n; } }\n");
    ASSERT_EQ(r.outcome.kind, Outcome::Kind::Undefined);
    EXPECT_EQ(r.scopeFrees, (std::vector<std::string>{"p", "v", "u"}));

    // Parameters die after the body's locals, last parameter first.
    r = run("int f(int x, int y) { int z = x + y; return z; }\n"
            "int main(void) { return f(1, 2); }\n");
    ASSERT_EQ(r.outcome.kind, Outcome::Kind::Exit);
    EXPECT_EQ(r.scopeFrees, (std::vector<std::string>{"z", "y", "x"}));
}

} // namespace
} // namespace cherisem::corelang
