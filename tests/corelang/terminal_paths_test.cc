/**
 * @file
 * Pins every way a run can end early, wherever it is raised.
 *
 * A run ends before main() returns on five verdicts: undefined
 * behaviour, exit(), a failing assert(), the step limit and the
 * call-depth error.  Each is raised here from six places: straight in
 * main(); three calls deep (f <- g <- main) with live locals in nested
 * blocks of every frame; inside a call's argument list; in a `for`
 * init; in a `switch` case body; and in the reserved __prelude()
 * that runs before main().  Every case is run untraced (its
 * Outcome summary, output, steps and MemStats) and traced (its full
 * witness stream, or a digest of it for the call-depth error's long
 * stream), and both are compared with
 * tests/corelang/terminal_paths.golden.
 *
 * The golden pins which objects are killed on the way out, and in
 * which order, as well as the verdict itself.  On a mismatch the
 * verdict's blocks are written to
 * <build>/tests/terminal_paths.<verdict>.actual.txt; diff them against
 * the golden to see which case moved.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "corelang/machine.h"
#include "driver/interpreter.h"
#include "driver/profiles.h"
#include "mem/stats_json.h"
#include "obs/sinks.h"
#include "support/format.h"
#include "support/hash.h"

namespace cherisem::corelang {
namespace {

/** Helpers every case's program shares. */
constexpr const char *kHelpers =
    "#include <assert.h>\n"
    "#include <stdio.h>\n"
    "#include <stdlib.h>\n"
    "int spin(void) { for (;;) ; return 0; }\n"
    "int down(int n) { int d = n; return down(d + 1) + d; }\n"
    "int h(int a, int b) { int s = a + b; return s; }\n";

/** An int-valued expression that raises each verdict. */
const std::map<std::string, std::string> kRaise = {
    {"ub", "*(int *)0"},
    {"exit", "(exit(3), 0)"},
    {"assert", "(assert(m == 0), 0)"},
    {"steps", "spin()"},
    {"depth", "down(0)"},
};

/** Where the verdict is raised: "@" stands for the raising
 *  expression.  Every frame has a local `m` for the assert. */
const std::vector<std::pair<std::string, std::string>> kPositions = {
    {"main",
     "int main(void) {\n"
     "    int m = 1;\n"
     "    printf(\"main %d\\n\", m);\n"
     "    return @ + m;\n"
     "}\n"},
    {"nested",
     "int f(int a) {\n"
     "    int m = a;\n"
     "    { int x = m + 1;\n"
     "      { int y = x * 2; printf(\"f %d\\n\", y); return @ + y; } }\n"
     "}\n"
     "int g(int b) {\n"
     "    int u = b;\n"
     "    { int v = u + 1; { int w = f(v); return w + u; } }\n"
     "}\n"
     "int main(void) {\n"
     "    int m = 1;\n"
     "    { int n = 2; { int k = g(n); return k + m; } }\n"
     "}\n"},
    {"args",
     "int main(void) {\n"
     "    int m = 1;\n"
     "    { int n = 2; printf(\"args\\n\"); return h(m, h(n, @)); }\n"
     "}\n"},
    {"for_init",
     "int f(void) {\n"
     "    int m = 1, s = 0;\n"
     "    for (int i = @; i < 3; i++) { int t = i; s += t; }\n"
     "    return s;\n"
     "}\n"
     "int main(void) {\n"
     "    int m = 1;\n"
     "    { int n = f(); return n + m; }\n"
     "}\n"},
    {"switch",
     "int f(int c) {\n"
     "    int m = c;\n"
     "    switch (c) {\n"
     "      case 0: return 0;\n"
     "      case 1: int w = m + 1;\n"
     "        { int y = w; printf(\"case %d\\n\", y); return @ + y; }\n"
     "      default: return 2;\n"
     "    }\n"
     "    return 3;\n"
     "}\n"
     "int main(void) {\n"
     "    int m = 1;\n"
     "    { int n = f(m); return n; }\n"
     "}\n"},
    {"prelude",
     "int g0 = 4;\n"
     "int __prelude(void) {\n"
     "    int m = g0;\n"
     "    { int q = m + 1; printf(\"prelude %d\\n\", q); return @ + q; }\n"
     "}\n"
     "int main(void) { return g0; }\n"},
};

/** The step budget of every case: small, so the spin cases end
 *  quickly, and far above what the others take. */
constexpr uint64_t kMaxSteps = 50'000;

std::string
program(const std::string &position, const std::string &raise)
{
    std::string body = position;
    body.replace(body.find('@'), 1, raise);
    return kHelpers + body;
}

/** @p s with backslashes and newlines escaped onto one line. */
std::string
oneLine(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

/** MemStats as JSON, without the revocation sweep's wall time. */
std::string
statsLines(const mem::MemStats &stats, mem::HeapAllocatorKind heapKind)
{
    std::istringstream in(mem::memStatsJson(stats, heapKind));
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.find("\"sweep_ns\"") == std::string::npos)
            out += line + "\n";
    }
    return out;
}

/** One case's golden block: header, untraced Outcome, traced stream. */
std::string
renderCase(const std::string &verdict, const std::string &position,
           const std::string &source)
{
    const driver::Profile &profile = driver::referenceProfile();
    auto compiled =
        driver::compile(source, profile, "terminal.c", obs::Tracer());
    if (!compiled)
        return "frontend error: " + compiled.error() + "\n";
    const sema::Program &prog = compiled.value()->prog;

    EvalOptions opts = profile.evalOptions();
    opts.maxSteps = kMaxSteps;
    Outcome plain = Machine(prog, opts).run();

    std::ostringstream stream;
    obs::JsonlFileSink sink(stream);
    EvalOptions topts = opts;
    topts.memConfig.traceSink = &sink;
    Outcome traced = Machine(prog, topts).run();
    sink.flush();

    std::string out = "== " + verdict + "/" + position + "\n";
    out += "summary: " + oneLine(plain.summary()) + "\n";
    out += "steps: " + std::to_string(plain.steps) + "\n";
    out += "output: " + oneLine(plain.output) + "\n";
    out += statsLines(plain.memStats, opts.memConfig.heapAllocator);
    // The traced run reaches the same verdict at the same step.
    if (traced.summary() != plain.summary() ||
        traced.steps != plain.steps || traced.output != plain.output)
        out += "traced run differs: " + oneLine(traced.summary()) + "\n";
    std::string events = stream.str();
    size_t n = static_cast<size_t>(
        std::count(events.begin(), events.end(), '\n'));
    out += "events: " + std::to_string(n) + "\n";
    if (verdict == "depth") {
        out += strPrintf("digest: %016llx\n",
                         static_cast<unsigned long long>(
                             fnv1a(events.data(), events.size())));
    } else {
        out += events;
    }
    return out;
}

/** The golden, split into blocks by their "== verdict/position"
 *  header line. */
std::map<std::string, std::string>
splitBlocks(const std::string &listing)
{
    std::map<std::string, std::string> blocks;
    std::istringstream in(listing);
    std::string line, key;
    while (std::getline(in, line)) {
        if (line.rfind("== ", 0) == 0)
            key = line.substr(3);
        blocks[key] += line + "\n";
    }
    return blocks;
}

const std::map<std::string, std::string> &
goldenBlocks()
{
    static const std::map<std::string, std::string> blocks = [] {
        std::ifstream in(std::string(CHERISEM_SOURCE_DIR) +
                         "/tests/corelang/terminal_paths.golden");
        std::stringstream ss;
        ss << in.rdbuf();
        return splitBlocks(ss.str());
    }();
    return blocks;
}

/** Compare every position of @p verdict with the golden. */
void
expectGolden(const std::string &verdict)
{
    const std::map<std::string, std::string> &golden = goldenBlocks();
    std::string listing;
    bool ok = true;
    for (const auto &[position, text] : kPositions) {
        std::string key = verdict + "/" + position;
        std::string actual =
            renderCase(verdict, position, program(text, kRaise.at(verdict)));
        listing += actual;
        auto it = golden.find(key);
        if (it == golden.end()) {
            ADD_FAILURE() << key << ": no golden block";
            ok = false;
        } else if (actual != it->second) {
            ADD_FAILURE() << key << ": differs from the golden";
            ok = false;
        }
    }
    if (!ok) {
        std::string path = std::string(CHERISEM_TEST_BINARY_DIR) +
            "/terminal_paths." + verdict + ".actual.txt";
        std::ofstream(path) << listing;
        ADD_FAILURE() << "actual blocks written to " << path;
    }
}

TEST(TerminalPaths, UndefinedBehaviour) { expectGolden("ub"); }

TEST(TerminalPaths, Exit) { expectGolden("exit"); }

TEST(TerminalPaths, AssertFailure) { expectGolden("assert"); }

TEST(TerminalPaths, StepLimit) { expectGolden("steps"); }

TEST(TerminalPaths, CallDepth) { expectGolden("depth"); }

} // namespace
} // namespace cherisem::corelang
