#!/usr/bin/env python3
"""Stack-frame ratchet for the evaluator's recursive frames.

Measures the frames of the tree walker's recursion with -fstack-usage
and fails when one grows past its budget.  One C call nests several
of these frames, so their sizes set how deep a program may recurse
before the native stack overflows (ROADMAP item 1).  A change that
makes a frame smaller should lower its budget here; one that makes it
larger must say why.

Two measurements, each with its own budgets:
  - src/corelang/machine.cc compiled alone at -O3;
  - the frames that ship: cherisem_run built with CMake in the Release
    and RelWithDebInfo configurations, which link with LTO, read from
    the link's cherisem_run.ltrans*.ltrans.su files.  LTO inlines
    evalBinary, evalCall, evalAssign and evalUnary into evalExpr, so
    those have no frame of their own there and evalExpr's is larger.

Usage (from the repository root; needs cmake and GoogleTest, like the
tier-1 build, and takes about a minute per configuration):

    python3 .github/scripts/stack_frames.py

It prints the compiler version and every frame's size, then fails if
one is over budget.  The compiler is $CXX (default g++).  The budgets
were measured with g++ 12.2.0 (x86-64); another compiler version may
lay frames out differently, so CI runs this check with g++-12.

A single-TU line names the qualified method; an LTO line the bare one:

>>> parse_su("m.cc:10:1:cherisem::corelang::Machine::evalExpr("
...          "const cherisem::frontend::Expr&)\\t496\\tdynamic,bounded\\n")
{'evalExpr': 496}
>>> parse_su("/r/src/corelang/machine.cc:744:1:evalExpr\\t1680\\tstatic\\n"
...          "/r/src/corelang/machine.cc:9:1:run.constprop\\t64\\tstatic\\n"
...          "/r/src/mem/load_store.cc:7:1:abstValue\\t96\\tstatic\\n")
{'evalExpr': 1680, 'run': 64}
"""
import glob
import os
import re
import subprocess
import sys
import tempfile

# Bytes of native stack per frame: every Machine method that the
# recursion of one C call passes through, or that one expression
# nests (evalAssign, evalLValue and evalUnary are the largest).
BUDGETS = {
    "evalExpr": 496,
    "binaryOp": 816,
    "evalBinary": 432,
    "evalAssign": 992,
    "evalLValue": 864,
    "evalUnary": 800,
    "execStmt": 528,
    "callFunction": 704,
    "builtinCall": 864,
}

# The same frames in the LTO link of each shipping configuration.
LTO_BUDGETS = {
    "Release": {
        "evalExpr": 1680,
        "castValueOp": 1584,
        "builtinCall": 1056,
        "binaryOp": 912,
        "evalLValue": 896,
        "callFunction": 688,
        "execStmt": 528,
    },
    "RelWithDebInfo": {
        "evalExpr": 2096,
        "builtinCall": 1056,
        "binaryOp": 912,
        "evalLValue": 896,
        "callFunction": 704,
        "execStmt": 528,
    },
}

# Single TU: "...:Machine::name(args)\tsize\t"; LTO: the bare name
# after corelang/machine.cc's location, maybe with a clone suffix.
_LINE = re.compile(r"(?:Machine::(\w+)\([^\t]*\)"
                   r"|corelang/machine\.cc:\d+:\d+:(\w+)[.\w]*)"
                   r"\t(\d+)\t")


def parse_su(text):
    """Frame sizes of Machine methods in .su text, by method name."""
    sizes = {}
    for line in text.splitlines():
        m = _LINE.search(line)
        if m and "::<lambda" not in line:
            name = m.group(1) or m.group(2)
            sizes[name] = max(sizes.get(name, 0), int(m.group(3)))
    return sizes


def measure(root, cxx):
    with tempfile.TemporaryDirectory() as tmp:
        obj = os.path.join(tmp, "machine.o")
        subprocess.run(
            [cxx, "-std=gnu++20", "-O3", "-fstack-usage",
             "-I", os.path.join(root, "src"), "-c",
             os.path.join(root, "src", "corelang", "machine.cc"),
             "-o", obj],
            check=True)
        with open(os.path.join(tmp, "machine.su")) as f:
            return parse_su(f.read())


def run_quiet(cmd):
    """Run @p cmd; its output is shown only when it fails."""
    r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        r.check_returncode()


def measure_lto(root, cxx, config):
    with tempfile.TemporaryDirectory() as tmp:
        run_quiet(["cmake", "-S", root, "-B", tmp,
                   "-DCMAKE_BUILD_TYPE=" + config,
                   "-DCMAKE_CXX_COMPILER=" + cxx,
                   "-DCMAKE_EXE_LINKER_FLAGS="
                   "-fstack-usage -save-temps=obj"])
        jobs = str(min(4, os.cpu_count() or 1))
        run_quiet(["cmake", "--build", tmp, "--target", "cherisem_run",
                   "-j", jobs])
        text = ""
        for su in glob.glob(os.path.join(
                tmp, "examples", "cherisem_run.ltrans*.ltrans.su")):
            with open(su) as f:
                text += f.read()
        return parse_su(text)


def check(label, sizes, budgets):
    """Print each budgeted frame; True when one is missing or over."""
    failed = False
    for name, budget in budgets.items():
        size = sizes.get(name)
        if size is None:
            print(f"{label} Machine::{name}: no frame found")
            failed = True
            continue
        status = "ok" if size <= budget else "OVER BUDGET"
        print(f"{label} Machine::{name}: {size} B (budget {budget} B) "
              f"{status}")
        failed |= size > budget
    return failed


def main():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    cxx = os.environ.get("CXX", "g++")
    version = subprocess.run([cxx, "--version"], check=True,
                             capture_output=True, text=True)
    print(version.stdout.splitlines()[0])
    failed = check("-O3 machine.cc", measure(root, cxx), BUDGETS)
    for config, budgets in LTO_BUDGETS.items():
        sizes = measure_lto(root, cxx, config)
        failed |= check(config + " LTO", sizes, budgets)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
