#!/usr/bin/env python3
"""Stack-frame ratchet for the evaluator's recursive frames.

Compiles src/corelang/machine.cc at -O3 with -fstack-usage and fails
when a frame of the tree walker's recursion grows past its budget.
One C call nests several of these frames, so their sizes set how deep
a program may recurse before the native stack overflows (ROADMAP
item 1).  A change that makes a frame smaller should lower its budget
here; one that makes it larger must say why.

Usage (from the repository root):

    python3 .github/scripts/stack_frames.py

It prints the compiler version and every frame's size, then fails if
one is over budget.  The compiler is $CXX (default g++).  The budgets
were measured with g++ 12.2.0 at -O3 (x86-64); another compiler
version may lay frames out differently, so CI runs this check with
g++-12.

>>> parse_su("m.cc:10:1:cherisem::corelang::Machine::evalExpr("
...          "const cherisem::frontend::Expr&)\\t496\\tdynamic,bounded\\n")
{'evalExpr': 496}
"""
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

_LINE = re.compile(r"Machine::(\w+)\([^\t]*\)\t(\d+)\t")


def parse_su(text):
    """Frame sizes of Machine methods in a .su file, by method name."""
    sizes = {}
    for line in text.splitlines():
        m = _LINE.search(line)
        if m and "::<lambda" not in line:
            sizes[m.group(1)] = max(sizes.get(m.group(1), 0),
                                    int(m.group(2)))
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


def main():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    cxx = os.environ.get("CXX", "g++")
    version = subprocess.run([cxx, "--version"], check=True,
                             capture_output=True, text=True)
    print(version.stdout.splitlines()[0])
    sizes = measure(root, cxx)
    failed = False
    for name, budget in BUDGETS.items():
        size = sizes.get(name)
        if size is None:
            print(f"Machine::{name}: not found in machine.su")
            failed = True
            continue
        status = "ok" if size <= budget else "OVER BUDGET"
        print(f"Machine::{name}: {size} B (budget {budget} B) {status}")
        failed |= size > budget
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
