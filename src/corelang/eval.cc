/**
 * @file
 * Public evaluation entry point.  The semantics proper lives in
 * machine.{h,cc}; this file only runs a Machine and summarises its
 * Outcome.
 */
#include "corelang/eval.h"

#include "corelang/machine.h"

namespace cherisem::corelang {

std::string
Outcome::summary() const
{
    switch (kind) {
      case Kind::Exit:
        return "exit " + std::to_string(exitCode);
      case Kind::Undefined:
        return std::string("ub ") + mem::ubName(failure.ub);
      case Kind::AssertFail:
        return "assert-fail " + message;
      case Kind::Error:
        return "error " + message;
      case Kind::ResourceExhausted:
        return "resource-exhausted " + failure.message;
    }
    return "?";
}

Outcome
evaluate(const sema::Program &prog, const EvalOptions &opts)
{
    Machine machine(prog, opts);
    return machine.run();
}

} // namespace cherisem::corelang
