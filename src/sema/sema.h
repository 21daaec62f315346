/**
 * @file
 * Type checker / elaborator for MiniC.
 *
 * Annotates the AST in place: every expression gets a type and lvalue
 * flag; implicit conversions become explicit Cast nodes (the
 * elaboration that lets the evaluator stay typing-free); binary
 * operations on capability-carrying types get their *derivation
 * source* (section 3.7 / 4.4: derive from the operand that was not
 * converted from a non-capability type, ties to the left); calls to
 * builtins/intrinsics are resolved through the type-derivation DSL
 * (section 4.5).
 */
#ifndef CHERISEM_SEMA_SEMA_H
#define CHERISEM_SEMA_SEMA_H

#include <map>
#include <string>

#include "ctype/layout.h"
#include "frontend/ast.h"

namespace cherisem::sema {

struct SemaError
{
    SourceLoc loc;
    std::string message;

    std::string str() const { return loc.str() + ": " + message; }
};

/** The fully analysed program handed to the evaluator. */
struct Program
{
    frontend::TranslationUnit unit;
    /** name -> index into unit.functions (bodies only). */
    std::map<std::string, uint32_t> functionIndex;
    ctype::MachineLayout machine;
    /** Dense index spaces the evaluator sizes its environment by:
     *  global names, static locals and string-literal expressions. */
    uint32_t numGlobalSlots = 0;
    uint32_t numStaticLocals = 0;
    uint32_t numStringLits = 0;
    /** global name -> its slot (for callers that name a global). */
    std::map<std::string, uint32_t> globalSlots;
};

/**
 * Run semantic analysis.  Throws SemaError on ill-typed programs.
 */
Program analyze(frontend::TranslationUnit unit,
                const ctype::MachineLayout &machine);

} // namespace cherisem::sema

#endif // CHERISEM_SEMA_SEMA_H
