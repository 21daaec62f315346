/**
 * @file
 * Source locations for diagnostics.
 *
 * Both the frontend (token positions) and the dynamic semantics (UB
 * reports) refer back to positions in the interpreted program, so this
 * lives at the bottom of the dependency stack.
 */
#ifndef CHERISEM_SUPPORT_SOURCE_LOC_H
#define CHERISEM_SUPPORT_SOURCE_LOC_H

#include <cstdint>
#include <memory>
#include <string>

namespace cherisem {

/**
 * A file name shared by every location of one parse.  It is created
 * once per lex() and immutable afterwards, so copying a SourceLoc costs
 * a reference count rather than a string allocation, and a location
 * may safely outlive the AST it came from (UB reports, serve
 * responses).
 */
using FileName = std::shared_ptr<const std::string>;

/** A new FileName handle holding @p name. */
FileName makeFileName(std::string name);

/** A position in an interpreted source file (1-based line/column). */
struct SourceLoc
{
    /** File name as given to the lexer; null or empty for synthetic
     *  nodes. */
    FileName file;
    /** 1-based line number; 0 means "unknown". */
    uint32_t line = 0;
    /** 1-based column number; 0 means "unknown". */
    uint32_t column = 0;

    bool isKnown() const { return line != 0; }

    /** The file name, or the empty string when there is none. */
    const std::string &fileName() const;

    /** Render as "file:line:column" (or "<unknown>"). */
    std::string str() const;

    /** Compares the file name by value, not by handle. */
    bool operator==(const SourceLoc &o) const;
};

} // namespace cherisem

#endif // CHERISEM_SUPPORT_SOURCE_LOC_H
