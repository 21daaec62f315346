/**
 * @file
 * Lexer for MiniC, with a miniature preprocessor.
 *
 * Preprocessing support is intentionally small: `#include` lines are
 * skipped (the standard-library subset the test corpus needs is built
 * in), object-like `#define` macros are substituted, and the constants
 * the paper's examples use (UINT_MAX, INT_MAX, NULL, ...) are
 * predefined.  A user `#define` shadows a predefined macro of the
 * same name.
 */
#ifndef CHERISEM_FRONTEND_LEXER_H
#define CHERISEM_FRONTEND_LEXER_H

#include <string>
#include <string_view>
#include <vector>

#include "frontend/token.h"
#include "support/source_loc.h"

namespace cherisem::frontend {

/** A frontend error (lex or parse). */
struct FrontendError
{
    SourceLoc loc;
    std::string message;

    std::string str() const { return loc.str() + ": " + message; }
};

/**
 * Tokenize @p source.  Throws FrontendError on malformed input; its
 * location carries @p file.  The last token is always Tok::End.
 *
 * A `#line N` directive renumbers the following lines from N;
 * `#line N "name"` also names their file.  When @p files is given it
 * receives the file table Token::file indexes: @p file first, then
 * one entry per named `#line`.
 */
std::vector<Token> lex(std::string_view source, const FileName &file,
                       std::vector<FileName> *files = nullptr);

/** As above, with a fresh handle for @p filename. */
std::vector<Token> lex(std::string_view source,
                       const std::string &filename);

} // namespace cherisem::frontend

#endif // CHERISEM_FRONTEND_LEXER_H
