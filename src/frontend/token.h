/**
 * @file
 * Tokens for the MiniC (CHERI C subset) frontend.
 */
#ifndef CHERISEM_FRONTEND_TOKEN_H
#define CHERISEM_FRONTEND_TOKEN_H

#include <cstdint>
#include <string>

namespace cherisem::frontend {

enum class Tok
{
    End,
    Ident,
    IntLit,
    FloatLit,
    CharLit,
    StringLit,

    // Keywords.
    KwVoid, KwChar, KwShort, KwInt, KwLong, KwSigned, KwUnsigned,
    KwFloat, KwDouble, KwBool, KwStruct, KwUnion, KwEnum, KwTypedef,
    KwConst, KwVolatile, KwStatic, KwExtern, KwReturn, KwIf, KwElse,
    KwWhile, KwDo, KwFor, KwBreak, KwContinue, KwSizeof, KwAlignof,
    KwSwitch, KwCase, KwDefault,

    // Punctuation.
    LParen, RParen, LBrace, RBrace, LBracket, RBracket,
    Semi, Comma, Dot, Arrow, Ellipsis, Question, Colon,
    Plus, Minus, Star, Slash, Percent,
    PlusPlus, MinusMinus,
    Amp, Pipe, Caret, Tilde, Bang,
    AmpAmp, PipePipe,
    Shl, Shr,
    Lt, Gt, Le, Ge, EqEq, NotEq,
    Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign,
    PercentAssign, AmpAssign, PipeAssign, CaretAssign, ShlAssign,
    ShrAssign,
};

/**
 * One token.  It carries only its line and column: the file name is a
 * per-parse handle the parser attaches when it builds a SourceLoc, so
 * a token costs no allocation unless it is an identifier or a string
 * literal.
 */
struct Token
{
    Tok kind = Tok::End;
    /** 1-based position of the token's first character. */
    uint32_t line = 0;
    uint32_t column = 0;
    /** Index of the token's file in the lexer's file table: 0 is the
     *  file lexing started in, each `#line N "name"` adds one. */
    uint32_t file = 0;
    /** Identifier / string-literal spelling; empty otherwise. */
    std::string text;
    /** Integer / char literal value. */
    uint64_t intValue = 0;
    double floatValue = 0;
    /** Literal suffix info: unsigned / long. */
    bool litUnsigned = false;
    bool litLong = false;

    bool is(Tok k) const { return kind == k; }
};

/** Spelling of a token kind for diagnostics. */
const char *tokName(Tok t);

} // namespace cherisem::frontend

#endif // CHERISEM_FRONTEND_TOKEN_H
