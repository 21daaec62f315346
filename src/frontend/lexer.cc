#include "frontend/lexer.h"

#include <charconv>
#include <cstdlib>
#include <map>
#include <unordered_map>

namespace cherisem::frontend {

namespace {

// ASCII character classes (the "C" locale's, without the calls).
bool isDigit(char c) { return c >= '0' && c <= '9'; }
bool isAlpha(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool isAlnum(char c) { return isAlpha(c) || isDigit(c); }
bool isIdentChar(char c) { return isAlnum(c) || c == '_'; }
bool isXDigit(char c)
{
    return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

const std::unordered_map<std::string_view, Tok> &
keywords()
{
    static const std::unordered_map<std::string_view, Tok> table = {
        {"void", Tok::KwVoid},       {"char", Tok::KwChar},
        {"short", Tok::KwShort},     {"int", Tok::KwInt},
        {"long", Tok::KwLong},       {"signed", Tok::KwSigned},
        {"unsigned", Tok::KwUnsigned}, {"float", Tok::KwFloat},
        {"double", Tok::KwDouble},   {"_Bool", Tok::KwBool},
        {"bool", Tok::KwBool},       {"struct", Tok::KwStruct},
        {"union", Tok::KwUnion},     {"enum", Tok::KwEnum},
        {"typedef", Tok::KwTypedef}, {"const", Tok::KwConst},
        {"volatile", Tok::KwVolatile}, {"static", Tok::KwStatic},
        {"extern", Tok::KwExtern},   {"return", Tok::KwReturn},
        {"if", Tok::KwIf},           {"else", Tok::KwElse},
        {"while", Tok::KwWhile},     {"do", Tok::KwDo},
        {"for", Tok::KwFor},         {"break", Tok::KwBreak},
        {"continue", Tok::KwContinue}, {"sizeof", Tok::KwSizeof},
        {"_Alignof", Tok::KwAlignof}, {"alignof", Tok::KwAlignof},
        {"switch", Tok::KwSwitch},   {"case", Tok::KwCase},
        {"default", Tok::KwDefault},
    };
    return table;
}

/** Predefined object-like macros (the tests' limits.h / stdint.h /
 *  stddef.h subset). */
const std::unordered_map<std::string_view, std::string_view> &
predefinedMacros()
{
    static const std::unordered_map<std::string_view, std::string_view>
        table = {
            {"NULL", "((void*)0)"},
            {"true", "1"},
            {"false", "0"},
            {"CHAR_BIT", "8"},
            {"SCHAR_MAX", "127"},
            {"SCHAR_MIN", "(-128)"},
            {"UCHAR_MAX", "255"},
            {"SHRT_MAX", "32767"},
            {"SHRT_MIN", "(-32767-1)"},
            {"USHRT_MAX", "65535"},
            {"INT_MAX", "2147483647"},
            {"INT_MIN", "(-2147483647-1)"},
            {"UINT_MAX", "4294967295U"},
            {"LONG_MAX", "9223372036854775807L"},
            {"LONG_MIN", "(-9223372036854775807L-1)"},
            {"ULONG_MAX", "18446744073709551615UL"},
            {"LLONG_MAX", "9223372036854775807L"},
            {"LLONG_MIN", "(-9223372036854775807L-1)"},
            {"ULLONG_MAX", "18446744073709551615UL"},
            {"SIZE_MAX", "18446744073709551615UL"},
            {"UINTPTR_MAX", "18446744073709551615UL"},
            {"INTPTR_MAX", "9223372036854775807L"},
            {"INTPTR_MIN", "(-9223372036854775807L-1)"},
            {"PTRDIFF_MAX", "9223372036854775807L"},
            {"EXIT_SUCCESS", "0"},
            {"EXIT_FAILURE", "1"},
        };
    return table;
}

class Lexer
{
  public:
    /**
     * A lexer over @p src.  The lexer of a macro body has @p parent
     * set and @p expanding naming the macro: it reads its ancestors'
     * macros and expanding-set through the parent chain instead of
     * copying them, and a name being expanded further up the chain is
     * not expanded again (self-reference stays an identifier).
     */
    Lexer(std::string_view src, const FileName &file,
          std::vector<FileName> *files, const Lexer *parent = nullptr,
          std::string_view expanding = {})
        : src_(src), file_(&file), files_(files), parent_(parent),
          expanding_(expanding), fileIdx_(parent ? parent->fileIdx_ : 0)
    {
    }

    /** Append the tokens of the source, macros expanded, to @p out.
     *  The top-level lexer closes the stream with an End token. */
    void
    run(std::vector<Token> &out)
    {
        for (;;) {
            skipWhitespaceAndComments();
            if (pos_ >= src_.size())
                break;
            const uint32_t line = line_;
            const uint32_t column = col_;
            char c = peek();
            if (isAlpha(c) || c == '_') {
                std::string_view word = scanWord();
                auto kw = keywords().find(word);
                if (kw != keywords().end()) {
                    push(out, kw->second, line, column);
                    continue;
                }
                std::string_view body;
                if (findMacro(word, &body) && !isExpanding(word)) {
                    // Object-like macro expansion: lex the body and
                    // splice its tokens in at the use site.
                    size_t first = out.size();
                    Lexer sub(body, *file_, files_, this, word);
                    sub.run(out);
                    for (size_t i = first; i < out.size(); ++i) {
                        out[i].line = line;
                        out[i].column = column;
                    }
                    continue;
                }
                push(out, Tok::Ident, line, column).text.assign(word);
                continue;
            }
            Token &t = push(out, Tok::End, line, column);
            if (isDigit(c) || (c == '.' && isDigit(peek(1))))
                number(t);
            else if (c == '"')
                stringLit(t);
            else if (c == '\'')
                charLit(t);
            else
                punct(t);
        }
        if (!parent_)
            push(out, Tok::End, line_, col_);
    }

  private:
    Token &
    push(std::vector<Token> &out, Tok kind, uint32_t line,
         uint32_t column) const
    {
        Token &t = out.emplace_back();
        t.kind = kind;
        t.line = line;
        t.column = column;
        t.file = fileIdx_;
        return t;
    }

    /** Look @p name up: this lexer's and its ancestors' own
     *  `#define`s first (innermost first), then the predefined table. */
    bool
    findMacro(std::string_view name, std::string_view *body) const
    {
        for (const Lexer *l = this; l; l = l->parent_) {
            auto it = l->macros_.find(name);
            if (it != l->macros_.end()) {
                *body = it->second;
                return true;
            }
        }
        auto it = predefinedMacros().find(name);
        if (it == predefinedMacros().end())
            return false;
        *body = it->second;
        return true;
    }

    bool
    isExpanding(std::string_view name) const
    {
        for (const Lexer *l = this; l; l = l->parent_) {
            if (l->expanding_ == name)
                return true;
        }
        return false;
    }

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw FrontendError{SourceLoc{*file_, line_, col_}, msg};
    }

    [[noreturn]] void
    failAt(const Token &t, const std::string &msg) const
    {
        throw FrontendError{SourceLoc{*file_, t.line, t.column}, msg};
    }

    char peek(size_t off = 0) const
    {
        return pos_ + off < src_.size() ? src_[pos_ + off] : '\0';
    }

    char
    advance()
    {
        char c = src_[pos_++];
        if (c == '\n') {
            ++line_;
            col_ = 1;
        } else {
            ++col_;
        }
        return c;
    }

    bool
    match(char c)
    {
        if (peek() == c) {
            advance();
            return true;
        }
        return false;
    }

    /** Identifier characters from the current position (no newline
     *  inside, so only the column moves). */
    std::string_view
    scanWord()
    {
        size_t start = pos_;
        while (pos_ < src_.size() && isIdentChar(src_[pos_]))
            ++pos_;
        col_ += static_cast<uint32_t>(pos_ - start);
        return src_.substr(start, pos_ - start);
    }

    void
    skipWhitespaceAndComments()
    {
        for (;;) {
            char c = peek();
            if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
                advance();
            } else if (c == '/' && peek(1) == '/') {
                while (peek() && peek() != '\n')
                    advance();
            } else if (c == '/' && peek(1) == '*') {
                advance();
                advance();
                while (peek() && !(peek() == '*' && peek(1) == '/'))
                    advance();
                if (!peek())
                    fail("unterminated comment");
                advance();
                advance();
            } else if (c == '#') {
                handleDirective();
            } else {
                return;
            }
        }
    }

    void
    handleDirective()
    {
        advance(); // '#'
        size_t start = pos_;
        while (isAlpha(peek()))
            advance();
        std::string_view word = src_.substr(start, pos_ - start);
        if (word == "define") {
            while (peek() == ' ' || peek() == '\t')
                advance();
            std::string_view name = scanWord();
            if (peek() == '(') {
                // Function-like macros are out of scope; skip the
                // whole line (the builtins cover assert/offsetof).
                while (peek() && peek() != '\n')
                    advance();
                return;
            }
            std::string body;
            while (peek() && peek() != '\n') {
                if (peek() == '\\' && peek(1) == '\n') {
                    advance();
                    advance();
                    continue;
                }
                body += advance();
            }
            if (!name.empty())
                macros_.insert_or_assign(std::string(name), std::move(body));
        } else if (word == "line") {
            lineDirective();
        } else {
            // #include and anything else: skip the line.
            while (peek() && peek() != '\n')
                advance();
        }
    }

    /** `#line N ["name"]`: the next line is line N (of file name). */
    void
    lineDirective()
    {
        while (peek() == ' ' || peek() == '\t')
            advance();
        if (!isDigit(peek()))
            fail("#line expects a line number");
        uint64_t n = 0;
        while (isDigit(peek())) {
            n = n * 10 + static_cast<uint64_t>(advance() - '0');
            if (n > UINT32_MAX)
                fail("#line number out of range");
        }
        if (n == 0)
            fail("#line number out of range");
        while (peek() == ' ' || peek() == '\t')
            advance();
        if (peek() == '"') {
            advance();
            std::string name;
            while (peek() && peek() != '"' && peek() != '\n')
                name += advance();
            if (peek() != '"')
                fail("unterminated #line file name");
            advance();
            lineFile_ = makeFileName(std::move(name));
            file_ = &lineFile_;
            if (files_) {
                files_->push_back(lineFile_);
                fileIdx_ = static_cast<uint32_t>(files_->size() - 1);
            }
        }
        while (peek() && peek() != '\n')
            advance();
        // The newline ending the directive moves to line n.
        line_ = static_cast<uint32_t>(n) - 1;
    }

    void
    number(Token &t)
    {
        size_t start = pos_;
        bool is_float = false;
        bool is_hex = false;
        if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
            is_hex = true;
            advance();
            advance();
            while (isXDigit(peek()))
                advance();
        } else {
            while (isDigit(peek()))
                advance();
            if (peek() == '.') {
                is_float = true;
                advance();
                while (isDigit(peek()))
                    advance();
            }
            if (peek() == 'e' || peek() == 'E') {
                is_float = true;
                advance();
                if (peek() == '+' || peek() == '-')
                    advance();
                while (isDigit(peek()))
                    advance();
            }
        }
        std::string_view s = src_.substr(start, pos_ - start);
        if (is_float) {
            t.kind = Tok::FloatLit;
            t.floatValue = std::strtod(std::string(s).c_str(), nullptr);
            if (peek() == 'f' || peek() == 'F')
                advance();
            return;
        }
        // Suffixes.
        for (;;) {
            char sc = peek();
            if (sc == 'u' || sc == 'U') {
                t.litUnsigned = true;
                advance();
            } else if (sc == 'l' || sc == 'L') {
                t.litLong = true;
                advance();
                if (peek() == 'l' || peek() == 'L')
                    advance();
            } else {
                break;
            }
        }
        t.kind = Tok::IntLit;
        int base = 10;
        if (is_hex) {
            s.remove_prefix(2);
            base = 16;
            if (s.empty())
                failAt(t, "hexadecimal constant has no digits");
        } else if (s.size() > 1 && s[0] == '0') {
            s.remove_prefix(1);
            base = 8;
        }
        auto [end, ec] =
            std::from_chars(s.data(), s.data() + s.size(), t.intValue, base);
        if (ec == std::errc::result_out_of_range)
            failAt(t, "integer constant is too large");
        if (end != s.data() + s.size())
            failAt(t, std::string("invalid digit '") + *end +
                          "' in octal constant");
    }

    int
    escape()
    {
        char c = advance();
        switch (c) {
          case 'n': return '\n';
          case 't': return '\t';
          case 'r': return '\r';
          case '0': return '\0';
          case '\\': return '\\';
          case '\'': return '\'';
          case '"': return '"';
          case 'a': return '\a';
          case 'b': return '\b';
          case 'f': return '\f';
          case 'v': return '\v';
          case 'x': {
            int v = 0;
            while (isXDigit(peek())) {
                char h = advance();
                v = v * 16 +
                    (isDigit(h) ? h - '0' : ((h | 0x20) - 'a' + 10));
            }
            return v;
          }
          default:
            fail(std::string("unknown escape \\") + c);
        }
    }

    void
    stringLit(Token &t)
    {
        advance(); // '"'
        while (peek() && peek() != '"') {
            char c = advance();
            if (c == '\\')
                t.text += static_cast<char>(escape());
            else
                t.text += c;
        }
        if (!match('"'))
            fail("unterminated string literal");
        t.kind = Tok::StringLit;
    }

    void
    charLit(Token &t)
    {
        advance(); // '\''
        int v;
        char c = advance();
        if (c == '\\')
            v = escape();
        else
            v = static_cast<unsigned char>(c);
        if (!match('\''))
            fail("unterminated character literal");
        t.kind = Tok::CharLit;
        t.intValue = static_cast<uint64_t>(v);
    }

    void
    punct(Token &t)
    {
        char c = advance();
        switch (c) {
          case '(': t.kind = Tok::LParen; return;
          case ')': t.kind = Tok::RParen; return;
          case '{': t.kind = Tok::LBrace; return;
          case '}': t.kind = Tok::RBrace; return;
          case '[': t.kind = Tok::LBracket; return;
          case ']': t.kind = Tok::RBracket; return;
          case ';': t.kind = Tok::Semi; return;
          case ',': t.kind = Tok::Comma; return;
          case '?': t.kind = Tok::Question; return;
          case ':': t.kind = Tok::Colon; return;
          case '~': t.kind = Tok::Tilde; return;
          case '.':
            if (peek() == '.' && peek(1) == '.') {
                advance();
                advance();
                t.kind = Tok::Ellipsis;
            } else {
                t.kind = Tok::Dot;
            }
            return;
          case '+':
            t.kind = match('+') ? Tok::PlusPlus
                : match('=')    ? Tok::PlusAssign
                                : Tok::Plus;
            return;
          case '-':
            t.kind = match('-') ? Tok::MinusMinus
                : match('=')    ? Tok::MinusAssign
                : match('>')    ? Tok::Arrow
                                : Tok::Minus;
            return;
          case '*':
            t.kind = match('=') ? Tok::StarAssign : Tok::Star;
            return;
          case '/':
            t.kind = match('=') ? Tok::SlashAssign : Tok::Slash;
            return;
          case '%':
            t.kind = match('=') ? Tok::PercentAssign : Tok::Percent;
            return;
          case '&':
            t.kind = match('&') ? Tok::AmpAmp
                : match('=')    ? Tok::AmpAssign
                                : Tok::Amp;
            return;
          case '|':
            t.kind = match('|') ? Tok::PipePipe
                : match('=')    ? Tok::PipeAssign
                                : Tok::Pipe;
            return;
          case '^':
            t.kind = match('=') ? Tok::CaretAssign : Tok::Caret;
            return;
          case '!':
            t.kind = match('=') ? Tok::NotEq : Tok::Bang;
            return;
          case '<':
            if (match('<')) {
                t.kind = match('=') ? Tok::ShlAssign : Tok::Shl;
            } else {
                t.kind = match('=') ? Tok::Le : Tok::Lt;
            }
            return;
          case '>':
            if (match('>')) {
                t.kind = match('=') ? Tok::ShrAssign : Tok::Shr;
            } else {
                t.kind = match('=') ? Tok::Ge : Tok::Gt;
            }
            return;
          case '=':
            t.kind = match('=') ? Tok::EqEq : Tok::Assign;
            return;
          default:
            fail(std::string("unexpected character '") + c + "'");
        }
    }

    std::string_view src_;
    /** The current file: the one lexing started in, or lineFile_. */
    const FileName *file_;
    /** The file named by the last `#line N "name"`. */
    FileName lineFile_;
    /** Receives every file #line names (may be null). */
    std::vector<FileName> *files_;
    const Lexer *parent_;
    /** The macro whose body this lexer reads; empty at top level. */
    std::string_view expanding_;
    size_t pos_ = 0;
    uint32_t line_ = 1;
    uint32_t col_ = 1;
    /** Token::file of the tokens this lexer emits. */
    uint32_t fileIdx_;
    /** This lexer's own `#define`s; they shadow the predefined ones. */
    std::map<std::string, std::string, std::less<>> macros_;
};

} // namespace

std::vector<Token>
lex(std::string_view source, const FileName &file,
    std::vector<FileName> *files)
{
    std::vector<Token> out;
    // The suite corpus averages about ten source bytes per token; a
    // quarter of the length also covers dense, comment-free code.
    out.reserve(source.size() / 4 + 8);
    if (files)
        files->assign(1, file);
    Lexer(source, file, files).run(out);
    return out;
}

std::vector<Token>
lex(std::string_view source, const std::string &filename)
{
    return lex(source, makeFileName(filename));
}

} // namespace cherisem::frontend
