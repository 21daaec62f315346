/**
 * @file
 * Unit tests for the MiniC lexer and parser: token classes, the
 * mini-preprocessor, declarator composition (function pointers,
 * arrays of pointers), statement/expression structure, source
 * locations and the integer-literal diagnostics.
 */
#include <gtest/gtest.h>

#include "driver/interpreter.h"
#include "frontend/parser.h"

namespace cherisem::frontend {
namespace {

using ctype::IntKind;
using ctype::Type;

TEST(Lexer, BasicTokens)
{
    auto toks = lex("int x = 42; // comment\n/* block */ x += 0x1f;",
                    "t");
    ASSERT_GE(toks.size(), 10u);
    EXPECT_EQ(toks[0].kind, Tok::KwInt);
    EXPECT_EQ(toks[1].kind, Tok::Ident);
    EXPECT_EQ(toks[1].text, "x");
    EXPECT_EQ(toks[2].kind, Tok::Assign);
    EXPECT_EQ(toks[3].kind, Tok::IntLit);
    EXPECT_EQ(toks[3].intValue, 42u);
    EXPECT_EQ(toks[6].kind, Tok::PlusAssign);
    EXPECT_EQ(toks[7].intValue, 0x1fu);
}

TEST(Lexer, LiteralsAndSuffixes)
{
    auto toks = lex("0 1U 2L 3UL '\\n' 'a' \"hi\\t\" 1.5 077", "t");
    EXPECT_EQ(toks[0].intValue, 0u);
    EXPECT_TRUE(toks[1].litUnsigned);
    EXPECT_TRUE(toks[2].litLong);
    EXPECT_TRUE(toks[3].litUnsigned);
    EXPECT_TRUE(toks[3].litLong);
    EXPECT_EQ(toks[4].intValue, uint64_t('\n'));
    EXPECT_EQ(toks[5].intValue, uint64_t('a'));
    EXPECT_EQ(toks[6].text, "hi\t");
    EXPECT_DOUBLE_EQ(toks[7].floatValue, 1.5);
    EXPECT_EQ(toks[8].intValue, 077u);
}

TEST(Lexer, PredefinedMacros)
{
    auto toks = lex("INT_MAX", "t");
    ASSERT_GE(toks.size(), 1u);
    EXPECT_EQ(toks[0].kind, Tok::IntLit);
    EXPECT_EQ(toks[0].intValue, 2147483647u);
}

TEST(Lexer, UserDefine)
{
    auto toks = lex("#define N 10\nint a[N];", "t");
    bool saw_ten = false;
    for (const Token &t : toks) {
        if (t.kind == Tok::IntLit && t.intValue == 10)
            saw_ten = true;
    }
    EXPECT_TRUE(saw_ten);
}

TEST(Lexer, IncludesSkipped)
{
    auto toks = lex("#include <stdio.h>\n#include \"x.h\"\nint x;",
                    "t");
    EXPECT_EQ(toks[0].kind, Tok::KwInt);
}

TEST(Lexer, ErrorOnBadChar)
{
    EXPECT_THROW(lex("int $x;", "t"), FrontendError);
}

TEST(Parser, GlobalAndFunction)
{
    TranslationUnit tu = parse("int g = 1;\nint main(void) "
                               "{ return g; }",
                               "t");
    ASSERT_EQ(tu.globals.size(), 1u);
    EXPECT_EQ(tu.globals[0].name, "g");
    EXPECT_TRUE(tu.globals[0].hasInit);
    ASSERT_EQ(tu.functions.size(), 1u);
    EXPECT_EQ(tu.functions[0].name, "main");
    EXPECT_TRUE(tu.functions[0].body != nullptr);
    EXPECT_TRUE(tu.functions[0].type->isFunction());
}

TEST(Parser, DeclaratorComposition)
{
    TranslationUnit tu = parse(R"(
int *array_of_ptrs[3];
int (*ptr_to_array)[3];
int (*fnptr)(int, char*);
int (*fnptr_array[2])(void);
)",
                               "t");
    ASSERT_EQ(tu.globals.size(), 4u);

    const auto &aop = tu.globals[0].type;
    ASSERT_TRUE(aop->isArray());
    EXPECT_TRUE(aop->element->isPointer());

    const auto &pta = tu.globals[1].type;
    ASSERT_TRUE(pta->isPointer());
    EXPECT_TRUE(pta->pointee->isArray());
    EXPECT_EQ(pta->pointee->arraySize, 3u);

    const auto &fp = tu.globals[2].type;
    ASSERT_TRUE(fp->isPointer());
    ASSERT_TRUE(fp->pointee->isFunction());
    EXPECT_EQ(fp->pointee->params.size(), 2u);
    EXPECT_TRUE(fp->pointee->params[1]->isPointer());

    const auto &fpa = tu.globals[3].type;
    ASSERT_TRUE(fpa->isArray());
    EXPECT_TRUE(fpa->element->isPointer());
    EXPECT_TRUE(fpa->element->pointee->isFunction());
}

TEST(Parser, TypedefsAndBuiltinsResolve)
{
    TranslationUnit tu = parse(R"(
typedef unsigned long word_t;
typedef struct point { int x; int y; } point_t;
word_t w;
point_t p;
uintptr_t u;
ptraddr_t a;
)",
                               "t");
    ASSERT_EQ(tu.globals.size(), 4u);
    EXPECT_EQ(tu.globals[0].type->intKind, IntKind::ULong);
    EXPECT_TRUE(tu.globals[1].type->isStructOrUnion());
    EXPECT_EQ(tu.globals[2].type->intKind, IntKind::Uintptr);
    EXPECT_EQ(tu.globals[3].type->intKind, IntKind::Ptraddr);
}

TEST(Parser, StructMembersRecorded)
{
    TranslationUnit tu = parse(
        "struct node { int v; struct node *next; };\n"
        "struct node n;",
        "t");
    ASSERT_EQ(tu.globals.size(), 1u);
    const ctype::TagDef &def =
        tu.tags.get(tu.globals[0].type->tag);
    ASSERT_EQ(def.members.size(), 2u);
    EXPECT_EQ(def.members[0].name, "v");
    EXPECT_EQ(def.members[1].name, "next");
    EXPECT_TRUE(def.members[1].type->isPointer());
    // Recursive: the pointee is the same tag.
    EXPECT_EQ(def.members[1].type->pointee->tag,
              tu.globals[0].type->tag);
}

TEST(Parser, EnumConstants)
{
    TranslationUnit tu =
        parse("enum color { RED, GREEN = 5, BLUE };\nint x;", "t");
    EXPECT_EQ(tu.enumConstants.at("RED"), 0);
    EXPECT_EQ(tu.enumConstants.at("GREEN"), 5);
    EXPECT_EQ(tu.enumConstants.at("BLUE"), 6);
}

TEST(Parser, ExpressionPrecedence)
{
    TranslationUnit tu = parse(
        "int f(void) { return 1 + 2 * 3 < 7 && 4 | 1; }", "t");
    const Stmt &ret = *tu.functions[0].body->body[0];
    ASSERT_EQ(ret.kind, Stmt::Kind::Return);
    // Top node: &&
    EXPECT_EQ(ret.expr->binop, BinOp::LogAnd);
    // Left of &&: <
    EXPECT_EQ(ret.expr->lhs->binop, BinOp::Lt);
    // Left of <: +, whose rhs is *
    EXPECT_EQ(ret.expr->lhs->lhs->binop, BinOp::Add);
    EXPECT_EQ(ret.expr->lhs->lhs->rhs->binop, BinOp::Mul);
    // Right of &&: |
    EXPECT_EQ(ret.expr->rhs->binop, BinOp::BitOr);
}

TEST(Parser, CastVsParenExpr)
{
    TranslationUnit tu = parse(R"(
int f(int x) {
    int a = (int)x;
    int b = (x) + 1;
    int *p = (int*)(long)x;
    return a + b + (p != 0);
}
)",
                               "t");
    const auto &body = tu.functions[0].body->body;
    EXPECT_EQ(body[0]->decls[0].init.expr->kind, Expr::Kind::Cast);
    EXPECT_EQ(body[1]->decls[0].init.expr->kind, Expr::Kind::Binary);
    const Expr &pc = *body[2]->decls[0].init.expr;
    EXPECT_EQ(pc.kind, Expr::Kind::Cast);
    EXPECT_EQ(pc.lhs->kind, Expr::Kind::Cast);
}

TEST(Parser, SizeofForms)
{
    TranslationUnit tu = parse(R"(
int f(void) {
    int a[4];
    return sizeof(int) + sizeof a + sizeof(a[0]);
}
)",
                               "t");
    const Expr &sum = *tu.functions[0].body->body[1]->expr;
    EXPECT_EQ(sum.kind, Expr::Kind::Binary);
    EXPECT_EQ(sum.lhs->lhs->kind, Expr::Kind::SizeofType);
    EXPECT_EQ(sum.lhs->rhs->kind, Expr::Kind::SizeofExpr);
    EXPECT_EQ(sum.rhs->kind, Expr::Kind::SizeofExpr);
}

TEST(Parser, ControlFlowStatements)
{
    TranslationUnit tu = parse(R"(
int f(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        if (i == 3) continue;
        acc += i;
    }
    while (acc > 100) acc -= 10;
    do { acc++; } while (acc < 0);
    return acc;
}
)",
                               "t");
    const auto &body = tu.functions[0].body->body;
    EXPECT_EQ(body[1]->kind, Stmt::Kind::For);
    EXPECT_EQ(body[2]->kind, Stmt::Kind::While);
    EXPECT_EQ(body[3]->kind, Stmt::Kind::DoWhile);
}

TEST(Parser, InitializerLists)
{
    TranslationUnit tu = parse(
        "int a[3] = {1, 2, 3};\n"
        "struct p { int x; int y; };\n"
        "struct p s = {4, 5};\n"
        "int m[2][2] = {{1,2},{3,4}};",
        "t");
    EXPECT_TRUE(tu.globals[0].init.isList);
    EXPECT_EQ(tu.globals[0].init.list.size(), 3u);
    EXPECT_TRUE(tu.globals[1].init.isList);
    EXPECT_TRUE(tu.globals[2].init.list[0].isList);
}

TEST(Parser, OffsetofSpecialForm)
{
    TranslationUnit tu = parse(
        "struct s { int a; int b; };\n"
        "int f(void) { return offsetof(struct s, b); }",
        "t");
    const Expr &e = *tu.functions[0].body->body[0]->expr;
    EXPECT_EQ(e.kind, Expr::Kind::OffsetOf);
    EXPECT_EQ(e.text, "b");
}

TEST(Parser, SyntaxErrors)
{
    EXPECT_THROW(parse("int f(void) { return 1 }", "t"),
                 FrontendError);
    EXPECT_THROW(parse("int = 3;", "t"), FrontendError);
    EXPECT_THROW(parse("int f(void) { x + ; }", "t"),
                 FrontendError);
}

TEST(Parser, PrototypesAndVariadic)
{
    TranslationUnit tu = parse(
        "int callee(int a, ...);\n"
        "void nop(void);\n"
        "int main(void) { return 0; }",
        "t");
    ASSERT_EQ(tu.functions.size(), 3u);
    EXPECT_TRUE(tu.functions[0].type->variadic);
    EXPECT_EQ(tu.functions[0].body, nullptr);
    EXPECT_EQ(tu.functions[1].type->params.size(), 0u);
}

/** The message of the FrontendError @p source raises, or "" if none. */
std::string
frontendErrorOf(const std::string &source)
{
    try {
        parse(source, "t.c");
    } catch (const FrontendError &e) {
        return e.str();
    }
    return "";
}

TEST(SourceLocation, RendersFileLineColumn)
{
    SourceLoc named{makeFileName("dir/some_long_file_name.c"), 3, 7};
    EXPECT_EQ(named.str(), "dir/some_long_file_name.c:3:7");
    SourceLoc unnamed{makeFileName(""), 3, 7};
    EXPECT_EQ(unnamed.str(), "<input>:3:7");
    SourceLoc null_file{nullptr, 3, 7};
    EXPECT_EQ(null_file.str(), "<input>:3:7");
    SourceLoc unknown{makeFileName("f.c"), 0, 0};
    EXPECT_EQ(unknown.str(), "<unknown>");
    EXPECT_EQ(SourceLoc{}.str(), "<unknown>");
}

TEST(SourceLocation, EqualityComparesNamesNotHandles)
{
    // Two parses of the same file make two handles; their locations
    // still compare equal.
    TranslationUnit a = parse("int g;", "same_file_name_over_15.c");
    TranslationUnit b = parse("int g;", "same_file_name_over_15.c");
    const SourceLoc &la = a.globals[0].loc;
    const SourceLoc &lb = b.globals[0].loc;
    EXPECT_NE(la.file, lb.file);
    EXPECT_EQ(la, lb);
    EXPECT_EQ(la.str(), "same_file_name_over_15.c:1:5");

    SourceLoc other_line = la;
    other_line.line = 2;
    EXPECT_FALSE(la == other_line);
    SourceLoc other_file{makeFileName("other.c"), la.line, la.column};
    EXPECT_FALSE(la == other_file);
    EXPECT_EQ((SourceLoc{nullptr, 1, 1}), (SourceLoc{makeFileName(""), 1, 1}));
}

TEST(SourceLocation, OneHandlePerParse)
{
    TranslationUnit tu = parse("int g;\nint main(void) { return g; }",
                               "shared.c");
    const SourceLoc &global = tu.globals[0].loc;
    const SourceLoc &ret = tu.functions[0].body->body[0]->loc;
    EXPECT_EQ(global.file.get(), ret.file.get());
    EXPECT_EQ(ret.str(), "shared.c:2:18");
}

TEST(Lexer, LineDirectiveRenumbersAndRenames)
{
    std::vector<FileName> files;
    auto toks = lex("int a;\n#line 40\nint b;\n#line 7 \"req.c\"\n"
                    "int c;\n#define N 1\nint d = N;",
                    makeFileName("pre.c"), &files);
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(*files[0], "pre.c");
    EXPECT_EQ(*files[1], "req.c");
    auto identAt = [&](const char *name) -> const Token & {
        for (const Token &t : toks)
            if (t.kind == Tok::Ident && t.text == name)
                return t;
        return toks.back();
    };
    EXPECT_EQ(identAt("a").line, 1u);
    EXPECT_EQ(identAt("a").file, 0u);
    EXPECT_EQ(identAt("b").line, 40u);
    EXPECT_EQ(identAt("b").file, 0u);
    EXPECT_EQ(identAt("c").line, 7u);
    EXPECT_EQ(identAt("c").file, 1u);
    // A macro expansion takes the file of its use site.
    EXPECT_EQ(toks[toks.size() - 3].kind, Tok::IntLit);
    EXPECT_EQ(toks[toks.size() - 3].line, 9u);
    EXPECT_EQ(toks[toks.size() - 3].file, 1u);

    EXPECT_THROW(lex("#line x\n", "t"), FrontendError);
    EXPECT_THROW(lex("#line 0\n", "t"), FrontendError);
    EXPECT_THROW(lex("#line 3 \"open\n", "t"), FrontendError);
}

TEST(SourceLocation, LineDirectiveNamesLaterLocations)
{
    TranslationUnit tu =
        parse("int g;\n#line 1 \"<request>\"\nint main(void) { return g; }",
              "prelude.c");
    EXPECT_EQ(tu.globals[0].loc.str(), "prelude.c:1:5");
    EXPECT_EQ(tu.functions[0].body->body[0]->loc.str(), "<request>:1:18");
    try {
        parse("int g;\n#line 5 \"<request>\"\nint main(void) { return }",
              "prelude.c");
        FAIL() << "expected a syntax error";
    } catch (const FrontendError &e) {
        EXPECT_EQ(e.loc.fileName(), "<request>");
        EXPECT_EQ(e.loc.line, 5u);
    }
}

TEST(Lexer, UserDefineOverridesPredefined)
{
    auto toks = lex("#define NULL 0\nNULL", "t");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, Tok::IntLit);
    EXPECT_EQ(toks[0].intValue, 0u);
    EXPECT_EQ(toks[1].kind, Tok::End);

    // Without the override NULL is ((void*)0).
    EXPECT_EQ(lex("NULL", "t")[0].kind, Tok::LParen);
}

TEST(Lexer, PredefinedMacroInsideUserMacro)
{
    auto toks = lex("#define BIG (INT_MAX - 1)\nBIG", "t");
    ASSERT_EQ(toks.size(), 6u);
    EXPECT_EQ(toks[0].kind, Tok::LParen);
    EXPECT_EQ(toks[1].kind, Tok::IntLit);
    EXPECT_EQ(toks[1].intValue, 2147483647u);
    EXPECT_EQ(toks[2].kind, Tok::Minus);
    EXPECT_EQ(toks[3].intValue, 1u);
    EXPECT_EQ(toks[4].kind, Tok::RParen);
}

TEST(Lexer, MutuallyRecursiveMacrosStop)
{
    // B -> A -> B: the inner B is being expanded already, so it stays
    // an identifier.
    auto toks = lex("#define A B\n#define B A\nB", "t");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, Tok::Ident);
    EXPECT_EQ(toks[0].text, "B");

    driver::RunResult rr = driver::runSource(
        "#define A B\n#define B A\nint main(void){ return B; }",
        driver::referenceProfile(), "t.c");
    EXPECT_EQ(rr.summary(),
              "frontend-error t.c:3:24: use of undeclared identifier 'B'");
}

TEST(Lexer, ExpandedTokensCarryUseSite)
{
    auto toks = lex("#define PAIR (1 + INT_MAX)\nint x =\n    PAIR;", "t");
    // int x = ( 1 + 2147483647 ) ;
    ASSERT_EQ(toks.size(), 10u);
    for (size_t i = 3; i < 8; ++i) {
        EXPECT_EQ(toks[i].line, 3u) << i;
        EXPECT_EQ(toks[i].column, 5u) << i;
    }
    EXPECT_EQ(toks[8].kind, Tok::Semi);
    EXPECT_EQ(toks[8].line, 3u);
    EXPECT_EQ(toks[8].column, 9u);
}

TEST(Lexer, IntegerLiteralErrors)
{
    EXPECT_EQ(frontendErrorOf("int main(void) { return 09; }"),
              "t.c:1:25: invalid digit '9' in octal constant");
    EXPECT_EQ(frontendErrorOf("int main(void) { return 0x; }"),
              "t.c:1:25: hexadecimal constant has no digits");
    EXPECT_EQ(frontendErrorOf(
                  "int main(void) { return 99999999999999999999999; }"),
              "t.c:1:25: integer constant is too large");
    EXPECT_EQ(frontendErrorOf(
                  "int main(void) { return 0x10000000000000000; }"),
              "t.c:1:25: integer constant is too large");

    driver::RunResult rr = driver::runSource(
        "int main(void) { return 09; }", driver::referenceProfile(),
        "t.c");
    EXPECT_TRUE(rr.frontendError);

    // The limits still lex.
    auto toks = lex("18446744073709551615UL 0xffffffffffffffff 0777 0",
                    "t");
    EXPECT_EQ(toks[0].intValue, UINT64_MAX);
    EXPECT_EQ(toks[1].intValue, UINT64_MAX);
    EXPECT_EQ(toks[2].intValue, 0777u);
    EXPECT_EQ(toks[3].intValue, 0u);
}

TEST(Parser, UserTypedefsResolveBesideBuiltins)
{
    TranslationUnit tu = parse(R"(
typedef unsigned char byte_t;
typedef byte_t octet_t;
byte_t a;
octet_t b;
uint8_t c;
size_t d;
)",
                               "t");
    ASSERT_EQ(tu.globals.size(), 4u);
    EXPECT_EQ(tu.globals[0].type->intKind, IntKind::UChar);
    EXPECT_EQ(tu.globals[1].type->intKind, IntKind::UChar);
    EXPECT_EQ(tu.globals[2].type->intKind, IntKind::UChar);
    EXPECT_EQ(tu.globals[3].type->intKind, IntKind::ULong);

    // A builtin typedef name is not a declarator name, so a user
    // typedef cannot redeclare it.
    EXPECT_EQ(frontendErrorOf("typedef char size_t;"),
              "t.c:1:14: expected declarator name");
}

} // namespace
} // namespace cherisem::frontend
