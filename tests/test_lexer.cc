/**
 * @file
 * Tokenizer unit tests.
 */

#include <gtest/gtest.h>

#include <deque>

#include "base/logging.hh"
#include "prolog/lexer.hh"

using namespace kcm;

namespace
{

std::vector<Token>
lex(const std::string &src)
{
    // Tokens view their lexer's text: keep every lexer to the end.
    static std::deque<Lexer> lexers;
    return lexers.emplace_back(src).tokenize();
}

} // namespace

TEST(Lexer, EmptyInputIsJustEof)
{
    auto toks = lex("");
    ASSERT_EQ(toks.size(), 1u);
    EXPECT_EQ(toks[0].kind, TokenKind::Eof);
}

TEST(Lexer, SimpleAtom)
{
    auto toks = lex("foo");
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, TokenKind::Atom);
    EXPECT_EQ(toks[0].text, "foo");
}

TEST(Lexer, AtomWithDigitsAndUnderscores)
{
    auto toks = lex("foo_bar42");
    EXPECT_EQ(toks[0].text, "foo_bar42");
}

TEST(Lexer, Variable)
{
    auto toks = lex("Xyz _foo _");
    EXPECT_EQ(toks[0].kind, TokenKind::Variable);
    EXPECT_EQ(toks[0].text, "Xyz");
    EXPECT_EQ(toks[1].kind, TokenKind::Variable);
    EXPECT_EQ(toks[1].text, "_foo");
    EXPECT_EQ(toks[2].kind, TokenKind::Variable);
    EXPECT_EQ(toks[2].text, "_");
}

TEST(Lexer, Integers)
{
    auto toks = lex("0 42 123456789");
    EXPECT_EQ(toks[0].intValue, 0);
    EXPECT_EQ(toks[1].intValue, 42);
    EXPECT_EQ(toks[2].intValue, 123456789);
}

TEST(Lexer, RadixIntegers)
{
    auto toks = lex("0xff 0o17 0b101");
    EXPECT_EQ(toks[0].intValue, 255);
    EXPECT_EQ(toks[1].intValue, 15);
    EXPECT_EQ(toks[2].intValue, 5);
}

TEST(Lexer, CharCodeLiteral)
{
    auto toks = lex("0'a 0' ");
    EXPECT_EQ(toks[0].intValue, 'a');
    EXPECT_EQ(toks[1].intValue, ' ');
}

TEST(Lexer, Floats)
{
    auto toks = lex("3.14 2.0e3 1e6");
    EXPECT_EQ(toks[0].kind, TokenKind::Float);
    EXPECT_DOUBLE_EQ(toks[0].floatValue, 3.14);
    EXPECT_DOUBLE_EQ(toks[1].floatValue, 2000.0);
    EXPECT_EQ(toks[2].kind, TokenKind::Float);
    EXPECT_DOUBLE_EQ(toks[2].floatValue, 1e6);
}

TEST(Lexer, IntFollowedByEndIsNotFloat)
{
    auto toks = lex("3. ");
    EXPECT_EQ(toks[0].kind, TokenKind::Int);
    EXPECT_EQ(toks[0].intValue, 3);
    EXPECT_EQ(toks[1].kind, TokenKind::End);
}

TEST(Lexer, QuotedAtom)
{
    auto toks = lex("'hello world' 'it''s'");
    EXPECT_EQ(toks[0].kind, TokenKind::Atom);
    EXPECT_EQ(toks[0].text, "hello world");
    EXPECT_EQ(toks[1].text, "it's");
}

TEST(Lexer, QuotedAtomEscapes)
{
    auto toks = lex("'a\\nb' '\\\\'");
    EXPECT_EQ(toks[0].text, "a\nb");
    EXPECT_EQ(toks[1].text, "\\");
}

TEST(Lexer, StringToken)
{
    auto toks = lex("\"abc\"");
    EXPECT_EQ(toks[0].kind, TokenKind::String);
    EXPECT_EQ(toks[0].text, "abc");
}

TEST(Lexer, SymbolicAtoms)
{
    auto toks = lex(":- ?- --> \\+ =..");
    EXPECT_EQ(toks[0].text, ":-");
    EXPECT_EQ(toks[1].text, "?-");
    EXPECT_EQ(toks[2].text, "-->");
    EXPECT_EQ(toks[3].text, "\\+");
    EXPECT_EQ(toks[4].text, "=..");
}

TEST(Lexer, Punctuation)
{
    auto toks = lex("( ) [ ] { } , |");
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(toks[i].kind, TokenKind::Punct) << i;
}

TEST(Lexer, SoloAtoms)
{
    auto toks = lex("! ;");
    EXPECT_EQ(toks[0].kind, TokenKind::Atom);
    EXPECT_EQ(toks[0].text, "!");
    EXPECT_EQ(toks[1].text, ";");
}

TEST(Lexer, LineComment)
{
    auto toks = lex("a % hidden\nb");
    EXPECT_EQ(toks[0].text, "a");
    EXPECT_EQ(toks[1].text, "b");
    EXPECT_EQ(toks[2].kind, TokenKind::Eof);
}

TEST(Lexer, BlockComment)
{
    auto toks = lex("a /* hidden * / still */ b");
    EXPECT_EQ(toks[0].text, "a");
    EXPECT_EQ(toks[1].text, "b");
}

TEST(Lexer, LayoutBeforeTracking)
{
    auto toks = lex("f(x) g (y)");
    // f ( x ) g ( y )
    EXPECT_EQ(toks[0].text, "f");
    EXPECT_EQ(toks[1].text, "(");
    EXPECT_FALSE(toks[1].layoutBefore);
    EXPECT_EQ(toks[4].text, "g");
    EXPECT_EQ(toks[5].text, "(");
    EXPECT_TRUE(toks[5].layoutBefore);
}

TEST(Lexer, ClauseEndDetection)
{
    auto toks = lex("a. b.c. d.");
    // "b.c" is the atom b followed by infix-ish '.'? In our lexer '.'
    // not followed by layout lexes as a symbolic atom char run: ".".
    EXPECT_EQ(toks[0].text, "a");
    EXPECT_EQ(toks[1].kind, TokenKind::End);
    EXPECT_EQ(toks[2].text, "b");
    EXPECT_EQ(toks[3].kind, TokenKind::Atom);
    EXPECT_EQ(toks[3].text, ".");
}

TEST(Lexer, LineNumbers)
{
    auto toks = lex("a\nb\n\nc");
    EXPECT_EQ(toks[0].line, 1);
    EXPECT_EQ(toks[1].line, 2);
    EXPECT_EQ(toks[2].line, 4);
}

TEST(Lexer, UnterminatedQuoteThrows)
{
    Lexer lexer("'oops");
    EXPECT_THROW(lexer.tokenize(), FatalError);
}

TEST(Lexer, UnterminatedBlockCommentThrows)
{
    Lexer lexer("/* oops");
    EXPECT_THROW(lexer.tokenize(), FatalError);
}

TEST(Lexer, UnterminatedTokensNameTheLineTheyOpenedOn)
{
    // The end of the text is past the last line, where nothing opened.
    const std::pair<const char *, const char *> cases[] = {
        {"a.\nb('c,\nd).\n", "lexer: line 2: unterminated quoted token"},
        {"a.\n\"b\\", "lexer: line 2: unterminated escape"},
        {"a.\n/* b\nc\n", "lexer: line 2: unterminated block comment"},
    };
    for (const auto &[text, want] : cases) {
        SCOPED_TRACE(text);
        try {
            Lexer(text).tokenize();
            ADD_FAILURE() << "no lexer error";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(want), std::string::npos)
                << err.what();
        }
    }
}

TEST(AtomQuoting, NeedsQuotes)
{
    EXPECT_FALSE(atomNeedsQuotes("foo"));
    EXPECT_FALSE(atomNeedsQuotes("fooBar1"));
    EXPECT_FALSE(atomNeedsQuotes("+"));
    EXPECT_FALSE(atomNeedsQuotes("=.."));
    EXPECT_FALSE(atomNeedsQuotes("[]"));
    EXPECT_FALSE(atomNeedsQuotes("!"));
    EXPECT_TRUE(atomNeedsQuotes("Foo"));
    EXPECT_TRUE(atomNeedsQuotes("hello world"));
    EXPECT_TRUE(atomNeedsQuotes("a+b"));
    EXPECT_TRUE(atomNeedsQuotes(""));
}
