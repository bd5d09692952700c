/**
 * @file
 * Term representation and writer tests.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "prolog/parser.hh"
#include "prolog/term.hh"
#include "prolog/writer.hh"

using namespace kcm;

TEST(Term, MakersAndAccessors)
{
    TermRef atom = Term::makeAtom("foo");
    EXPECT_TRUE(atom->isAtom());
    EXPECT_EQ(atomText(atom->atom()), "foo");

    TermRef number = Term::makeInt(-5);
    EXPECT_TRUE(number->isInt());
    EXPECT_EQ(number->intValue(), -5);

    TermRef f = Term::makeFloat(2.5);
    EXPECT_TRUE(f->isFloat());
    EXPECT_DOUBLE_EQ(f->floatValue(), 2.5);

    TermRef s = Term::makeStruct("pair", {atom, number});
    EXPECT_TRUE(s->isStruct());
    EXPECT_EQ(s->arity(), 2u);
    EXPECT_EQ(s->arg(0).get(), atom.get());
    EXPECT_EQ(s->functor().arity, 2u);
}

TEST(Term, ZeroArityStructBecomesAtom)
{
    TermRef t = Term::makeStruct("alone", {});
    EXPECT_TRUE(t->isAtom());
}

TEST(Term, ListBuilders)
{
    TermRef list =
        Term::makeList({Term::makeInt(1), Term::makeInt(2)});
    EXPECT_TRUE(list->isCons());
    EXPECT_TRUE(list->arg(1)->isCons());
    EXPECT_TRUE(list->arg(1)->arg(1)->isNil());

    TermRef tail = Term::makeVar("T");
    TermRef partial = Term::makeList({Term::makeInt(1)}, tail);
    EXPECT_EQ(partial->arg(1).get(), tail.get());
}

TEST(Term, VarsAreIdentityDistinct)
{
    TermRef a = Term::makeVar("X");
    TermRef b = Term::makeVar("X");
    EXPECT_FALSE(Term::equal(a, b));
    EXPECT_TRUE(Term::equal(a, a));
}

TEST(Term, StructuralEquality)
{
    TermRef a = parseTermText("f(1, [a,b], g(x))");
    TermRef b = parseTermText("f(1, [a,b], g(x))");
    TermRef c = parseTermText("f(1, [a,c], g(x))");
    EXPECT_TRUE(Term::equal(a, b));
    EXPECT_FALSE(Term::equal(a, c));
}

TEST(Term, CollectVarsInOrder)
{
    TermRef t = parseTermText("f(X, g(Y, X), [Z|Y])");
    std::vector<TermRef> vars;
    collectVars(t, vars);
    ASSERT_EQ(vars.size(), 3u);
    EXPECT_EQ(vars[0]->varName(), "X");
    EXPECT_EQ(vars[1]->varName(), "Y");
    EXPECT_EQ(vars[2]->varName(), "Z");
    EXPECT_EQ(countVars(t), 3u);
}

TEST(Term, AccessorPanicsOnWrongKind)
{
    TermRef atom = Term::makeAtom("a");
    EXPECT_THROW(atom->intValue(), PanicError);
    EXPECT_THROW(atom->varName(), PanicError);
    TermRef i = Term::makeInt(1);
    EXPECT_THROW(i->functorName(), PanicError);
    TermRef s = parseTermText("f(a)");
    EXPECT_THROW(s->arg(5), PanicError);
}

TEST(Writer, Numbers)
{
    EXPECT_EQ(writeTerm(Term::makeInt(42)), "42");
    EXPECT_EQ(writeTerm(Term::makeInt(-7)), "-7");
    EXPECT_EQ(writeTerm(Term::makeFloat(2.0)), "2.0");
    EXPECT_EQ(writeTerm(Term::makeFloat(1.5)), "1.5");
}

TEST(Writer, ListForms)
{
    EXPECT_EQ(writeTerm(parseTermText("[1,2,3]")), "[1,2,3]");
    EXPECT_EQ(writeTerm(parseTermText("[]")), "[]");
    EXPECT_EQ(writeTerm(parseTermText("[[1],[2,[3]]]")),
              "[[1],[2,[3]]]");
}

TEST(Writer, OperatorPrecedenceParens)
{
    EXPECT_EQ(writeTerm(parseTermText("a + b * c")), "a + b * c");
    EXPECT_EQ(writeTerm(parseTermText("(a + b) * c")), "(a + b) * c");
    EXPECT_EQ(writeTerm(parseTermText("-(1 + 2)")), "- (1 + 2)");
    EXPECT_EQ(writeTerm(parseTermText("a - (b - c)")), "a - (b - c)");
    EXPECT_EQ(writeTerm(parseTermText("(a - b) - c")), "a - b - c");
}

TEST(Writer, CanonicalIgnoresOps)
{
    OperatorTable ops;
    WriteOptions options;
    options.ignoreOps = true;
    EXPECT_EQ(writeTerm(parseTermText("1 + 2"), ops, options), "+(1,2)");
}

TEST(Writer, MaxDepthTruncates)
{
    OperatorTable ops;
    WriteOptions options;
    options.maxDepth = 2;
    TermRef deep = parseTermText("f(g(h(k(x))))");
    std::string out = writeTerm(deep, ops, options);
    EXPECT_NE(out.find("..."), std::string::npos);
}

TEST(Writer, QuotingRules)
{
    EXPECT_EQ(writeTermQuoted(Term::makeAtom("needs quoting")),
              "'needs quoting'");
    EXPECT_EQ(writeTermQuoted(Term::makeAtom("noQuotes1")), "noQuotes1");
    EXPECT_EQ(writeTermQuoted(Term::makeAtom("it's")), "'it\\'s'");
    EXPECT_EQ(writeTermQuoted(Term::makeAtom("[]")), "[]");
}

TEST(Writer, CurlyAndPartialLists)
{
    EXPECT_EQ(writeTerm(parseTermText("{a, b}")), "{a,b}");
    EXPECT_EQ(writeTerm(parseTermText("[a|T]")), "[a|_0]");
}

TEST(Writer, VariablesNumberByFirstOccurrenceWithinOneWrite)
{
    EXPECT_EQ(writeTerm(parseTermText("f(X, Y, X)")), "f(_0,_1,_0)");
    // By identity, not name: each anonymous variable is its own.
    EXPECT_EQ(writeTerm(parseTermText("f(_, _)")), "f(_0,_1)");
    // Each write numbers afresh, whatever was written before.
    EXPECT_EQ(writeTerm(Term::makeVar("X")), "_0");
    EXPECT_EQ(writeTerm(Term::makeVar("Y")), "_0");
}

TEST(Writer, AlphaOperatorsGetSpaces)
{
    EXPECT_EQ(writeTerm(parseTermText("1 mod 2")), "1 mod 2");
    EXPECT_EQ(writeTerm(parseTermText("a is b")), "a is b");
}
