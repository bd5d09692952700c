/**
 * @file
 * Reader (parser) unit tests: operator precedence, lists, functor
 * application, directives.
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "bench_support/plm_suite.hh"
#include "kcm/stdlib.hh"
#include "perfbench/workload.hh"
#include "prolog/parser.hh"
#include "prolog/writer.hh"

using namespace kcm;

namespace
{

/** Parse one term and print it back canonically (ignore_ops). */
std::string
canon(const std::string &text)
{
    TermRef t = parseTermText(text);
    OperatorTable ops;
    WriteOptions options;
    options.ignoreOps = true;
    options.quoted = true;
    return writeTerm(t, ops, options);
}

} // namespace

TEST(Parser, Atoms)
{
    EXPECT_EQ(canon("foo"), "foo");
    EXPECT_EQ(canon("'hello world'"), "'hello world'");
}

TEST(Parser, Numbers)
{
    EXPECT_EQ(canon("42"), "42");
    EXPECT_EQ(canon("-7"), "-7");
    EXPECT_EQ(canon("3.5"), "3.5");
}

TEST(Parser, FunctorApplication)
{
    EXPECT_EQ(canon("f(a,b)"), "f(a,b)");
    EXPECT_EQ(canon("f(g(h(x)))"), "f(g(h(x)))");
}

TEST(Parser, InfixPrecedence)
{
    EXPECT_EQ(canon("1+2*3"), "+(1,*(2,3))");
    EXPECT_EQ(canon("1*2+3"), "+(*(1,2),3)");
    EXPECT_EQ(canon("(1+2)*3"), "*(+(1,2),3)");
}

TEST(Parser, LeftAssociativity)
{
    EXPECT_EQ(canon("1-2-3"), "-(-(1,2),3)");
    EXPECT_EQ(canon("8//2//2"), "//(//(8,2),2)");
}

TEST(Parser, RightAssociativity)
{
    EXPECT_EQ(canon("(a,b,c)"), "','(a,','(b,c))");
    EXPECT_EQ(canon("2^3^4"), "^(2,^(3,4))");
}

TEST(Parser, ClauseNeck)
{
    EXPECT_EQ(canon("a :- b, c"), ":-(a,','(b,c))");
}

TEST(Parser, ComparisonOps)
{
    EXPECT_EQ(canon("X is Y+1"), "is(_0,+(_1,1))");
    EXPECT_EQ(canon("A =< B"), "=<(_0,_1)");
}

TEST(Parser, PrefixMinusVsNegativeLiteral)
{
    EXPECT_EQ(canon("-(a)"), "-(a)");
    EXPECT_EQ(canon("- 1"), "-(1)");
    EXPECT_EQ(canon("1 - 2"), "-(1,2)");
    EXPECT_EQ(canon("-X"), "-(_0)");
    EXPECT_EQ(canon("3 - -2"), "-(3,-2)");
}

TEST(Parser, PrefixOperatorBeforeAnInfixOperatorIsAnAtom)
{
    // "- = a": '=' is infix only, so '-' is the left operand, not a
    // prefix operator applied to '='.
    EXPECT_EQ(canon("- = a"), "=(-,a)");
    EXPECT_EQ(canon("\\+ = a"), "=(\\+,a)");
    // A functor application is an operand, even if its name is infix.
    EXPECT_EQ(canon("- =(a, b)"), "-(=(a,b))");
}

TEST(Parser, Lists)
{
    EXPECT_EQ(canon("[]"), "[]");
    EXPECT_EQ(canon("[a]"), "'.'(a,[])");
    EXPECT_EQ(canon("[a,b]"), "'.'(a,'.'(b,[]))");
    EXPECT_EQ(canon("[a|T]"), "'.'(a,_0)");
    EXPECT_EQ(canon("[a,b|T]"), "'.'(a,'.'(b,_0))");
}

TEST(Parser, CommaInsideArgsBindsTighter)
{
    // Inside an argument list, ',' separates arguments (priority 999).
    EXPECT_EQ(canon("f(a,b)"), "f(a,b)");
    EXPECT_EQ(canon("f((a,b))"), "f(','(a,b))");
}

TEST(Parser, CurlyBraces)
{
    EXPECT_EQ(canon("{}"), "{}");
    EXPECT_EQ(canon("{a,b}"), "{}(','(a,b))");
}

TEST(Parser, Strings)
{
    EXPECT_EQ(canon("\"ab\""), "'.'(97,'.'(98,[]))");
}

TEST(Parser, SharedVariables)
{
    TermRef t = parseTermText("f(X,X,Y)");
    EXPECT_EQ(t->arg(0).get(), t->arg(1).get());
    EXPECT_NE(t->arg(0).get(), t->arg(2).get());
}

TEST(Parser, AnonymousVariablesAreDistinct)
{
    TermRef t = parseTermText("f(_,_)");
    EXPECT_NE(t->arg(0).get(), t->arg(1).get());
}

TEST(Parser, VariableScopePerClause)
{
    OperatorTable ops;
    Parser parser("f(X). g(X).", ops);
    auto clauses = parser.readAll();
    ASSERT_EQ(clauses.size(), 2u);
    EXPECT_NE(clauses[0].term->arg(0).get(), clauses[1].term->arg(0).get());
}

TEST(Parser, VarNamesRecorded)
{
    OperatorTable ops;
    Parser parser("f(Alpha,Beta,Alpha).", ops);
    ReadClause clause;
    ASSERT_TRUE(parser.readClause(clause));
    ASSERT_EQ(clause.varNames.size(), 2u);
    EXPECT_EQ(clause.varNames[0].first, "Alpha");
    EXPECT_EQ(clause.varNames[1].first, "Beta");
}

TEST(Parser, CutInBody)
{
    EXPECT_EQ(canon("a :- b, !, c"), ":-(a,','(b,','(!,c)))");
}

TEST(Parser, Disjunction)
{
    EXPECT_EQ(canon("(a ; b)"), ";(a,b)");
    EXPECT_EQ(canon("(a -> b ; c)"), ";(->(a,b),c)");
}

TEST(Parser, BarAsDisjunctionInBody)
{
    EXPECT_EQ(canon("(a | b)"), ";(a,b)");
}

TEST(Parser, OpDirectiveAffectsLaterClauses)
{
    OperatorTable ops;
    Parser parser(":- op(700, xfx, ===). a === b.", ops);
    auto clauses = parser.readAll();
    ASSERT_EQ(clauses.size(), 2u);
    WriteOptions options;
    options.ignoreOps = true;
    EXPECT_EQ(writeTerm(clauses[1].term, ops, options), "===(a,b)");
}

TEST(Parser, MissingDotThrows)
{
    OperatorTable ops;
    Parser parser("f(a) f(b).", ops);
    ReadClause clause;
    EXPECT_THROW(parser.readClause(clause), FatalError);
}

TEST(Parser, UnbalancedParenThrows)
{
    EXPECT_THROW(parseTermText("f(a"), FatalError);
}

TEST(Parser, MultiClauseProgram)
{
    auto clauses = parseProgramText(
        "append([], L, L).\n"
        "append([H|T], L, [H|R]) :- append(T, L, R).\n");
    ASSERT_EQ(clauses.size(), 2u);
    EXPECT_TRUE(clauses[1].term->isStruct());
    EXPECT_EQ(atomText(clauses[1].term->functorName()), ":-");
}

TEST(Parser, OperatorAtomAsArgument)
{
    // An operator name used as a plain argument.
    EXPECT_EQ(canon("f(+,-)"), "f(+,-)");
}

TEST(Parser, NestedListOfStructures)
{
    EXPECT_EQ(canon("[f(1),g(2,h(3))]"),
              "'.'(f(1),'.'(g(2,h(3)),[]))");
}

TEST(Writer, OperatorAwareOutput)
{
    TermRef t = parseTermText("1+2*3");
    EXPECT_EQ(writeTerm(t), "1 + 2 * 3");
    t = parseTermText("(1+2)*3");
    EXPECT_EQ(writeTerm(t), "(1 + 2) * 3");
}

TEST(Writer, ListOutput)
{
    TermRef t = parseTermText("[a,b|C]");
    EXPECT_EQ(writeTerm(t).substr(0, 5), "[a,b|");
}

TEST(Writer, QuotedOutput)
{
    TermRef t = parseTermText("'hello world'");
    EXPECT_EQ(writeTermQuoted(t), "'hello world'");
    EXPECT_EQ(writeTerm(t), "hello world");
}

TEST(Writer, RoundTripThroughParser)
{
    const char *cases[] = {
        "f(a,b,c)",
        "[1,2,3,4]",
        "a :- b , c",
        "- (1)",
        "f([g(X)|T])",
        "{a}",
    };
    for (const char *text : cases) {
        TermRef once = parseTermText(text);
        std::string printed = writeTermQuoted(once);
        TermRef twice = parseTermText(printed);
        EXPECT_EQ(writeTermQuoted(twice), printed) << text;
    }
}

// ------------------------------------------------------------------ //
// What the reader must keep
// ------------------------------------------------------------------ //

TEST(Parser, InternsEachNameWhereItIsFirstNeeded)
{
    // Atom ids follow interning order, and escape stubs are laid out in
    // atom-id order, so where the reader interns a name is part of what
    // a program compiles to: an operand or operator when it is read, a
    // functor after its arguments, and an atom right after a prefix
    // operator when that operator is read.
    const char *order[] = {"zz_pin_a", "zz_pin_b", "zz_pin_g",
                           "zz_pin_f", "zz_pin_c", "zz_pin_d",
                           "zz_pin_e", "zz_pin_h", "zz_pin_i"};
    OperatorTable ops;
    const size_t before = AtomTable::instance().size();
    Parser("zz_pin_f(zz_pin_a, zz_pin_g(zz_pin_b)) :- zz_pin_c, "
           "zz_pin_d - zz_pin_e, \\+ zz_pin_h(zz_pin_i).",
           ops)
        .readAll();
    for (size_t i = 0; i < std::size(order); ++i)
        EXPECT_EQ(internAtom(order[i]), before + i) << order[i];
}

namespace
{

/** Every clause of @p source, canonical and quoted, one a line. */
void
appendCanonical(std::string &out, const std::string &title,
                const std::string &source)
{
    out += "% " + title + "\n";
    OperatorTable ops;
    WriteOptions options;
    options.quoted = true;
    options.ignoreOps = true;
    for (const ReadClause &clause : Parser(source, ops).readAll())
        out += writeTerm(clause.term, ops, options) + "\n";
}

} // namespace

TEST(Parser, ReadsTheRepositoryProgramsAsPinned)
{
    // The terms read from the standard library, the PLM suite and the
    // benchmark's serve and durable programs, against the text the
    // reader gave for them when it was pinned.
    std::string actual;
    appendCanonical(actual, "standard library", standardLibrarySource());
    for (const PlmBenchmark &bench : plmSuite()) {
        appendCanonical(actual, bench.name, bench.program);
        if (!bench.programPure.empty())
            appendCanonical(actual, bench.name + " pure", bench.programPure);
        appendCanonical(actual, bench.name + " queries",
                        bench.queryIo + " .\n" + bench.queryPure + " .\n");
    }
    for (const char *name : {"serve_cold", "serve_durable"}) {
        // The text of a request: serve_cold's carries its pad/3 fact.
        const perfbench::ServeWorkload w(name);
        perfbench::Rng rng(perfbench::streamSeed(7, 0));
        std::string goals;
        for (const std::string &goal : w.goals)
            goals += goal + " .\n";
        appendCanonical(actual, name, w.next(rng, 7, 0, 0).program);
        appendCanonical(actual, std::string(name) + " facts", w.facts);
        appendCanonical(actual, std::string(name) + " queries", goals);
    }

    std::ifstream in(KCM_READER_PINNED);
    std::stringstream expected;
    expected << in.rdbuf();
    if (actual == expected.str())
        return;
    std::ofstream("reader_pinned.actual.txt") << actual;
    auto lines = [](const std::string &text) {
        std::vector<std::string> out;
        std::istringstream in(text);
        for (std::string line; std::getline(in, line);)
            out.push_back(line);
        return out;
    };
    const std::vector<std::string> a = lines(actual);
    const std::vector<std::string> e = lines(expected.str());
    size_t i = 0;
    while (i < a.size() && i < e.size() && a[i] == e[i])
        ++i;
    ADD_FAILURE() << KCM_READER_PINNED << ":" << i + 1 << ": expected\n  "
                  << (i < e.size() ? e[i] : "<end>") << "\nread\n  "
                  << (i < a.size() ? a[i] : "<end>")
                  << "\n(all read text in reader_pinned.actual.txt)";
}
