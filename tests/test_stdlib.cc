/**
 * @file
 * Standard-library predicate tests, run on the simulated machine.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/logging.hh"
#include "bench_support/plm_suite.hh"
#include "kcm/kcm.hh"
#include "library_parse_check.hh"
#include "perfbench/workload.hh"

using namespace kcm;

namespace
{

QueryResult
lib(const std::string &goal, size_t max_solutions = 1)
{
    KcmOptions options;
    options.maxSolutions = max_solutions;
    KcmSystem system(options);
    system.consultStandardLibrary();
    return system.query(goal);
}

std::string
first(const QueryResult &result)
{
    return result.solutions.empty() ? "<none>"
                                    : result.solutions[0].toString();
}

} // namespace

TEST(Stdlib, Append)
{
    EXPECT_EQ(first(lib("append([1,2], [3], X)")), "X = [1,2,3]");
}

TEST(Stdlib, Member)
{
    EXPECT_TRUE(lib("member(b, [a,b,c])").success);
    EXPECT_FALSE(lib("member(z, [a,b,c])").success);
    EXPECT_EQ(lib("member(X, [a,b,c])", 10).solutions.size(), 3u);
}

TEST(Stdlib, Memberchk)
{
    auto result = lib("memberchk(b, [a,b,b,c])", 10);
    EXPECT_EQ(result.solutions.size(), 1u);
}

TEST(Stdlib, Length)
{
    EXPECT_EQ(first(lib("length([a,b,c,d], N)")), "N = 4");
    EXPECT_EQ(first(lib("length([], N)")), "N = 0");
}

TEST(Stdlib, Reverse)
{
    EXPECT_EQ(first(lib("reverse([1,2,3], R)")), "R = [3,2,1]");
    EXPECT_EQ(first(lib("reverse([], R)")), "R = []");
}

TEST(Stdlib, Last)
{
    EXPECT_EQ(first(lib("last([1,2,3], X)")), "X = 3");
    EXPECT_FALSE(lib("last([], _)").success);
}

TEST(Stdlib, Nth1)
{
    EXPECT_EQ(first(lib("nth1(2, [a,b,c], X)")), "X = b");
    EXPECT_FALSE(lib("nth1(5, [a,b,c], _)").success);
}

TEST(Stdlib, Select)
{
    auto result = lib("select(X, [1,2,3], Rest)", 10);
    ASSERT_EQ(result.solutions.size(), 3u);
    EXPECT_EQ(result.solutions[0].toString(), "X = 1, Rest = [2,3]");
    EXPECT_EQ(result.solutions[2].toString(), "X = 3, Rest = [1,2]");
}

TEST(Stdlib, Delete)
{
    EXPECT_EQ(first(lib("delete([1,2,1,3,1], 1, R)")), "R = [2,3]");
}

TEST(Stdlib, SumList)
{
    EXPECT_EQ(first(lib("sum_list([1,2,3,4], S)")), "S = 10");
}

TEST(Stdlib, MaxMinList)
{
    EXPECT_EQ(first(lib("max_list([3,9,2,7], M)")), "M = 9");
    EXPECT_EQ(first(lib("min_list([3,9,2,7], M)")), "M = 2");
}

TEST(Stdlib, Msort)
{
    EXPECT_EQ(first(lib("msort_([3,1,2], S)")), "S = [1,2,3]");
}

TEST(Stdlib, Between)
{
    auto result = lib("between(1, 5, X)", 10);
    ASSERT_EQ(result.solutions.size(), 5u);
    EXPECT_EQ(result.solutions[0].toString(), "X = 1");
    EXPECT_EQ(result.solutions[4].toString(), "X = 5");
    EXPECT_FALSE(lib("between(3, 2, _)").success);
}

TEST(Stdlib, Once)
{
    KcmOptions options;
    options.maxSolutions = 10;
    KcmSystem system(options);
    system.consultStandardLibrary();
    system.consult("p(1). p(2). p(3).");
    auto result = system.query("once(p(X))");
    ASSERT_EQ(result.solutions.size(), 1u);
    EXPECT_EQ(result.solutions[0].toString(), "X = 1");
}

TEST(Stdlib, Ignore)
{
    KcmSystem system;
    system.consultStandardLibrary();
    system.consult("p(1).");
    EXPECT_TRUE(system.query("ignore(p(9))").success);
    EXPECT_TRUE(system.query("ignore(p(1))").success);
}

TEST(Stdlib, NotViaNegation)
{
    KcmSystem system;
    system.consultStandardLibrary();
    system.consult("p(1).");
    EXPECT_TRUE(system.query("not(p(2))").success);
    EXPECT_FALSE(system.query("not(p(1))").success);
}

TEST(Stdlib, ComposesWithUserPrograms)
{
    KcmOptions options;
    options.maxSolutions = 100;
    KcmSystem system(options);
    system.consultStandardLibrary();
    system.consult("square(X, Y) :- Y is X * X.");
    auto result = system.query("between(1, 5, X), square(X, Y), Y > 10");
    ASSERT_EQ(result.solutions.size(), 2u);
    EXPECT_EQ(result.solutions[0].toString(), "X = 4, Y = 16");
    EXPECT_EQ(result.solutions[1].toString(), "X = 5, Y = 25");
}

TEST(Stdlib, ExcludedFromProgramSize)
{
    KcmSystem system;
    system.consultStandardLibrary();
    system.consult("p(a).");
    CodeImage image = system.compileOnly("p(a)");
    size_t instr = 0;
    size_t words = 0;
    image.programSize(instr, words);
    EXPECT_LT(instr, 10u) << "library code must not count";
}

// ------------------------------------------------------------------ //
// The shared library unit
// ------------------------------------------------------------------ //

TEST(Stdlib, SharedParseMatchesTheTextOnServeGoals)
{
    // Every goal of the benchmark's serve_* workloads, taken from the
    // workload definitions themselves, on the text the server compiles,
    // under every code option pair. Every one links the unit: a compile
    // that always fell back would pass the byte check.
    for (const char *name : {"serve_warm", "serve_cold", "serve_durable"}) {
        SCOPED_TRACE(name);
        const perfbench::ServeWorkload w(name);
        // serve_durable's counters live in the journaled store, so the
        // server's images consult only their dynamic declarations.
        const std::string decls = KcmSystem::factDeclarations(
            KcmSystem::parseFactFile(w.facts, name));
        for (const std::string &goal : w.goals) {
            EXPECT_TRUE(expectSharedLibraryParseExactAllPairs(
                w.program + decls, goal))
                << goal;
        }

        // The workload's own requests: serve_cold's each carry a fact
        // of their own.
        perfbench::Rng rng(perfbench::streamSeed(7, 0));
        for (uint64_t sequence = 0; sequence < 2 * w.goals.size();
             ++sequence) {
            const perfbench::Request r = w.next(rng, 7, 0, sequence);
            EXPECT_TRUE(expectSharedLibraryParseExactAllPairs(
                r.program + decls, r.goal))
                << r.goal;
        }
    }
}

TEST(Stdlib, SharedParseMatchesTheTextOnThePlmSuite)
{
    CompilerOptions table2;
    table2.ioAsUnitClauses = true;
    for (const PlmBenchmark &bench : plmSuite()) {
        SCOPED_TRACE(bench.name);
        expectSharedLibraryParseExactAllPairs(bench.pureProgram(),
                                              bench.queryPure);
        expectSharedLibraryParseExactAllPairs(bench.program, bench.queryIo,
                                              table2);
    }
}

TEST(Stdlib, SharedParseMatchesTheTextOnLinkEdgeCases)
{
    // The unit's auxiliaries, under its own names: max_list's and
    // min_list's if-then-else (H, M1, M) and not/1's negation (G). A
    // program with P auxiliaries of its own links them as $aux<P+i>.
    const LibraryUnit &unit = standardLibraryUnit({});
    ASSERT_EQ(unit.auxiliaries.size(), 3u);
    ASSERT_EQ(unit.auxiliaries[1].arity, 3u);
    ASSERT_EQ(unit.auxiliaries[2].arity, 1u);

    struct Case
    {
        const char *what;
        std::string program;
        std::string goal;
        bool links;
    };
    const Case cases[] = {
        {"auxiliaries of its own, and a query using ;, -> and \\+",
         "sign(X, S) :- (X > 0 -> S = pos ; S = neg).\n"
         "neg(X) :- \\+ sign(X, pos).\n",
         "(sign(1, S) ; neg(0)), \\+ member(z, [a]), "
         "(max_list([1, 3], M) -> true ; true)",
         true},
        {"a dynamic program",
         ":- dynamic(seen/1).\nseen(a).\n"
         "note(X) :- assertz(seen(X)), member(X, [X]).\n",
         "note(b), seen(b)", true},
        {"a call to an undefined predicate",
         "p(X) :- missing(X), append([], X, X).\n", "p(a)", true},
        {"a call to '$aux1'/3, which is min_list's auxiliary once linked",
         "p(M) :- '$aux1'(2, 1, M).\n", "p(M)", true},
        {"a redefined append/3", "append(mine, L, L).\n",
         "append(X, [b], Y)", false},
        {"a definition of '$aux1'/3, min_list's auxiliary once linked",
         "'$aux1'(a, b, c).\n", "'$aux1'(X, Y, Z)", false},
        {"a definition of '$aux2'/3 after one auxiliary of its own",
         "q(X) :- (X = 1 ; X = 2).\n'$aux2'(a, b, c).\n", "q(X)", false},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        EXPECT_EQ(expectSharedLibraryParseExactAllPairs(c.program, c.goal),
                  c.links);
    }
}

TEST(Stdlib, SharedParseKeepsARedefinedLibraryPredicateMerged)
{
    // A program clause for a library functor is merged with the
    // library's clauses, program clauses first: the compile falls back
    // to the library's clauses instead of linking its unit.
    const char *program = "append(mine, L, L).\n";
    EXPECT_FALSE(expectSharedLibraryParseExact(program, "append(X, [b], Y)"));

    KcmOptions options;
    options.maxSolutions = 3;
    KcmSystem system(options);
    system.consultStandardLibrary();
    system.consult(program);
    QueryResult result = system.query("append(X, [b], Y)");
    ASSERT_EQ(result.solutions.size(), 3u);
    EXPECT_EQ(result.solutions[0].toString(), "X = mine, Y = [b]");
    EXPECT_EQ(result.solutions[1].toString(), "X = [], Y = [b]");
}

TEST(Stdlib, DynamicLibraryFunctorCompilesTheLibraryClauses)
{
    // member/2 declared dynamic: the library's member/2 clauses go to
    // the clause store, as a compile of the text puts them, in the
    // same clause texts.
    const std::string program = ":- dynamic(member/2).\n";
    const std::string goal = "member(X, [a, b])";
    for (bool integer_arithmetic : {true, false}) {
        for (bool indexing : {true, false}) {
            CompilerOptions options;
            options.integerArithmetic = integer_arithmetic;
            options.indexing = indexing;
            Compiler unit(options);
            unit.addLibrary(standardLibraryUnit(options));
            unit.addProgram(program);
            unit.setQuery(goal);
            Compiler text(options);
            text.addLibrary(standardLibrarySource());
            text.addProgram(program);
            text.setQuery(goal);
            const CodeImage linked = unit.compile();
            const CodeImage whole = text.compile();
            EXPECT_FALSE(unit.linkedLibrary());
            EXPECT_EQ(linked.words, whole.words);
            ASSERT_EQ(linked.predicates.size(), whole.predicates.size());
            for (auto a = linked.predicates.begin(),
                      b = whole.predicates.begin();
                 a != linked.predicates.end(); ++a, ++b) {
                EXPECT_TRUE(a->first == b->first);
                EXPECT_EQ(a->second.entry, b->second.entry);
                EXPECT_EQ(a->second.words, b->second.words);
                EXPECT_EQ(a->second.instructions, b->second.instructions);
                EXPECT_EQ(a->second.fromLibrary, b->second.fromLibrary);
            }
            EXPECT_EQ(linked.dynamicDecls, whole.dynamicDecls);
            EXPECT_EQ(linked.dynamicInit, whole.dynamicInit);
        }
    }

    KcmOptions options;
    options.maxSolutions = 0;
    KcmSystem system(options);
    system.consultStandardLibrary();
    system.consult(program);
    QueryResult result = system.query(goal);
    ASSERT_EQ(result.solutions.size(), 2u);
    EXPECT_EQ(result.solutions[1].toString(), "X = b");
}
