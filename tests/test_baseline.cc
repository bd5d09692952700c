/**
 * @file
 * Reference-interpreter (baseline) unit tests. The interpreter's
 * correctness matters doubly: it is the differential oracle for the
 * machine.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "baseline/interp.hh"

using namespace kcm;
using baseline::Interpreter;

namespace
{

baseline::InterpResult
run(const std::string &program, const std::string &goal,
    size_t max_solutions = 1)
{
    Interpreter interp;
    if (!program.empty())
        interp.consult(program);
    return interp.query(goal, max_solutions);
}

} // namespace

TEST(Baseline, FactsAndRules)
{
    auto result = run("p(a). p(b). q(X) :- p(X).", "q(X)", 10);
    ASSERT_EQ(result.solutions.size(), 2u);
    EXPECT_EQ(result.solutions[0].toString(), "X = a");
}

TEST(Baseline, AnonymousVariablesStayDistinctInTheDynamicStore)
{
    // The reader names every `_` alike; the consulted clause must still
    // hold two variables once it is in the store, as it does on the
    // machine.
    const char *program = ":- dynamic(p/2).\np(_, _).\n";
    auto open = run(program, "p(X, Y)");
    ASSERT_EQ(open.solutions.size(), 1u);
    EXPECT_EQ(open.solutions[0].toString(), "X = _0, Y = _1");
    EXPECT_TRUE(run(program, "p(a, b)").success);
}

TEST(Baseline, UnificationBindsBothWays)
{
    auto result = run("", "f(X, b) = f(a, Y)");
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.solutions[0].toString(), "X = a, Y = b");
}

TEST(Baseline, CutPrunesClauseAlternatives)
{
    auto result = run("p(1). p(2).\nfirst(X) :- p(X), !.", "first(X)", 10);
    EXPECT_EQ(result.solutions.size(), 1u);
}

TEST(Baseline, CutInsideCalleeDoesNotCutCaller)
{
    const char *program =
        "inner(1) :- !.\n"
        "inner(2).\n"
        "outer(X, Y) :- member_(X, [a,b]), inner(Y).\n"
        "member_(X, [X|_]).\n"
        "member_(X, [_|T]) :- member_(X, T).\n";
    auto result = run(program, "outer(X, Y)", 10);
    // inner yields only 1, but outer still enumerates both members.
    EXPECT_EQ(result.solutions.size(), 2u);
}

TEST(Baseline, NegationScopesItsOwnCut)
{
    auto result = run("p(1).", "\\+ (p(X), X > 1)");
    EXPECT_TRUE(result.success);
}

TEST(Baseline, ArithmeticAndComparisons)
{
    EXPECT_TRUE(run("", "X is 2 + 3, X =:= 5").success);
    EXPECT_FALSE(run("", "1 > 2").success);
    EXPECT_FALSE(run("", "X is 1 // 0").success);
}

TEST(Baseline, InferenceCountingCountsGoals)
{
    const char *program =
        "append([], L, L).\n"
        "append([H|T], L, [H|R]) :- append(T, L, R).\n";
    auto result = run(program, "append([1,2,3], [4], X)");
    ASSERT_TRUE(result.success);
    // 4 append invocations; conjunctions are not counted.
    EXPECT_EQ(result.inferences, 4u);
}

TEST(Baseline, OutputCapture)
{
    auto result = run("", "write(hi), nl, write([1,2])");
    EXPECT_EQ(result.output, "hi\n[1,2]");
}

TEST(Baseline, WallClockIsMeasured)
{
    auto result = run(
        "loop(0). loop(N) :- M is N - 1, loop(M).", "loop(2000)");
    EXPECT_TRUE(result.success);
    EXPECT_GT(result.seconds, 0.0);
}

TEST(Baseline, UndefinedPredicateFailsQuietly)
{
    setLoggingEnabled(false);
    auto result = run("p(a).", "missing(1)");
    setLoggingEnabled(true);
    EXPECT_FALSE(result.success);
}

TEST(Baseline, FunctorArgBuiltins)
{
    EXPECT_TRUE(run("", "functor(f(a,b), f, 2)").success);
    auto result = run("", "arg(2, t(x,y,z), A)");
    EXPECT_EQ(result.solutions[0].toString(), "A = y");
    auto built = run("", "functor(T, g, 3)");
    EXPECT_TRUE(built.success);
}

TEST(Baseline, StructuralOrder)
{
    EXPECT_TRUE(run("", "a @< b, 1 @< a, f(a) @> b").success);
    EXPECT_TRUE(run("", "f(1,2) == f(1,2), f(1) \\== g(1)").success);
}

TEST(Baseline, IfThenElseCommitsToFirstConditionSolution)
{
    const char *program = "p(1). p(2).";
    auto result = run(program, "(p(X) -> Y = yes ; Y = no)", 10);
    // Committed to X = 1; only one solution.
    ASSERT_EQ(result.solutions.size(), 1u);
    EXPECT_EQ(result.solutions[0].toString(), "X = 1, Y = yes");
}

TEST(Baseline, DeepBacktrackingRestoresBindings)
{
    const char *program =
        "pair(X, Y) :- one(X), two(Y).\n"
        "one(a). one(b).\n"
        "two(1). two(2).\n";
    auto result = run(program, "pair(X, Y)", 10);
    ASSERT_EQ(result.solutions.size(), 4u);
    EXPECT_EQ(result.solutions[0].toString(), "X = a, Y = 1");
    EXPECT_EQ(result.solutions[3].toString(), "X = b, Y = 2");
}
