/**
 * @file
 * ISO exception handling (catch/3, throw/1) across all three
 * executors: the predecoded token-threaded core, the decode-per-step
 * oracle core, and the baseline reference interpreter.
 *
 * The two simulator cores must agree bit-for-bit on every simulated
 * metric (cycles, instructions, inferences) for every exception
 * scenario — delivery is ordinary backtracking hardware work, so it is
 * modelled, not magic. The baseline must agree on the observable
 * Prolog semantics: solutions, output, halt status, and the formatted
 * error term of an uncaught ball.
 */


#include <gtest/gtest.h>

#include "baseline/interp.hh"
#include "kcm/kcm.hh"
#include "prolog/parser.hh"
#include "prolog/writer.hh"

using namespace kcm;

namespace
{

/** What any of the three executors reports for a query. */
struct Outcome
{
    bool success = false;
    bool halted = false;
    bool trapped = false;
    std::vector<std::string> solutions;
    std::string error;
    std::string output;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t inferences = 0;
};

Outcome
runMachine(const std::string &program, const std::string &goal, bool fast,
           const KcmOptions &base_options = {}, size_t max_solutions = 5)
{
    KcmOptions options = base_options;
    options.maxSolutions = max_solutions;
    options.machine.fastDispatch = fast;
    KcmSystem system(options);
    if (!program.empty())
        system.consult(program);
    QueryResult result = system.query(goal);

    Outcome out;
    out.success = result.success;
    out.halted = result.halted;
    out.trapped = result.trapped;
    for (const Solution &s : result.solutions)
        out.solutions.push_back(s.toString());
    out.error = result.error;
    out.output = result.output;
    out.cycles = result.cycles;
    out.instructions = result.instructions;
    out.inferences = result.inferences;
    return out;
}

Outcome
runBaseline(const std::string &program, const std::string &goal,
            size_t max_solutions = 5)
{
    baseline::Interpreter interp;
    if (!program.empty())
        interp.consult(program);
    baseline::InterpResult result = interp.query(goal, max_solutions);

    Outcome out;
    out.success = result.success;
    out.halted = result.halted;
    for (const auto &s : result.solutions)
        out.solutions.push_back(s.toString());
    out.error = result.error;
    out.output = result.output;
    return out;
}

/**
 * Run @p goal on all three executors. The two simulator cores must be
 * bit-identical in every simulated metric; the baseline must agree on
 * the Prolog-visible outcome. Returns the fast-core outcome.
 */
Outcome
onAllExecutors(const std::string &program, const std::string &goal,
               const KcmOptions &base_options = {},
               size_t max_solutions = 5)
{
    Outcome fast =
        runMachine(program, goal, true, base_options, max_solutions);
    Outcome oracle =
        runMachine(program, goal, false, base_options, max_solutions);

    EXPECT_EQ(fast.success, oracle.success) << goal;
    EXPECT_EQ(fast.halted, oracle.halted) << goal;
    EXPECT_EQ(fast.trapped, oracle.trapped) << goal;
    EXPECT_EQ(fast.solutions, oracle.solutions) << goal;
    EXPECT_EQ(fast.error, oracle.error) << goal;
    EXPECT_EQ(fast.output, oracle.output) << goal;
    EXPECT_EQ(fast.cycles, oracle.cycles)
        << "fast/oracle cycle counts differ for: " << goal;
    EXPECT_EQ(fast.instructions, oracle.instructions) << goal;
    EXPECT_EQ(fast.inferences, oracle.inferences) << goal;

    Outcome base = runBaseline(program, goal, max_solutions);
    EXPECT_EQ(fast.success, base.success) << goal;
    EXPECT_EQ(fast.halted, base.halted) << goal;
    EXPECT_EQ(fast.solutions, base.solutions) << goal;
    EXPECT_EQ(fast.error, base.error) << goal;
    EXPECT_EQ(fast.output, base.output) << goal;
    return fast;
}

} // namespace

// ------------------------------------------------------ basic delivery

TEST(Exceptions, CatchDeliversThrownBall)
{
    Outcome out = onAllExecutors("p :- throw(oops).", "catch(p, E, true)");
    ASSERT_TRUE(out.success);
    ASSERT_EQ(out.solutions.size(), 1u);
    EXPECT_EQ(out.solutions[0], "E = oops");
    EXPECT_FALSE(out.trapped);
    EXPECT_TRUE(out.error.empty());
}

TEST(Exceptions, ThrowCopiesTheBall)
{
    // The ball is a copy taken at throw time (ISO): bindings made
    // between throw and catch do not leak into it, and the thrown
    // structure survives the unwinding of the heap it was built on.
    Outcome out = onAllExecutors(
        "p(X) :- X = f(1, [a, b]), throw(ball(X)).",
        "catch(p(_), ball(B), true)");
    ASSERT_TRUE(out.success);
    ASSERT_EQ(out.solutions.size(), 1u);
    EXPECT_EQ(out.solutions[0], "B = f(1,[a,b])");
}

TEST(Exceptions, BacktrackingPassesThroughCatchBarrier)
{
    // A catch/3 whose goal never throws is a transparent barrier:
    // backtracking enumerates every solution of the protected goal.
    Outcome out = onAllExecutors("p(1). p(2). p(3).",
                                 "catch(p(X), _, fail)");
    ASSERT_TRUE(out.success);
    ASSERT_EQ(out.solutions.size(), 3u);
    EXPECT_EQ(out.solutions[0], "X = 1");
    EXPECT_EQ(out.solutions[2], "X = 3");
}

TEST(Exceptions, ThrowOnBacktrackingIsStillCaught)
{
    // The first solution is delivered; backtracking into the protected
    // goal throws, and the catcher still guards the re-execution.
    Outcome out = onAllExecutors(
        "p(1).\n"
        "p(_) :- throw(no_more).\n",
        "catch(p(X), no_more, X = caught)");
    ASSERT_TRUE(out.success);
    ASSERT_EQ(out.solutions.size(), 2u);
    EXPECT_EQ(out.solutions[0], "X = 1");
    EXPECT_EQ(out.solutions[1], "X = caught");
}

TEST(Exceptions, RecoveryCanFail)
{
    Outcome out = onAllExecutors("", "catch(throw(x), x, fail)");
    EXPECT_FALSE(out.success);
    EXPECT_FALSE(out.trapped);
    EXPECT_TRUE(out.error.empty());
}

TEST(Exceptions, OutputBeforeThrowIsKept)
{
    Outcome out = onAllExecutors(
        "", "catch((write(a), throw(b)), b, write(c))");
    ASSERT_TRUE(out.success);
    EXPECT_EQ(out.output, "ac");
}

// ------------------------------------------------- nesting and rethrow

TEST(Exceptions, NestedCatchRethrowsToOuter)
{
    // The inner catcher does not match; the ball unwinds past it to
    // the outer one.
    Outcome out = onAllExecutors(
        "inner :- catch(throw(deep(nested)), shallow, true).",
        "catch(inner, deep(W), true)");
    ASSERT_TRUE(out.success);
    ASSERT_EQ(out.solutions.size(), 1u);
    EXPECT_EQ(out.solutions[0], "W = nested");
}

TEST(Exceptions, CatcherUnificationFailureRethrows)
{
    Outcome out = onAllExecutors(
        "", "catch(catch(throw(ball(1)), ball(2), true), ball(X), true)");
    ASSERT_TRUE(out.success);
    ASSERT_EQ(out.solutions.size(), 1u);
    EXPECT_EQ(out.solutions[0], "X = 1");
}

TEST(Exceptions, RethrowFromRecovery)
{
    // The recovery goal runs outside the protection of its own
    // catch/3: a throw from it propagates to the enclosing catcher.
    Outcome out = onAllExecutors(
        "", "catch(catch(throw(first), first, throw(second)), S, true)");
    ASSERT_TRUE(out.success);
    ASSERT_EQ(out.solutions.size(), 1u);
    EXPECT_EQ(out.solutions[0], "S = second");
}

TEST(Exceptions, CutInsideProtectedGoalIsLocal)
{
    Outcome out = onAllExecutors("p(1). p(2). p(3).",
                                 "catch((p(X), !), _, fail)");
    ASSERT_TRUE(out.success);
    ASSERT_EQ(out.solutions.size(), 1u);
    EXPECT_EQ(out.solutions[0], "X = 1");
}

// ------------------------------------------------------ uncaught balls

TEST(Exceptions, UncaughtThrowSurfacesAsErrorTerm)
{
    Outcome out = onAllExecutors("", "throw(foo)");
    EXPECT_FALSE(out.success);
    EXPECT_EQ(out.error, "unhandled_exception(foo)");
    EXPECT_TRUE(out.trapped); // simulator-side: an UnhandledException trap
}

TEST(Exceptions, UncaughtBallDoesNotMatchWrongCatcher)
{
    Outcome out = onAllExecutors("", "catch(throw(a), b, true)");
    EXPECT_FALSE(out.success);
    EXPECT_EQ(out.error, "unhandled_exception(a)");
}

TEST(Exceptions, MachineTrapKindIsUnhandledException)
{
    KcmSystem system;
    QueryResult result = system.query("throw(foo)");
    ASSERT_TRUE(result.trapped);
    EXPECT_EQ(result.trap.kind, TrapKind::UnhandledException);
    // The machine stays usable after the trap.
    QueryResult next = system.query("catch(throw(x), x, true)");
    EXPECT_TRUE(next.success);
    EXPECT_FALSE(next.trapped);
}

// ------------------------------------------------------ ISO call errors

TEST(Exceptions, CallOfUnboundIsInstantiationError)
{
    Outcome out =
        onAllExecutors("", "catch(call(X), instantiation_error, true)");
    ASSERT_TRUE(out.success);

    Outcome uncaught = onAllExecutors("", "call(X)");
    EXPECT_FALSE(uncaught.success);
    EXPECT_EQ(uncaught.error,
              "unhandled_exception(instantiation_error)");
}

TEST(Exceptions, CallOfNonCallableIsTypeError)
{
    Outcome out =
        onAllExecutors("", "catch(call(42), type_error(T, C), true)");
    ASSERT_TRUE(out.success);
    ASSERT_EQ(out.solutions.size(), 1u);
    EXPECT_EQ(out.solutions[0], "T = callable, C = 42");
}

TEST(Exceptions, ThrowOfUnboundIsInstantiationError)
{
    Outcome out = onAllExecutors("", "catch(throw(_), E, true)");
    ASSERT_TRUE(out.success);
    ASSERT_EQ(out.solutions.size(), 1u);
    EXPECT_EQ(out.solutions[0], "E = instantiation_error");
}

// ----------------------------------- error terms are re-readable Prolog

TEST(Exceptions, ErrorTermRoundTripsThroughTheReader)
{
    // The formatted error is a valid term even when the ball needs
    // quoting; reading it back and re-writing it is the identity.
    KcmSystem system;
    QueryResult result = system.query("throw('hello world'(42, [a|b]))");
    ASSERT_TRUE(result.trapped);
    ASSERT_FALSE(result.error.empty());

    OperatorTable ops;
    Parser parser(result.error + " .", ops);
    ReadClause read;
    ASSERT_TRUE(parser.readClause(read)) << result.error;
    ASSERT_TRUE(read.term->isStruct());
    EXPECT_EQ(atomText(read.term->functorName()), "unhandled_exception");
    EXPECT_EQ(read.term->arity(), 1u);
    EXPECT_EQ(writeTermQuoted(read.term->arg(0)),
              "'hello world'(42,[a|b])");
}

TEST(Exceptions, ResourceErrorTermRoundTripsThroughTheReader)
{
    KcmOptions options;
    options.machine.governor.cycleBudget = 1500;
    KcmSystem system(options);
    system.consult("loop :- loop.");
    QueryResult result = system.query("loop");
    ASSERT_TRUE(result.trapped);

    OperatorTable ops;
    Parser parser(result.error + " .", ops);
    ReadClause read;
    ASSERT_TRUE(parser.readClause(read)) << result.error;
    ASSERT_TRUE(read.term->isStruct());
    EXPECT_EQ(atomText(read.term->functorName()), "resource_error");
    EXPECT_EQ(writeTerm(read.term->arg(0)), "abort");
}

// --------------------------------------- catchable governor exhaustion

TEST(Exceptions, CycleBudgetAbortIsCatchable)
{
    // Exhausting the cycle budget inside catch/3 delivers a
    // resource_error(abort) ball instead of a machine trap; the
    // recovery goal then runs with the budget waived, so it can do
    // real work. Both cores agree on every metric.
    KcmOptions options;
    options.machine.governor.cycleBudget = 2000;
    std::string program =
        "loop :- loop.\n"
        "mklist(0, []).\n"
        "mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).\n";

    Outcome fast = runMachine(program,
                              "catch(loop, resource_error(E), "
                              "mklist(20, _))",
                              true, options);
    Outcome oracle = runMachine(program,
                                "catch(loop, resource_error(E), "
                                "mklist(20, _))",
                                false, options);
    ASSERT_TRUE(fast.success) << fast.error;
    EXPECT_FALSE(fast.trapped);
    ASSERT_EQ(fast.solutions.size(), 1u);
    EXPECT_EQ(fast.solutions[0], "E = abort");
    EXPECT_EQ(fast.success, oracle.success);
    EXPECT_EQ(fast.solutions, oracle.solutions);
    EXPECT_EQ(fast.cycles, oracle.cycles);
    EXPECT_EQ(fast.instructions, oracle.instructions);
}

TEST(Exceptions, StackOverflowIsCatchable)
{
    KcmOptions options;
    options.machine.governor.globalQuotaWords = 64;
    options.machine.governor.growStacks = false;
    std::string program =
        "mklist(0, []).\n"
        "mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).\n";
    std::string goal = "catch(mklist(200, _), resource_error(E), true)";

    Outcome fast = runMachine(program, goal, true, options);
    Outcome oracle = runMachine(program, goal, false, options);
    ASSERT_TRUE(fast.success) << fast.error;
    EXPECT_FALSE(fast.trapped);
    ASSERT_EQ(fast.solutions.size(), 1u);
    EXPECT_EQ(fast.solutions[0], "E = stack_overflow");
    EXPECT_EQ(fast.solutions, oracle.solutions);
    EXPECT_EQ(fast.cycles, oracle.cycles);
}

TEST(Exceptions, UncaughtResourceTrapUnchanged)
{
    // Without an enclosing catch/3 the governor's trap surfaces
    // exactly as before: RunStatus::Trapped, kind Abort.
    KcmOptions options;
    options.machine.governor.cycleBudget = 2000;
    KcmSystem system(options);
    system.consult("loop :- loop.");
    QueryResult result = system.query("loop");
    EXPECT_FALSE(result.success);
    ASSERT_TRUE(result.trapped);
    EXPECT_EQ(result.trap.kind, TrapKind::Abort);
    EXPECT_NE(result.error.find("resource_error(abort)"),
              std::string::npos);
}

// --------------------------------------------- halt and failure status

TEST(Exceptions, HaltStatusAgreesAcrossExecutors)
{
    Outcome out = onAllExecutors("p(1).", "p(_), halt");
    EXPECT_FALSE(out.success);
    EXPECT_TRUE(out.halted);
    EXPECT_FALSE(out.trapped);
    EXPECT_TRUE(out.error.empty());
}

TEST(Exceptions, FailureStatusAgreesAcrossExecutors)
{
    Outcome out = onAllExecutors("p(1).", "p(9)");
    EXPECT_FALSE(out.success);
    EXPECT_FALSE(out.halted);
    EXPECT_TRUE(out.error.empty());
}

TEST(Exceptions, SuccessDoesNotReportHalt)
{
    Outcome out = onAllExecutors("p(1).", "p(X)");
    EXPECT_TRUE(out.success);
    EXPECT_FALSE(out.halted);
}
