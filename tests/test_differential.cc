/**
 * @file
 * Differential tests: the KCM simulator and the baseline reference
 * interpreter must agree on solutions for a range of programs,
 * including the whole PLM suite. A second axis compares the two
 * execution cores of the simulator itself — the predecoded
 * token-threaded fast path against the decode-per-step oracle — which
 * must agree bit-for-bit on every simulated metric, not just on
 * solutions.
 */

#include <vector>

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "baseline/interp.hh"
#include "bench_support/harness.hh"
#include "bench_support/plm_suite.hh"
#include "core/machine.hh"
#include "kcm/kcm.hh"
#include "library_parse_check.hh"

using namespace kcm;

namespace
{

/** A query's answers, then its write/1 output and its uncaught-ball
 *  error where not empty. */
template <typename Result>
std::vector<std::string>
replyOf(const Result &result)
{
    std::vector<std::string> reply;
    for (const auto &solution : result.solutions)
        reply.push_back(solution.toString());
    if (!result.output.empty())
        reply.push_back("output: " + result.output);
    if (!result.error.empty())
        reply.push_back("error: " + result.error);
    return reply;
}

/** Run on the fast core, the oracle core and the baseline: their
 *  replies must be equal byte for byte. Returns the fast core's. */
std::vector<std::string>
compareEngines(const std::string &program, const std::string &goal,
               size_t max_solutions = 5)
{
    expectSharedLibraryParseExact(program, goal);

    std::vector<std::string> replies[2];
    for (bool fast : {false, true}) {
        KcmOptions options;
        options.maxSolutions = max_solutions;
        options.machine.fastDispatch = fast;
        KcmSystem system(options);
        if (!program.empty())
            system.consult(program);
        replies[fast] = replyOf(system.query(goal));
    }
    EXPECT_EQ(replies[true], replies[false])
        << "fast and oracle cores differ for: " << goal;
    baseline::Interpreter interp;
    if (!program.empty())
        interp.consult(program);
    EXPECT_EQ(replies[true], replyOf(interp.query(goal, max_solutions)))
        << "machine and baseline differ for: " << goal;
    return replies[true];
}

} // namespace

TEST(Differential, Facts)
{
    compareEngines("p(1). p(2). p(3).", "p(X)");
}

TEST(Differential, Append)
{
    const char *program =
        "append([], L, L).\n"
        "append([H|T], L, [H|R]) :- append(T, L, R).\n";
    compareEngines(program, "append([1,2,3], [4], X)");
    compareEngines(program, "append(X, Y, [a,b,c])", 10);
    compareEngines(program, "append([1], X, [1,2,3])");
}

TEST(Differential, ArithmeticChains)
{
    compareEngines("", "X is 2 + 3 * 4 - 6 // 2, Y is X mod 7");
    compareEngines("", "X is 10 - 2 - 3");
    compareEngines("", "X = 4, X > 3, X < 5, X >= 4, X =< 4");
}

TEST(Differential, CutBehaviour)
{
    const char *program =
        "p(1). p(2). p(3).\n"
        "firstp(X) :- p(X), !.\n"
        "q(X) :- p(X), X > 1, !.\n"
        "r(X) :- p(X), !, X > 1.\n";
    compareEngines(program, "firstp(X)", 10);
    compareEngines(program, "q(X)", 10);
    compareEngines(program, "r(X)", 10);
}

TEST(Differential, IfThenElse)
{
    const char *program =
        "classify(X, neg) :- (X < 0 -> true ; fail).\n"
        "sign(X, S) :- (X > 0 -> S = pos ; X < 0 -> S = neg ; S = zero).\n";
    compareEngines(program, "sign(5, S)");
    compareEngines(program, "sign(-5, S)");
    compareEngines(program, "sign(0, S)");
    compareEngines(program, "classify(-1, C)");
    compareEngines(program, "classify(1, C)");
}

TEST(Differential, NegationAsFailure)
{
    const char *program = "p(1). p(2).";
    compareEngines(program, "\\+ p(3)");
    compareEngines(program, "\\+ p(1)");
    compareEngines(program, "\\+ \\+ p(1)");
}

TEST(Differential, Disjunction)
{
    compareEngines("", "(X = 1 ; X = 2 ; X = 3)", 10);
    compareEngines("p(a). p(b).", "(p(X) ; X = c)", 10);
}

TEST(Differential, StructureBuilding)
{
    compareEngines("mk(X, f(g(X), [X|_])).", "mk(7, T)");
    compareEngines("", "T = tree(L, 5, R), L = leaf, R = tree(leaf,7,leaf)");
}

TEST(Differential, TypeTests)
{
    compareEngines("", "atom(foo), integer(3), \\+ atom(3), \\+ var(foo)");
    compareEngines("", "X = f(1), compound(X), nonvar(X)");
}

TEST(Differential, StructuralCompare)
{
    compareEngines("", "f(1,2) == f(1,2)");
    compareEngines("", "f(1,2) \\== f(1,3)");
    compareEngines("", "foo @< zoo, 1 @< a, f(1) @> a");
}

TEST(Differential, FunctorArg)
{
    compareEngines("", "functor(f(a,b), N, A)");
    compareEngines("", "arg(1, point(3,4), X), arg(2, point(3,4), Y)");
}

TEST(Differential, DeepRecursionSmall)
{
    const char *program =
        "len([], 0).\n"
        "len([_|T], N) :- len(T, M), N is M + 1.\n";
    compareEngines(program, "len([a,b,c,d,e,f,g], N)");
}

TEST(Differential, BacktrackingIntoStructures)
{
    const char *program =
        "edge(a, b). edge(b, c). edge(a, c). edge(c, d).\n"
        "path2(X, Z) :- edge(X, Y), edge(Y, Z).\n";
    compareEngines(program, "path2(a, Z)", 10);
}

TEST(Differential, FreshVariablesPrintTheSameOnEveryEngine)
{
    // A variable prints as _N, N its first occurrence within one
    // answer, one write/1 call or one uncaught ball: what two bindings
    // share prints as one variable, and nothing a process ran before
    // shows. The last three rows build g(X, Y) or [X|T] in write mode
    // from a head variable first met in an argument register
    // (unify_local_value): each argument must land in its own cell.
    const struct
    {
        const char *program;
        const char *goal;
        std::vector<std::string> reply;
        size_t maxSolutions = 5;
    } cases[] = {
        {"q(X, X).", "q(A, B)", {"A = _0, B = _0"}},
        {"p(f(X, X)).", "p(Y)", {"Y = f(_0,_0)"}},
        {"r(X, g(X, _)).", "r(A, B)", {"A = _0, B = g(_0,_1)"}},
        {"w :- write(f(X, Y, X)), write(Y).", "w",
         {"true", "output: f(_0,_1,_0)_0"}},
        {"e :- throw(ball(X, X)).", "e",
         {"error: unhandled_exception(ball(_0,_0))"}},
        {"app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).",
         "app(X, Y, Z)",
         {"X = [], Y = _0, Z = _0", "X = [_0], Y = _1, Z = [_0|_1]"},
         2},
        {"r(X, g(X, Y)).", "r(A, B), B = g(P, Q), P = 1",
         {"A = 1, B = g(1,_0), P = 1, Q = _0"}},
        {"r(X, g(X, Y)).", "r(A, B), B = g(P, Q), P == Q", {}},
        {"r(X, [X|T]).", "r(A, B), B = [_|T], T == A", {}},
    };
    for (const auto &c : cases)
        EXPECT_EQ(compareEngines(c.program, c.goal, c.maxSolutions), c.reply);
}

TEST(Differential, StructureSwitchTriesEachClauseOnce)
{
    // switch_on_structure keeps one bucket per first-argument functor,
    // however many clauses share it.
    EXPECT_EQ(compareEngines("p(g(1)). p(g(2)).", "p(g(X))", 8),
              (std::vector<std::string>{"X = 1", "X = 2"}));
    EXPECT_EQ(compareEngines("p(g(1)). p(h(2)). p(Y). p(g(3)).", "p(g(X))", 8),
              (std::vector<std::string>{"X = 1", "X = _0", "X = 3"}));
}

// Every PLM benchmark must produce identical output and first
// solution on both engines (pure forms, which are deterministic).
class PlmDifferential : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PlmDifferential, EnginesAgree)
{
    const PlmBenchmark &bench = plmBenchmark(GetParam());

    KcmOptions options;
    KcmSystem machine_system(options);
    machine_system.consult(bench.pureProgram());
    QueryResult machine_result = machine_system.query(bench.queryPure);

    baseline::Interpreter interp;
    interp.consult(bench.pureProgram());
    baseline::InterpResult interp_result = interp.query(bench.queryPure);

    ASSERT_TRUE(machine_result.success);
    ASSERT_TRUE(interp_result.success);
    ASSERT_EQ(machine_result.solutions.size(), 1u);
    EXPECT_EQ(machine_result.solutions[0].toString(),
              interp_result.solutions[0].toString());
}

INSTANTIATE_TEST_SUITE_P(
    Suite, PlmDifferential,
    ::testing::Values("con1", "con6", "divide10", "hanoi", "log10",
                      "mutest", "nrev1", "ops8", "palin25", "pri2", "qs4",
                      "queens", "query", "times10"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// The fast execution core (predecoded, token-threaded) and the oracle
// (decode per step) must be indistinguishable in everything simulated:
// solutions, cycle count, instruction count and cache statistics.
// Only host time may differ.
class PlmFastOracle : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PlmFastOracle, CoresBitIdentical)
{
    const PlmBenchmark &bench = plmBenchmark(GetParam());

    KcmOptions fast_options;
    fast_options.machine.fastDispatch = true;
    KcmOptions oracle_options;
    oracle_options.machine.fastDispatch = false;

    BenchRun fast = runPlmBenchmark(bench, /*pure=*/true, fast_options);
    BenchRun oracle = runPlmBenchmark(bench, /*pure=*/true, oracle_options);

    EXPECT_EQ(fast.success, oracle.success);
    EXPECT_EQ(fast.cycles, oracle.cycles);
    EXPECT_EQ(fast.instructions, oracle.instructions);
    EXPECT_EQ(fast.inferences, oracle.inferences);
    EXPECT_EQ(fast.choicePointsCreated, oracle.choicePointsCreated);
    EXPECT_EQ(fast.choicePointsAvoided, oracle.choicePointsAvoided);
    EXPECT_EQ(fast.shallowFails, oracle.shallowFails);
    EXPECT_EQ(fast.deepFails, oracle.deepFails);
    EXPECT_EQ(fast.trailPushes, oracle.trailPushes);
    EXPECT_EQ(fast.dataReads, oracle.dataReads);
    EXPECT_EQ(fast.dataWrites, oracle.dataWrites);
    EXPECT_EQ(fast.dcacheHitRatio, oracle.dcacheHitRatio);
    EXPECT_EQ(fast.icacheHitRatio, oracle.icacheHitRatio);
    EXPECT_EQ(fast.memoryWords, oracle.memoryWords);
}

TEST_P(PlmFastOracle, SolutionsIdentical)
{
    const PlmBenchmark &bench = plmBenchmark(GetParam());

    KcmOptions fast_options;
    fast_options.machine.fastDispatch = true;
    KcmSystem fast_system(fast_options);
    fast_system.consult(bench.pureProgram());
    QueryResult fast_result = fast_system.query(bench.queryPure);

    KcmOptions oracle_options;
    oracle_options.machine.fastDispatch = false;
    KcmSystem oracle_system(oracle_options);
    oracle_system.consult(bench.pureProgram());
    QueryResult oracle_result = oracle_system.query(bench.queryPure);

    ASSERT_EQ(fast_result.success, oracle_result.success);
    ASSERT_EQ(fast_result.solutions.size(), oracle_result.solutions.size());
    for (size_t i = 0; i < fast_result.solutions.size(); ++i) {
        EXPECT_EQ(fast_result.solutions[i].toString(),
                  oracle_result.solutions[i].toString());
    }
    EXPECT_EQ(fast_result.output, oracle_result.output);
    EXPECT_EQ(fast_result.cycles, oracle_result.cycles);
    EXPECT_EQ(fast_result.inferences, oracle_result.inferences);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, PlmFastOracle,
    ::testing::Values("con1", "con6", "divide10", "hanoi", "log10",
                      "mutest", "nrev1", "ops8", "palin25", "pri2", "qs4",
                      "queens", "query", "times10"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

namespace
{

/** Every simulated quantity one run reports. */
std::vector<uint64_t>
simulatedMetrics(Machine &m)
{
    DataCache &dcache = m.mem().dataCache();
    CodeCache &ccache = m.mem().codeCache();
    return {m.cycles(),
            m.instructions(),
            m.inferences(),
            dcache.readHits.value(),
            dcache.writeHits.value(),
            dcache.readMisses.value(),
            dcache.writeMisses.value(),
            ccache.readHits.value(),
            ccache.readMisses.value(),
            m.mem().memory().readWords.value(),
            m.mem().memory().writtenWords.value(),
            m.choicePointsCreated.value(),
            m.trailPushes.value(),
            m.derefSteps.value()};
}

struct CorpusProgram
{
    const char *name;
    const char *text; ///< defines go/0
};

// Small programs whose instruction sequences the PLM suite reaches
// rarely or never: put_variable_x before a call, a switch_on_term
// whose list bucket is a try block, unify_value_x list cells on both
// the get and the put side, structure recursion and deep retries.
const CorpusProgram corpusPrograms[] = {
    {"nrev",
     "app([], L, L).\n"
     "app([H|T], L, [H|R]) :- app(T, L, R).\n"
     "nrev([], []).\n"
     "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n"
     "l16([a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p]).\n"
     "go :- l16(L), nrev(L, _).\n"},
    {"qsort",
     "part([], _, [], []).\n"
     "part([X|Xs], P, [X|S], B) :- X =< P, part(Xs, P, S, B).\n"
     "part([X|Xs], P, S, [X|B]) :- X > P, part(Xs, P, S, B).\n"
     "qs([], R, R).\n"
     "qs([P|Xs], R, R0) :-\n"
     "    part(Xs, P, S, B), qs(S, R, [P|R1]), qs(B, R1, R0).\n"
     "go :- qs([27,74,17,33,94,18,46,83,65,2,32,53,28,85,99,47], R, []),\n"
     "      R = [_|_].\n"},
    {"choice",
     "color(red). color(green). color(blue).\n"
     "num(1). num(2). num(3).\n"
     "pair(C, N) :- color(C), num(N).\n"
     "go :- pair(C1, N1), pair(C2, N2), C1 \\== C2, N1 > N2,\n"
     "      C2 == blue.\n"},
    {"struct",
     "tree(leaf).\n"
     "tree(node(L, _, R)) :- tree(L), tree(R).\n"
     "build(0, leaf).\n"
     "build(N, node(L, N, L)) :- N > 0, M is N - 1, build(M, L).\n"
     "go :- build(6, T), tree(T).\n"},
    {"dispatch",
     "m(a).\n"
     "m([_|_]).\n"
     "m([x|_]).\n"
     "q(1).\n"
     "r.\n"
     "go :- q(_A), r, m([y]), m([x]).\n"},
    {"listValue",
     "pv([X|_], [X|_]).\n"
     "q(_, _, _).\n"
     "pl([H|T]) :- q([H|X], T, X).\n"
     "go :- pv([1,2], [1,3]), pl([a,b]).\n"},
};

} // namespace

class CorpusFastOracle : public ::testing::TestWithParam<CorpusProgram>
{
};

TEST_P(CorpusFastOracle, CoresBitIdentical)
{
    expectSharedLibraryParseExact(GetParam().text, "go");

    KcmSystem host;
    host.consult(GetParam().text);
    CodeImage image = host.compileOnly("go");

    MachineConfig fast_config;
    fast_config.fastDispatch = true;
    Machine fast(fast_config);
    fast.load(image);
    ASSERT_EQ(fast.run(), RunStatus::SolutionFound);

    MachineConfig oracle_config;
    oracle_config.fastDispatch = false;
    Machine oracle(oracle_config);
    oracle.load(image);
    ASSERT_EQ(oracle.run(), RunStatus::SolutionFound);

    EXPECT_EQ(simulatedMetrics(fast), simulatedMetrics(oracle));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorpusFastOracle, ::testing::ValuesIn(corpusPrograms),
    [](const ::testing::TestParamInfo<CorpusProgram> &info) {
        return std::string(info.param.name);
    });
