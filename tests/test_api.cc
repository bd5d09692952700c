/**
 * @file
 * Public API (KcmSystem) behaviour tests.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "kcm/kcm.hh"

using namespace kcm;

TEST(Api, MachineBeforeQueryIsFatal)
{
    KcmSystem system;
    EXPECT_THROW(system.machine(), FatalError);
}

TEST(Api, MultipleConsultsAccumulate)
{
    KcmSystem system;
    system.consult("p(a).");
    system.consult("p(b).");
    system.consult("q(X) :- p(X).");
    KcmOptions options;
    options.maxSolutions = 10;
    KcmSystem multi(options);
    multi.consult("p(a).");
    multi.consult("p(b).");
    multi.consult("q(X) :- p(X).");
    auto result = multi.query("q(X)");
    EXPECT_EQ(result.solutions.size(), 2u);
}

TEST(Api, QueriesAreIndependent)
{
    KcmSystem system;
    system.consult("p(1).");
    auto first = system.query("p(X)");
    auto second = system.query("p(X)");
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.solutions[0].toString(),
              second.solutions[0].toString());
}

TEST(Api, CompileOnlyDoesNotRun)
{
    KcmSystem system;
    system.consult("p(a).");
    CodeImage image = system.compileOnly("p(X)");
    EXPECT_GT(image.words.size(), 0u);
    EXPECT_NE(image.queryEntry, 0u);
    EXPECT_THROW(system.machine(), FatalError);
}

TEST(Api, EmptyQueryStringIsFatal)
{
    KcmSystem system;
    system.consult("p(a).");
    EXPECT_THROW(system.query(""), FatalError);
}

TEST(Api, SyntaxErrorSurfacesAsFatal)
{
    KcmSystem system;
    system.consult("p(a).");
    EXPECT_THROW(system.query("p(X"), FatalError);
    KcmSystem bad;
    bad.consult("p(a"); // deferred until compile
    EXPECT_THROW(bad.query("p(X)"), FatalError);
}

TEST(Api, QueryWithDirectivePrefixAccepted)
{
    KcmSystem system;
    system.consult("p(a).");
    EXPECT_TRUE(system.query("?- p(a)").success);
}

TEST(Api, OutputAccumulatesAcrossSolutions)
{
    KcmOptions options;
    options.maxSolutions = 3;
    KcmSystem system(options);
    system.consult("p(1). p(2). p(3).");
    auto result = system.query("p(X), write(X)");
    EXPECT_EQ(result.output, "123");
}

TEST(Api, MaxSolutionsZeroMeansAll)
{
    KcmOptions options;
    options.maxSolutions = 0; // no limit
    KcmSystem system(options);
    system.consult("p(1). p(2). p(3).");
    auto result = system.query("p(X)");
    EXPECT_EQ(result.solutions.size(), 3u);
}

TEST(Api, StopThatNeverFiresLeavesTheResultUntouched)
{
    // The stop callback slices the run; slices are host machinery, so
    // every field of the result equals the plain call's.
    KcmOptions options;
    options.maxSolutions = 0;
    KcmSystem system(options);
    system.consult("sel(X, [X|T], T).\n"
                   "sel(X, [H|T], [H|R]) :- sel(X, T, R).\n"
                   "perm([], []).\n"
                   "perm(L, [X|P]) :- sel(X, L, R), perm(R, P).\n"
                   "shout(P) :- perm([1,2,3,4,5], P), write(P), nl.\n");
    const QueryResult plain = system.query("shout(P)");
    int polls = 0;
    const QueryResult sliced = system.query(
        "shout(P)",
        [&] {
            ++polls;
            return false;
        },
        1'000);

    EXPECT_GT(polls, 3);
    EXPECT_FALSE(sliced.interrupted);
    EXPECT_EQ(sliced.success, plain.success);
    ASSERT_EQ(sliced.solutions.size(), 120u);
    ASSERT_EQ(plain.solutions.size(), 120u);
    for (size_t i = 0; i < plain.solutions.size(); ++i)
        EXPECT_EQ(sliced.solutions[i].toString(),
                  plain.solutions[i].toString());
    EXPECT_EQ(sliced.output, plain.output);
    EXPECT_EQ(sliced.halted, plain.halted);
    EXPECT_EQ(sliced.trapped, plain.trapped);
    EXPECT_EQ(sliced.error, plain.error);
    EXPECT_EQ(sliced.cycles, plain.cycles);
    EXPECT_EQ(sliced.instructions, plain.instructions);
    EXPECT_EQ(sliced.inferences, plain.inferences);
    EXPECT_EQ(sliced.seconds, plain.seconds);
    EXPECT_EQ(sliced.klips, plain.klips);
    EXPECT_EQ(sliced.residentBytes, plain.residentBytes);
}

TEST(Api, StopEndsTheRunAtASliceBoundary)
{
    // A stop that fires at the third slice boundary ends the run
    // there: interrupted, not trapped, with a prefix of the full
    // solution list.
    KcmOptions options;
    options.maxSolutions = 0;
    KcmSystem system(options);
    system.consult("sel(X, [X|T], T).\n"
                   "sel(X, [H|T], [H|R]) :- sel(X, T, R).\n"
                   "perm([], []).\n"
                   "perm(L, [X|P]) :- sel(X, L, R), perm(R, P).\n");
    const uint64_t slice = 1'000;
    const QueryResult full = system.query("perm([1,2,3,4,5], P)");
    ASSERT_GT(full.cycles, 4 * slice) << "test premise";
    int polls = 0;
    const QueryResult cut = system.query(
        "perm([1,2,3,4,5], P)", [&] { return ++polls == 3; }, slice);

    EXPECT_EQ(polls, 3);
    EXPECT_TRUE(cut.interrupted);
    EXPECT_FALSE(cut.trapped);
    EXPECT_TRUE(cut.error.empty()) << cut.error;
    EXPECT_GE(cut.cycles, 3 * slice);
    EXPECT_LT(cut.cycles, full.cycles);
    ASSERT_GT(cut.solutions.size(), 0u);
    ASSERT_LT(cut.solutions.size(), full.solutions.size());
    for (size_t i = 0; i < cut.solutions.size(); ++i)
        EXPECT_EQ(cut.solutions[i].toString(),
                  full.solutions[i].toString());
    EXPECT_TRUE(system.machine().trapped());
    EXPECT_TRUE(system.machine().sliceExpired());
}

TEST(Api, ResultCarriesAllMeasurements)
{
    KcmSystem system;
    system.consult("p(a).");
    auto result = system.query("p(a)");
    EXPECT_TRUE(result.success);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.instructions, 0u);
    EXPECT_GT(result.inferences, 0u);
    EXPECT_GT(result.seconds, 0.0);
    EXPECT_GT(result.klips, 0.0);
}

TEST(Api, StatsDumpContainsAllGroups)
{
    KcmSystem system;
    system.consult("p(a).");
    system.query("p(a)");
    std::ostringstream os;
    system.machine().stats().dump(os);
    std::string dump = os.str();
    for (const char *key :
         {"machine.deepFails", "machine.mem.dcache.readHits",
          "machine.mem.icache.readMisses", "machine.mem.mmu.translations",
          "machine.mem.zoneCheck.checksPerformed",
          "machine.mem.memory.readWords"}) {
        EXPECT_NE(dump.find(key), std::string::npos) << key;
    }
}

TEST(Api, StatLookupByPath)
{
    KcmSystem system;
    system.consult("p(a).");
    system.query("p(a)");
    StatGroup &stats = system.machine().stats();
    EXPECT_GT(stats.lookup("mem.mmu.translations"), 0u);
}

TEST(Api, OperatorDirectiveInConsultedSource)
{
    KcmSystem system;
    system.consult(":- op(700, xfx, ===).\n"
                   "eq(X, Y) :- X === Y.\n"
                   "A === A.\n");
    EXPECT_TRUE(system.query("eq(foo, foo)").success);
    EXPECT_FALSE(system.query("eq(foo, bar)").success);
}

TEST(Api, LargeProgramCompilesAndRuns)
{
    // 200 facts, indexed dispatch.
    std::string program;
    for (int i = 0; i < 200; ++i) {
        program += "big(" + std::to_string(i) + ", v" +
                   std::to_string(i) + ").\n";
    }
    KcmSystem system;
    system.consult(program);
    auto result = system.query("big(137, V)");
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.solutions[0].toString(), "V = v137");
    // Constant indexing: selecting fact 137 must not scan linearly
    // through 137 clause bodies (switch probes are table lookups).
    EXPECT_LT(result.cycles, 4000u);
}
