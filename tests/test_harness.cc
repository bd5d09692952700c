/**
 * @file
 * Benchmark-harness integrity tests: every PLM benchmark runs to
 * success in both measurement modes, produces the expected outputs,
 * and stays in the neighbourhood of the paper's published counts and
 * timing shape — so the bench/ binaries cannot silently rot.
 */

#include <gtest/gtest.h>

#include <cerrno>

#include <sys/wait.h>

#include "base/logging.hh"
#include "bench_support/daemon.hh"
#include "bench_support/harness.hh"
#include "bench_support/paper_data.hh"

using namespace kcm;

namespace
{

class SuiteRuns : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(SuiteRuns, IoModeSucceeds)
{
    const PlmBenchmark &bench = plmBenchmark(GetParam());
    BenchRun run = runPlmBenchmark(bench, /*pure=*/false);
    EXPECT_TRUE(run.success);
    EXPECT_GT(run.cycles, 0u);
    EXPECT_GT(run.inferences, 0u);
    EXPECT_GT(run.staticInstructions, 0u);
    EXPECT_GE(run.staticWords, run.staticInstructions);
}

TEST_P(SuiteRuns, PureModeSucceeds)
{
    const PlmBenchmark &bench = plmBenchmark(GetParam());
    BenchRun run = runPlmBenchmark(bench, /*pure=*/true);
    EXPECT_TRUE(run.success);
    // Pure form never performs I/O and is at most as expensive.
    BenchRun io = runPlmBenchmark(bench, /*pure=*/false);
    EXPECT_LE(run.inferences, io.inferences);
}

INSTANTIATE_TEST_SUITE_P(
    Plm, SuiteRuns,
    ::testing::Values("con1", "con6", "divide10", "hanoi", "log10",
                      "mutest", "nrev1", "ops8", "palin25", "pri2", "qs4",
                      "queens", "query", "times10"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Harness, ExactInferenceCountsWhereRecovered)
{
    // These programs were recovered exactly; pin their counts.
    struct Expect
    {
        const char *name;
        bool pure;
        uint64_t inferences;
    };
    const Expect expectations[] = {
        {"con1", false, 6},    {"con1", true, 4},
        {"hanoi", false, 1787}, {"hanoi", true, 767},
        {"nrev1", true, 497},
    };
    for (const auto &expect : expectations) {
        BenchRun run =
            runPlmBenchmark(plmBenchmark(expect.name), expect.pure);
        EXPECT_EQ(run.inferences, expect.inferences)
            << expect.name << (expect.pure ? " (pure)" : " (io)");
    }
}

TEST(Harness, InferenceCountsNearPaper)
{
    // Reconstructed programs must stay within 25% of the published
    // counts (documented exceptions: queens).
    for (const auto &row : paperTable3()) {
        if (row.program == "queens")
            continue;
        BenchRun run = runPlmBenchmark(plmBenchmark(row.program), true);
        double ratio = double(run.inferences) / row.inferences;
        EXPECT_GT(ratio, 0.75) << row.program;
        EXPECT_LT(ratio, 1.25) << row.program;
    }
}

TEST(Harness, KlipsShapeMatchesPaper)
{
    // nrev1 is the canonical fast benchmark; query is the slowest
    // (§4.2's observation about backtracking). Check the ordering.
    BenchRun nrev = runPlmBenchmark(plmBenchmark("nrev1"), true);
    BenchRun query = runPlmBenchmark(plmBenchmark("query"), true);
    BenchRun mutest = runPlmBenchmark(plmBenchmark("mutest"), true);
    EXPECT_GT(nrev.klips, query.klips);
    EXPECT_GT(nrev.klips, mutest.klips);
    // And the absolute value is in the hardware's neighbourhood
    // (paper: 766 Klips).
    EXPECT_GT(nrev.klips, 500);
    EXPECT_LT(nrev.klips, 1200);
}

TEST(Harness, PeakConcatStepNearFifteenCycles)
{
    // The abstract's headline: one concat step = 15 cycles = 833
    // Klips. Allow one cycle of slack.
    const char *program =
        "concat([], L, L).\n"
        "concat([H|T], L, [H|R]) :- concat(T, L, R).\n"
        "gen(0, []) :- !.\n"
        "gen(N, [N|T]) :- M is N - 1, gen(M, T).\n"
        "genonly(N) :- gen(N, _).\n"
        "run(N) :- gen(N, L), concat(L, [x], _).\n"
    "run2(N) :- gen(N, L), concat(L, [x], _), concat(L, [y], _).\n";
    auto cycles_for = [&](const char *goal, int n) {
        KcmSystem system;
        system.consult(program);
        auto result = system.query(std::string(goal) + "(" +
                                   std::to_string(n) + ")");
        return result.cycles;
    };
    // The second concat of run2 runs fully warm; subtracting the
    // single-concat marginal isolates one steady-state step.
    double run2_marginal =
        double(cycles_for("run2", 80) - cycles_for("run2", 40)) / 40.0;
    double run_marginal =
        double(cycles_for("run", 80) - cycles_for("run", 40)) / 40.0;
    double step = run2_marginal - run_marginal;
    EXPECT_GE(step, 13.0);
    EXPECT_LE(step, 17.0);
}

TEST(Harness, HanoiOutputIsTheMoveSequence)
{
    BenchRun run = runPlmBenchmark(plmBenchmark("hanoi"), false);
    // I/O compiled as unit clauses: no output produced, as in the
    // paper's Table 2 measurement.
    EXPECT_TRUE(run.success);
}

TEST(Harness, QueryBenchmarkFindsThePaperedAnswers)
{
    // Run query with real I/O (not unit clauses) and check a known
    // solution appears: the density comparison finds country pairs.
    KcmSystem system;
    system.consult(plmBenchmark("query").program);
    auto result = system.query(
        "(query(S), write(S), nl, fail ; true)");
    ASSERT_TRUE(result.success);
    EXPECT_NE(result.output.find("indonesia"), std::string::npos);
    EXPECT_FALSE(result.output.empty());
}

TEST(Harness, TablePrinterAlignsColumns)
{
    TablePrinter table({"A", "Bbb"});
    table.addRow({"x", "1"});
    table.addRow({"yyyy", "22"});
    std::string out = table.render();
    // All lines equal length (header, separator, rows).
    std::vector<size_t> lengths;
    size_t start = 0;
    while (start < out.size()) {
        size_t end = out.find('\n', start);
        lengths.push_back(end - start);
        start = end + 1;
    }
    ASSERT_EQ(lengths.size(), 4u);
    EXPECT_EQ(lengths[0], lengths[2]);
    EXPECT_EQ(lengths[0], lengths[3]);
}

TEST(Harness, PaperDataTablesConsistent)
{
    EXPECT_EQ(paperTable1().size(), 14u);
    EXPECT_EQ(paperTable2().size(), 14u);
    EXPECT_EQ(paperTable3().size(), 14u);
    EXPECT_EQ(paperTable4().size(), 7u);
    // Every paper row has a matching benchmark program.
    for (const auto &row : paperTable1())
        EXPECT_NO_THROW(plmBenchmark(row.program));
    // The KCM row of Table 4 carries the famous 833/760 peaks.
    for (const auto &row : paperTable4()) {
        if (row.machine == "KCM") {
            EXPECT_EQ(*row.concatKlips, 833);
            EXPECT_EQ(*row.nrevKlips, 760);
            EXPECT_EQ(row.wordBits, 64);
        }
    }
}

TEST(Harness, DaemonOutOfScopeIsKilledAndReaped)
{
    // A stand-in daemon that reports a port and then runs for ten
    // minutes: the owner going out of scope must not leave it running.
    pid_t pid = -1;
    {
        Daemon daemon = spawnDaemon(
            {"/bin/sh", "-c", "echo '{\"listening\": 1}'; exec sleep 600"},
            /*quiet_stderr=*/true);
        EXPECT_EQ(daemon.port, 1);
        pid = daemon.pid;
        ASSERT_GT(pid, 0);
        EXPECT_FALSE(daemon.exited());

        // Moving it hands over the child; the moved-from owner has none.
        Daemon owner = std::move(daemon);
        EXPECT_EQ(daemon.pid, -1);
        EXPECT_EQ(owner.pid, pid);
    }
    int status = 0;
    errno = 0;
    EXPECT_EQ(waitpid(pid, &status, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
}
