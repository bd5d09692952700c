/**
 * @file
 * Microbenchmarks (google-benchmark) of the specialized units the
 * paper proposes to evaluate individually in §5: dereferencing, trail
 * checks, unification dispatch, and choice point save/restore — plus
 * the host-side speed of the simulator, the compiler and the snapshot
 * code themselves.
 */

#include <benchmark/benchmark.h>

#include "bench_support/plm_suite.hh"
#include "core/snapshot.hh"
#include "db/clause_store.hh"
#include "kcm/kcm.hh"
#include "perfbench/workload.hh"
#include "prolog/parser.hh"

using namespace kcm;

namespace
{

/** Build a system with a consulted program, ready to run queries. */
QueryResult
runOn(const char *program, const std::string &goal)
{
    KcmSystem system;
    if (*program)
        system.consult(program);
    return system.query(goal);
}

void
BM_DerefChain(benchmark::State &state)
{
    // Long reference chains: X1 = X2, X2 = X3, ... then touch X1.
    std::string goal;
    int n = int(state.range(0));
    for (int i = 0; i < n; ++i)
        goal += "X" + std::to_string(i) + " = X" + std::to_string(i + 1) +
                ", ";
    goal += "X" + std::to_string(n) + " = end, atom(X0)";
    for (auto _ : state) {
        auto result = runOn("", goal);
        benchmark::DoNotOptimize(result.success);
    }
}
BENCHMARK(BM_DerefChain)->Arg(4)->Arg(16)->Arg(64);

void
BM_UnifyGroundLists(benchmark::State &state)
{
    std::string list = "[";
    for (int i = 0; i < state.range(0); ++i)
        list += (i ? "," : "") + std::to_string(i);
    list += "]";
    std::string goal = list + " = " + list;
    for (auto _ : state) {
        auto result = runOn("", goal);
        benchmark::DoNotOptimize(result.success);
    }
}
BENCHMARK(BM_UnifyGroundLists)->Arg(8)->Arg(64);

void
BM_ChoicePointChurn(benchmark::State &state)
{
    const char *program =
        "p(1). p(2). p(3). p(4). p(5). p(6). p(7). p(8).\n"
        "churn(0).\n"
        "churn(N) :- p(_), M is N - 1, churn(M).\n";
    for (auto _ : state) {
        auto result =
            runOn(program, "churn(" + std::to_string(state.range(0)) + ")");
        benchmark::DoNotOptimize(result.success);
    }
}
BENCHMARK(BM_ChoicePointChurn)->Arg(64);

void
BM_CompileNrev(benchmark::State &state)
{
    const PlmBenchmark &bench = plmBenchmark("nrev1");
    for (auto _ : state) {
        KcmSystem system;
        system.consult(bench.program);
        CodeImage image = system.compileOnly(bench.queryPure);
        benchmark::DoNotOptimize(image.words.size());
    }
}
BENCHMARK(BM_CompileNrev);

/** The text of one serve_cold miss: the serve program plus the pad/3
 *  fact that makes it unique. */
perfbench::Request
serveColdRequest()
{
    const perfbench::ServeWorkload workload("serve_cold");
    perfbench::Rng rng(perfbench::streamSeed(7, 0));
    return workload.next(rng, 7, 0, 0);
}

void
BM_ReadServeProgram(benchmark::State &state)
{
    // The reader alone: what every cold miss spends on the program text.
    const std::string program = serveColdRequest().program;
    for (auto _ : state) {
        OperatorTable ops;
        std::vector<ReadClause> clauses = Parser(program, ops).readAll();
        benchmark::DoNotOptimize(clauses.data());
    }
}
BENCHMARK(BM_ReadServeProgram);

void
BM_CompileServeMiss(benchmark::State &state)
{
    // Consult and compile as Server::compileTemplate does on a miss.
    const perfbench::Request request = serveColdRequest();
    for (auto _ : state) {
        KcmSystem system;
        system.consultStandardLibrary();
        system.consult(request.program);
        CodeImage image = system.compileOnly(request.goal);
        benchmark::DoNotOptimize(image.words.size());
    }
}
BENCHMARK(BM_CompileServeMiss);

void
BM_TakeServeMissTemplate(benchmark::State &state)
{
    // What a cold miss does after its compile, on one pooled machine:
    // the pristine reset of the borrowed machine, the download and the
    // template take. Two misses alternate, as unique program texts do.
    std::vector<CodeImage> images;
    const perfbench::ServeWorkload workload("serve_cold");
    for (uint64_t sequence : {0, 1}) {
        perfbench::Rng rng(perfbench::streamSeed(7, 0));
        perfbench::Request request = workload.next(rng, 7, 0, sequence);
        KcmSystem system;
        system.consultStandardLibrary();
        system.consult(request.program);
        images.push_back(system.compileOnly(request.goal));
    }
    Machine machine;
    const Snapshot pristine = takeSnapshot(machine);
    size_t bytes = 0, i = 0;
    for (auto _ : state) {
        restoreSnapshot(machine, pristine);
        machine.load(images[i++ % 2]);
        Snapshot snap = takeSnapshot(machine);
        bytes = snap.bytes.size();
        benchmark::DoNotOptimize(snap.bytes.data());
        benchmark::ClobberMemory();
    }
    state.counters["template_bytes"] = double(bytes);
}
BENCHMARK(BM_TakeServeMissTemplate);

void
BM_RestoreDurableTemplates(benchmark::State &state)
{
    // The serve_durable templates (one program, 32 goals) restored in
    // turn into one machine, the shared store attached after each
    // restore and detached before the next, as Session does.
    const perfbench::ServeWorkload workload("serve_durable");
    const std::vector<TermRef> facts =
        KcmSystem::parseFactFile(workload.facts, "serve_durable");
    auto store = std::make_shared<db::ClauseStore>();
    for (const TermRef &fact : facts)
        store->assertClause(fact->functor(), fact, nullptr,
                            /*at_front=*/false);
    std::vector<Snapshot> templates;
    for (const std::string &goal : workload.goals) {
        KcmSystem system;
        system.consultStandardLibrary();
        system.consult(workload.program);
        system.consult(KcmSystem::factDeclarations(facts));
        Machine loaded;
        loaded.load(system.compileOnly(goal));
        templates.push_back(takeSnapshot(loaded));
    }
    Machine machine;
    for (auto _ : state) {
        for (const Snapshot &tmpl : templates) {
            restoreSnapshot(machine, tmpl);
            machine.attachDynamicDb(store);
            machine.detachDynamicDb();
        }
        benchmark::DoNotOptimize(machine.image().words.data());
        benchmark::ClobberMemory();
    }
    state.counters["s_per_restore"] = benchmark::Counter(
        double(state.iterations()) * double(templates.size()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RestoreDurableTemplates);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    // Host-side speed: simulated cycles per wall second on nrev(30).
    const PlmBenchmark &bench = plmBenchmark("nrev1");
    KcmSystem system;
    system.consult(bench.pureProgram());
    CodeImage image = system.compileOnly(bench.queryPure);
    uint64_t simulated = 0;
    for (auto _ : state) {
        Machine machine;
        machine.load(image);
        machine.run();
        simulated += machine.cycles();
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        double(simulated), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput);

} // namespace

BENCHMARK_MAIN();
