/**
 * @file
 * Chaos harness: the supervised query service under fault injection.
 *
 * Runs a mixed workload (hundreds of queries, several worker threads)
 * through the service::Supervisor while every query carries a
 * deterministic FaultPlan from one of the three fault families —
 * page-fault arming, zone tightening, word corruption — plus a
 * fault-free control family. Each query goes the server's way for a
 * per-query MachineConfig: its template is taken on a pooled machine
 * under the pool's config and restored under the query's fault plan.
 * Queries are compiled on the harness thread in submission order
 * (atom interning order affects generated switch tables, hence
 * simulated cycle counts), so every simulated metric is reproducible
 * whatever the worker scheduling. Every query is checked against the
 * baseline interpreter (the differential-testing oracle, run
 * fault-free): it must either
 *
 *   (a) complete with answers bit-identical to the oracle's (the
 *       fault missed), or
 *   (b) fail cleanly, on its one attempt, with a classified
 *       FailureReport (the session never re-runs a query: the machine
 *       is deterministic, so a re-run would meet the same fault).
 *
 * Anything else — a hang (caught by per-query deadlines), a crash, or
 * a silently wrong answer — fails the harness. The workload's answers
 * are ground integers computed through arithmetic chains, so injected
 * corruption either traps during execution or is dead; it cannot leak
 * into an exported answer unseen. Writes BENCH_chaos.json.
 *
 * Options: --queries N (per family, default 200), --workers N
 * (default 4), --json PATH.
 *
 * Exit codes: 0 = every query matched or failed classified;
 * 1 = divergence from the oracle (or determinism violation);
 * 2 = harness error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "baseline/interp.hh"
#include "bench_support/json_report.hh"
#include "core/snapshot.hh"
#include "kcm/kcm.hh"
#include "mem/zone_check.hh"
#include "service/supervisor.hh"

using namespace kcm;

namespace
{

const char *chaosProgram = R"PROLOG(
sumto(0, 0).
sumto(N, S) :- N > 0, M is N - 1, sumto(M, T), S is T + N.

mklist(0, []).
mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).

app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).

rev([], []).
rev([H|T], R) :- rev(T, RT), app(RT, [H], R).

suml([], A, A).
suml([H|T], A, S) :- B is A + H, suml(T, B, S).

revsum(N, S) :- mklist(N, L), rev(L, R), suml(R, 0, S).

iter(0, A, A).
iter(N, A, S) :- N > 0, sumto(200, T), B is A + T, M is N - 1,
                 iter(M, B, S).

sumc(0, 0).
sumc(N, S) :- N > 0, !, M is N - 1, sumc(M, T), S is T + N.

itc(0, A, A).
itc(N, A, S) :- N > 0, !, sumc(200, T), B is A + T, M is N - 1,
                itc(M, B, S).

chunk :- revsum(120, _), fail.
chunk.

longrep(0, S) :- sumto(400, S).
longrep(K, S) :- K > 0, chunk, J is K - 1, longrep(J, S).
)PROLOG";

struct Family
{
    const char *name;
    FaultKind kind;
    bool faultFree = false;
};

/** One deterministic pseudo-random query + fault script. */
struct ChaosQuery
{
    std::string goal;
    MachineConfig machine;
};

ChaosQuery
makeQuery(const Family &family, uint32_t seed,
          const MachineConfig &base)
{
    std::mt19937 rng(seed);
    auto pick = [&](uint64_t lo, uint64_t hi) {
        return lo + rng() % (hi - lo + 1);
    };

    ChaosQuery q;
    q.machine = base;

    // Mixed workload, all ground-integer answers: mostly short
    // queries, a tail of megacycle ones.
    uint64_t span_cycles; // rough length of the run
    switch (pick(0, 9)) {
      case 0: // long: >1 simulated Mcycle; few distinct values so
              // the oracle cache absorbs the interpreter cost. Each
              // chunk fails and backtracks, so the oracle's
              // continuation stack unwinds between chunks instead of
              // nesting across the whole run.
        q.goal = cat("longrep(", 10 + pick(0, 2), ", S)");
        span_cycles = 1'600'000;
        break;
      case 1:
      case 2:
      case 3: // quadratic list work on the heap
        q.goal = cat("revsum(", pick(20, 60), ", S)");
        span_cycles = 30'000;
        break;
      default: // arithmetic recursion
        q.goal = cat("sumto(", pick(200, 1200), ", S)");
        span_cycles = 20'000;
        break;
    }

    if (!family.faultFree) {
        FaultAction fault;
        // Half the faults land inside the run, half past its end
        // (those never fire: the clean path must still match).
        fault.cycle = pick(200, span_cycles * 2);
        fault.kind = family.kind;
        DataLayout layout;
        switch (family.kind) {
          case FaultKind::InjectPageFault:
            break;
          case FaultKind::TightenZone:
            fault.zone = Zone::Global;
            fault.limit = layout.globalStart + pick(4, 512);
            break;
          case FaultKind::CorruptWord:
            // A Ref into the unmapped gap between the static and
            // global zones: any dereference of the corrupted cell
            // traps (ZoneViolation); it can never decode as a valid
            // ground answer. Aimed at the low heap early in the run —
            // the list cells the workload re-reads later — so a good
            // fraction of these darts are actually observed (a dart
            // on a dead or not-yet-allocated cell is legitimately
            // harmless and must still match the oracle).
            fault.cycle = pick(200, 8000);
            fault.addr = layout.globalStart + pick(0, 127);
            fault.raw = Word::make(Tag::Ref, Zone::Global,
                                   layout.staticEnd + 16 +
                                       Addr(pick(0, 256)))
                            .raw();
            break;
        }
        q.machine.faultPlan.actions.push_back(fault);
    }
    return q;
}

struct FamilyTally
{
    int matched = 0;       ///< completed, bit-identical to the oracle
    int failedClassified = 0;
    int diverged = 0;      ///< the bug class this harness exists for
    int shed = 0;
};

int
chaosSweep(int queries_per_family, unsigned workers,
           const std::string &json_path)
{
    const Family families[] = {
        {"fault_free", FaultKind::InjectPageFault, /*faultFree=*/true},
        {"page_fault", FaultKind::InjectPageFault},
        {"zone_tighten", FaultKind::TightenZone},
        {"corrupt_word", FaultKind::CorruptWord},
    };

    service::SupervisorOptions service;
    service.workers = workers;
    service.maxQueueDepth = size_t(queries_per_family) * 4 + 16;
    service.session.deadlineMs = 20'000; // anti-hang backstop
    service.session.maxSolutions = 1;

    baseline::Interpreter oracle;
    oracle.consult(chaosProgram);

    KcmOptions compile_options;
    compile_options.machine = service.session.machine;
    KcmSystem system(compile_options);
    system.consult(chaosProgram);

    // Oracle answers are cached per goal text: the goal distribution
    // repeats, and the interpreter is the slow half of the harness.
    std::map<std::string, std::pair<std::string, std::string>> oracleCache;
    auto oracleAnswer =
        [&](const std::string &goal) -> std::pair<std::string, std::string> {
        auto it = oracleCache.find(goal);
        if (it != oracleCache.end())
            return it->second;
        baseline::InterpResult res = oracle.query(goal, 1);
        std::string answers;
        for (const auto &s : res.solutions)
            answers += s.toString() + ";";
        auto entry = std::make_pair(answers, res.error);
        oracleCache[goal] = entry;
        return entry;
    };

    // Declared before the supervisor, so they outlive its workers'
    // callbacks.
    std::vector<service::QueryOutcome> outcomes(
        std::size(families) * size_t(queries_per_family));
    std::mutex outcomesMutex;
    service::Supervisor supervisor(service);
    std::vector<std::pair<const Family *, service::QueryJob>> submitted;

    uint32_t seed = 1;
    for (const Family &family : families) {
        for (int i = 0; i < queries_per_family; ++i, ++seed) {
            ChaosQuery q = makeQuery(family, seed,
                                     service.session.machine);
            service::QueryJob job;
            job.id = cat(family.name, "/", i);
            job.goal = q.goal;
            job.machine = q.machine;

            std::unique_ptr<Machine> machine = supervisor.borrowMachine();
            machine->load(system.compileOnly(q.goal));
            auto tmpl =
                std::make_shared<const Snapshot>(takeSnapshot(*machine));
            supervisor.returnMachine(std::move(machine));

            const size_t index = submitted.size();
            submitted.emplace_back(&family, job);
            supervisor.submitAsync(
                std::move(job), std::move(tmpl),
                [&, index](service::QueryOutcome out) {
                    std::lock_guard<std::mutex> lock(outcomesMutex);
                    outcomes[index] = std::move(out);
                });
        }
    }

    supervisor.drain();
    auto stats = supervisor.stats();

    std::map<std::string, FamilyTally> tallies;
    int divergences = 0;
    for (size_t i = 0; i < submitted.size(); ++i) {
        const auto &[family, job] = submitted[i];
        const service::QueryOutcome &out = outcomes[i];
        FamilyTally &tally = tallies[family->name];

        switch (out.status) {
          case service::QueryStatus::Completed: {
            auto [want_answers, want_error] = oracleAnswer(job.goal);
            std::string got;
            for (const auto &s : out.solutions)
                got += s.toString() + ";";
            if (got == want_answers && out.error == want_error) {
                ++tally.matched;
            } else {
                ++tally.diverged;
                ++divergences;
                fprintf(stderr,
                        "DIVERGENCE %s goal=%s\n  kcm:    '%s' "
                        "err='%s'\n  oracle: '%s' err='%s'\n",
                        job.id.c_str(), job.goal.c_str(), got.c_str(),
                        out.error.c_str(), want_answers.c_str(),
                        want_error.c_str());
            }
            break;
          }
          case service::QueryStatus::Failed:
            if (out.failure.classification.empty() ||
                out.failure.attempts != 1) {
                ++tally.diverged;
                ++divergences;
                fprintf(stderr,
                        "UNCLASSIFIED FAILURE %s ('%s', %u attempts)\n",
                        job.id.c_str(),
                        out.failure.classification.c_str(),
                        out.failure.attempts);
            } else {
                ++tally.failedClassified;
            }
            break;
          case service::QueryStatus::Shed:
            ++tally.shed;
            break;
        }
    }

    printf("chaos sweep: %d queries/family, %u workers\n",
           queries_per_family, workers);
    printf("%-14s %8s %8s %8s %6s\n", "family", "matched", "failed",
           "diverged", "shed");
    for (const Family &family : families) {
        const FamilyTally &t = tallies[family.name];
        printf("%-14s %8d %8d %8d %6d\n", family.name, t.matched,
               t.failedClassified, t.diverged, t.shed);
    }
    printf("aggregate: %llu shed\n", (unsigned long long)stats.shed);

    if (std::FILE *f = std::fopen(json_path.c_str(), "w")) {
        fprintf(f, "{\n  \"label\": \"chaos_recovery\",\n");
        fprintf(f, "  \"queriesPerFamily\": %d,\n  \"workers\": %u,\n",
                queries_per_family, workers);
        fprintf(f, "  \"families\": [\n");
        for (size_t i = 0; i < std::size(families); ++i) {
            const FamilyTally &t = tallies[families[i].name];
            fprintf(f,
                    "    {\"name\": \"%s\", \"matched\": %d, "
                    "\"failedClassified\": %d, \"diverged\": %d, "
                    "\"shed\": %d}%s\n",
                    families[i].name, t.matched, t.failedClassified,
                    t.diverged, t.shed,
                    i + 1 < std::size(families) ? "," : "");
        }
        fprintf(f, "  ],\n");
        fprintf(f, "  \"stats\": {\"shed\": %llu}\n}\n",
                (unsigned long long)stats.shed);
        std::fclose(f);
        printf("wrote %s\n", json_path.c_str());
    }

    return divergences ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    int queries = 200;
    unsigned workers = 4;
    std::string json_path = benchOutputPath("BENCH_chaos.json");

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--queries") && i + 1 < argc)
            queries = std::max(1, atoi(argv[++i]));
        else if (!std::strcmp(argv[i], "--workers") && i + 1 < argc)
            workers = std::max(1, atoi(argv[++i]));
        else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_path = argv[++i];
        else {
            fprintf(stderr,
                    "usage: chaos_recovery [--queries N] [--workers N] "
                    "[--json PATH]\n");
            return 2;
        }
    }

    try {
        return chaosSweep(queries, workers, json_path);
    } catch (const std::exception &e) {
        fprintf(stderr, "chaos_recovery: %s\n", e.what());
        return 2;
    }
}
