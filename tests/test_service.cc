/**
 * @file
 * Supervised query service: Session failure semantics and Supervisor
 * pool behaviour.
 *
 * The contract under test is the serving one: a supervised query
 * either completes with the same answer an unsupervised run produces
 * (deadline slices must be invisible to every simulated metric), or
 * fails *cleanly*, on its one attempt, with a structured, classified
 * FailureReport — never a hang, never a silently wrong answer. The
 * machine is deterministic, so a failing query fails exactly as a
 * bare Machine does; deadlines and load shedding are pinned down
 * deterministically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>

#include "base/logging.hh"
#include "baseline/interp.hh"
#include "core/snapshot.hh"
#include "kcm/kcm.hh"
#include "mem/zone_check.hh"
#include "service/supervisor.hh"

using namespace kcm;

namespace
{

const char *serviceProgram =
    "sumto(0, 0).\n"
    "sumto(N, S) :- N > 0, M is N - 1, sumto(M, T), S is T + N.\n"
    "mklist(0, []).\n"
    "mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).\n"
    "app([], L, L).\n"
    "app([H|T], L, [H|R]) :- app(T, L, R).\n"
    "rev([], []).\n"
    "rev([H|T], R) :- rev(T, RT), app(RT, [H], R).\n"
    "suml([], A, A).\n"
    "suml([H|T], A, S) :- B is A + H, suml(T, B, S).\n"
    "revsum(N, S) :- mklist(N, L), rev(L, R), suml(R, 0, S).\n"
    "iter(0, A, A).\n"
    "iter(N, A, S) :- N > 0, sumto(200, T), B is A + T, M is N - 1,\n"
    "                 iter(M, B, S).\n"
    // Determinate (cut) variants: multi-megacycle without piling up
    // choice points, so long runs stay within the default memory.
    "sumc(0, 0).\n"
    "sumc(N, S) :- N > 0, !, M is N - 1, sumc(M, T), S is T + N.\n"
    "itc(0, A, A).\n"
    "itc(N, A, S) :- N > 0, !, sumc(200, T), B is A + T, M is N - 1,\n"
    "                itc(M, B, S).\n"
    "loop :- loop.\n";

/** Compile one goal against the shared test program. */
CodeImage
compileQuery(const std::string &goal, const MachineConfig &machine)
{
    KcmOptions options;
    options.machine = machine;
    KcmSystem host(options);
    host.consult(serviceProgram);
    return host.compileOnly(goal);
}

/** A post-download template of @p goal against @p program, snapped
 *  under @p machine: what the server's image cache holds. */
std::shared_ptr<const Snapshot>
templateFor(const std::string &program, const std::string &goal,
            const MachineConfig &machine)
{
    KcmOptions options;
    options.machine = machine;
    KcmSystem host(options);
    host.consult(program);
    Machine loaded(machine);
    loaded.load(host.compileOnly(goal));
    return std::make_shared<const Snapshot>(takeSnapshot(loaded));
}

/** Run one supervised query to completion from a template snapped
 *  under the session's own config. */
service::QueryOutcome
runSession(const std::string &goal, service::SessionOptions options)
{
    service::Session session(
        templateFor(serviceProgram, goal, options.machine),
        std::move(options));
    return session.run();
}

/** Run one supervised query as the server runs a query with its own
 *  config: from a template snapped under the default config. */
service::QueryOutcome
runWarmSession(const std::string &goal, service::SessionOptions options)
{
    service::Session session(
        templateFor(serviceProgram, goal, MachineConfig{}),
        std::move(options));
    return session.run();
}

/** Jobs and the templates they restore, in submission order. */
using WarmJobs =
    std::vector<std::pair<service::QueryJob, std::shared_ptr<const Snapshot>>>;

/** Outcomes of submitAsync() callbacks, by submission index. */
struct OutcomeSlots
{
    std::mutex mutex;
    std::vector<service::QueryOutcome> outcomes;

    void
    submit(service::Supervisor &pool, service::QueryJob job,
           std::shared_ptr<const Snapshot> tmpl)
    {
        size_t slot = 0;
        {
            std::lock_guard<std::mutex> lock(mutex);
            slot = outcomes.size();
            outcomes.emplace_back();
        }
        pool.submitAsync(std::move(job), std::move(tmpl),
                         [this, slot](service::QueryOutcome out) {
                             std::lock_guard<std::mutex> lock(mutex);
                             outcomes[slot] = std::move(out);
                         });
    }
};

/** Run @p jobs through a supervisor and return their outcomes in
 *  submission order (and its final stats through @p stats). Under
 *  startPaused every job is queued, and shed decisions made, before
 *  drain() starts the workers. With one worker the jobs run one after
 *  another, so every job under the pool's config reuses the same idle
 *  machine. */
std::vector<service::QueryOutcome>
runWarmJobs(const service::SupervisorOptions &options, const WarmJobs &jobs,
            service::ServiceStats *stats = nullptr)
{
    OutcomeSlots slots;
    service::Supervisor supervisor(options);
    for (const auto &[job, tmpl] : jobs)
        slots.submit(supervisor, job, tmpl);
    supervisor.drain();
    if (stats)
        *stats = supervisor.stats();
    return std::move(slots.outcomes);
}

/** The session's absolute-deadline clock: steady ns since epoch. */
uint64_t
steadyNowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

/** How a bare Machine running one goal under one config traps. */
struct BareTrap
{
    std::string classification; ///< trapDiagnosis()
    uint64_t cycles = 0;
};

BareTrap
bareTrap(const std::string &goal, const MachineConfig &machine)
{
    Machine bare(machine);
    bare.load(compileQuery(goal, machine));
    EXPECT_EQ(bare.run(), RunStatus::Trapped)
        << "test premise: " << goal << " must trap on a bare machine";
    return {trapDiagnosis(bare.lastTrap()), bare.cycles()};
}

} // namespace

TEST(Session, TrapFailsOnTheFirstAttemptLikeABareMachine)
{
    // The machine is deterministic, so the session never re-runs a
    // query: an injected fault, or a cycle budget the goal cannot fit
    // in, fails on the first attempt with the classification, trap
    // kind and cycles of a bare Machine's trap under the same config,
    // from a template snapped under the default config (the server's
    // path for a query with its own config) and from one snapped under
    // the case's config alike.
    DataLayout layout;
    MachineConfig page_fault, tightened_zone, corrupted_word, budget;
    {
        FaultAction fault;
        fault.cycle = 4000;
        fault.kind = FaultKind::InjectPageFault;
        page_fault.faultPlan.actions.push_back(fault);
    }
    {
        FaultAction fault;
        fault.cycle = 1500;
        fault.kind = FaultKind::TightenZone;
        fault.zone = Zone::Global;
        fault.limit = layout.globalStart + 8;
        tightened_zone.faultPlan.actions.push_back(fault);
    }
    // Live list cells corrupted with Refs into the unmapped gap between
    // the static and global zones: the next dereference traps (and can
    // never decode as a plausible ground answer). rev/app re-read the
    // low heap throughout the quadratic run, so darts spread over cells
    // and cycles are observed.
    const uint64_t darts[][2] = {
        {1000, 10}, {3000, 30}, {5000, 50}, {8000, 70}, {12000, 26},
    };
    for (const auto &dart : darts) {
        FaultAction fault;
        fault.cycle = dart[0];
        fault.kind = FaultKind::CorruptWord;
        fault.addr = layout.globalStart + Addr(dart[1]);
        fault.raw = Word::make(Tag::Ref, Zone::Global,
                               layout.staticEnd + 16)
                        .raw();
        corrupted_word.faultPlan.actions.push_back(fault);
    }
    budget.governor.cycleBudget = 3000;

    const struct
    {
        const char *name;
        const char *goal;
        const MachineConfig &machine;
    } cases[] = {
        {"page fault", "sumto(500, S)", page_fault},
        {"tightened zone", "revsum(40, S)", tightened_zone},
        {"corrupted word", "revsum(40, S)", corrupted_word},
        {"cycle budget", "sumto(1200, S)", budget},
    };
    for (const auto &c : cases) {
        const BareTrap want = bareTrap(c.goal, c.machine);
        service::SessionOptions options;
        options.machine = c.machine;
        service::QueryOutcome pooled = runWarmSession(c.goal, options);
        service::QueryOutcome own = runSession(c.goal, options);

        const std::pair<const char *, const service::QueryOutcome *>
            runs[] = {{"default-config template", &pooled},
                      {"own-config template", &own}};
        for (const auto &[start, out] : runs) {
            SCOPED_TRACE(cat(c.name, ", ", start));
            EXPECT_EQ(out->status, service::QueryStatus::Failed);
            EXPECT_FALSE(out->success);
            EXPECT_EQ(out->failure.attempts, 1u);
            EXPECT_EQ(out->failure.classification, want.classification);
            EXPECT_EQ(out->cycles, want.cycles);
            EXPECT_FALSE(out->failure.detail.empty());
        }
    }
}

TEST(Session, WarmStartKeepsTheSessionsTighterQuota)
{
    // The template carries the default config's zone table; a warm
    // start must re-impose this session's 1 MiB byte budget, so the
    // catch sees resource_error(memory) exactly as from a template
    // snapped under the session's own config.
    const char *goal =
        "catch(mklist(200000, _), resource_error(E), true)";
    service::SessionOptions options;
    options.machine.governor.memoryBudgetBytes = 1u << 20;

    service::QueryOutcome own = runSession(goal, options);
    ASSERT_TRUE(own.success) << own.failure.classification;
    service::QueryOutcome warm = runWarmSession(goal, options);
    ASSERT_TRUE(warm.success) << warm.failure.classification;
    EXPECT_NE(warm.solutions[0].toString().find("E = memory"),
              std::string::npos)
        << warm.solutions[0].toString();
    EXPECT_EQ(warm.solutions[0].toString(), own.solutions[0].toString());
    EXPECT_EQ(warm.cycles, own.cycles);
}

TEST(Session, UnhandledExceptionIsAProgramOutcomeNotRetried)
{
    service::QueryOutcome out =
        runSession("sumto(5, S), throw(boom(S))", {});

    // The baseline interpreter reports the same uncaught ball; the
    // service must treat it as a completed (if failed) program, not a
    // machine fault worth retrying.
    EXPECT_EQ(out.status, service::QueryStatus::Completed);
    EXPECT_FALSE(out.success);
    EXPECT_NE(out.error.find("boom(15)"), std::string::npos)
        << out.error;
}

TEST(Session, BlownDeadlineFailsCleanly)
{
    // deadlineMs is terminal: under the default options the runaway
    // stops on its one attempt, reporting the cycles it spent.
    service::SessionOptions options;
    options.deadlineMs = 60;
    options.watchdogSliceCycles = 100'000;
    service::QueryOutcome out = runSession("loop", options);

    EXPECT_EQ(out.status, service::QueryStatus::Failed);
    EXPECT_EQ(out.failure.classification, "deadline_exceeded");
    EXPECT_EQ(out.failure.attempts, 1u);
    EXPECT_GT(out.cycles, 0u);
}

TEST(Session, InterruptStopsAFastEnumeration)
{
    // A drain past its grace sets the interrupt flag. rep yields a
    // solution every few dozen cycles, far faster than one per slice;
    // a solution must not re-arm the slice, or the flag is never
    // polled and the session enumerates until maxCycles.
    service::SessionOptions options;
    options.maxSolutions = 0;
    options.abortOnInterrupt = true;
    options.watchdogSliceCycles = 100'000;
    options.machine.maxCycles = 20'000'000;
    service::Session session(
        templateFor("rep.\nrep :- rep.\n", "rep", options.machine),
        options);

    service::requestServiceInterrupt();
    service::QueryOutcome out = session.run();
    service::clearServiceInterrupt();

    EXPECT_EQ(out.status, service::QueryStatus::Failed)
        << out.solutions.size() << " solutions, " << out.cycles
        << " cycles";
    EXPECT_EQ(out.failure.classification, "interrupted");
    EXPECT_EQ(out.failure.attempts, 1u);
    EXPECT_LT(out.cycles, 200'000u);
}

TEST(Supervisor, BatchCompletesInSubmissionOrder)
{
    service::SupervisorOptions options;
    options.workers = 4;

    WarmJobs jobs;
    std::vector<uint64_t> expected;
    for (int i = 0; i < 12; ++i) {
        uint64_t n = 50 + uint64_t(i);
        expected.push_back(n * (n + 1) / 2);
        service::QueryJob job;
        job.id = cat("q", i);
        job.goal = cat("sumto(", n, ", S)");
        jobs.emplace_back(job, templateFor(serviceProgram, job.goal,
                                           options.session.machine));
    }
    service::ServiceStats stats;
    std::vector<service::QueryOutcome> out =
        runWarmJobs(options, jobs, &stats);

    ASSERT_EQ(out.size(), 12u);
    for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].status, service::QueryStatus::Completed);
        ASSERT_TRUE(out[i].success);
        EXPECT_NE(out[i].solutions[0].toString().find(
                      std::to_string(expected[i])),
                  std::string::npos);
    }
    EXPECT_EQ(stats.submitted, 12u);
    EXPECT_EQ(stats.completed, 12u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.shed, 0u);
}

TEST(Supervisor, ShedsEarliestDeadlineWhenQueueFull)
{
    // startPaused keeps the workers idle while the admission queue
    // fills, so the eviction decision is deterministic: with a depth
    // of 2, the third submit evicts the queued query with the
    // earliest deadline (q1), not the oldest (q0) or the newest.
    service::SupervisorOptions options;
    options.workers = 2;
    options.maxQueueDepth = 2;
    options.startPaused = true;

    auto tmpl = templateFor(serviceProgram, "sumto(100, S)",
                            options.session.machine);
    WarmJobs jobs;
    const uint64_t deadlines[] = {5000, 100, 0};
    for (int i = 0; i < 3; ++i) {
        service::QueryJob job;
        job.id = cat("q", i);
        job.goal = "sumto(100, S)";
        job.deadlineMs = deadlines[i];
        jobs.emplace_back(job, tmpl);
    }
    service::ServiceStats stats;
    std::vector<service::QueryOutcome> out =
        runWarmJobs(options, jobs, &stats);

    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].status, service::QueryStatus::Completed);
    EXPECT_EQ(out[1].status, service::QueryStatus::Shed);
    EXPECT_EQ(out[1].failure.classification, "overloaded");
    EXPECT_EQ(out[2].status, service::QueryStatus::Completed);
    EXPECT_EQ(stats.submitted, 3u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.shed, 1u);
}

TEST(Supervisor, AsyncSaturationShedsDeterministicallyUnderLoad)
{
    // The always-on server's admission path: submitAsync() a burst
    // well past the queue bound while the workers are paused. The
    // shed callbacks must fire synchronously (before resume()) with
    // the structured "overloaded" classification, earliest deadline
    // first; every admitted query must still complete with the
    // deterministic answer once the workers run.
    service::SupervisorOptions options;
    options.workers = 2;
    options.maxQueueDepth = 4;
    options.startPaused = true;

    auto tmpl = templateFor(serviceProgram, "sumto(100, S)",
                            options.session.machine);

    service::Supervisor supervisor(options);
    std::mutex mutex;
    std::map<std::string, service::QueryOutcome> outcomes;

    const int burst = 12;
    for (int i = 0; i < burst; ++i) {
        service::QueryJob job;
        job.id = cat("q", i);
        job.goal = "sumto(100, S)";
        // Monotonically later deadlines: the earliest-deadline
        // eviction policy must shed q0..q7 in order and admit the
        // last maxQueueDepth submissions.
        job.deadlineMs = 1000 * uint64_t(i + 1);
        supervisor.submitAsync(
            job, tmpl, [&, id = job.id](service::QueryOutcome out) {
                std::lock_guard<std::mutex> lock(mutex);
                outcomes[id] = std::move(out);
            });
    }

    // Workers are paused, so every shed decision has already been
    // delivered and exactly maxQueueDepth queries are still queued.
    {
        std::lock_guard<std::mutex> lock(mutex);
        ASSERT_EQ(outcomes.size(), size_t(burst) - 4);
        for (const auto &[id, out] : outcomes) {
            EXPECT_EQ(out.status, service::QueryStatus::Shed) << id;
            EXPECT_EQ(out.failure.classification, "overloaded") << id;
        }
        for (int i = 0; i < 8; ++i)
            EXPECT_TRUE(outcomes.count(cat("q", i)))
                << "q" << i << " should have been shed";
    }
    EXPECT_EQ(supervisor.queueDepth(), 4u);

    supervisor.resume();
    supervisor.drain();

    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(outcomes.size(), size_t(burst));
    for (int i = 8; i < burst; ++i) {
        const auto &out = outcomes[cat("q", i)];
        EXPECT_EQ(out.status, service::QueryStatus::Completed);
        ASSERT_TRUE(out.success);
        // sumto(100, S) -> S = 5050, deterministic on every worker.
        EXPECT_NE(out.solutions[0].toString().find("5050"),
                  std::string::npos);
    }
    service::ServiceStats stats = supervisor.stats();
    EXPECT_EQ(stats.shed, 8u);
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.failed, 0u);
}

TEST(Supervisor, WarmTemplateAsyncMatchesColdImage)
{
    // The warm snapshot-template path the server's image cache uses:
    // a query warm-started from a post-download snapshot template
    // must produce the same answer and the same simulated cycle count
    // as a bare machine that loads the compiled image.
    service::SupervisorOptions options;
    options.workers = 2;

    const CodeImage image =
        compileQuery("revsum(15, S)", options.session.machine);
    auto tmpl = std::make_shared<const Snapshot>([&] {
        Machine machine(options.session.machine);
        machine.load(image);
        return takeSnapshot(machine);
    }());
    Machine cold(options.session.machine);
    cold.load(image);
    const std::vector<Solution> want = cold.solutions(1);
    ASSERT_EQ(want.size(), 1u);

    WarmJobs jobs;
    for (int i = 0; i < 4; ++i) {
        service::QueryJob job;
        job.id = cat("warm", i);
        job.goal = "revsum(15, S)";
        jobs.emplace_back(job, tmpl);
    }
    for (const service::QueryOutcome &out : runWarmJobs(options, jobs)) {
        ASSERT_EQ(out.status, service::QueryStatus::Completed);
        ASSERT_TRUE(out.success);
        EXPECT_EQ(out.solutions[0].toString(), want[0].toString());
        EXPECT_EQ(out.cycles, cold.cycles())
            << "warm restore must be invisible to simulated time";
    }
}

TEST(Supervisor, PooledMachineNeverCrossesMachineConfigs)
{
    // Warm jobs under the pool's config reuse an idle machine. A job
    // with its own MachineConfig (here a per-query memory budget) must
    // run on a machine built for it, and that machine must not go back
    // to the pool: the next default job must run as it did before.
    service::SupervisorOptions options;
    options.workers = 1;
    const char *goal = "mklist(200000, _)";
    auto tmpl = templateFor(serviceProgram, goal, options.session.machine);

    service::QueryJob plain;
    plain.id = "plain";
    plain.goal = goal;
    service::QueryJob budgeted = plain;
    budgeted.id = "budgeted";
    MachineConfig tight = options.session.machine;
    tight.governor.memoryBudgetBytes = 1u << 20;
    budgeted.machine = tight;

    std::vector<service::QueryOutcome> out = runWarmJobs(
        options, {{plain, tmpl}, {budgeted, tmpl}, {plain, tmpl}});
    ASSERT_EQ(out[0].status, service::QueryStatus::Completed);
    ASSERT_TRUE(out[0].success);
    EXPECT_EQ(out[1].status, service::QueryStatus::Failed);
    EXPECT_EQ(out[1].failure.classification, "resource_error(memory)")
        << "the budgeted job ran on the pool's unbudgeted machine";
    ASSERT_EQ(out[2].status, service::QueryStatus::Completed)
        << out[2].failure.classification;
    EXPECT_EQ(out[2].cycles, out[0].cycles);
    EXPECT_EQ(out[2].instructions, out[0].instructions);
    EXPECT_EQ(out[2].inferences, out[0].inferences);
}

TEST(Supervisor, PooledMachineRunsAlternatingTemplatesLikeAFreshOne)
{
    // Three templates take turns on the pool's one machine. One grows
    // the heap far past another's allocated prefix and writes output;
    // a third fills the heap until the pool's cycle budget traps it,
    // and the machine goes back to the pool as it stands. Every
    // outcome, the failure and the job after it included, must equal
    // a fresh machine's.
    service::SupervisorOptions options;
    options.workers = 1;
    options.session.machine.governor.cycleBudget = 4'000'000;
    const std::string program =
        std::string(serviceProgram) +
        "shout(N, S) :- revsum(N, S), write(S), nl.\n";
    const char *goals[] = {"shout(300, S)", "sumto(50, S)",
                           "mklist(1000000, _)"};
    std::shared_ptr<const Snapshot> templates[3];
    for (int i = 0; i < 3; ++i)
        templates[i] = templateFor(program, goals[i],
                                   options.session.machine);

    auto pagesAfterRun = [&](const Snapshot &tmpl) {
        Machine m(options.session.machine);
        restoreSnapshot(m, tmpl);
        m.run();
        return m.mem().mmu().allocatedPages();
    };
    ASSERT_GT(pagesAfterRun(*templates[0]), pagesAfterRun(*templates[1]))
        << "test premise: one template must outgrow the other";

    WarmJobs jobs;
    for (int i = 0; i < 6; ++i) {
        service::QueryJob job;
        job.id = cat("q", i);
        job.goal = goals[i % 3];
        jobs.emplace_back(job, templates[i % 3]);
    }
    std::vector<service::QueryOutcome> out = runWarmJobs(options, jobs);

    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].first.goal);
        service::Session fresh(jobs[i].second, options.session);
        service::QueryOutcome want = fresh.run();
        ASSERT_EQ(want.status, i % 3 == 2 ? service::QueryStatus::Failed
                                          : service::QueryStatus::Completed)
            << want.failure.classification;
        ASSERT_EQ(out[i].status, want.status);
        EXPECT_EQ(out[i].failure.classification,
                  want.failure.classification);
        ASSERT_EQ(out[i].solutions.size(), want.solutions.size());
        if (!want.solutions.empty()) {
            EXPECT_EQ(out[i].solutions[0].toString(),
                      want.solutions[0].toString());
        }
        EXPECT_EQ(out[i].output, want.output);
        EXPECT_EQ(out[i].cycles, want.cycles);
        EXPECT_EQ(out[i].instructions, want.instructions);
        EXPECT_EQ(out[i].inferences, want.inferences);
    }
    EXPECT_EQ(out[0].output, "45150\n");
    EXPECT_NE(out[2].failure.classification.find("resource_error"),
              std::string::npos)
        << out[2].failure.classification;
}

TEST(Supervisor, BorrowedMachineTakesTheTemplateAFreshOneTakes)
{
    // The server's compile miss takes its template on a pooled machine
    // reset from the pristine snapshot. Whatever that machine ran
    // before — a template that outgrew the next one's allocated
    // prefix, a query that trapped, a durable session — the template
    // must equal, byte for byte, one taken on a newly built machine.
    const std::string program =
        std::string(serviceProgram) +
        "shout(N, S) :- revsum(N, S), write(S), nl.\n"
        ":- dynamic(seen/1).\n"
        "note(X) :- assertz(seen(X)).\n";
    const char *goals[] = {"sumto(50, S)", "shout(300, S)", "note(2)"};
    MachineConfig config;
    config.governor.cycleBudget = 4'000'000; // `loop` traps

    auto image = [&](const std::string &goal) {
        KcmSystem host;
        host.consult(program);
        return host.compileOnly(goal);
    };
    auto runWarm = [&](service::Supervisor &pool, const std::string &goal) {
        std::promise<service::QueryOutcome> done;
        service::QueryJob job;
        job.id = goal;
        job.goal = goal;
        pool.submitAsync(job, templateFor(program, goal, config),
                         [&](service::QueryOutcome out) {
                             done.set_value(std::move(out));
                         });
        return done.get_future().get();
    };
    auto expectFreshTemplates = [&](service::Supervisor &pool,
                                    const char *after) {
        ASSERT_EQ(pool.idleMachines(), 1u) << after;
        for (const char *goal : goals) {
            std::unique_ptr<Machine> machine = pool.borrowMachine();
            machine->load(image(goal));
            EXPECT_EQ(takeSnapshot(*machine).bytes,
                      templateFor(program, goal, config)->bytes)
                << goal << " after " << after;
            pool.returnMachine(std::move(machine));
        }
        EXPECT_EQ(pool.idleMachines(), 1u) << after;
    };

    service::SupervisorOptions options;
    options.workers = 1;
    options.session.machine = config;
    {
        service::Supervisor pool(options);
        service::QueryOutcome big = runWarm(pool, "shout(300, S)");
        ASSERT_EQ(big.status, service::QueryStatus::Completed);
        EXPECT_EQ(big.output, "45150\n");
        expectFreshTemplates(pool, "a template that outgrew the rest");

        service::QueryOutcome trapped = runWarm(pool, "loop");
        ASSERT_EQ(trapped.status, service::QueryStatus::Failed);
        EXPECT_NE(trapped.failure.classification.find("resource_error"),
                  std::string::npos)
            << trapped.failure.classification;
        expectFreshTemplates(pool, "a trap");
    }

    std::string dir = "/tmp/kcm_pool_test_XXXXXX";
    ASSERT_NE(mkdtemp(dir.data()), nullptr);
    options.session.durableDb = std::make_shared<db::JournaledStore>(
        dir, db::JournalOptions{}, config.dyndb);
    {
        service::Supervisor pool(options);
        service::QueryOutcome durable = runWarm(pool, "note(1)");
        ASSERT_EQ(durable.status, service::QueryStatus::Completed)
            << durable.failure.classification;
        EXPECT_EQ(durable.dbOps, 1u);
        expectFreshTemplates(pool, "a durable session");
    }
    options.session.durableDb.reset();
    std::filesystem::remove_all(dir);
}

TEST(Supervisor, IdleStackHoldsAtMostOneMachinePerWorker)
{
    // Connection threads borrow machines for their compiles, so more
    // machines than workers can be out at once; handing them all back
    // must not grow the idle stack past the worker count.
    service::SupervisorOptions options;
    options.workers = 2;
    service::Supervisor pool(options);
    std::vector<std::unique_ptr<Machine>> borrowed;
    for (int i = 0; i < 5; ++i)
        borrowed.push_back(pool.borrowMachine());
    EXPECT_EQ(pool.idleMachines(), 0u);
    for (std::unique_ptr<Machine> &machine : borrowed)
        pool.returnMachine(std::move(machine));
    EXPECT_EQ(pool.idleMachines(), 2u);
}

// ------------------------------------- absolute deadline propagation

TEST(Session, AbsoluteDeadlineTerminatesRunawayWithCyclesSpent)
{
    // The propagated client deadline: "loop" never finishes, so the
    // session must stop *itself* at the boundary — terminally, and
    // reporting the simulated cycles it burned before giving up.
    service::SessionOptions options;
    options.watchdogSliceCycles = 100'000;
    // Wide enough that compile + setup on a loaded (sanitized) host
    // cannot burn the whole budget before the first slice runs.
    options.deadlineAbsNs = steadyNowNs() + 300'000'000ull; // +300ms
    service::QueryOutcome out = runSession("loop", options);

    EXPECT_EQ(out.status, service::QueryStatus::Failed);
    EXPECT_EQ(out.failure.classification, "deadline_exceeded");
    EXPECT_EQ(out.failure.attempts, 1u)
        << "an absolute deadline is terminal: no retry may extend it";
    EXPECT_GT(out.cycles, 0u)
        << "the reply must carry the cycles spent before expiry";
}

TEST(Session, AbsoluteDeadlineShorterThanOneGovernorSlice)
{
    // With a 2-Gcycle watchdog slice, the governor would run "loop"
    // for minutes before the first slice boundary.
    // The deadline-to-cycle-slice conversion must cut the slice down
    // to the remaining wall budget so the query still stops in a
    // fraction of a second, far short of one configured slice. The
    // budget is generous enough that it cannot fully elapse between
    // here and session start on a loaded host (which would legally
    // yield the zero-cycle pre-execution shed instead).
    service::SessionOptions options;
    options.watchdogSliceCycles = 2'000'000'000;
    options.deadlineAbsNs = steadyNowNs() + 300'000'000ull; // +300ms
    service::QueryOutcome out = runSession("loop", options);

    EXPECT_EQ(out.status, service::QueryStatus::Failed);
    EXPECT_EQ(out.failure.classification, "deadline_exceeded");
    EXPECT_GT(out.cycles, 0u);
    EXPECT_LT(out.cycles, 2'000'000'000u)
        << "the session must never run a full configured slice past "
           "its deadline";
}

TEST(Session, ExpiredAbsoluteDeadlineFailsBeforeExecution)
{
    // A deadline already in the past (the server maps those to the
    // sentinel 1ns) must shed before the machine runs at all.
    service::SessionOptions options;
    options.deadlineAbsNs = 1;
    service::QueryOutcome out = runSession("sumto(10, S)", options);

    EXPECT_EQ(out.status, service::QueryStatus::Failed);
    EXPECT_EQ(out.failure.classification, "deadline_exceeded");
    EXPECT_EQ(out.cycles, 0u);
}

TEST(Session, GenerousAbsoluteDeadlineIsInvisibleToSimulatedMetrics)
{
    // ~3.3 simulated Mcycles in 1-Mcycle deadline slices: when the
    // deadline is not hit, the slices may not perturb the simulated
    // answer of an unsliced run.
    const char *goal = "itc(300, 0, S)";
    service::QueryOutcome base = runSession(goal, {});
    ASSERT_EQ(base.status, service::QueryStatus::Completed);
    ASSERT_GE(base.cycles, 2'000'000u)
        << "test premise: the goal must cross slice boundaries";

    service::SessionOptions guarded;
    guarded.watchdogSliceCycles = 1'000'000;
    guarded.deadlineAbsNs = steadyNowNs() + 60'000'000'000ull; // +60s
    service::QueryOutcome out = runSession(goal, guarded);

    ASSERT_EQ(out.status, service::QueryStatus::Completed);
    ASSERT_TRUE(out.success);
    EXPECT_EQ(out.solutions[0].toString(),
              base.solutions[0].toString());
    EXPECT_EQ(out.cycles, base.cycles);
    EXPECT_EQ(out.instructions, base.instructions);
    EXPECT_EQ(out.inferences, base.inferences);
}

// --------------------------------------- per-query memory governance

TEST(Service, MemoryBudgetTrapsIdenticallyOnBothCores)
{
    // A 1 MiB per-query byte ceiling: building a 200k-element list
    // needs several MiB of global zone, so growth crosses the budget.
    // Both simulator cores must classify it resource_error(memory)
    // with bit-identical simulated metrics.
    auto run = [](bool fast) {
        KcmOptions options;
        options.machine.fastDispatch = fast;
        options.machine.governor.memoryBudgetBytes = 1u << 20;
        KcmSystem system(options);
        system.consult(serviceProgram);
        return system.query("mklist(200000, L)");
    };
    QueryResult fast = run(true);
    QueryResult oracle = run(false);

    EXPECT_FALSE(fast.success);
    ASSERT_TRUE(fast.trapped);
    EXPECT_NE(fast.error.find("resource_error(memory)"),
              std::string::npos)
        << fast.error;
    EXPECT_EQ(fast.trapped, oracle.trapped);
    EXPECT_EQ(fast.error, oracle.error);
    EXPECT_EQ(fast.cycles, oracle.cycles);
    EXPECT_EQ(fast.instructions, oracle.instructions);
}

TEST(Service, MemoryBudgetBallIsCatchable)
{
    // resource_error(memory) is an ordinary catchable ball, like the
    // cycle-budget abort: a guarded program recovers and completes.
    auto run = [](bool fast) {
        KcmOptions options;
        options.machine.fastDispatch = fast;
        options.machine.governor.memoryBudgetBytes = 1u << 20;
        KcmSystem system(options);
        system.consult(serviceProgram);
        return system.query(
            "catch(mklist(200000, _), resource_error(E), true)");
    };
    QueryResult fast = run(true);
    QueryResult oracle = run(false);

    ASSERT_TRUE(fast.success) << fast.error;
    EXPECT_FALSE(fast.trapped);
    ASSERT_EQ(fast.solutions.size(), 1u);
    EXPECT_NE(fast.solutions[0].toString().find("E = memory"),
              std::string::npos)
        << fast.solutions[0].toString();
    ASSERT_TRUE(oracle.success);
    EXPECT_EQ(fast.solutions[0].toString(),
              oracle.solutions[0].toString());
    EXPECT_EQ(fast.cycles, oracle.cycles);
}

TEST(Service, BaselineInterpreterAgreesOnMemoryBudget)
{
    // The differential oracle honours the same ceiling with the same
    // ball, both uncaught and caught.
    baseline::Interpreter doomed;
    doomed.setMemoryBudgetBytes(1u << 20);
    doomed.consult(serviceProgram);
    baseline::InterpResult blown = doomed.query("mklist(200000, L)", 1);
    EXPECT_FALSE(blown.success);
    EXPECT_NE(blown.error.find("resource_error(memory)"),
              std::string::npos)
        << blown.error;

    baseline::Interpreter guarded;
    guarded.setMemoryBudgetBytes(1u << 20);
    guarded.consult(serviceProgram);
    baseline::InterpResult caught = guarded.query(
        "catch(mklist(200000, _), resource_error(E), true)", 1);
    ASSERT_TRUE(caught.success) << caught.error;
    ASSERT_EQ(caught.solutions.size(), 1u);
    EXPECT_NE(caught.solutions[0].toString().find("E = memory"),
              std::string::npos);
}

TEST(Session, MemoryBudgetFailureIsClassified)
{
    service::SessionOptions options;
    options.machine.governor.memoryBudgetBytes = 1u << 20;
    service::QueryOutcome out =
        runSession("mklist(200000, L)", options);

    EXPECT_EQ(out.status, service::QueryStatus::Failed);
    EXPECT_EQ(out.failure.classification, "resource_error(memory)")
        << out.failure.classification;
}

// ------------------------------- supervisor self-defense: admission

TEST(Supervisor, UnmeetableDeadlineShedsAtAdmission)
{
    // A deadline already expired at submit time must be refused at
    // the door — classified deadline_exceeded with zero cycles spent,
    // counted as a propagated shed — while a healthy sibling runs.
    service::SupervisorOptions options;
    options.workers = 1;
    options.startPaused = true;

    auto tmpl = templateFor(serviceProgram, "sumto(100, S)",
                            options.session.machine);
    service::QueryJob dead;
    dead.id = "dead";
    dead.goal = "sumto(100, S)";
    dead.deadlineAbsNs = 1;
    service::QueryJob live;
    live.id = "live";
    live.goal = "sumto(100, S)";
    service::ServiceStats stats;
    std::vector<service::QueryOutcome> out =
        runWarmJobs(options, {{dead, tmpl}, {live, tmpl}}, &stats);

    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].status, service::QueryStatus::Failed);
    EXPECT_EQ(out[0].failure.classification, "deadline_exceeded");
    EXPECT_EQ(out[0].cycles, 0u);
    EXPECT_EQ(out[1].status, service::QueryStatus::Completed);
    EXPECT_EQ(stats.deadlinePropagatedSheds, 1u);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(Supervisor, PredictedQueueWaitShedsAtAdmission)
{
    // A live deadline shorter than the shape's observed latency is
    // refused at the door once the shape has three completed samples:
    // the predicted wait alone makes it unmeetable. A shape with no
    // samples yet is admitted; it runs "loop", so only its session can
    // stop it, at the deadline. The deadline is half the fastest
    // observed run, so the margins scale with the host (and with
    // sanitizers).
    service::SupervisorOptions options;
    options.workers = 1;
    auto measured = templateFor(serviceProgram, "itc(300, 0, S)",
                                options.session.machine);
    auto runaway =
        templateFor(serviceProgram, "loop", options.session.machine);

    service::Supervisor supervisor(options);
    auto run = [&](const std::shared_ptr<const Snapshot> &tmpl,
                   uint64_t shape_key, uint64_t deadline_abs_ns) {
        service::QueryJob job;
        job.id = cat("shape", shape_key);
        job.shapeKey = shape_key;
        job.deadlineAbsNs = deadline_abs_ns;
        // Shared with the callback, so the promise outlives set_value.
        auto done = std::make_shared<std::promise<service::QueryOutcome>>();
        std::future<service::QueryOutcome> outcome = done->get_future();
        supervisor.submitAsync(job, tmpl,
                               [done](service::QueryOutcome out) {
                                   done->set_value(std::move(out));
                               });
        return outcome.get();
    };

    const uint64_t seen = 42, unseen = 43;
    double fastest_s = 1e9;
    for (int i = 0; i < 3; ++i) {
        service::QueryOutcome out = run(measured, seen, 0);
        ASSERT_EQ(out.status, service::QueryStatus::Completed);
        fastest_s = std::min(fastest_s, out.wallSeconds);
    }

    const uint64_t deadline =
        steadyNowNs() + uint64_t(fastest_s / 2 * 1e9);
    service::QueryOutcome shed = run(measured, seen, deadline);
    service::QueryOutcome admitted = run(runaway, unseen, deadline);
    supervisor.drain();

    EXPECT_EQ(shed.status, service::QueryStatus::Failed);
    EXPECT_EQ(shed.failure.classification, "deadline_exceeded");
    EXPECT_EQ(shed.cycles, 0u);
    EXPECT_EQ(shed.failure.attempts, 0u)
        << "the predicted wait must refuse the query before it runs";
    EXPECT_EQ(admitted.status, service::QueryStatus::Failed);
    EXPECT_EQ(admitted.failure.classification, "deadline_exceeded");
    EXPECT_GT(admitted.cycles, 0u)
        << "an unseen shape has no prediction: its session must run";
    EXPECT_EQ(supervisor.stats().deadlinePropagatedSheds, 1u);
}

TEST(Supervisor, CollidingShapeIsNotShedOnAnotherShapesEstimate)
{
    // Shape keys equal modulo the table size share a latency slot. A
    // shape that lands in the slot of one with three samples has no
    // estimate of its own: under a deadline shorter than the other
    // shape's latency it is admitted and runs, and only its session
    // stops it.
    service::SupervisorOptions options;
    options.workers = 1;
    auto measured = templateFor(serviceProgram, "itc(300, 0, S)",
                                options.session.machine);
    auto runaway =
        templateFor(serviceProgram, "loop", options.session.machine);

    service::Supervisor supervisor(options);
    auto run = [&](const std::shared_ptr<const Snapshot> &tmpl,
                   uint64_t shape_key, uint64_t deadline_abs_ns) {
        service::QueryJob job;
        job.shapeKey = shape_key;
        job.deadlineAbsNs = deadline_abs_ns;
        auto done = std::make_shared<std::promise<service::QueryOutcome>>();
        std::future<service::QueryOutcome> outcome = done->get_future();
        supervisor.submitAsync(job, tmpl,
                               [done](service::QueryOutcome out) {
                                   done->set_value(std::move(out));
                               });
        return outcome.get();
    };

    const uint64_t seen = 42;
    const uint64_t colliding = seen + service::Supervisor::shapeSlots;
    double fastest_s = 1e9;
    for (int i = 0; i < 3; ++i) {
        service::QueryOutcome out = run(measured, seen, 0);
        ASSERT_EQ(out.status, service::QueryStatus::Completed);
        fastest_s = std::min(fastest_s, out.wallSeconds);
    }

    service::QueryOutcome admitted = run(
        runaway, colliding, steadyNowNs() + uint64_t(fastest_s / 2 * 1e9));
    supervisor.drain();

    EXPECT_EQ(admitted.status, service::QueryStatus::Failed);
    EXPECT_EQ(admitted.failure.classification, "deadline_exceeded");
    EXPECT_GT(admitted.cycles, 0u)
        << "a colliding shape must not be shed on another's estimate";
    EXPECT_EQ(supervisor.stats().deadlinePropagatedSheds, 0u);
}

TEST(Supervisor, GlobalMemoryBudgetRefusesAdmission)
{
    // Aggregate admission control: with a 64 MiB global budget and
    // the default 32 MiB per-query charge, the third concurrent
    // admission must be refused ("overloaded"), and the charge gauge
    // must drain back to zero once the admitted queries retire.
    service::SupervisorOptions options;
    options.workers = 1;
    options.startPaused = true;
    options.globalMemoryBudgetBytes = 64ull << 20;

    auto tmpl = templateFor(serviceProgram, "sumto(100, S)",
                            options.session.machine);
    OutcomeSlots slots;
    service::Supervisor supervisor(options);
    for (int i = 0; i < 3; ++i) {
        service::QueryJob job;
        job.id = cat("q", i);
        job.goal = "sumto(100, S)";
        slots.submit(supervisor, job, tmpl);
    }
    EXPECT_EQ(supervisor.stats().memAdmissionRefusals, 1u);
    EXPECT_EQ(supervisor.stats().memChargedBytes, 64ull << 20);

    supervisor.resume();
    supervisor.drain();
    service::ServiceStats stats = supervisor.stats();

    const std::vector<service::QueryOutcome> &out = slots.outcomes;
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].status, service::QueryStatus::Completed);
    EXPECT_EQ(out[1].status, service::QueryStatus::Completed);
    EXPECT_EQ(out[2].status, service::QueryStatus::Shed);
    EXPECT_EQ(out[2].failure.classification, "overloaded");
    EXPECT_EQ(stats.memChargedBytes, 0u)
        << "charges must be released as queries retire";
}

TEST(Supervisor, PerJobMemoryBudgetAbortIsCounted)
{
    // The server's path for a query with its own config: a template
    // snapped under the pool's config, restored under the job's.
    service::SupervisorOptions options;
    options.workers = 1;

    service::QueryJob job;
    job.id = "hog";
    job.goal = "mklist(200000, L)";
    MachineConfig machine = options.session.machine;
    machine.governor.memoryBudgetBytes = 1u << 20;
    job.machine = machine;
    service::ServiceStats stats;
    std::vector<service::QueryOutcome> out = runWarmJobs(
        options,
        {{job, templateFor(serviceProgram, job.goal,
                           options.session.machine)}},
        &stats);

    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].status, service::QueryStatus::Failed);
    EXPECT_EQ(out[0].failure.classification, "resource_error(memory)");
    EXPECT_EQ(stats.memAborts, 1u);
}
