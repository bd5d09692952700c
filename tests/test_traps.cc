/**
 * @file
 * Recoverable traps, the resource governor and fault injection.
 *
 * Every TrapKind is provoked on BOTH execution cores (the predecoded
 * token-threaded fast path and the decode-per-step oracle) from the
 * same code image, and the cores must deliver the identical trap:
 * same kind, same faulting PC, same cycle count, same completed
 * instruction count. After any trap the machine stays valid — it
 * accepts a fresh load() and runs normally. The resource-governor
 * tests show the two recovery paths: firmware stack growth completes
 * a query that dies without it, and an Abort (cycle budget) resumes
 * bit-exactly after the budget is raised.
 */

#include <functional>

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "bench_support/harness.hh"
#include "compiler/assembler.hh"
#include "core/machine.hh"
#include "kcm/kcm.hh"
#include "mem/fault_plan.hh"

using namespace kcm;

namespace
{

/** Assemble a raw instruction sequence; the query entry is the first
 *  instruction. The program must end with Halt. */
CodeImage
assembleRaw(const std::vector<Instr> &instructions)
{
    Assembler assembler;
    CodeImage image;
    image.haltFailEntry =
        assembler.emit(Instr::makeValue(Opcode::Halt, 1));
    image.failEntry = assembler.emit(Instr::make(Opcode::FailOp));
    Addr entry = assembler.here();
    for (const Instr &instr : instructions)
        assembler.emit(instr);
    assembler.finalize(image);
    image.queryEntry = entry;
    return image;
}

/** An infinite loop (jump to self). */
CodeImage
assembleLoop()
{
    Assembler assembler;
    CodeImage image;
    image.haltFailEntry = assembler.emit(Instr::makeValue(Opcode::Halt, 1));
    Addr entry = assembler.here();
    assembler.emit(Instr::makeValue(Opcode::Jump, entry));
    assembler.finalize(image);
    image.queryEntry = entry;
    return image;
}

/** Everything one core reports about a trap. */
struct TrapOutcome
{
    RunStatus status = RunStatus::Halted;
    TrapKind kind = TrapKind::Abort;
    uint32_t pc = 0;
    uint32_t faultAddr = 0;
    uint64_t cycle = 0;
    uint64_t instructions = 0;
};

/**
 * Run @p image on one core and collect the trap outcome; then verify
 * the machine survived: it must accept a fresh load() and complete a
 * trivial program normally.
 */
TrapOutcome
runCore(const CodeImage &image, MachineConfig config, bool fast,
        const std::function<void(Machine &)> &post_load = {})
{
    config.fastDispatch = fast;
    Machine machine(config);
    machine.load(image);
    if (post_load)
        post_load(machine);

    TrapOutcome out;
    out.status = machine.run();
    if (out.status == RunStatus::Trapped) {
        const TrapInfo &info = machine.lastTrap();
        out.kind = info.kind;
        out.pc = info.pc;
        out.faultAddr = info.faultAddr;
        out.cycle = info.cycle;
        out.instructions = info.instructions;
        EXPECT_TRUE(machine.trapped());
        EXPECT_EQ(info.cycle, machine.cycles())
            << "trap cycle must equal the rolled-back machine counter";
        EXPECT_FALSE(info.state.empty());
        EXPECT_FALSE(info.toString().empty());
    }

    // The machine stays usable after any trap.
    CodeImage good = assembleRaw({Instr::makeValue(Opcode::Halt, 0)});
    machine.load(good);
    EXPECT_FALSE(machine.trapped());
    EXPECT_EQ(machine.run(), RunStatus::Halted);
    return out;
}

/** Run both cores and assert they trap identically. */
TrapOutcome
bothCoresTrap(const CodeImage &image, const MachineConfig &config,
              TrapKind expected,
              const std::function<void(Machine &)> &post_load = {})
{
    TrapOutcome fast = runCore(image, config, /*fast=*/true, post_load);
    TrapOutcome oracle = runCore(image, config, /*fast=*/false, post_load);

    EXPECT_EQ(fast.status, RunStatus::Trapped);
    EXPECT_EQ(oracle.status, RunStatus::Trapped);
    EXPECT_EQ(fast.kind, expected) << trapKindName(fast.kind);
    EXPECT_EQ(oracle.kind, expected) << trapKindName(oracle.kind);
    EXPECT_EQ(fast.pc, oracle.pc);
    EXPECT_EQ(fast.faultAddr, oracle.faultAddr);
    EXPECT_EQ(fast.cycle, oracle.cycle);
    EXPECT_EQ(fast.instructions, oracle.instructions);
    return fast;
}

} // namespace

// --------------------------------------------------- every TrapKind

TEST(Traps, ZoneViolationIdenticalOnBothCores)
{
    DataLayout layout;
    Word bogus = Word::makeDataPtr(Zone::Global, layout.trailEnd + 0x1000);
    CodeImage image = assembleRaw({
        Instr::makeConstant(Opcode::LoadImm, bogus, 0),
        Instr::makeRegs(Opcode::Load, 0, 1, 2, 0, 0),
        Instr::makeValue(Opcode::Halt, 0),
    });
    bothCoresTrap(image, {}, TrapKind::ZoneViolation);
}

TEST(Traps, TypeViolationIdenticalOnBothCores)
{
    // §3.2.3: a float used as an address.
    DataLayout layout;
    Word bogus = Word::make(Tag::Float, Zone::Global,
                            layout.globalStart + 4);
    CodeImage image = assembleRaw({
        Instr::makeConstant(Opcode::LoadImm, bogus, 0),
        Instr::makeRegs(Opcode::Load, 0, 1, 2, 0, 0),
        Instr::makeValue(Opcode::Halt, 0),
    });
    TrapOutcome out = bothCoresTrap(image, {}, TrapKind::TypeViolation);
    EXPECT_EQ(out.faultAddr, layout.globalStart + 4);
}

TEST(Traps, WriteProtectionIdenticalOnBothCores)
{
    DataLayout layout;
    Word target = Word::makeDataPtr(Zone::Static, layout.staticStart + 8);
    CodeImage image = assembleRaw({
        Instr::makeConstant(Opcode::LoadImm, target, 0),
        Instr::makeConstant(Opcode::LoadImm, Word::makeInt(7), 3),
        Instr::makeRegs(Opcode::Store, 0, 1, 3, 0, 0),
        Instr::makeValue(Opcode::Halt, 0),
    });
    // Write-protect the static area after load (the loader itself may
    // legitimately write there).
    auto protect = [](Machine &machine) {
        ZoneChecker &checker = machine.mem().zoneChecker();
        ZoneInfo info = checker.info(Zone::Static);
        info.writeProtected = true;
        checker.configure(Zone::Static, info);
    };
    TrapOutcome out =
        bothCoresTrap(image, {}, TrapKind::WriteProtection, protect);
    EXPECT_EQ(out.faultAddr, layout.staticStart + 8);
}

TEST(Traps, InjectedPageFaultIdenticalOnBothCores)
{
    // Arm the MMU at cycle 0 via the fault plan; the next translation
    // (of either core, at the identical point) raises PageFault.
    DataLayout layout;
    Word ptr = Word::makeDataPtr(Zone::Global, layout.globalStart + 2);
    CodeImage image = assembleRaw({
        Instr::makeConstant(Opcode::LoadImm, ptr, 0),
        Instr::makeRegs(Opcode::Load, 0, 1, 2, 0, 0),
        Instr::makeValue(Opcode::Halt, 0),
    });
    MachineConfig config;
    FaultAction fault;
    fault.cycle = 0;
    fault.kind = FaultKind::InjectPageFault;
    config.faultPlan.actions.push_back(fault);
    bothCoresTrap(image, config, TrapKind::PageFault);
}

TEST(Traps, BadInstructionIdenticalOnBothCores)
{
    CodeImage image = assembleRaw({
        Instr(uint64_t(0xFE) << 56), // not a valid opcode
    });
    bothCoresTrap(image, {}, TrapKind::BadInstruction);
}

TEST(Traps, StackOverflowIdenticalOnBothCores)
{
    // A 16-word heap quota with firmware growth disabled: the first
    // store beyond the quota surfaces as StackOverflow.
    DataLayout layout;
    Word beyond = Word::makeDataPtr(Zone::Global, layout.globalStart + 64);
    CodeImage image = assembleRaw({
        Instr::makeConstant(Opcode::LoadImm, beyond, 0),
        Instr::makeConstant(Opcode::LoadImm, Word::makeInt(1), 3),
        Instr::makeRegs(Opcode::Store, 0, 1, 3, 0, 0),
        Instr::makeValue(Opcode::Halt, 0),
    });
    MachineConfig config;
    config.governor.globalQuotaWords = 16;
    config.governor.growStacks = false;
    TrapOutcome out =
        bothCoresTrap(image, config, TrapKind::StackOverflow);
    EXPECT_EQ(out.faultAddr, layout.globalStart + 64);
}

TEST(Traps, CycleBudgetAbortIdenticalOnBothCores)
{
    CodeImage image = assembleLoop();
    MachineConfig config;
    config.governor.cycleBudget = 1000;
    TrapOutcome out = bothCoresTrap(image, config, TrapKind::Abort);
    EXPECT_GE(out.cycle, 1000u);
}

TEST(Traps, CycleBudgetSweepIdenticalOnBothCores)
{
    // Sweep a cycle budget across a whole compiled run: wherever the
    // Abort lands, the threaded loop must stop at the same
    // instruction boundary as the oracle — same pc, cycle and
    // completed instruction count.
    KcmSystem host;
    host.consult("app([], L, L).\n"
                 "app([H|T], L, [H|R]) :- app(T, L, R).\n"
                 "nrev([], []).\n"
                 "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n"
                 "l16([a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p]).\n"
                 "go :- l16(L), nrev(L, _).\n");
    CodeImage image = host.compileOnly("go");

    Machine full;
    full.load(image);
    ASSERT_EQ(full.run(), RunStatus::SolutionFound);
    uint64_t total = full.cycles();
    ASSERT_GT(total, 100u);

    // Every 7th cycle: dense enough to land inside every clause of
    // the run many times, sparse enough to keep the sweep fast.
    MachineConfig config;
    for (uint64_t budget = 3; budget < total; budget += 7) {
        config.governor.cycleBudget = budget;
        TrapOutcome fast = runCore(image, config, /*fast=*/true);
        TrapOutcome oracle = runCore(image, config, /*fast=*/false);
        ASSERT_EQ(fast.status, oracle.status) << "budget " << budget;
        if (fast.status != RunStatus::Trapped)
            continue; // the budget fell inside the final instruction
        EXPECT_EQ(fast.kind, TrapKind::Abort) << "budget " << budget;
        EXPECT_EQ(oracle.kind, TrapKind::Abort) << "budget " << budget;
        EXPECT_EQ(fast.pc, oracle.pc) << "budget " << budget;
        EXPECT_EQ(fast.cycle, oracle.cycle) << "budget " << budget;
        EXPECT_EQ(fast.instructions, oracle.instructions)
            << "budget " << budget;
    }
}

// ----------------------------------------------- fault-plan scripts

TEST(Traps, TightenZoneFaultTrapsIdentically)
{
    // Clamp the global zone's end below the target address mid-run:
    // a store that would have been legal becomes a ZoneViolation.
    DataLayout layout;
    Word ptr = Word::makeDataPtr(Zone::Global, layout.globalStart + 100);
    CodeImage image = assembleRaw({
        Instr::makeConstant(Opcode::LoadImm, ptr, 0),
        Instr::makeConstant(Opcode::LoadImm, Word::makeInt(1), 3),
        Instr::makeRegs(Opcode::Store, 0, 1, 3, 0, 0),
        Instr::makeValue(Opcode::Halt, 0),
    });
    MachineConfig config;
    FaultAction fault;
    fault.cycle = 0;
    fault.kind = FaultKind::TightenZone;
    fault.zone = Zone::Global;
    fault.limit = layout.globalStart + 50;
    config.faultPlan.actions.push_back(fault);
    bothCoresTrap(image, config, TrapKind::ZoneViolation);
}

TEST(Traps, CorruptWordFaultTrapsIdentically)
{
    // Seed a valid pointer in memory, corrupt it to a float via the
    // fault plan, then dereference through it: TypeViolation.
    DataLayout layout;
    Addr cell = layout.globalStart + 10;
    Word cell_ptr = Word::makeDataPtr(Zone::Global, cell);
    CodeImage image = assembleRaw({
        Instr::makeConstant(Opcode::LoadImm, cell_ptr, 0),
        // x1 := mem[cell] (the corrupted word), then use it as an
        // address.
        Instr::makeRegs(Opcode::Load, 0, 2, 1, 0, 0),
        Instr::makeRegs(Opcode::Load, 1, 3, 4, 0, 0),
        Instr::makeValue(Opcode::Halt, 0),
    });
    MachineConfig config;
    FaultAction fault;
    fault.cycle = 0;
    fault.kind = FaultKind::CorruptWord;
    fault.addr = cell;
    fault.raw =
        Word::make(Tag::Float, Zone::Global, layout.globalStart + 4)
            .raw();
    config.faultPlan.actions.push_back(fault);
    bothCoresTrap(image, config, TrapKind::TypeViolation);
}

// -------------------------------------------------- governor recovery

TEST(Traps, StackGrowthCompletesQueryThatDiesWithoutIt)
{
    const char *program =
        "mklist(0, []).\n"
        "mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).\n";

    // Without growth: a 64-word heap quota kills the 200-cons build.
    KcmOptions no_growth;
    no_growth.machine.governor.globalQuotaWords = 64;
    no_growth.machine.governor.growStacks = false;
    KcmSystem dying(no_growth);
    dying.consult(program);
    QueryResult died = dying.query("mklist(200, L)");
    EXPECT_FALSE(died.success);
    ASSERT_TRUE(died.trapped);
    EXPECT_EQ(died.trap.kind, TrapKind::StackOverflow);
    EXPECT_NE(died.error.find("resource_error(stack_overflow)"),
              std::string::npos)
        << died.error;

    // With firmware growth (the default): the same query completes,
    // the growth counter ticks, and each growth charged its cycles.
    KcmOptions growing;
    growing.machine.governor.globalQuotaWords = 64;
    KcmSystem surviving(growing);
    surviving.consult(program);
    QueryResult lived = surviving.query("mklist(200, L)");
    EXPECT_TRUE(lived.success) << lived.error;
    EXPECT_FALSE(lived.trapped);
    EXPECT_GE(surviving.machine().stackZoneGrowths.value(), 1u);

    // An ungoverned run of the same query for reference: the governed
    // run costs extra cycles (the documented growth charge), never
    // fewer.
    KcmSystem free_system;
    free_system.consult(program);
    QueryResult free_run = free_system.query("mklist(200, L)");
    ASSERT_TRUE(free_run.success);
    EXPECT_GT(lived.cycles, free_run.cycles);
}

TEST(Traps, StackGrowthCeilingSurfacesAsTrap)
{
    // Growth capped below what the query needs: the overflow finally
    // surfaces once firmware exhausts the ceiling.
    KcmOptions options;
    options.machine.governor.globalQuotaWords = 64;
    options.machine.governor.growthStepWords = 32;
    options.machine.governor.zoneCeilingWords = 128;
    KcmSystem system(options);
    system.consult(
        "mklist(0, []).\n"
        "mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).\n");
    QueryResult result = system.query("mklist(500, L)");
    EXPECT_FALSE(result.success);
    ASSERT_TRUE(result.trapped);
    EXPECT_EQ(result.trap.kind, TrapKind::StackOverflow);
    EXPECT_GE(system.machine().stackZoneGrowths.value(), 1u);
}

TEST(Traps, AbortResumesExactlyAfterBudgetRaise)
{
    KcmSystem compile_host;
    compile_host.consult(
        "count(0).\ncount(N) :- N > 0, M is N - 1, count(M).\n");
    CodeImage image = compile_host.compileOnly("count(200)");

    // Reference: the uninterrupted run.
    Machine reference;
    reference.load(image);
    ASSERT_EQ(reference.run(), RunStatus::SolutionFound);
    uint64_t full_cycles = reference.cycles();

    // Budgeted: trap on Abort partway, raise the budget, resume.
    MachineConfig config;
    config.governor.cycleBudget = full_cycles / 2;
    Machine machine(config);
    machine.load(image);
    ASSERT_EQ(machine.run(), RunStatus::Trapped);
    EXPECT_EQ(machine.lastTrap().kind, TrapKind::Abort);
    EXPECT_LT(machine.cycles(), full_cycles);

    machine.setCycleBudget(0); // unlimited
    EXPECT_EQ(machine.resume(), RunStatus::SolutionFound);
    // Resumption is exact: the total simulated cost is identical to
    // the uninterrupted run.
    EXPECT_EQ(machine.cycles(), full_cycles);
    EXPECT_EQ(machine.instructions(), reference.instructions());
}

TEST(Traps, NonResumableTrapStaysTrapped)
{
    DataLayout layout;
    Word bogus = Word::makeDataPtr(Zone::Global, layout.trailEnd + 0x1000);
    CodeImage image = assembleRaw({
        Instr::makeConstant(Opcode::LoadImm, bogus, 0),
        Instr::makeRegs(Opcode::Load, 0, 1, 2, 0, 0),
        Instr::makeValue(Opcode::Halt, 0),
    });
    Machine machine;
    machine.load(image);
    ASSERT_EQ(machine.run(), RunStatus::Trapped);
    ASSERT_EQ(machine.lastTrap().kind, TrapKind::ZoneViolation);
    // resume() refuses: the faulting instruction was partially issued
    // and cannot be replayed.
    EXPECT_EQ(machine.resume(), RunStatus::Trapped);
    EXPECT_EQ(machine.lastTrap().kind, TrapKind::ZoneViolation);
}

TEST(Traps, QueryApiReportsResourceError)
{
    KcmOptions options;
    options.machine.governor.cycleBudget = 2000;
    KcmSystem system(options);
    system.consult("loop :- loop.\n");
    QueryResult result = system.query("loop");
    EXPECT_FALSE(result.success);
    ASSERT_TRUE(result.trapped);
    EXPECT_EQ(result.trap.kind, TrapKind::Abort);
    EXPECT_NE(result.error.find("resource_error(abort)"),
              std::string::npos)
        << result.error;

    // The same system object keeps working after the resource error.
    system.consult("ok.\n");
    QueryResult next = system.query("ok");
    EXPECT_TRUE(next.success);
    EXPECT_FALSE(next.trapped);
    EXPECT_TRUE(next.error.empty());
}

// ------------------------------------------- bench-harness isolation

TEST(Traps, WatchdogTimesOutRunawayBenchmark)
{
    // An infinite loop under a 50 ms wall-clock watchdog: recorded as
    // a failed, timed-out run — the harness never hangs or throws.
    PreparedBenchmark prep;
    prep.name = "runaway";
    prep.image = assembleLoop();
    BenchRun run = runPrepared(prep, /*watchdog_seconds=*/0.05);
    EXPECT_FALSE(run.success);
    EXPECT_TRUE(run.timedOut);
    EXPECT_FALSE(run.trapped);
    EXPECT_NE(run.failure.find("timeout"), std::string::npos)
        << run.failure;
    EXPECT_GT(run.cycles, 0u);
}

TEST(Traps, HarnessRecordsTrappedBenchmarkAsFailed)
{
    DataLayout layout;
    Word bogus = Word::makeDataPtr(Zone::Global, layout.trailEnd + 0x1000);
    PreparedBenchmark prep;
    prep.name = "trapping";
    prep.image = assembleRaw({
        Instr::makeConstant(Opcode::LoadImm, bogus, 0),
        Instr::makeRegs(Opcode::Load, 0, 1, 2, 0, 0),
        Instr::makeValue(Opcode::Halt, 0),
    });
    BenchRun run = runPrepared(prep);
    EXPECT_FALSE(run.success);
    EXPECT_TRUE(run.trapped);
    EXPECT_FALSE(run.timedOut);
    EXPECT_NE(run.failure.find("machine_trap(zone_violation)"),
              std::string::npos)
        << run.failure;

    // The trapped run sets the suite's exit code, whatever succeeded
    // beside it.
    BenchRun fine;
    fine.success = true;
    EXPECT_EQ(benchExitCode({fine, run}), benchTrapExitCode);
    EXPECT_EQ(benchExitCode({fine}), 0);
}

TEST(Traps, WatchdogSlicingLeavesMetricsUntouched)
{
    // The same benchmark with and without the watchdog: identical
    // simulated results (slicing runs through Abort/resume, which is
    // exact).
    PreparedBenchmark prep = preparePlmBenchmark(
        plmBenchmark("queens"), /*pure=*/true);
    BenchRun plain = runPrepared(prep);
    BenchRun watched = runPrepared(prep, /*watchdog_seconds=*/120);
    ASSERT_TRUE(plain.success);
    ASSERT_TRUE(watched.success);
    EXPECT_EQ(plain.cycles, watched.cycles);
    EXPECT_EQ(plain.instructions, watched.instructions);
    EXPECT_EQ(plain.inferences, watched.inferences);
}

namespace
{

/** Everything Machine::solutions() reports about one run. */
struct SolutionsRun
{
    std::vector<std::string> solutions;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t inferences = 0;
    uint64_t trapsTaken = 0;
    bool trapped = false;
    TrapKind trapKind = TrapKind::Abort;
    uint64_t trapCycle = 0;
    uint64_t polls = 0; ///< stop() calls
};

SolutionsRun
runSolutions(const CodeImage &image, const MachineConfig &config,
             size_t max, uint64_t slice)
{
    Machine machine(config);
    machine.load(image);
    SolutionsRun run;
    HostPoll poll;
    if (slice) {
        poll.nextSlice = [slice] { return slice; };
        poll.stop = [&run] {
            ++run.polls;
            return false;
        };
    }
    for (const Solution &solution : machine.solutions(max, poll))
        run.solutions.push_back(solution.toString());
    run.cycles = machine.cycles();
    run.instructions = machine.instructions();
    run.inferences = machine.inferences();
    run.trapsTaken = machine.trapsTaken.value();
    run.trapped = machine.trapped();
    if (run.trapped) {
        EXPECT_FALSE(machine.sliceExpired())
            << "a stop that never fires cannot end the run";
        run.trapKind = machine.lastTrap().kind;
        run.trapCycle = machine.lastTrap().cycle;
    }
    return run;
}

} // namespace

TEST(Traps, SolutionsLoopSlicingLeavesEveryGoalUntouched)
{
    // The one host loop (Machine::solutions) under every slice length,
    // on both cores: solutions, counters and traps equal the unsliced
    // run's. A slice length of 1 puts a boundary right after every
    // solution. Slices are consecutive windows that a solution does
    // not re-arm, so stop() is asked about once per slice however
    // fast solutions come (rep yields one every few dozen cycles).
    KcmSystem host;
    host.consult(
        "app([], L, L).\n"
        "app([H|T], L, [H|R]) :- app(T, L, R).\n"
        "sel(X, [X|T], T).\n"
        "sel(X, [H|T], [H|R]) :- sel(X, T, R).\n"
        "perm([], []).\n"
        "perm(L, [X|P]) :- sel(X, L, R), perm(R, P).\n"
        "nat(N) :- from(0, N).\n"
        "from(N, N).\n"
        "from(N, M) :- N1 is N + 1, from(N1, M).\n"
        "rep.\n"
        "rep :- rep.\n"
        "sumto(0, 0).\n"
        "sumto(N, S) :- N > 0, M is N - 1, sumto(M, T), S is T + N.\n"
        "loop :- loop.\n");
    const struct
    {
        const char *goal;
        size_t max;
        uint64_t budget; ///< governor cycle budget (0 = none)
        int solutions; ///< expected count (-1: some, then the trap)
        bool trapped;
    } goals[] = {
        {"app(X, Y, [1,2,3,4,5])", SIZE_MAX, 0, 6, false},
        {"perm([1,2,3,4,5], P)", SIZE_MAX, 0, 120, false},
        {"nat(N)", 300, 0, 300, false},
        {"rep", 500, 0, 500, false},
        {"sumto(300, S)", SIZE_MAX, 0, 1, false},
        {"loop", SIZE_MAX, 5'000, 0, true},
        {"catch(loop, resource_error(E), true)", SIZE_MAX, 5'000, 1,
         false},
        {"nat(N)", SIZE_MAX, 20'000, -1, true},
    };
    const uint64_t slices[] = {1, 2, 3, 7, 64, 4'096, 1'000'000};

    for (const auto &g : goals) {
        const CodeImage image = host.compileOnly(g.goal);
        for (bool fast : {true, false}) {
            MachineConfig config;
            config.fastDispatch = fast;
            config.governor.cycleBudget = g.budget;
            const SolutionsRun want = runSolutions(image, config, g.max, 0);
            SCOPED_TRACE(cat(g.goal, fast ? " (fast)" : " (oracle)"));
            ASSERT_EQ(want.trapped, g.trapped);
            if (g.solutions >= 0)
                ASSERT_EQ(want.solutions.size(), size_t(g.solutions));
            else
                ASSERT_GT(want.solutions.size(), 0u)
                    << "the trap must come mid-enumeration";
            for (uint64_t slice : slices) {
                SCOPED_TRACE(cat("slice ", slice));
                const SolutionsRun got =
                    runSolutions(image, config, g.max, slice);
                EXPECT_EQ(got.solutions, want.solutions);
                EXPECT_EQ(got.cycles, want.cycles);
                EXPECT_EQ(got.instructions, want.instructions);
                EXPECT_EQ(got.inferences, want.inferences);
                EXPECT_EQ(got.trapsTaken, want.trapsTaken);
                EXPECT_EQ(got.trapped, want.trapped);
                EXPECT_EQ(got.trapKind, want.trapKind);
                EXPECT_EQ(got.trapCycle, want.trapCycle);
                EXPECT_LE(got.polls, got.cycles / slice);
                EXPECT_GE(got.polls, got.cycles / (slice + 256));
            }
        }
    }
}

TEST(Traps, TrapCountersAreConsistentAcrossCores)
{
    // The trap counter itself and the cycle counters agree between
    // cores even when the run ends in a trap (trap-safe accounting).
    CodeImage image = assembleLoop();
    MachineConfig config;
    config.governor.cycleBudget = 5000;

    for (bool fast : {true, false}) {
        config.fastDispatch = fast;
        Machine machine(config);
        machine.load(image);
        ASSERT_EQ(machine.run(), RunStatus::Trapped);
        EXPECT_EQ(machine.trapsTaken.value(), 1u);
        // The rolled-back counter sits exactly at an instruction
        // boundary: no partial-instruction cycles leak in.
        EXPECT_EQ(machine.cycles(), machine.lastTrap().cycle);
        EXPECT_EQ(machine.instructions(),
                  machine.lastTrap().instructions);
    }
}
