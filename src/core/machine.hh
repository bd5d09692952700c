/**
 * @file
 * The KCM machine: a cycle-level simulator of the processor described
 * in §3 — 64 x 64-bit register file, microcoded execution unit with
 * MWAC-style dispatch on type pairs, trail comparators working in
 * parallel with dereferencing, delayed (shallow-backtracking) choice
 * points, split local/control stacks, and the two logical caches.
 *
 * Timing model: every instruction is charged its opcode's base cycles
 * (calibrated to the paper's published figures — 1 cycle for most data
 * manipulation, 2 for jumps/calls, 5 for a minimal call/return pair);
 * microcode loops (choice point save/restore at one register per
 * cycle via the RAC, reference-chain following at one reference per
 * cycle, unification sub-steps) and cache-miss penalties are added
 * dynamically. Trail checks are free: the trail comparators run in
 * parallel with dereferencing (§3.1.5).
 */

#ifndef KCM_CORE_MACHINE_HH
#define KCM_CORE_MACHINE_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "compiler/builtin_defs.hh"
#include "compiler/code_image.hh"
#include "core/machine_config.hh"
#include "core/prefetch.hh"
#include "core/profiler.hh"
#include "isa/decoded.hh"
#include "isa/instr.hh"
#include "mem/mem_system.hh"
#include "prolog/term.hh"

// Token-threaded dispatch (runFast) needs computed goto, a GCC/Clang
// extension. -DKCM_FORCE_SWITCH_DISPATCH leaves it out even there, so
// CI runs the portable step() loop that other toolchains get.
#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(KCM_FORCE_SWITCH_DISPATCH)
#define KCM_THREADED_DISPATCH 1
#endif

namespace kcm
{

/** Why run() returned. */
enum class RunStatus
{
    SolutionFound, ///< query reached the collect-solution escape
    Failed,        ///< query exhausted all alternatives
    Halted,        ///< executed halt after a solution
    CycleLimit,    ///< maxCycles exceeded
    Trapped,       ///< a machine trap was taken (see lastTrap())
};

/** One solution: bindings of the named query variables. */
struct Solution
{
    std::vector<std::pair<std::string, TermRef>> bindings;

    std::string toString() const;
};

/** The host's hold on a run (Machine::solutions): how long each slice
 *  of simulated time is, and whether to stop at a slice boundary. */
struct HostPoll
{
    /** Asked as each slice starts, the first included: its length in
     *  cycles (unset or 0 = run on unsliced). */
    std::function<uint64_t()> nextSlice;
    /** Asked at every slice boundary; true ends the run there. */
    std::function<bool()> stop;
};

class Machine
{
  public:
    explicit Machine(const MachineConfig &config = {});
    ~Machine();

    /** Load a linked image and reset the machine to run its query.
     *  @param cold_caches invalidate both caches after the download
     *         (a first run after download); pass false to measure a
     *         warm re-run, as in the paper's best-of-4 protocol. */
    void load(const CodeImage &image, bool cold_caches = true);

    /**
     * Run until a solution, failure, halt, the cycle limit, or a
     * trap. A MachineTrap never escapes this method: it is converted
     * into RunStatus::Trapped with the diagnosis in lastTrap(), the
     * counters rolled back to the last completed instruction
     * boundary, and the machine left valid — it accepts load() (full
     * reset) or, after a resumable trap, resume().
     */
    RunStatus run();

    /** Backtrack into the query and run to the next solution. */
    RunStatus nextSolution();

    /**
     * Continue after RunStatus::Trapped. Only TrapKind::Abort (cycle
     * budget) is resumable from here: the trap was taken at an
     * instruction boundary, so raising the budget (setCycleBudget)
     * and resuming continues the query exactly where it stopped.
     * (StackOverflow is served in-line by firmware stack growth and
     * only surfaces when the ceiling is exhausted; at that point the
     * faulting instruction was partially issued and cannot be
     * replayed.) Resuming any other trap returns Trapped again with
     * lastTrap() unchanged.
     */
    RunStatus resume();

    /** Whether the most recent run()/resume() trapped. */
    bool trapped() const { return trapped_; }

    /** Whether the program executed halt/0 (RunStatus::Halted). */
    bool halted() const { return halted_; }

    /** Diagnosis of the most recent trap (valid while trapped()). */
    const TrapInfo &lastTrap() const { return lastTrap_; }

    /** Raise (or lower) the governor's cycle budget; takes effect on
     *  the next run()/nextSolution()/resume(). */
    void setCycleBudget(uint64_t budget)
    {
        config_.governor.cycleBudget = budget;
        budgetWaived_ = false;
    }

    /**
     * Arm a host-side run slice: execution stops with a resumable
     * Abort trap when cycles() first reaches @p absolute_cycle
     * (0 disarms). Unlike the governor's cycle budget, a slice stop is
     * pure host machinery — it is never delivered to the program as a
     * catchable resource_error ball and is not counted in trapsTaken,
     * so slicing a run (for wall-clock watchdogs or interrupt polls
     * at run-loop boundaries) leaves every simulated metric identical
     * to an unsliced run. Takes effect on the next
     * run()/nextSolution()/resume().
     */
    void setSliceStop(uint64_t absolute_cycle) { sliceStop_ = absolute_cycle; }

    /** Whether the most recent Trapped status was a slice stop (valid
     *  while trapped(); always an Abort, resumable via resume()). */
    bool sliceExpired() const { return sliceExpired_; }

    /**
     * Run the loaded query and backtrack into it for up to @p max
     * solutions: the one host loop over run()/nextSolution()/resume().
     * It ends when @p max solutions are collected, the run fails,
     * halts or reaches maxCycles, a trap is taken, or poll.stop()
     * returns true at a slice boundary. Slices are consecutive
     * windows of simulated time, each poll.nextSlice() cycles long; a
     * solution does not re-arm the window, so stop() is asked at least
     * once per slice however fast solutions come. Slicing leaves every
     * simulated metric identical to an unsliced run (setSliceStop).
     *
     * After it returns, trapped() && sliceExpired() means stop() ended
     * the run (resume() continues it); trapped() alone is a genuine
     * trap (lastTrap()); otherwise the run ended by itself or reached
     * @p max. No slice is left armed.
     */
    std::vector<Solution> solutions(size_t max = SIZE_MAX,
                                    const HostPoll &poll = {});

    /**
     * Attach an externally built dynamic clause store. load() then
     * leaves it untouched instead of creating a fresh store seeded
     * from the image's dynamic declarations/clauses — the bench
     * harness uses this to share one pre-loaded million-fact store
     * across queries. The store's own DynDbConfig governs index
     * behaviour; pass a store built with the same config as this
     * machine for reproducible cycle counts.
     */
    void
    attachDynamicDb(std::shared_ptr<db::ClauseStore> store)
    {
        db_ = std::move(store);
        dbAttached_ = true;
    }

    /**
     * Drop an attached store: the machine holds none until the next
     * load() or snapshot restore makes its own. A snapshot restore
     * into a machine with an attached store replaces that store's
     * contents, so a machine whose store is shared with others (a
     * durable session's) detaches it before being reused.
     */
    void
    detachDynamicDb()
    {
        db_ = nullptr;
        dbAttached_ = false;
    }

    /** The dynamic clause store (created by load(), or attached). */
    const std::shared_ptr<db::ClauseStore> &dynamicDb() const { return db_; }

    /** Bindings recorded by the most recent SolutionFound. */
    const Solution &lastSolution() const { return solution_; }

    // --- measurements ---

    uint64_t cycles() const { return cycles_; }
    uint64_t instructions() const { return instructions_; }
    uint64_t inferences() const { return inferences_; }
    double seconds() const { return double(cycles_) * cycleSeconds; }
    /** Kilo logical inferences per (simulated) second, §4.2. */
    double klips() const;

    /** Reset cycle/inference counters and memory statistics (to
     *  measure a region excluding setup). */
    void resetMeasurement();

    /** Captured output of write/1 and friends. */
    const std::string &output() const { return hostOutput_; }
    void clearOutput() { hostOutput_.clear(); }

    /**
     * Run a sliding mark-compact collection of the global stack
     * (using the word format's GC bits). Safe between instructions.
     * @return the number of words reclaimed.
     */
    uint64_t collectGarbage();

    /** Current global-stack usage in words. */
    Addr
    heapWords() const
    {
        return h_ - mem_->layout().globalStart;
    }

    /** Governed data-zone footprint in bytes: words from each data
     *  zone's start to its current soft limit (full span for zones
     *  without a quota). The quantity the governor's
     *  memoryBudgetBytes ceiling bounds at growth boundaries. */
    uint64_t residentZoneBytes() const;

    /** Re-impose the governor's zone quotas. A snapshot restore
     *  overwrites the zone table with the snapshotted limits; a
     *  warm-template restore under a *different* governor (per-query
     *  memory budget) calls this to put the session's quotas back —
     *  the resulting state matches a fresh load() under that config.
     *  No-op when the governor sets none. */
    void reapplyQuotas() { applyQuotas(); }

    /** The profiler (meaningful when config().profile is set). */
    const Profiler &profiler() const { return profiler_; }

    /** The instruction prefetch unit's pipeline statistics (§3.1.3). */
    const PrefetchUnit &prefetch() const { return prefetch_; }

    /** Disassembled trace of the most recently executed instructions
     *  (newest last) — a debugging aid for trap analysis. */
    std::string recentTrace(size_t max_entries = 32) const;

    /** One-line dump of the machine state registers. */
    std::string stateString() const;

    MemSystem &mem() { return *mem_; }
    StatGroup &stats() { return stats_; }
    const CodeImage &image() const { return image_; }
    /** The predecoded image: entry i decodes image().words[i] (empty
     *  unless config().fastDispatch). */
    const std::vector<DecodedInstr> &predecoded() const { return decoded_; }
    const MachineConfig &config() const { return config_; }

    // Event counters (registered in stats()).
    Counter choicePointsCreated;
    Counter choicePointsAvoided; ///< neck reached with no CP needed
    Counter shallowFails;
    Counter deepFails;
    Counter trailPushes;
    Counter derefSteps;
    Counter bindOps;
    Counter unifyCalls;
    Counter envAllocs;
    Counter cpWordsWritten; ///< words stored saving choice points
    Counter cpWordsRead;    ///< words loaded restoring choice points
    Counter gcRuns;           ///< garbage collections performed
    Counter gcWordsReclaimed; ///< global-stack words reclaimed
    Counter trapsTaken;       ///< traps surfaced as RunStatus::Trapped
    Counter stackZoneGrowths; ///< StackOverflows served by firmware growth

  private:
    friend class BuiltinContext;
    friend struct SnapshotAccess;

    // --- memory helpers (timed) ---
    // Inline: every simulated data access funnels through these two,
    // so they must collapse into MemSystem's inlined hit paths. The
    // cold branches (watchpoint hit, stack-overflow growth/retry)
    // live out of line in machine.cc.
    Word
    readData(Word addr_word)
    {
        return mem_->readData(addr_word, penalty_);
    }

    void
    writeData(Word addr_word, Word value)
    {
        if (watchAddr_ && addr_word.addr() == watchAddr_) [[unlikely]]
            debugWatchWrite(addr_word, value);
        // §3.2.3 firmware handling of the stack-overflow trap: the
        // zone check rejects the access before any state changes,
        // firmware grows the zone (charged its cycle cost), and the
        // access is retried — execution resumes as if the trap never
        // unwound. Only when growth is off or the ceiling is
        // exhausted does the trap escape to the run-loop boundary.
        try {
            mem_->writeData(addr_word, value, penalty_);
        } catch (const MachineTrap &trap) {
            if (trap.kind() != TrapKind::StackOverflow ||
                !growStackZone(addr_word.zone()))
                throw;
            writeDataRetry(addr_word, value);
        }
    }

    /** Retry loop of writeData after a first served StackOverflow. */
    void writeDataRetry(Word addr_word, Word value);
    /** KCM_WATCH_ADDR debug hook (cold). */
    [[gnu::cold, gnu::noinline]] void debugWatchWrite(Word addr_word,
                                                      Word value);
    /** Zone of a data address per the configured layout. */
    Zone zoneOf(Addr a) const;
    Word dataPtr(Addr a) const { return Word::makeDataPtr(zoneOf(a), a); }

    // --- core WAM operations ---
    Word deref(Word w);
    void bind(Word ref_word, Word value);
    void trailIfNeeded(Word ref_word);
    void unwindTrail(Addr target_tr);
    bool unify(Word a, Word b);
    /** Globalize an unbound local variable (returns heap ref). */
    Word globalize(Word ref_word);

    // --- control ---
    void fail();
    void pushChoicePoint(Addr alt, uint32_t arity, Addr saved_h,
                         Addr saved_tr, Addr saved_cp);
    void restoreFromChoicePoint();
    /** Discard the topmost choice point (Trust-style: reload the B
     *  chain through its prevB link). */
    void popChoicePoint();
    void cutTo(Addr target_b);
    void doCall(Addr target, bool is_execute);

    // --- ISO exceptions (catch/3, throw/1) ---
    /** Meta-call dispatch shared by call/1, catch/3 and the recovery
     *  continuation of a delivered ball: tail-jump into the predicate
     *  named by @p goal. Raises instantiation_error /
     *  type_error(callable, Culprit) as Prolog balls; an undefined
     *  predicate warns and fails (consistent with static calls). */
    void metaCall(Word goal);
    /** metaCall with an explicit cut barrier: `!` inside @p goal cuts
     *  alternatives back to @p barrier instead of the B current at
     *  dispatch. Used for dynamic clause bodies, whose cut must prune
     *  the clause-iteration choice point (ISO 7.8.9.1). */
    void metaCallWithBarrier(Word goal, Addr barrier);
    /**
     * Unwind to the innermost catch/3 marker choice point (alt ==
     * image_.catchFailEntry), unify @p ball with the revived Catcher
     * and meta-call the Recovery goal. A failed catcher unification
     * rethrows to the next enclosing marker.
     * @return false when no marker accepts the ball (the caller turns
     *         that into an UnhandledException trap).
     */
    bool deliverBall(const TermRef &ball);
    /** deliverBall or, if uncaught, throw the UnhandledException
     *  MachineTrap carrying the quoted ball text. */
    void raiseBall(const TermRef &ball);
    /** Copy a host term onto the global stack (timed writes); the
     *  inverse of exportTerm. Variables sharing a name share a fresh
     *  heap cell. */
    Word importTerm(const TermRef &term);
    /**
     * Serve a resource trap (StackOverflow past the ceiling, Abort on
     * budget exhaustion) caught at the run()/nextSolution() boundary
     * by delivering a resource_error ball to an enclosing catch/3.
     * @return true when a marker accepted the ball and execution can
     *         re-enter the run loop; false surfaces the trap as
     *         RunStatus::Trapped exactly as before.
     */
    bool convertResourceTrap(const MachineTrap &trap);

    // --- heap building ---
    Word pushHeapCell(Word value);
    Word newHeapVar();

    // --- dynamic clause database (src/db) ---
    /** load()-time store setup: fresh store seeded from the image's
     *  dynamic declarations and clauses, unless one is attached. */
    void seedDynamicDb();
    /** First-argument index key of the (dereferenced) word @p w. */
    db::ArgKey argKeyOf(Word w);
    /** DynamicCall escape / meta-call fallback: dispatch @p f through
     *  the clause store (choice-point-based clause iteration). */
    void execDynamicCall(const Functor &f);
    /** DynamicRetry escape: resume clause iteration after a fail. */
    void execDynamicRetry();
    /** Run one store candidate: import it, unify the head arguments
     *  with X0..Xn-1, meta-call a rule body with @p barrier as the
     *  cut barrier. Facts fall through to the stub's Proceed. */
    void runDynamicClause(const db::StoredClause &clause, uint32_t arity,
                          Addr barrier);
    /** asserta/1 (at_front) and assertz/1. */
    void execAssert(bool at_front);
    /** retract/1 (semidet; see DESIGN.md for the ISO deviation). */
    void execRetract();

    // --- instruction execution ---
    /** Rebuild the host-side views of image_ — the predecoded image
     *  (fast core only) and the profiler's predicate tables — after
     *  load() or a snapshot restore replaced it. A caller that changed
     *  image_.words only in [@p first, @p end) of the words the
     *  predecode last followed, besides growing or shrinking them,
     *  passes that range, and only it is compared. */
    void attachImage(size_t first = 0, size_t end = SIZE_MAX);
    void step();
    /** Dispatch-core selection inside the run-loop trap boundary. */
    RunStatus runLoop();
    /** The token-threaded run loop over the predecoded image
     *  (exec_threaded.cc); built only with KCM_THREADED_DISPATCH. */
    RunStatus runFast();

    // --- trap delivery and the resource governor ---
    /** Convert a trap caught at the run-loop boundary into
     *  RunStatus::Trapped: roll the counters back to the last
     *  instruction boundary and fill lastTrap(). */
    RunStatus recordTrap(const MachineTrap &trap);
    /** Recompute the effective cycle stop and fault arming from the
     *  configuration (run()-entry). */
    void armGovernor();
    /** Impose the governor's zone quotas (load()-time; also public
     *  via reapplyQuotas() for warm-template restores). */
    void applyQuotas();
    /** Serve a StackOverflow on @p zone by firmware growth; charges
     *  the documented cycle cost. @return false if not growable or
     *  the ceiling is exhausted. */
    bool growStackZone(Zone zone);
    /** Apply every FaultPlan action whose cycle has arrived. */
    void applyDueFaults();
    /** The governor's budget or a slice stop fired, between
     *  instructions (cold): the budget throws its Abort trap to the
     *  run-loop boundary in run(); a slice stop returns Trapped with
     *  sliceExpired() set and throws nothing. */
    [[gnu::cold, gnu::noinline]] RunStatus takeCycleStop();
    /** Fetch + decode the instruction at P: per-step prologue shared
     *  by the oracle and fast paths (GC check, prefetch accounting,
     *  code-cache fetch, trace, profiler). */
    const DecodedInstr &fetchDecoded();
    /** Per-step epilogue shared by both paths: instruction/cycle/
     *  inference accounting and the PC advance. */
    void finishStep(const DecodedInstr &instr);
    void execInstr(const DecodedInstr &instr);
    void execUnifyClass(const DecodedInstr &instr);
    void execIndex(const DecodedInstr &instr);
    void execArith(const DecodedInstr &instr);
    void execEscape(const DecodedInstr &instr);

    // Per-opcode handlers (exec_ops.hh), shared verbatim between the
    // oracle switch (execInstr) and the threaded core (runFast).
    void opHalt(const DecodedInstr &);
    void opJump(const DecodedInstr &);
    void opCall(const DecodedInstr &);
    void opExecute(const DecodedInstr &);
    void opProceed(const DecodedInstr &);
    void opAllocate(const DecodedInstr &);
    void opDeallocate(const DecodedInstr &);
    void opGetVariableX(const DecodedInstr &);
    void opGetVariableY(const DecodedInstr &);
    void opGetValueX(const DecodedInstr &);
    void opGetValueY(const DecodedInstr &);
    void opGetConstant(const DecodedInstr &); ///< also get_nil
    void opGetList(const DecodedInstr &);
    void opGetStructure(const DecodedInstr &);
    void opPutVariableX(const DecodedInstr &);
    void opPutVariableY(const DecodedInstr &);
    void opPutValueX(const DecodedInstr &);
    void opPutValueY(const DecodedInstr &);
    void opPutUnsafeValue(const DecodedInstr &);
    void opPutConstant(const DecodedInstr &);
    void opPutNil(const DecodedInstr &);
    void opPutList(const DecodedInstr &);
    void opPutStructure(const DecodedInstr &);
    void opMove2(const DecodedInstr &);
    void opLoadImm(const DecodedInstr &);
    void opSwapTV(const DecodedInstr &);
    void opLoad(const DecodedInstr &);
    void opStore(const DecodedInstr &);
    [[noreturn]] void opBadInstruction(const DecodedInstr &);

    /** Unify-with-mode subterm access. */
    Word nextSubterm();

    // --- term exchange with the host ---
    /** The variable each unbound cell exported so far became. */
    using ExportVars = std::map<Addr, TermRef>;
    /** Copy @p w out as a host term (untimed reads). An unbound cell
     *  becomes one variable, named "_G<addr>", wherever it occurs in
     *  one export: the term, or every term exported into @p vars. */
    TermRef exportTerm(Word w);
    TermRef exportTerm(Word w, ExportVars &vars, int depth = 0);
    /** The collect-solution escape: export the query variables' slots,
     *  as one export, into solution_. */
    void collectSolution();
    void hostWrite(const std::string &text);

    // --- state ---
    MachineConfig config_;
    std::unique_ptr<MemSystem> mem_;
    CodeImage image_;

    /** Dynamic clause store (logical update view; src/db). Host-side
     *  state: lookups charge simulated scan cycles, but the store
     *  itself lives outside the simulated memory map. */
    std::shared_ptr<db::ClauseStore> db_;
    /** An external store was attached; load() leaves it alone. */
    bool dbAttached_ = false;

    // Register file: X registers (argument/temporary).
    Word x_[numXRegs];

    // Machine state registers.
    Addr p_ = 0;       ///< program counter (code space)
    Addr nextP_ = 0;   ///< address of the following instruction
    Addr cpCont_ = 0;  ///< continuation code pointer
    Addr h_ = 0;       ///< top of global stack
    Addr hb_ = 0;      ///< heap backtrack boundary
    Addr s_ = 0;       ///< structure pointer
    Addr tr_ = 0;      ///< top of trail
    Addr e_ = 0;       ///< current environment
    Addr lt_ = 0;      ///< top of local stack
    Addr lb_ = 0;      ///< local backtrack boundary
    Addr b_ = 0;       ///< current choice point
    Addr ct_ = 0;      ///< top of control stack
    Addr b0_ = 0;      ///< cut barrier of the current call
    bool writeMode_ = false;

    // Shallow backtracking state (§3.1.5).
    bool shallowFlag_ = false;
    bool cpFlag_ = false;
    Addr shadowH_ = 0, shadowTR_ = 0, shadowCP_ = 0;
    Addr pendingAlt_ = 0;
    uint32_t pendingArity_ = 0;

    // Counters and run bookkeeping.
    uint64_t cycles_ = 0;
    uint64_t instructions_ = 0;
    uint64_t inferences_ = 0;
    unsigned penalty_ = 0; ///< per-step memory penalty accumulator
    Addr watchAddr_ = 0;   ///< KCM_WATCH_ADDR debug watchpoint (0 = off)
    Addr expectedNextP_ = 0; ///< the prefetcher's streamed target
    bool halted_ = false;
    bool haltFailed_ = false;
    bool solutionReady_ = false;
    Solution solution_;
    std::string hostOutput_;

    // Trap delivery and governor state.
    /** cycles_ at the last instruction boundary: a trap thrown
     *  mid-instruction rolls back to this, so a trapped run reports
     *  the identical cycle count from both dispatch cores. */
    uint64_t stepStartCycles_ = 0;
    /** What an expired cycle stop means: the informational CycleLimit
     *  status, the governor's Abort trap, or a host slice stop (an
     *  Abort trap that is never converted into a resource_error
     *  ball and never counted in trapsTaken). */
    enum class StopKind : uint8_t { Limit, Budget, Slice };
    /** Effective cycle stop: min of maxCycles, the governor's budget
     *  and the armed slice stop (0 = none); stopKind_ picks the
     *  behaviour when it fires. */
    uint64_t stopCycles_ = 0;
    StopKind stopKind_ = StopKind::Limit;
    /** Armed slice stop (absolute cycle; 0 = off). */
    uint64_t sliceStop_ = 0;
    /** The most recent trap was a slice stop (valid while trapped_). */
    bool sliceExpired_ = false;
    /** A caught resource_error(abort) spends the budget for the rest
     *  of this query: armGovernor() stops re-arming it, so
     *  backtracking after the recovery goal does not re-trap. Cleared
     *  by load() and setCycleBudget(). */
    bool budgetWaived_ = false;
    bool trapped_ = false;
    TrapInfo lastTrap_;
    size_t faultCursor_ = 0;    ///< next unapplied FaultPlan action
    bool faultsPending_ = false;

    // Execution trace ring buffer (debugging).
    static constexpr size_t traceSize = 128;
    struct TraceEntry
    {
        Addr p = 0;
        uint64_t raw = 0;
    };
    TraceEntry trace_[traceSize];
    size_t traceHead_ = 0;

    Profiler profiler_;
    PrefetchUnit prefetch_;

    /** The predecoded image (index i = address image_.base + i);
     *  empty unless config_.fastDispatch. */
    std::vector<DecodedInstr> decoded_;
    /** decoded_ as it was before an empty image arrived (the pristine
     *  reset of a pooled machine), taken back by the next image. */
    std::vector<DecodedInstr> setAsideDecoded_;
    /** Decode-per-step scratch slot for the oracle path and for
     *  fetches outside the predecoded image. */
    DecodedInstr scratchDecoded_;

    /**
     * Host-side table of environment bases to their Y counts (debug
     * information for the garbage collector). A flat array indexed by
     * (base - localStart), grown on demand, so the Allocate fast path
     * is a bounds check plus one store — no ordered-map insert.
     */
    std::vector<uint32_t> envSizes_;

    /** Record that the environment at @p e has @p n permanent vars. */
    void
    noteEnvSize(Addr e, uint32_t n)
    {
        size_t idx = size_t(e) - mem_->layout().localStart;
        if (idx >= envSizes_.size()) [[unlikely]]
            envSizes_.resize(idx + 1, 0);
        envSizes_[idx] = n;
    }

    /** Y count recorded for environment base @p e (0 if unknown). */
    uint32_t
    envSizeOf(Addr e) const
    {
        size_t idx = size_t(e) - mem_->layout().localStart;
        return idx < envSizes_.size() ? envSizes_[idx] : 0;
    }

    StatGroup stats_;
};

// Per-step prologue/epilogue, inline so both the oracle loop
// (machine.cc) and the threaded core (exec_threaded.cc) compile them
// into their dispatch loops. Any change here changes both paths —
// which is the point: the two must stay cycle-for-cycle identical.

inline const DecodedInstr &
Machine::fetchDecoded()
{
    // Instruction boundary: the roll-back anchor for trap-safe
    // counter reporting, and the deterministic point where scripted
    // faults are injected (identically on both dispatch cores).
    stepStartCycles_ = cycles_;
    if (faultsPending_) [[unlikely]]
        applyDueFaults();
    if (config_.gcThresholdWords &&
        h_ - mem_->layout().globalStart > config_.gcThresholdWords) {
        collectGarbage();
    }
    penalty_ = 0;
    prefetch_.onFetch(p_, expectedNextP_);
    const DecodedInstr *d;
    size_t idx = size_t(p_) - image_.base;
    if (idx < decoded_.size()) [[likely]] {
        // Predecoded: the code cache is still consulted for timing
        // and statistics, but the word needs no re-decode.
        mem_->touchCode(p_, penalty_);
        d = &decoded_[idx];
    } else {
        scratchDecoded_ = decodeInstr(mem_->fetchCode(p_, penalty_));
        d = &scratchDecoded_;
    }
    nextP_ = p_ + 1;

    trace_[traceHead_] = {p_, d->raw};
    traceHead_ = (traceHead_ + 1) % traceSize;

    if (config_.profile) [[unlikely]] {
        Opcode op = d->opcode();
        bool is_call = op == Opcode::Call || op == Opcode::Execute;
        profiler_.record(op, is_call ? d->value : 0);
    }
    return *d;
}

inline void
Machine::finishStep(const DecodedInstr &instr)
{
    ++instructions_;
    cycles_ += instr.baseCycles;
    if (config_.timeMemory)
        cycles_ += penalty_;
    if (instr.inferenceMark)
        ++inferences_;

    // The prefetcher would have streamed p_+1 (or, for a multi-word
    // switch, the word after its table) next.
    expectedNextP_ = p_ + 1;
    p_ = nextP_;
}

// The per-access core operations below run several times per
// simulated instruction from the opcode handlers (exec_ops.hh), which
// are compiled into both machine.cc and exec_threaded.cc — inline
// here so each core folds them into MemSystem's inlined hit paths
// instead of paying a cross-object call per dereference step.

inline Zone
Machine::zoneOf(Addr a) const
{
    const DataLayout &layout = mem_->layout();
    if (a >= layout.globalStart && a < layout.globalEnd)
        return Zone::Global;
    if (a >= layout.localStart && a < layout.localEnd)
        return Zone::Local;
    if (a >= layout.controlStart && a < layout.controlEnd)
        return Zone::Control;
    if (a >= layout.trailStart && a < layout.trailEnd)
        return Zone::TrailZ;
    if (a >= layout.staticStart && a < layout.staticEnd)
        return Zone::Static;
    return Zone::None;
}

inline Word
Machine::deref(Word w)
{
    // The data cache starts a dereferencing operation speculatively
    // during the instruction's own access cycle (§3.1.4), so the
    // first step of a chain is free; further references cost one
    // cycle each.
    bool first = true;
    while (w.isRef()) {
        Word v = readData(w);
        ++derefSteps;
        if (!first)
            ++cycles_; // one reference per cycle (§3.1.4)
        if (!config_.fastDereference)
            ++cycles_; // no speculative start: request + read
        first = false;
        if (v.raw() == w.raw())
            return w; // unbound: self reference
        if (!v.isRef())
            return v;
        w = v;
    }
    return w;
}

inline void
Machine::trailIfNeeded(Word ref_word)
{
    // The trail comparators work in parallel with dereferencing
    // (§3.1.5): no cycle cost for the check itself.
    Addr a = ref_word.addr();
    bool need;
    bool shallow_pending =
        config_.shallowBacktracking && shallowFlag_ && !cpFlag_;
    if (ref_word.zone() == Zone::Global) {
        Addr boundary = shallow_pending ? shadowH_ : hb_;
        need = a < boundary;
    } else {
        Addr boundary = shallow_pending ? lt_ : lb_;
        need = a < boundary;
    }
    if (!config_.parallelTrailCheck)
        cycles_ += 2; // serialized boundary comparisons
    if (need) {
        writeData(dataPtr(tr_), ref_word);
        ++tr_;
        ++trailPushes;
    }
}

inline void
Machine::bind(Word ref_word, Word value)
{
    trailIfNeeded(ref_word);
    writeData(ref_word, value);
    ++bindOps;
}

inline Word
Machine::newHeapVar()
{
    Word var = Word::makeRef(Zone::Global, h_);
    writeData(var, var);
    ++h_;
    return var;
}

inline Word
Machine::pushHeapCell(Word value)
{
    Word addr_word = Word::makeDataPtr(Zone::Global, h_);
    writeData(addr_word, value);
    ++h_;
    return addr_word;
}

inline Word
Machine::globalize(Word ref_word)
{
    Word hv = newHeapVar();
    bind(ref_word, hv);
    return hv;
}

} // namespace kcm

#endif // KCM_CORE_MACHINE_HH
