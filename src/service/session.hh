/**
 * @file
 * Session: one supervised query on one machine.
 *
 * The paper's system picture (§2, Fig. 1) is a host driving a KCM
 * back end: the host compiles and downloads an image, the KCM runs
 * it, and the host collects solutions. A Session is that host-side
 * protocol hardened for a serving deployment: it wraps one Machine
 * plus one linked image and runs the query to completion under
 *
 *  - a governor budget (cycles, stack quotas — MachineConfig),
 *  - a wall-clock deadline per attempt,
 *  - periodic snapshot checkpoints taken at run-loop boundaries
 *    (every K simulated megacycles, configurable), and
 *  - a crash-recovery loop: when the machine traps (page fault,
 *    FaultPlan corruption, stack ceiling) the session restores the
 *    last checkpoint, dismisses the not-yet-fired scripted faults
 *    (transient-fault model) and retries with exponential backoff up
 *    to a retry budget; if a restored checkpoint re-traps without
 *    making progress the fault is baked into the snapshot (armed MMU
 *    fault, tightened zone, latent corrupt word) and the session
 *    escalates to a full restart on a fresh machine. When the budget
 *    is exhausted the query fails *cleanly* with a structured
 *    FailureReport — never a hang, never a crash, never a silently
 *    wrong answer.
 *
 * Checkpoint slicing rides on Machine::setSliceStop(), which is pure
 * host machinery: a fault-free run with checkpointing enabled reports
 * bit-identical simulated cycles and counters to one without. A
 * warm-started session's checkpoint zero is the shared template
 * itself: nothing is snapshotted before the first slice, and a
 * recovery to it restores the template exactly as the warm start did.
 */

#ifndef KCM_SERVICE_SESSION_HH
#define KCM_SERVICE_SESSION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/code_image.hh"
#include "core/machine.hh"
#include "core/snapshot.hh"
#include "db/journal.hh"

namespace kcm::service
{

/** Per-session policy (machine config + supervision knobs). */
struct SessionOptions
{
    MachineConfig machine;

    /**
     * Durable dynamic database (null = per-session in-memory store).
     * When set, the session attaches the shared journaled store to
     * its machine, serializes on its mutex, runs the query inside a
     * store transaction, and — before run() returns, i.e. before any
     * reply is written — journals the op batch on completion or rolls
     * it back on failure. Checkpoint recovery and retries are forced
     * off in this mode: a snapshot restore would replace the attached
     * store contents mid-transaction.
     */
    std::shared_ptr<db::JournaledStore> durableDb;

    /** Checkpoint interval in simulated megacycles (0 = no periodic
     *  checkpoints; the post-load checkpoint is still taken when
     *  recovery is enabled). */
    uint64_t checkpointEveryMcycles = 4;

    /** Wall-clock deadline per attempt in milliseconds (0 = none). A
     *  blown deadline is handled like a trap: restore + retry, then a
     *  clean "deadline_exceeded" failure. */
    uint64_t deadlineMs = 0;

    /**
     * End-to-end absolute deadline: steady-clock nanoseconds since
     * the clock's epoch (0 = none) — the propagated form of a
     * client's wire deadline. Unlike deadlineMs this budget is never
     * extended by retries: the session converts the remaining wall
     * budget into governor cycle slices (using the observed
     * simulation rate) so the query stops *itself* at the boundary,
     * and expiry is a terminal "deadline_exceeded" failure carrying
     * the simulated cycles spent.
     */
    uint64_t deadlineAbsNs = 0;

    /** Recovery attempts after the first (0 = fail on first trap). */
    unsigned maxRetries = 3;

    /** First retry backoff; doubles per subsequent retry. Kept small
     *  by default — the backoff is for politeness under load, not
     *  correctness. */
    uint64_t backoffBaseMs = 1;

    /** Collect at most this many solutions (0 = all). */
    size_t maxSolutions = 1;

    /** Watchdog slice in cycles when no checkpoint interval is set
     *  but a deadline is (how often the wall clock is polled). */
    uint64_t watchdogSliceCycles = 4'000'000;

    /** Poll the process-wide interrupt flag (requestServiceInterrupt,
     *  set by the drivers' SIGINT/SIGTERM handlers or by a server
     *  drain that ran out of grace) at slice boundaries and abort the
     *  query with a clean "interrupted" failure. Arms the watchdog
     *  slice even without a deadline so the poll actually happens. */
    bool abortOnInterrupt = false;
};

/** Why a supervised query could not be served. */
struct FailureReport
{
    /** Machine-readable classification, always a re-readable Prolog
     *  term: "resource_error(<kind>)", "machine_trap(<kind>)",
     *  "deadline_exceeded" (per-attempt or propagated absolute
     *  deadline), "overloaded", "interrupted" (aborted by a shutdown
     *  request at an instruction boundary) or
     *  "corrupt_image_template" (a warm-start
     *  snapshot failed its checksum verification; the caller evicts
     *  and recompiles). */
    std::string classification;

    TrapKind trapKind = TrapKind::Abort;
    std::string detail;       ///< trap message of the final attempt

    unsigned attempts = 0;    ///< attempts made (1 = no retries)
    uint64_t cyclesLost = 0;  ///< simulated cycles discarded by recovery
    uint64_t checkpointAgeCycles = 0; ///< fail cycle - last checkpoint
};

/** How a supervised query ended. */
enum class QueryStatus
{
    Completed, ///< ran to completion (solutions, failure, halt — and
               ///< program-level errors like an uncaught ball)
    Failed,    ///< could not be served; see FailureReport
    Shed,      ///< evicted from the admission queue (FailureReport
               ///< classification "overloaded")
};

/** Robustness counters for one session (also aggregated service-wide
 *  by the Supervisor). */
struct SessionCounters
{
    unsigned retries = 0;          ///< checkpoint restores performed
    unsigned restarts = 0;         ///< full fresh-machine restarts
    uint64_t checkpoints = 0;      ///< snapshots taken
    uint64_t checkpointBytes = 0;  ///< total snapshot bytes
    uint64_t recoveryCycles = 0;   ///< simulated cycles re-lost to recovery
};

/** Everything one supervised query produces. */
struct QueryOutcome
{
    QueryStatus status = QueryStatus::Completed;

    // Completed payload (mirrors KcmSystem::QueryResult).
    bool success = false;             ///< at least one solution
    std::vector<Solution> solutions;
    std::string output;               ///< captured write/1 output
    bool halted = false;
    /** Program-level diagnosis (e.g. "unhandled_exception(<ball>)");
     *  a program outcome, not a service failure, so it is never
     *  retried — the baseline interpreter reports it identically. */
    std::string error;

    FailureReport failure;            ///< valid when status != Completed

    // Simulated measurements of the (final, successful) attempt.
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t inferences = 0;
    double wallSeconds = 0;

    // Durable-database accounting (durableDb sessions only).
    uint64_t dbOps = 0;      ///< mutations committed by this query
    uint64_t dbCommitId = 0; ///< journal commit id (0 = no mutations)

    SessionCounters counters;
};

/** Ask every session with abortOnInterrupt set to stop at its next
 *  slice boundary (async-signal-safe; called from signal handlers). */
void requestServiceInterrupt();

/** Clear the interrupt flag (tests; a server arming a fresh drain). */
void clearServiceInterrupt();

/** Whether requestServiceInterrupt() has been called. */
bool serviceInterruptRequested();

/**
 * One supervised query: machine + image + recovery loop.
 * Construct, call run() once, read the outcome; a warm session's
 * machine may then be released for the next warm session. Not
 * thread-safe; each worker thread owns its sessions exclusively.
 */
class Session
{
  public:
    Session(CodeImage image, SessionOptions options);

    /**
     * Warm start: instead of compiling and load()ing an image, the
     * session restores a post-download KCMSNAP5 template (the state a
     * load() of the compiled image produces) into its machine — the
     * server's snapshot-template cache path. The template buffer is
     * shared between concurrent sessions and never modified; if its
     * checksums fail verification on restore the session fails
     * cleanly with classification "corrupt_image_template" so the
     * owner can evict the entry and recompile.
     *
     * @p machine, when given, is restored into instead of building a
     * fresh one: a machine from an earlier session's releaseMachine(),
     * built under the same MachineConfig as options.machine. The
     * restore overwrites all of its state, so the run is exactly a
     * fresh machine's.
     */
    Session(std::shared_ptr<const Snapshot> warm_template,
            SessionOptions options,
            std::unique_ptr<Machine> machine = nullptr);

    ~Session();

    /** Execute the query to completion under supervision. */
    QueryOutcome run();

    /**
     * Hand the machine over for reuse by a later warm session under
     * the same MachineConfig (null when run() built none). A durable
     * store is detached first: left attached, the next restore would
     * load the template's store into the shared durable one. After a
     * fresh-machine restart this is the replacement machine.
     */
    std::unique_ptr<Machine> releaseMachine();

    const SessionCounters &counters() const { return counters_; }

  private:
    struct Checkpoint
    {
        /** The machine state to restore; for a warm session's
         *  checkpoint zero, the shared template itself. */
        std::shared_ptr<const Snapshot> snap;
        size_t solutionCount = 0; ///< host-collected solutions so far
        bool resumeAfterRestore = false; ///< restore into resume()?
        uint64_t cycle = 0;       ///< cycles() at snapshot time
    };

    /** Make @p state (a fresh snapshot of the machine when null) the
     *  checkpoint recover() returns to. */
    void checkpoint(std::shared_ptr<const Snapshot> state,
                    size_t solution_count, bool resume_after);
    bool coldStart(); ///< load the image / restore the template
    bool restartFresh();

    CodeImage image_;
    std::shared_ptr<const Snapshot> template_;
    SessionOptions options_;
    std::unique_ptr<Machine> machine_;
    Checkpoint checkpoint_;
    SessionCounters counters_;
    std::string templateError_; ///< set when a template restore failed
};

} // namespace kcm::service

#endif // KCM_SERVICE_SESSION_HH
