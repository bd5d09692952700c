/**
 * @file
 * Session: one supervised query on one machine.
 *
 * The paper's system picture (§2, Fig. 1) is a host driving a KCM
 * back end: the host compiles and downloads an image, the KCM runs
 * it, and the host collects solutions. A Session is that host-side
 * protocol for a serving deployment: it restores one post-download
 * template (the state a load() of the compiled image leaves) into one
 * Machine and runs the query once, to completion, under
 *
 *  - a governor budget (cycles, stack quotas — MachineConfig),
 *  - a terminal wall-clock deadline (deadlineMs from the start of the
 *    run, or a propagated absolute one; the earlier wins), and
 *  - the process-wide interrupt flag (a server drain past its grace).
 *
 * The back end is deterministic: a trap (page fault, zone violation,
 * cycle or memory budget) recurs at the same cycle whenever the same
 * image runs under the same config, so the session never re-runs a
 * query. A query that cannot be served fails once, *cleanly*, with a
 * structured FailureReport — never a hang, never a crash, never a
 * silently wrong answer.
 *
 * The run is one call to Machine::solutions, whose host poll sizes
 * the slices and checks the interrupt flag and the deadline at each
 * slice boundary. Slices are consecutive windows of simulated time, so
 * a query that enumerates fast is still polled once per slice, and
 * they are pure host machinery: a sliced run reports bit-identical
 * simulated cycles and counters to an unsliced one.
 */

#ifndef KCM_SERVICE_SESSION_HH
#define KCM_SERVICE_SESSION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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
     * it back on failure.
     */
    std::shared_ptr<db::JournaledStore> durableDb;

    /** Wall-clock deadline in milliseconds from the start of run()
     *  (0 = none). Terminal: the session folds it into deadlineAbsNs
     *  (the earlier one wins) and fails "deadline_exceeded" when it
     *  passes. */
    uint64_t deadlineMs = 0;

    /**
     * End-to-end absolute deadline: steady-clock nanoseconds since
     * the clock's epoch (0 = none) — the propagated form of a
     * client's wire deadline. The session converts the remaining wall
     * budget into governor cycle slices (using the observed
     * simulation rate) so the query stops *itself* at the boundary,
     * and expiry is a terminal "deadline_exceeded" failure carrying
     * the simulated cycles spent.
     */
    uint64_t deadlineAbsNs = 0;

    /** Collect at most this many solutions (0 = all). */
    size_t maxSolutions = 1;

    /** Watchdog slice in cycles when a deadline or abortOnInterrupt
     *  is set (how often the wall clock and the flag are polled). */
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
     *  "deadline_exceeded" (deadlineMs or the propagated absolute
     *  deadline), "overloaded", "interrupted" (aborted by a shutdown
     *  request at an instruction boundary) or
     *  "corrupt_image_template" (a warm-start
     *  snapshot failed its checksum verification; the caller evicts
     *  and recompiles). */
    std::string classification;

    std::string detail;       ///< trap or failure message

    unsigned attempts = 0;    ///< 1 = a session took it, 0 = shed
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

/** Everything one supervised query produces. */
struct QueryOutcome
{
    QueryStatus status = QueryStatus::Completed;

    // Completed payload (the fields it shares with
    // KcmSystem::QueryResult mean the same).
    bool success = false;             ///< at least one solution
    std::vector<Solution> solutions;
    std::string output;               ///< captured write/1 output
    bool halted = false;
    /** Program-level diagnosis (e.g. "unhandled_exception(<ball>)");
     *  a program outcome, not a service failure — the baseline
     *  interpreter reports it identically. */
    std::string error;

    FailureReport failure;            ///< valid when status != Completed

    // Simulated measurements of the run.
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t inferences = 0;
    double wallSeconds = 0;

    // Durable-database accounting (durableDb sessions only).
    uint64_t dbOps = 0;      ///< mutations committed by this query
    uint64_t dbCommitId = 0; ///< journal commit id (0 = no mutations)
};

/** Ask every session with abortOnInterrupt set to stop at its next
 *  slice boundary (async-signal-safe; called from signal handlers). */
void requestServiceInterrupt();

/** Clear the interrupt flag (tests; a server arming a fresh drain). */
void clearServiceInterrupt();

/** Whether requestServiceInterrupt() has been called. */
bool serviceInterruptRequested();

/**
 * One supervised query: machine + template + run.
 * Construct, call run() once, read the outcome; the machine may then
 * be released for the next session. Not thread-safe; each worker
 * thread owns its sessions exclusively.
 */
class Session
{
  public:
    /**
     * The session restores @p warm_template, a post-download snapshot
     * template (the state a load() of the compiled image produces),
     * into its machine — the server's snapshot-template cache path.
     * The template buffer is shared between concurrent sessions and
     * never modified; if its checksums fail verification on restore
     * the session fails cleanly with classification
     * "corrupt_image_template" so the owner can evict the entry and
     * recompile.
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
     * Hand the machine over for reuse by a later session under the
     * same MachineConfig (null before run() when none was given). A durable
     * store is detached first: left attached, the next restore would
     * load the template's store into the shared durable one. A
     * machine whose query trapped is handed over as it stands: the
     * next restore overwrites all of its state.
     */
    std::unique_ptr<Machine> releaseMachine();

  private:
    std::shared_ptr<const Snapshot> template_;
    SessionOptions options_;
    std::unique_ptr<Machine> machine_;
};

} // namespace kcm::service

#endif // KCM_SERVICE_SESSION_HH
