/**
 * @file
 * Supervisor: N supervised sessions over a worker-thread pool.
 *
 * The serving half of the host in the paper's Fig. 1 system picture:
 * clients submit post-download templates of compiled queries
 * (submitAsync, the one entry point), a bounded admission queue feeds
 * a pool of worker threads, and each worker runs one Session (machine
 * + run) per query and hands its outcome to the query's callback. A
 * query under the pool's own MachineConfig restores into an idle
 * machine from a shared LIFO stack instead of building one; the
 * restore overwrites all of its state, a trapped query's included, so
 * reuse is invisible to every simulated metric. The server's compile
 * miss borrows from the same stack to take its template
 * (borrowMachine / returnMachine).
 * Robustness policies live here:
 *
 *  - load shedding: the admission queue is bounded; when it is full,
 *    the queued query with the *earliest deadline* is evicted (it is
 *    the one most likely to blow its deadline anyway) and completes
 *    immediately with a classified "overloaded" failure — clients
 *    always get an answer, never a hang;
 *  - deadline propagation: a query carrying an absolute deadline is
 *    shed — classified "deadline_exceeded", zero cycles burned — at
 *    admission or dequeue when the deadline has passed or the
 *    predicted queue wait (observed per-shape latency × backlog)
 *    makes it unmeetable; what survives runs under the Session's
 *    deadline-to-cycle-slice conversion;
 *  - memory governance: every admitted query charges its governor
 *    byte budget (or a configured default) against a global resident
 *    budget; admission is refused — classified "overloaded" — when
 *    the aggregate would exceed it;
 *  - aggregate counters (completed, failed and shed queries, memory
 *    aborts, durable commits).
 *
 * startPaused + resume() let tests fill the admission queue and
 * observe shedding without racing the workers.
 */

#ifndef KCM_SERVICE_SUPERVISOR_HH
#define KCM_SERVICE_SUPERVISOR_HH

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/session.hh"

namespace kcm::service
{

/** One client query, as submitted. */
struct QueryJob
{
    std::string id;   ///< client tag, echoed in the result
    std::string goal; ///< query text (for reports; already compiled)

    /** Wall-clock deadline for this query in milliseconds, counted
     *  from the start of its session's run, not from submission (0 =
     *  the session default). Also the load-shedding eviction key:
     *  earliest deadline is shed first. */
    uint64_t deadlineMs = 0;

    /** End-to-end absolute deadline in steady-clock nanoseconds
     *  (0 = none) — the propagated form of the client's wire
     *  deadline. The supervisor sheds the query when it cannot be
     *  met; the session stops itself at the boundary. */
    uint64_t deadlineAbsNs = 0;

    /** Query-shape key (the server's image-cache hash over program,
     *  goal and machine config; 0 = untracked). Keys the per-shape
     *  latency estimate that drives deadline shedding. */
    uint64_t shapeKey = 0;

    /** Per-query machine configuration (e.g. a per-tenant governor,
     *  or a fault-injection script in the chaos harness); the pool's
     *  session config when unset. */
    std::optional<MachineConfig> machine;

    /** Per-query solution cap (the server's "max_solutions" request
     *  field); the pool's session default when unset. */
    std::optional<size_t> maxSolutions;
};

/** Aggregate counters across all sessions. */
struct ServiceStats
{
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t shed = 0;
    uint64_t dbCommits = 0; ///< journaled durable-db commits
    uint64_t dbOps = 0;     ///< mutations across those commits

    // Self-defense counters.
    uint64_t deadlinePropagatedSheds = 0; ///< shed before execution
    uint64_t memAborts = 0; ///< queries failed resource_error(memory)
    uint64_t memAdmissionRefusals = 0; ///< global memory budget hits
    uint64_t memChargedBytes = 0; ///< gauge: bytes currently charged
};

struct SupervisorOptions
{
    SessionOptions session;

    /** Worker threads executing sessions. */
    unsigned workers = 4;

    /** Admission-queue bound; a submit beyond it sheds the queued
     *  query with the earliest deadline. */
    size_t maxQueueDepth = 64;

    /** Create the pool idle; no query runs until resume(). Lets a
     *  client (or test) fill the admission queue deterministically. */
    bool startPaused = false;

    /**
     * Aggregate resident-byte budget across all queued and running
     * queries (0 = unlimited). Each query charges its governor's
     * memoryBudgetBytes — or defaultMemoryChargeBytes when
     * ungoverned — at admission and releases it at completion; an
     * admission that would cross the budget is refused with a
     * classified "overloaded" failure (memAdmissionRefusals).
     */
    uint64_t globalMemoryBudgetBytes = 0;

    /** Charge assumed for a query with no per-query memory budget:
     *  the full span of the four governed data zones. */
    uint64_t defaultMemoryChargeBytes = 32ull << 20;
};

/**
 * The session pool. submitAsync() templates; each outcome arrives
 * through its callback. Thread-safe against concurrent submitters.
 */
class Supervisor
{
  public:
    /** Completion callback for submitAsync(): runs on the worker
     *  thread that executed (or the submitting thread that shed) the
     *  query. Must not call back into this Supervisor. */
    using Completion = std::function<void(QueryOutcome)>;

    explicit Supervisor(SupervisorOptions options);
    ~Supervisor();

    /**
     * Admit a query that restores the shared post-download snapshot
     * template @p tmpl (Session verifies its checksums on restore).
     * Its outcome is delivered through @p done — also for a refused
     * or shed query, whose callback fires with the classified failure
     * before submitAsync returns. A full admission queue sheds the
     * earliest-deadline queued query. Thread-safe against concurrent
     * submitters.
     */
    void submitAsync(QueryJob job, std::shared_ptr<const Snapshot> tmpl,
                     Completion done);

    /** Queued-but-not-yet-running queries (admission backlog; the
     *  server's retry-after hint scales with it). */
    size_t queueDepth() const;

    /** Start the workers (after startPaused). */
    void resume();

    /** Close admissions, run everything down (every callback has
     *  returned) and join the workers. */
    void drain();

    /** Aggregate counters (stable after drain()). */
    ServiceStats stats() const;

    /**
     * A machine under the pool's MachineConfig in the state a newly
     * built one has: the top of the idle stack, reset by restoring the
     * pristine snapshot (a plain load() into a used machine is not a
     * full reset), or a new machine when the stack is empty. The
     * server's compile miss loads and snapshots its template on it and
     * hands it back, so the worker that runs the query pops the same
     * machine. Thread-safe.
     */
    std::unique_ptr<Machine> borrowMachine();

    /** Push @p machine, built under the pool's MachineConfig, onto
     *  the idle stack; it is destroyed instead when the stack already
     *  holds one machine per worker. Thread-safe. */
    void returnMachine(std::unique_ptr<Machine> machine);

    /** Machines on the idle stack (never more than the workers). */
    size_t idleMachines() const;

    /** Slots of the per-shape latency table: shape keys equal modulo
     *  this share one slot, and the later one resets it. */
    static constexpr size_t shapeSlots = 1024;

  private:
    using Clock = std::chrono::steady_clock;

    struct Pending
    {
        QueryJob job;
        std::shared_ptr<const Snapshot> tmpl; ///< template to restore
        Completion done;                      ///< outcome delivery
        uint64_t deadlineKeyMs = 0;           ///< eviction key
        uint64_t memCharge = 0;   ///< bytes charged while admitted
    };

    /** Whether @p p runs on a machine from idleMachines_. */
    static bool pooled(const Pending &p);
    /** A new machine under the pool's MachineConfig; the first one
     *  built also yields pristine_, before it ever runs. */
    std::unique_ptr<Machine> buildMachine();
    void workerMain();
    void enqueue(std::unique_ptr<Pending> pending);
    QueryOutcome shedOneLocked(Completion &shed_cb);
    void bumpStatsLocked(const QueryOutcome &outcome);
    void recordShapeLatencyLocked(uint64_t shape_key, double ms);
    uint64_t memChargeFor(const QueryJob &job) const;
    /** Whether job's absolute deadline is unmeetable given the
     *  backlog and the shape's latency estimate (mutex_ held). */
    bool deadlineUnmeetableLocked(const QueryJob &job) const;
    QueryOutcome deadlineShedOutcome(const QueryJob &job,
                                     const char *where) const;

    SupervisorOptions options_;

    mutable std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    std::deque<std::unique_ptr<Pending>> queue_;
    size_t outstanding_ = 0;
    bool paused_ = false;
    bool stopping_ = false;
    ServiceStats stats_;

    /** Completed-latency EWMA per shape key (ms); its one reader is
     *  deadlineUnmeetableLocked's predicted queue wait. Direct-mapped
     *  by key and tagged with it, so a daemon serving unique programs
     *  holds a fixed table, and a shape never inherits the estimate of
     *  another shape in its slot. */
    struct ShapeStat
    {
        uint64_t key = 0;
        double ewmaMs = 0;
        uint64_t samples = 0;
    };
    std::array<ShapeStat, shapeSlots> shapes_{};

    /**
     * Idle machines built under options_.session.machine, for jobs
     * without a MachineConfig of their own and for the server's
     * compile miss. A worker pops the top one (or builds one when
     * empty), its Session restores the template into it, and the
     * worker pushes it back; borrowMachine() pops and resets one to
     * the pristine state, and returnMachine() pushes it back. One LIFO
     * stack for everyone, so with one query in flight the same
     * machine, its pages already resident, compiles and serves every
     * request. Connection threads borrow too, so more machines than
     * workers can be out at once: the stack keeps at most one per
     * worker and a push onto a full stack destroys the machine.
     */
    std::vector<std::unique_ptr<Machine>> idleMachines_;

    /** Snapshot of the first machine buildMachine() made, taken
     *  before it ran: restoring it resets any pooled machine to the
     *  fresh state (the snapshot contract: a restore overwrites every
     *  part of the state). Written once, under pristineOnce_; every
     *  machine on the stack was built after it. */
    std::once_flag pristineOnce_;
    Snapshot pristine_;

    std::vector<std::thread> workers_;
};

} // namespace kcm::service

#endif // KCM_SERVICE_SUPERVISOR_HH
