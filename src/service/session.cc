#include "service/session.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

#include "base/logging.hh"
#include "mem/traps.hh"

namespace kcm::service
{

namespace
{

using Clock = std::chrono::steady_clock;

double
elapsedSeconds(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

uint64_t
steadyNs(Clock::time_point t)
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t.time_since_epoch())
                        .count());
}

uint64_t
steadyNowNs()
{
    return steadyNs(Clock::now());
}

/** Process-wide shutdown flag; written by signal handlers (a lock-free
 *  atomic store is async-signal-safe), read at slice boundaries. */
std::atomic<bool> interruptFlag{false};

} // namespace

void
requestServiceInterrupt()
{
    interruptFlag.store(true, std::memory_order_relaxed);
}

void
clearServiceInterrupt()
{
    interruptFlag.store(false, std::memory_order_relaxed);
}

bool
serviceInterruptRequested()
{
    return interruptFlag.load(std::memory_order_relaxed);
}

Session::Session(std::shared_ptr<const Snapshot> warm_template,
                 SessionOptions options, std::unique_ptr<Machine> machine)
    : template_(std::move(warm_template)), options_(std::move(options)),
      machine_(std::move(machine))
{
    if (!template_)
        fatal("session: null warm-start template");
}

Session::~Session() = default;

std::unique_ptr<Machine>
Session::releaseMachine()
{
    if (machine_ && options_.durableDb)
        machine_->detachDynamicDb();
    return std::move(machine_);
}

QueryOutcome
Session::run()
{
    const auto started = Clock::now();
    QueryOutcome out;

    // Durable queries serialize on the shared store's mutex for the
    // whole run.
    db::JournaledStore *durable = options_.durableDb.get();
    std::unique_lock<std::mutex> durable_lock;
    if (durable)
        durable_lock = std::unique_lock<std::mutex>(durable->mutex());

    // One deadline: deadlineMs counts from here and is folded into the
    // absolute deadline, the earlier of the two winning. Both are
    // terminal.
    uint64_t deadline_ns = options_.deadlineAbsNs;
    bool own_deadline = false; // deadlineMs is the earlier one
    if (options_.deadlineMs) {
        const uint64_t own =
            steadyNs(started) + options_.deadlineMs * 1'000'000;
        if (!deadline_ns || own < deadline_ns) {
            deadline_ns = own;
            own_deadline = true;
        }
    }
    auto deadlineName = [&]() -> std::string {
        return own_deadline ? cat("deadline of ", options_.deadlineMs, " ms")
                            : "propagated absolute deadline";
    };
    // Slice granularity: the watchdog tick when a deadline (or the
    // shutdown flag) needs polling.
    const uint64_t slice = deadline_ns || options_.abortOnInterrupt
                               ? options_.watchdogSliceCycles
                               : 0;

    if (!machine_)
        machine_ = std::make_unique<Machine>(options_.machine);
    // Bring the machine to its ready-to-run state by restoring the
    // shared post-download snapshot template. restoreSnapshot verifies
    // every section checksum before mutating anything, and the cache
    // lookup does not, so this is the one check: a corrupt template is
    // reported here and never executes.
    try {
        restoreSnapshot(*machine_, *template_);
    } catch (const FatalError &e) {
        // Classified so the owner evicts the entry and recompiles.
        out.status = QueryStatus::Failed;
        out.failure.classification = "corrupt_image_template";
        out.failure.detail = e.what();
        out.failure.attempts = 1;
        out.wallSeconds = elapsedSeconds(started);
        return out;
    }
    // The template's zone table was snapped under the compiling
    // machine's config; re-impose this session's governor quotas
    // (per-query memory budgets) so the restored state matches a fresh
    // load() under options_.machine.
    machine_->reapplyQuotas();
    if (durable) {
        // Attach after the restore: it installs the template's own
        // store; the durable store must win.
        machine_->attachDynamicDb(durable->storePtr());
        durable->store().beginTxn();
    }

    auto finish = [&](QueryStatus status) {
        if (durable && durable->store().inTxn()) {
            // Commit-before-ack: the journal record is on disk (or the
            // transaction is fully rolled back) before run() returns,
            // so a reply can never acknowledge an unjournaled
            // mutation. Completed covers program-level errors too —
            // ISO semantics: side effects before an unhandled
            // exception persist. Failed/interrupted queries roll back
            // exactly, never leaving a half-applied burst.
            if (status == QueryStatus::Completed &&
                !durable->store().txnOps().empty()) {
                try {
                    out.dbCommitId =
                        durable->commit(durable->store().txnOps());
                    out.dbOps = durable->store().commitTxn().size();
                } catch (const FatalError &e) {
                    durable->store().rollbackTxn();
                    status = QueryStatus::Failed;
                    out.solutions.clear();
                    out.failure.classification = "journal_io_error";
                    out.failure.detail = e.what();
                    out.failure.attempts = 1;
                }
            } else if (status == QueryStatus::Completed) {
                durable->store().commitTxn(); // no mutations to journal
            } else {
                durable->store().rollbackTxn();
            }
        }
        out.status = status;
        out.success = !out.solutions.empty();
        out.halted = machine_->halted();
        out.output = machine_->output();
        out.cycles = machine_->cycles();
        out.instructions = machine_->instructions();
        out.inferences = machine_->inferences();
        out.wallSeconds = elapsedSeconds(started);
        return out;
    };
    auto fail = [&](std::string classification, std::string detail) {
        out.failure.classification = std::move(classification);
        out.failure.detail = std::move(detail);
        out.failure.attempts = 1;
        return finish(QueryStatus::Failed);
    };
    // Deadline → governor cycle slices: size each slice so the machine
    // stops itself at (or just past) the boundary instead of
    // overshooting by a full watchdog tick. The simulation rate is
    // observed as the run progresses; the initial estimate is
    // deliberately low so the first slice under a tight deadline is
    // short.
    double est_cycles_per_sec = 20e6;
    auto deadlineSliceCycles = [&]() -> uint64_t {
        if (!deadline_ns)
            return 0;
        uint64_t now_ns = steadyNowNs();
        if (now_ns >= deadline_ns)
            return 1; // expired: surface at the next boundary
        double elapsed = elapsedSeconds(started);
        if (elapsed > 1e-3 && machine_->cycles() > 0) {
            est_cycles_per_sec =
                std::min(1e10, std::max(1e6, double(machine_->cycles()) /
                                                 elapsed));
        }
        double remaining_sec = double(deadline_ns - now_ns) * 1e-9;
        double budget = remaining_sec * est_cycles_per_sec;
        return uint64_t(std::max(10e3, std::min(budget, 4e15)));
    };
    auto deadlineExpired = [&]() {
        return deadline_ns && steadyNowNs() >= deadline_ns;
    };

    if (deadlineExpired()) {
        // Already past the deadline: spend no cycles at all (the
        // supervisor sheds these before a worker is burned; this is
        // the last line of defense).
        return fail("deadline_exceeded",
                    cat(deadlineName(), " expired before execution "
                                        "started (0 simulated cycles)"));
    }

    // One run: slices of the watchdog tick, cut down to the remaining
    // deadline budget; at each boundary the shutdown flag, then the
    // deadline, may stop it.
    bool interrupted = false;
    HostPoll poll;
    poll.nextSlice = [&]() -> uint64_t {
        uint64_t cycles = slice;
        if (uint64_t budget = deadlineSliceCycles())
            cycles = cycles ? std::min(cycles, budget) : budget;
        return cycles;
    };
    poll.stop = [&] {
        interrupted =
            options_.abortOnInterrupt && serviceInterruptRequested();
        return interrupted || deadlineExpired();
    };
    out.solutions = machine_->solutions(
        options_.maxSolutions == 0 ? SIZE_MAX : options_.maxSolutions,
        poll);

    if (!machine_->trapped()) {
        // Solutions, failure, halt, or maxCycles (an informational
        // stop, same contract as KcmSystem::query): the run simply
        // ends.
        return finish(QueryStatus::Completed);
    }
    if (machine_->sliceExpired()) {
        if (interrupted) {
            return fail("interrupted",
                        "aborted by shutdown request at an "
                        "instruction boundary");
        }
        return fail("deadline_exceeded",
                    cat(deadlineName(), " exceeded after ",
                        machine_->cycles(), " simulated cycles"));
    }
    const TrapInfo &trap = machine_->lastTrap();
    if (trap.kind == TrapKind::UnhandledException) {
        // A thrown ball with no catch/3 marker is a *program* outcome
        // (the baseline interpreter reports it the same way), not a
        // service fault.
        out.error = trapDiagnosis(trap);
        return finish(QueryStatus::Completed);
    }
    // The back end is deterministic: a re-run would trap again at the
    // same cycle, so the first trap is the answer.
    return fail(trapDiagnosis(trap), trap.message);
}

} // namespace kcm::service
