#include "service/session.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

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
steadyNowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now().time_since_epoch())
                        .count());
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

Session::Session(CodeImage image, SessionOptions options)
    : image_(std::move(image)), options_(std::move(options))
{
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

void
Session::checkpoint(std::shared_ptr<const Snapshot> state,
                    size_t solution_count, bool resume_after)
{
    checkpoint_.snap =
        state ? std::move(state)
              : std::make_shared<const Snapshot>(takeSnapshot(*machine_));
    checkpoint_.solutionCount = solution_count;
    checkpoint_.resumeAfterRestore = resume_after;
    checkpoint_.cycle = machine_->cycles();
    ++counters_.checkpoints;
    counters_.checkpointBytes += checkpoint_.snap->bytes.size();
}

bool
Session::coldStart()
{
    // Bring the machine to its ready-to-run state: download the
    // compiled image, or restore the shared post-download KCMSNAP5
    // template (the warm-cache path; restoreSnapshot verifies every
    // section checksum before mutating anything, and the cache lookup
    // does not, so this is the one check: a corrupt template is
    // reported here and never executes).
    if (template_) {
        try {
            restoreSnapshot(*machine_, *template_);
        } catch (const FatalError &e) {
            templateError_ = e.what();
            return false;
        }
        // The template's zone table was snapped under the compiling
        // machine's config; re-impose this session's governor quotas
        // (per-query memory budgets) so the restored state matches a
        // fresh load() under options_.machine.
        machine_->reapplyQuotas();
        return true;
    }
    machine_->load(image_);
    return true;
}

bool
Session::restartFresh()
{
    // The checkpoint snapshot itself carries the fault (armed MMU
    // fault, tightened zone limit, latent corrupt word): throw the
    // machine away. load() resets everything a fresh Machine has
    // except the zone hard ends a TightenZone already moved, so
    // escalation needs a genuinely new machine, not a reload.
    machine_ = std::make_unique<Machine>(options_.machine);
    bool ok = coldStart();
    machine_->dismissPendingFaults();
    ++counters_.restarts;
    return ok;
}

QueryOutcome
Session::run()
{
    const auto started = Clock::now();
    QueryOutcome out;

    db::JournaledStore *durable = options_.durableDb.get();
    std::unique_lock<std::mutex> durable_lock;
    if (durable) {
        // Durable queries serialize on the shared store's mutex for
        // the whole run and disable checkpoint recovery/retries: a
        // snapshot restore would replace the attached store contents
        // mid-transaction.
        durable_lock = std::unique_lock<std::mutex>(durable->mutex());
        options_.checkpointEveryMcycles = 0;
        options_.maxRetries = 0;
    }

    const uint64_t checkpoint_cycles =
        options_.checkpointEveryMcycles * 1'000'000;
    const bool recovery = options_.maxRetries > 0 ||
                          checkpoint_cycles > 0;
    // Slice granularity: the checkpoint interval when checkpointing,
    // else the watchdog tick when a deadline (or the shutdown flag)
    // needs polling.
    uint64_t slice = checkpoint_cycles;
    if (!slice &&
        (options_.deadlineMs || options_.deadlineAbsNs ||
         options_.abortOnInterrupt))
        slice = options_.watchdogSliceCycles;

    if (!machine_)
        machine_ = std::make_unique<Machine>(options_.machine);
    if (!coldStart()) {
        // The warm-start template failed its checksum verification: a
        // corrupt cache entry is never executed. Classified so the
        // owner evicts the entry and recompiles.
        out.status = QueryStatus::Failed;
        out.failure.classification = "corrupt_image_template";
        out.failure.trapKind = TrapKind::Abort;
        out.failure.detail = templateError_;
        out.failure.attempts = 1;
        out.wallSeconds = elapsedSeconds(started);
        out.counters = counters_;
        return out;
    }
    if (durable) {
        // Attach after coldStart: both load() and a warm-template
        // restore install their own store; the durable store must win.
        machine_->attachDynamicDb(durable->storePtr());
        durable->store().beginTxn();
    }
    // Checkpoint zero. A warm machine fresh from coldStart() is the
    // template plus this session's quotas, so the template itself
    // serves: recover() restores it the way coldStart() does.
    if (recovery)
        checkpoint(template_, 0, /*resume_after=*/false);

    const size_t max_solutions =
        options_.maxSolutions == 0 ? SIZE_MAX : options_.maxSolutions;

    enum class Mode { Run, Next, Resume };
    Mode mode = Mode::Run;
    unsigned attempts = 1;
    uint64_t backoff_ms = options_.backoffBaseMs;
    uint64_t last_failure_cycle = 0;
    bool failed_before = false;

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
                    out.failure.trapKind = TrapKind::Abort;
                    out.failure.detail = e.what();
                    out.failure.attempts = attempts;
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
        out.counters = counters_;
        return out;
    };
    auto fail = [&](std::string classification, TrapKind kind,
                    std::string detail) {
        out.failure.classification = std::move(classification);
        out.failure.trapKind = kind;
        out.failure.detail = std::move(detail);
        out.failure.attempts = attempts;
        out.failure.cyclesLost = counters_.recoveryCycles;
        out.failure.checkpointAgeCycles =
            machine_->cycles() >= checkpoint_.cycle
                ? machine_->cycles() - checkpoint_.cycle
                : machine_->cycles();
        return finish(QueryStatus::Failed);
    };
    auto deadlineBlown = [&]() {
        return options_.deadlineMs &&
               elapsedSeconds(started) * 1000.0 >
                   double(options_.deadlineMs) * double(attempts);
    };
    // End-to-end deadline → governor cycle slices: size each slice so
    // the machine stops itself at (or just past) the propagated
    // boundary instead of overshooting by a full watchdog tick. The
    // simulation rate is observed as the run progresses; the initial
    // estimate is deliberately low so the first slice under a tight
    // deadline is short.
    double est_cycles_per_sec = 20e6;
    auto deadlineSliceCycles = [&]() -> uint64_t {
        if (!options_.deadlineAbsNs)
            return 0;
        uint64_t now_ns = steadyNowNs();
        if (now_ns >= options_.deadlineAbsNs)
            return 1; // expired: surface at the next boundary
        double elapsed = elapsedSeconds(started);
        if (elapsed > 1e-3 && machine_->cycles() > 0) {
            est_cycles_per_sec =
                std::min(1e10, std::max(1e6, double(machine_->cycles()) /
                                                 elapsed));
        }
        double remaining_sec =
            double(options_.deadlineAbsNs - now_ns) * 1e-9;
        double budget = remaining_sec * est_cycles_per_sec;
        return uint64_t(std::max(10e3, std::min(budget, 4e15)));
    };
    auto absDeadlineExpired = [&]() {
        return options_.deadlineAbsNs &&
               steadyNowNs() >= options_.deadlineAbsNs;
    };
    // Recover from a trap (or blown deadline slice): restore the last
    // checkpoint, or escalate to a fresh machine when the checkpoint
    // re-traps without progress. Returns false when the retry budget
    // is exhausted — the caller then emits the failure report.
    auto recover = [&]() {
        if (attempts > options_.maxRetries)
            return false;
        ++attempts;
        const uint64_t fail_cycle = machine_->cycles();
        const bool progressed = !failed_before ||
                                fail_cycle > last_failure_cycle;
        failed_before = true;
        last_failure_cycle = fail_cycle;
        if (progressed) {
            counters_.recoveryCycles +=
                fail_cycle - checkpoint_.cycle;
            if (checkpoint_.snap == template_) {
                if (!coldStart()) // warm checkpoint zero
                    return false;
            } else {
                restoreSnapshot(*machine_, *checkpoint_.snap);
            }
            machine_->dismissPendingFaults();
            out.solutions.resize(checkpoint_.solutionCount);
            mode = checkpoint_.resumeAfterRestore ? Mode::Resume
                                                  : Mode::Run;
            ++counters_.retries;
        } else {
            // The checkpoint re-trapped at (or before) the same
            // cycle: the fault is baked into the snapshot. Restart
            // from scratch on a fresh machine.
            counters_.recoveryCycles += fail_cycle;
            if (!restartFresh())
                return false;
            out.solutions.clear();
            checkpoint(template_, 0, /*resume_after=*/false);
            mode = Mode::Run;
        }
        if (backoff_ms) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff_ms));
            backoff_ms *= 2;
        }
        return true;
    };

    if (absDeadlineExpired()) {
        // Already past the propagated deadline: spend no cycles at
        // all (the supervisor sheds these before a worker is burned;
        // this is the last line of defense).
        return fail("deadline_exceeded", TrapKind::Abort,
                    "propagated absolute deadline expired before "
                    "execution started (0 simulated cycles)");
    }

    for (;;) {
        uint64_t eff_slice = slice;
        if (uint64_t budget = deadlineSliceCycles())
            eff_slice = eff_slice ? std::min(eff_slice, budget)
                                  : budget;
        if (eff_slice)
            machine_->setSliceStop(machine_->cycles() + eff_slice);
        const RunStatus status = mode == Mode::Run ? machine_->run()
                                 : mode == Mode::Next
                                     ? machine_->nextSolution()
                                     : machine_->resume();

        switch (status) {
          case RunStatus::SolutionFound:
            out.solutions.push_back(machine_->lastSolution());
            if (out.solutions.size() >= max_solutions)
                return finish(QueryStatus::Completed);
            mode = Mode::Next;
            continue;

          case RunStatus::Failed:
          case RunStatus::Halted:
            return finish(QueryStatus::Completed);

          case RunStatus::CycleLimit:
            // maxCycles is an informational stop, same contract as
            // KcmSystem::query: the run simply ends.
            return finish(QueryStatus::Completed);

          case RunStatus::Trapped:
            break;
        }

        if (machine_->sliceExpired()) {
            // Host machinery, not a fault: poll the shutdown flag
            // and the deadlines, take the periodic checkpoint,
            // continue where we stopped.
            if (options_.abortOnInterrupt && serviceInterruptRequested()) {
                return fail("interrupted", TrapKind::Abort,
                            "aborted by shutdown request at an "
                            "instruction boundary");
            }
            if (absDeadlineExpired()) {
                // The propagated end-to-end deadline is terminal: a
                // retry cannot finish any sooner, so the budget is
                // never extended per attempt.
                return fail("deadline_exceeded", TrapKind::Abort,
                            cat("propagated absolute deadline "
                                "exceeded after ",
                                machine_->cycles(),
                                " simulated cycles"));
            }
            if (deadlineBlown()) {
                if (!recover()) {
                    return fail("deadline_exceeded", TrapKind::Abort,
                                cat("wall-clock deadline of ",
                                    options_.deadlineMs,
                                    " ms per attempt exceeded"));
                }
                continue;
            }
            if (checkpoint_cycles)
                checkpoint(nullptr, out.solutions.size(),
                           /*resume_after=*/true);
            mode = Mode::Resume;
            continue;
        }

        const TrapInfo &trap = machine_->lastTrap();
        if (trap.kind == TrapKind::UnhandledException) {
            // A thrown ball with no catch/3 marker is a *program*
            // outcome (the baseline interpreter reports it the same
            // way), not a service fault — never retried.
            out.error = trapDiagnosis(trap);
            return finish(QueryStatus::Completed);
        }
        if (!recover()) {
            if (!templateError_.empty()) {
                return fail("corrupt_image_template", TrapKind::Abort,
                            templateError_);
            }
            return fail(trapDiagnosis(trap), trap.kind, trap.message);
        }
    }
}

} // namespace kcm::service
