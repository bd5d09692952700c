#include "service/supervisor.hh"

#include <algorithm>

#include "base/logging.hh"

namespace kcm::service
{

namespace
{

uint64_t
steadyNowNs()
{
    return uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // namespace

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options)), paused_(options_.startPaused)
{
    if (options_.workers == 0)
        fatal("supervisor needs at least one worker");
    if (options_.maxQueueDepth == 0)
        fatal("supervisor needs a nonzero admission queue");
    workers_.reserve(options_.workers);
    for (unsigned i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this] { workerMain(); });
    // Hedging needs a second concurrent attempt of the same query;
    // durable-db sessions serialize on the store mutex (and commit),
    // so a hedge there would be a double-commit hazard, not a latency
    // win.
    if (options_.hedging && !options_.session.durableDb)
        monitor_ = std::thread([this] { monitorMain(); });
}

Supervisor::~Supervisor()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        paused_ = false;
    }
    workCv_.notify_all();
    monitorCv_.notify_all();
    for (std::thread &t : workers_) {
        if (t.joinable())
            t.join();
    }
    if (monitor_.joinable())
        monitor_.join();
}

uint64_t
Supervisor::memChargeFor(const QueryJob &job) const
{
    uint64_t budget = job.machine
                          ? job.machine->governor.memoryBudgetBytes
                          : options_.session.machine.governor
                                .memoryBudgetBytes;
    return budget ? budget : options_.defaultMemoryChargeBytes;
}

bool
Supervisor::deadlineUnmeetableLocked(const QueryJob &job) const
{
    if (!job.deadlineAbsNs)
        return false;
    uint64_t now = steadyNowNs();
    if (now >= job.deadlineAbsNs)
        return true;
    // Predicted queue wait from the shape's completed-latency EWMA
    // scaled by the backlog per worker. Conservative: only shed on a
    // prediction once the estimate has a few samples behind it.
    auto it = shapes_.find(job.shapeKey);
    if (job.shapeKey && it != shapes_.end() &&
        it->second.samples >= 3) {
        double wait_ms =
            it->second.ewmaMs *
            (1.0 + double(queue_.size()) / double(options_.workers));
        if (now + uint64_t(wait_ms * 1e6) > job.deadlineAbsNs)
            return true;
    }
    return false;
}

QueryOutcome
Supervisor::deadlineShedOutcome(const QueryJob &job,
                                const char *where) const
{
    QueryOutcome out;
    out.status = QueryStatus::Failed;
    out.failure.classification = "deadline_exceeded";
    out.failure.trapKind = TrapKind::Abort;
    out.failure.detail =
        cat("propagated deadline unmeetable: shed at ", where,
            " with 0 simulated cycles spent (query ", job.id, ")");
    out.failure.attempts = 0;
    return out;
}

/**
 * Evict the queued query with the earliest deadline (queue is full).
 * Ties (and the no-deadline default, key 0 meaning "infinite") fall
 * back to oldest-submitted-first among equals. A slot-based victim is
 * completed in the result vector here; an async victim's callback is
 * returned through @p shed_cb for the caller to invoke outside the
 * lock (callbacks write to sockets — never under the pool mutex).
 */
QueryOutcome
Supervisor::shedOneLocked(Completion &shed_cb)
{
    auto victim = queue_.begin();
    for (auto it = std::next(queue_.begin()); it != queue_.end();
         ++it) {
        uint64_t vk = (*victim)->deadlineKeyMs
                          ? (*victim)->deadlineKeyMs
                          : UINT64_MAX;
        uint64_t ik =
            (*it)->deadlineKeyMs ? (*it)->deadlineKeyMs : UINT64_MAX;
        if (ik < vk)
            victim = it;
    }

    QueryOutcome out;
    out.status = QueryStatus::Shed;
    out.failure.classification = "overloaded";
    out.failure.detail =
        cat("admission queue full (depth ", options_.maxQueueDepth,
            "); evicted earliest-deadline query");
    ++stats_.shed;
    stats_.memChargedBytes -= (*victim)->memCharge;
    if ((*victim)->slot == asyncSlot) {
        shed_cb = std::move((*victim)->done);
    } else {
        results_[(*victim)->slot].outcome = out;
        done_[(*victim)->slot] = true;
    }
    --outstanding_;
    queue_.erase(victim);
    doneCv_.notify_all();
    return out;
}

void
Supervisor::enqueue(std::shared_ptr<Pending> pending)
{
    Completion refuse_cb;
    QueryOutcome refuse_out;
    Completion shed_cb;
    QueryOutcome shed_out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            fatal("submit after drain");
        ++stats_.submitted;

        // Deadline propagation: refuse work that cannot be served
        // before its boundary — zero cycles, zero queue time.
        if (deadlineUnmeetableLocked(pending->job)) {
            refuse_out =
                deadlineShedOutcome(pending->job, "admission");
            ++stats_.deadlinePropagatedSheds;
            bumpStatsLocked(refuse_out);
            if (pending->slot == asyncSlot) {
                refuse_cb = std::move(pending->done);
            } else {
                results_[pending->slot].outcome = refuse_out;
                done_[pending->slot] = true;
                doneCv_.notify_all();
            }
        } else if (uint64_t budget = options_.globalMemoryBudgetBytes;
                   budget &&
                   stats_.memChargedBytes + pending->memCharge >
                       budget) {
            // Memory governance: admission refusal under the global
            // resident budget. The incoming query is refused (running
            // queries' memory cannot be evicted).
            refuse_out.status = QueryStatus::Shed;
            refuse_out.failure.classification = "overloaded";
            refuse_out.failure.detail = cat(
                "global memory budget exhausted (",
                stats_.memChargedBytes, " charged + ",
                pending->memCharge, " > ", budget, " bytes)");
            ++stats_.shed;
            ++stats_.memAdmissionRefusals;
            if (pending->slot == asyncSlot) {
                refuse_cb = std::move(pending->done);
            } else {
                results_[pending->slot].outcome = refuse_out;
                done_[pending->slot] = true;
                doneCv_.notify_all();
            }
        } else {
            ++outstanding_;
            stats_.memChargedBytes += pending->memCharge;
            if (queue_.size() >= options_.maxQueueDepth)
                shed_out = shedOneLocked(shed_cb);
            queue_.push_back(std::move(pending));
        }
    }
    workCv_.notify_one();
    if (refuse_cb)
        refuse_cb(std::move(refuse_out));
    if (shed_cb)
        shed_cb(std::move(shed_out));
}

void
Supervisor::submit(QueryJob job, CodeImage image)
{
    auto p = std::make_shared<Pending>();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        p->slot = results_.size();
        results_.push_back(ServiceResult{job, QueryOutcome{}});
        done_.push_back(false);
    }
    p->deadlineKeyMs = job.deadlineMs;
    p->memCharge = memChargeFor(job);
    p->job = std::move(job);
    p->image = std::make_shared<const CodeImage>(std::move(image));
    enqueue(std::move(p));
}

void
Supervisor::submitAsync(QueryJob job, CodeImage image, Completion done)
{
    auto p = std::make_shared<Pending>();
    p->deadlineKeyMs = job.deadlineMs;
    p->memCharge = memChargeFor(job);
    p->job = std::move(job);
    p->image = std::make_shared<const CodeImage>(std::move(image));
    p->done = std::move(done);
    enqueue(std::move(p));
}

void
Supervisor::submitAsync(QueryJob job,
                        std::shared_ptr<const Snapshot> warm,
                        Completion done)
{
    auto p = std::make_shared<Pending>();
    p->deadlineKeyMs = job.deadlineMs;
    p->memCharge = memChargeFor(job);
    p->job = std::move(job);
    p->warm = std::move(warm);
    p->done = std::move(done);
    enqueue(std::move(p));
}

size_t
Supervisor::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

double
Supervisor::shapeLatencyMs(uint64_t shape_key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = shapes_.find(shape_key);
    return it == shapes_.end() ? 0.0 : it->second.ewmaMs;
}

void
Supervisor::resume()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        paused_ = false;
    }
    workCv_.notify_all();
}

void
Supervisor::bumpStatsLocked(const QueryOutcome &outcome)
{
    switch (outcome.status) {
      case QueryStatus::Completed:
        ++stats_.completed;
        break;
      case QueryStatus::Failed:
        ++stats_.failed;
        if (outcome.failure.classification ==
            "resource_error(memory)")
            ++stats_.memAborts;
        break;
      case QueryStatus::Shed:
        ++stats_.shed;
        break;
    }
    stats_.retries += outcome.counters.retries;
    stats_.restarts += outcome.counters.restarts;
    stats_.checkpoints += outcome.counters.checkpoints;
    stats_.checkpointBytes += outcome.counters.checkpointBytes;
    stats_.recoveryCycles += outcome.counters.recoveryCycles;
    stats_.dbCommits += outcome.dbCommitId ? 1 : 0;
    stats_.dbOps += outcome.dbOps;
}

void
Supervisor::finishLocked(size_t slot, QueryOutcome outcome)
{
    bumpStatsLocked(outcome);
    results_[slot].outcome = std::move(outcome);
    done_[slot] = true;
    --outstanding_;
    doneCv_.notify_all();
}

void
Supervisor::recordShapeLatencyLocked(uint64_t shape_key, double ms)
{
    if (!shape_key)
        return;
    ShapeStat &s = shapes_[shape_key];
    s.ewmaMs = s.samples ? 0.8 * s.ewmaMs + 0.2 * ms : ms;
    ++s.samples;
}

void
Supervisor::launchHedgeLocked(const std::shared_ptr<Pending> &p)
{
    auto group = std::make_shared<HedgeGroup>();
    group->done = std::move(p->done);
    group->primaryCancel = p->cancel;
    p->group = group;

    auto h = std::make_shared<Pending>();
    h->job = p->job;
    // The straggler injection models a degraded worker; the hedge
    // runs on a healthy one.
    h->job.chaosSliceDelayUs = 0;
    h->image = p->image;
    h->warm = p->warm;
    h->deadlineKeyMs = p->deadlineKeyMs;
    h->memCharge = p->memCharge;
    h->isHedge = true;
    h->group = group;

    ++outstanding_;
    ++stats_.hedges;
    stats_.memChargedBytes += h->memCharge;
    queue_.push_back(std::move(h));
    workCv_.notify_one();
}

void
Supervisor::monitorMain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        monitorCv_.wait_for(
            lock, std::chrono::milliseconds(options_.hedgePollMs),
            [this] { return stopping_; });
        if (stopping_)
            return;
        // Hedge only into genuinely idle capacity: never displace a
        // first attempt.
        if (paused_ || !queue_.empty() ||
            running_.size() >= options_.workers)
            continue;
        for (const auto &p : running_) {
            if (p->isHedge || p->group || p->slot != asyncSlot ||
                !p->done)
                continue;
            double threshold = double(options_.hedgeMinMs);
            auto it = shapes_.find(p->job.shapeKey);
            if (p->job.shapeKey && it != shapes_.end() &&
                it->second.samples > 0) {
                threshold = std::max(
                    threshold, options_.hedgeLatencyFactor *
                                   it->second.ewmaMs);
            }
            if (elapsedMs(p->startedAt) <= threshold)
                continue;
            if (uint64_t budget = options_.globalMemoryBudgetBytes;
                budget &&
                stats_.memChargedBytes + p->memCharge > budget)
                continue;
            launchHedgeLocked(p);
            break; // one hedge per poll; the queue is non-empty now
        }
    }
}

bool
Supervisor::pooled(const Pending &p)
{
    // A job with its own MachineConfig gets a machine built for it;
    // a cold image session load()s, which is not a full reset.
    return p.warm && !p.job.machine;
}

void
Supervisor::workerMain()
{
    for (;;) {
        std::shared_ptr<Pending> p;
        std::unique_ptr<Machine> machine;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(lock, [this] {
                return (!paused_ && !queue_.empty()) || stopping_;
            });
            if (queue_.empty()) {
                if (stopping_)
                    return;
                continue;
            }
            if (paused_)
                continue;
            p = std::move(queue_.front());
            queue_.pop_front();

            // A hedge whose sibling already delivered is abandoned
            // without burning a machine.
            if (p->group && p->group->delivered) {
                stats_.memChargedBytes -= p->memCharge;
                --outstanding_;
                doneCv_.notify_all();
                continue;
            }

            // Deadline propagation at dequeue: the queue wait alone
            // may have consumed the budget.
            if (!p->group && p->job.deadlineAbsNs &&
                steadyNowNs() >= p->job.deadlineAbsNs) {
                QueryOutcome out =
                    deadlineShedOutcome(p->job, "dequeue");
                ++stats_.deadlinePropagatedSheds;
                stats_.memChargedBytes -= p->memCharge;
                if (p->slot == asyncSlot) {
                    bumpStatsLocked(out);
                    Completion cb = std::move(p->done);
                    lock.unlock();
                    if (cb)
                        cb(std::move(out));
                    lock.lock();
                    --outstanding_;
                    doneCv_.notify_all();
                } else {
                    finishLocked(p->slot, std::move(out));
                }
                continue;
            }

            p->cancel = std::make_shared<std::atomic<bool>>(false);
            p->startedAt = Clock::now();
            if (p->group) {
                (p->isHedge ? p->group->hedgeCancel
                            : p->group->primaryCancel) = p->cancel;
            }
            running_.push_back(p);
            if (pooled(*p) && !idleMachines_.empty()) {
                machine = std::move(idleMachines_.back());
                idleMachines_.pop_back();
            }
        }

        SessionOptions session_options = options_.session;
        if (p->job.deadlineMs)
            session_options.deadlineMs = p->job.deadlineMs;
        if (p->job.machine)
            session_options.machine = *p->job.machine;
        if (p->job.maxSolutions)
            session_options.maxSolutions = *p->job.maxSolutions;
        session_options.deadlineAbsNs = p->job.deadlineAbsNs;
        session_options.cancel = p->cancel;
        session_options.chaosSliceDelayUs = p->job.chaosSliceDelayUs;
        QueryOutcome outcome;
        if (p->warm) {
            Session session(p->warm, std::move(session_options),
                            std::move(machine));
            outcome = session.run();
            if (pooled(*p))
                machine = session.releaseMachine();
        } else {
            Session session(CodeImage(*p->image),
                            std::move(session_options));
            outcome = session.run();
        }

        Completion cb;
        bool drop = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (machine)
                idleMachines_.push_back(std::move(machine));
            running_.erase(
                std::remove(running_.begin(), running_.end(), p),
                running_.end());
            stats_.memChargedBytes -= p->memCharge;
            if (outcome.status == QueryStatus::Completed)
                recordShapeLatencyLocked(p->job.shapeKey,
                                         elapsedMs(p->startedAt));
            if (p->group) {
                if (p->group->delivered) {
                    // The sibling already won; this attempt —
                    // typically stopped through its cancellation
                    // token — is dropped, not delivered.
                    drop = true;
                } else {
                    p->group->delivered = true;
                    auto &sibling = p->isHedge
                                        ? p->group->primaryCancel
                                        : p->group->hedgeCancel;
                    if (sibling)
                        sibling->store(true,
                                       std::memory_order_relaxed);
                    if (p->isHedge)
                        ++stats_.hedgeWins;
                    bumpStatsLocked(outcome);
                    cb = std::move(p->group->done);
                }
            } else if (p->slot == asyncSlot) {
                bumpStatsLocked(outcome);
                cb = std::move(p->done);
            } else {
                finishLocked(p->slot, std::move(outcome));
                continue;
            }
        }

        if (!drop && cb) {
            // Deliver before retiring the job so drain() cannot
            // return while a completion is still writing its reply.
            cb(std::move(outcome));
        }
        std::lock_guard<std::mutex> lock(mutex_);
        --outstanding_;
        doneCv_.notify_all();
    }
}

std::vector<ServiceResult>
Supervisor::drain()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        paused_ = false;
        workCv_.notify_all();
        doneCv_.wait(lock, [this] { return outstanding_ == 0; });
        stopping_ = true;
    }
    workCv_.notify_all();
    monitorCv_.notify_all();
    for (std::thread &t : workers_) {
        if (t.joinable())
            t.join();
    }
    if (monitor_.joinable())
        monitor_.join();
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(results_);
}

ServiceStats
Supervisor::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace kcm::service
