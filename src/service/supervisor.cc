#include "service/supervisor.hh"

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
}

Supervisor::~Supervisor()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        paused_ = false;
    }
    workCv_.notify_all();
    for (std::thread &t : workers_) {
        if (t.joinable())
            t.join();
    }
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
    const ShapeStat &s = shapes_[job.shapeKey % shapeSlots];
    if (s.key == job.shapeKey && s.samples >= 3) {
        double wait_ms =
            s.ewmaMs *
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
    out.failure.detail =
        cat("propagated deadline unmeetable: shed at ", where,
            " with 0 simulated cycles spent (query ", job.id, ")");
    out.failure.attempts = 0;
    return out;
}

/**
 * Evict the queued query with the earliest deadline (queue is full).
 * Ties (and the no-deadline default, key 0 meaning "infinite") fall
 * back to oldest-submitted-first among equals. The victim's callback
 * is returned through @p shed_cb for the caller to invoke outside the
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
    shed_cb = std::move((*victim)->done);
    --outstanding_;
    queue_.erase(victim);
    doneCv_.notify_all();
    return out;
}

void
Supervisor::enqueue(std::unique_ptr<Pending> pending)
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
            refuse_cb = std::move(pending->done);
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
            refuse_cb = std::move(pending->done);
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
Supervisor::submitAsync(QueryJob job, std::shared_ptr<const Snapshot> tmpl,
                        Completion done)
{
    auto p = std::make_unique<Pending>();
    p->deadlineKeyMs = job.deadlineMs;
    p->memCharge = memChargeFor(job);
    p->job = std::move(job);
    p->tmpl = std::move(tmpl);
    p->done = std::move(done);
    enqueue(std::move(p));
}

size_t
Supervisor::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
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
    stats_.dbCommits += outcome.dbCommitId ? 1 : 0;
    stats_.dbOps += outcome.dbOps;
}

void
Supervisor::recordShapeLatencyLocked(uint64_t shape_key, double ms)
{
    if (!shape_key)
        return;
    ShapeStat &s = shapes_[shape_key % shapeSlots];
    if (s.key != shape_key)
        s = ShapeStat{shape_key, 0, 0};
    s.ewmaMs = s.samples ? 0.8 * s.ewmaMs + 0.2 * ms : ms;
    ++s.samples;
}

std::unique_ptr<Machine>
Supervisor::buildMachine()
{
    auto machine = std::make_unique<Machine>(options_.session.machine);
    std::call_once(pristineOnce_,
                   [&] { pristine_ = takeSnapshot(*machine); });
    return machine;
}

std::unique_ptr<Machine>
Supervisor::borrowMachine()
{
    std::unique_ptr<Machine> machine;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!idleMachines_.empty()) {
            machine = std::move(idleMachines_.back());
            idleMachines_.pop_back();
        }
    }
    if (!machine)
        return buildMachine();
    restoreSnapshot(*machine, pristine_);
    return machine;
}

void
Supervisor::returnMachine(std::unique_ptr<Machine> machine)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (idleMachines_.size() < options_.workers) {
            idleMachines_.push_back(std::move(machine));
            return;
        }
    }
    // A full stack: the machine is destroyed here, outside the lock.
}

size_t
Supervisor::idleMachines() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return idleMachines_.size();
}

bool
Supervisor::pooled(const Pending &p)
{
    // A job with its own MachineConfig gets a machine built for it.
    return !p.job.machine;
}

void
Supervisor::workerMain()
{
    for (;;) {
        std::unique_ptr<Pending> p;
        std::unique_ptr<Machine> machine;
        Clock::time_point started;
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

            // Deadline propagation at dequeue: the queue wait alone
            // may have consumed the budget.
            if (p->job.deadlineAbsNs &&
                steadyNowNs() >= p->job.deadlineAbsNs) {
                QueryOutcome out =
                    deadlineShedOutcome(p->job, "dequeue");
                ++stats_.deadlinePropagatedSheds;
                stats_.memChargedBytes -= p->memCharge;
                bumpStatsLocked(out);
                Completion cb = std::move(p->done);
                lock.unlock();
                if (cb)
                    cb(std::move(out));
                lock.lock();
                --outstanding_;
                doneCv_.notify_all();
                continue;
            }

            started = Clock::now();
            if (pooled(*p) && !idleMachines_.empty()) {
                machine = std::move(idleMachines_.back());
                idleMachines_.pop_back();
            }
        }

        if (pooled(*p) && !machine)
            machine = buildMachine();

        SessionOptions session_options = options_.session;
        if (p->job.deadlineMs)
            session_options.deadlineMs = p->job.deadlineMs;
        if (p->job.machine)
            session_options.machine = *p->job.machine;
        if (p->job.maxSolutions)
            session_options.maxSolutions = *p->job.maxSolutions;
        session_options.deadlineAbsNs = p->job.deadlineAbsNs;
        Session session(p->tmpl, std::move(session_options),
                        std::move(machine));
        QueryOutcome outcome = session.run();
        if (pooled(*p))
            returnMachine(session.releaseMachine());

        Completion cb;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stats_.memChargedBytes -= p->memCharge;
            if (outcome.status == QueryStatus::Completed)
                recordShapeLatencyLocked(p->job.shapeKey,
                                         elapsedMs(started));
            bumpStatsLocked(outcome);
            cb = std::move(p->done);
        }

        if (cb) {
            // Deliver before retiring the job so drain() cannot
            // return while a completion is still writing its reply.
            cb(std::move(outcome));
        }
        std::lock_guard<std::mutex> lock(mutex_);
        --outstanding_;
        doneCv_.notify_all();
    }
}

void
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
    for (std::thread &t : workers_) {
        if (t.joinable())
            t.join();
    }
}

ServiceStats
Supervisor::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace kcm::service
