#include "service/server.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "base/logging.hh"
#include "kcm/kcm.hh"

namespace kcm::service
{

namespace
{

using Clock = std::chrono::steady_clock;

uint64_t
micros(Clock::time_point since)
{
    return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - since)
                        .count());
}

uint64_t
steadyNowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now().time_since_epoch())
                        .count());
}

/** Wall-clock now in milliseconds since the Unix epoch — the clock
 *  the wire protocol's "deadline_abs_ms" is expressed in. */
int64_t
wallNowMs()
{
    return int64_t(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

/** Whether @p failure is a function of the query shape alone. A trap
 *  or a resource error is: the machine is deterministic. A deadline,
 *  shed, drain, corrupt template or journal error depends on timing
 *  or on state outside the shape. */
bool
deterministicFailure(const FailureReport &failure)
{
    return failure.classification.starts_with("machine_trap(") ||
           failure.classification.starts_with("resource_error(");
}

/** The reply fields of a completed or failed query's @p outcome,
 *  after its id: written by the run and by every replay of it, which
 *  therefore match byte for byte except "id", "cache" and "wall_ms".
 *  A failure's "cycles" makes its cost inspectable: a propagated
 *  deadline shed reports 0 (never ran), a mid-run expiry reports the
 *  simulated cycles burned before the session stopped itself. */
void
writeOutcome(JsonWriter &w, const RememberedOutcome &outcome,
             bool cache_hit, uint64_t wall_ms)
{
    if (!outcome.completed) {
        w.field("status", "failed")
            .field("error", outcome.failure.classification)
            .field("detail", outcome.failure.detail)
            .field("attempts", uint64_t(outcome.failure.attempts))
            .field("cycles", outcome.cycles)
            .field("cache", cache_hit ? "hit" : "miss");
        return;
    }
    w.field("status", "completed")
        .field("success", outcome.success)
        .fieldStrings("answers", outcome.answers)
        .field("output", outcome.output)
        .field("halted", outcome.halted);
    if (!outcome.error.empty())
        w.field("error", outcome.error);
    if (outcome.dbCommitId) {
        // The durable ack: this reply's mutations are journaled under
        // this commit id (the torture harness replays acked commits
        // against the recovered store).
        w.field("db_ops", outcome.dbOps)
            .field("db_commit", outcome.dbCommitId);
    }
    w.field("cycles", outcome.cycles)
        .field("instructions", outcome.instructions)
        .field("inferences", outcome.inferences)
        .field("cache", cache_hit ? "hit" : "miss")
        .field("wall_ms", wall_ms);
}

/** The reply of a completed or failed run under solution cap @p cap,
 *  taking the payload out of @p run. */
RememberedOutcome
outcomeOf(QueryOutcome &run, size_t cap)
{
    RememberedOutcome o;
    o.maxSolutions = cap;
    o.completed = run.status == QueryStatus::Completed;
    o.success = run.success;
    o.answers.reserve(run.solutions.size());
    for (const Solution &s : run.solutions)
        o.answers.push_back(s.toString());
    o.output = std::move(run.output);
    o.halted = run.halted;
    o.error = std::move(run.error);
    o.dbOps = run.dbOps;
    o.dbCommitId = run.dbCommitId;
    o.failure = std::move(run.failure);
    o.cycles = run.cycles;
    o.instructions = run.instructions;
    o.inferences = run.inferences;
    return o;
}

} // namespace

/** One accepted client connection. The reader loop runs in its own
 *  thread; replies are written by whatever thread completes the query
 *  (worker callback or the reader itself), serialized by writeMutex.
 *  The fd is closed only after the last in-flight reply for this
 *  connection has been written. */
struct Server::Connection
{
    int fd = -1;
    uint64_t id = 0;

    std::mutex writeMutex;
    std::atomic<bool> dead{false}; ///< write failed; stop servicing

    std::mutex inflightMutex;
    std::condition_variable inflightCv;
    unsigned inflight = 0; ///< queries submitted, reply not yet sent
};

/** Everything a submitted query needs to be answered — and, when its
 *  warm template turns out corrupt, transparently recompiled and
 *  resubmitted exactly once. */
struct Server::QueryCtx
{
    std::shared_ptr<Connection> conn;
    QueryJob job;
    std::string program;
    uint64_t key = 0;
    bool cacheHit = false;
    bool retriedCorrupt = false;
    Clock::time_point submitted;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cacheBudgetBytes),
      jitterState_(options_.retryJitterSeed ? options_.retryJitterSeed
                                            : 0x9e3779b97f4a7c15ull)
{
    // A drain must be able to reclaim stragglers at slice boundaries.
    options_.session.abortOnInterrupt = true;

    // Validate --db-facts before anything else: a malformed clause is
    // fatal here, naming dbFactsOrigin, before the journal is touched
    // and before any query compiles.
    std::vector<TermRef> facts;
    if (!options_.dbFactsSource.empty())
        facts = KcmSystem::parseFactFile(options_.dbFactsSource,
                                         options_.dbFactsOrigin);

    // Recover/open the journal before the pool copies the session
    // options: every worker session shares the durable store pointer.
    if (!options_.dbJournalDir.empty())
        openDurableDb(facts);
    else
        factsText_ = KcmSystem::canonicalFacts(facts);

    SupervisorOptions pool;
    pool.session = options_.session;
    pool.workers = options_.workers;
    pool.maxQueueDepth = options_.maxQueueDepth;
    pool.globalMemoryBudgetBytes = options_.globalMemoryBudgetBytes;
    pool.defaultMemoryChargeBytes = options_.defaultMemoryChargeBytes;
    pool_ = std::make_unique<Supervisor>(std::move(pool));
}

void
Server::openDurableDb(const std::vector<TermRef> &facts)
{
    durable_ = std::make_shared<db::JournaledStore>(
        options_.dbJournalDir, options_.journal,
        options_.session.machine.dyndb);
    options_.session.durableDb = durable_;

    // Durable mode decouples the fact file from the compiled images:
    // images consult only the predicates' dynamic declarations (stable
    // text — cache keys don't churn as the store mutates) while the
    // facts themselves seed the store once, as journal commit #1. A
    // recovered journal wins over the file: re-seeding would duplicate
    // every fact.
    factsText_ = KcmSystem::factDeclarations(facts);
    if (durable_->recoveryReport().records == 0 && !facts.empty()) {
        {
            std::lock_guard<std::mutex> lock(durable_->mutex());
            db::ClauseStore &store = durable_->store();
            store.beginTxn();
            for (const TermRef &fact : facts)
                store.assertClause(fact->functor(), fact, nullptr,
                                   /*at_front=*/false);
            durable_->commit(store.txnOps());
            store.commitTxn();
        }
        durable_->flush(); // flush() takes the mutex itself
    }
}

Server::~Server()
{
    requestDrain();
    waitDrained();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

void
Server::start()
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("server: socket(): ", strerror(errno));
    int one = 1;
    setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (inet_pton(AF_INET, options_.bindAddress.c_str(),
                  &addr.sin_addr) != 1)
        fatal("server: bad bind address '", options_.bindAddress, "'");
    if (bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
             sizeof addr) < 0)
        fatal("server: bind(", options_.bindAddress, ":", options_.port,
              "): ", strerror(errno));
    if (listen(listenFd_, 64) < 0)
        fatal("server: listen(): ", strerror(errno));

    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound), &len);
    port_ = ntohs(bound.sin_port);

    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Server::acceptLoop()
{
    uint64_t next_id = 0;
    while (!draining_.load(std::memory_order_relaxed)) {
        pollfd pfd{listenFd_, POLLIN, 0};
        int rv = poll(&pfd, 1, 100);
        if (rv <= 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;

        bool refuse = false;
        {
            std::lock_guard<std::mutex> lock(connMutex_);
            if (liveConnections_ >= options_.maxConnections)
                refuse = true;
            else
                ++liveConnections_;
        }
        if (refuse) {
            {
                // Counted before the reply, so a client that reads it
                // sees the refusal in stats.
                std::lock_guard<std::mutex> lock(statsMutex_);
                ++counters_.connectionsRefused;
            }
            std::string line =
                JsonWriter()
                    .field("status", "overloaded")
                    .field("error", "connection limit reached")
                    .field("retry_after_ms", jitteredRetryAfter(1000))
                    .str() +
                "\n";
            writeAllDeadline(fd, line.data(), line.size(),
                             options_.writeDeadlineMs);
            ::close(fd);
            continue;
        }

        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        conn->id = ++next_id;
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++counters_.connectionsAccepted;
        }
        std::lock_guard<std::mutex> lock(connMutex_);
        connThreads_.emplace_back(
            [this, conn = std::move(conn)]() mutable {
                connectionLoop(std::move(conn));
            });
    }
}

void
Server::connectionLoop(std::shared_ptr<Connection> conn)
{
    LineReader reader(conn->fd, options_.maxLineBytes);
    auto cancel = [this, &conn] {
        return draining_.load(std::memory_order_relaxed) ||
               conn->dead.load(std::memory_order_relaxed);
    };

    for (;;) {
        std::string line;
        IoStatus st = reader.next(line, options_.idleTimeoutMs,
                                  options_.readDeadlineMs, cancel);
        if (st == IoStatus::Ok) {
            {
                std::lock_guard<std::mutex> lock(statsMutex_);
                ++counters_.requests;
            }
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            handleRequest(conn, line);
            continue;
        }
        if (st == IoStatus::SlowLoris || st == IoStatus::Oversize ||
            st == IoStatus::Timeout) {
            // A frame that never completes (trickled, oversized, or an
            // idle peer) ends the connection — with a diagnostic when
            // there was a partial request to diagnose.
            if (st != IoStatus::Timeout || reader.pendingBytes()) {
                std::lock_guard<std::mutex> lock(statsMutex_);
                ++counters_.badRequests;
                if (st == IoStatus::Oversize)
                    ++counters_.frameTooLarge;
            }
            if (st != IoStatus::Timeout) {
                // Oversize gets its own classification: the reader
                // stopped buffering at the cap (it never reads past
                // it), and the client should know the frame itself —
                // not its pacing — was the problem.
                writeReply(conn,
                           JsonWriter()
                               .field("status", "bad_request")
                               .field("error",
                                      st == IoStatus::Oversize
                                          ? std::string("frame_too_large")
                                          : cat("request frame ",
                                                ioStatusName(st)))
                               .str());
            }
        }
        break; // Closed / Cancelled / Error / the cases above
    }

    // Drain this connection: every submitted query still gets its
    // reply written (by the worker callbacks) before the fd closes.
    {
        std::unique_lock<std::mutex> lock(conn->inflightMutex);
        conn->inflightCv.wait(lock,
                              [&] { return conn->inflight == 0; });
    }
    ::shutdown(conn->fd, SHUT_RDWR);
    ::close(conn->fd);
    std::lock_guard<std::mutex> lock(connMutex_);
    --liveConnections_;
}

void
Server::writeReply(const std::shared_ptr<Connection> &conn,
                   const std::string &line)
{
    std::string framed = line + "\n";
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    if (conn->dead.load(std::memory_order_relaxed))
        return;
    IoStatus st = writeAllDeadline(conn->fd, framed.data(),
                                   framed.size(),
                                   options_.writeDeadlineMs);
    if (st != IoStatus::Ok) {
        // The peer stopped reading (or vanished): mark the connection
        // dead so its reader unblocks; in-flight queries still finish
        // (their replies are dropped here, but the accounting counts
        // them as replied — the server did its part).
        conn->dead.store(true, std::memory_order_relaxed);
        ::shutdown(conn->fd, SHUT_RDWR);
    }
}

uint64_t
Server::jitteredRetryAfter(uint64_t base) const
{
    uint64_t x;
    {
        std::lock_guard<std::mutex> lock(jitterMutex_);
        // xorshift64*: cheap, full-period, and — seeded — fully
        // reproducible, so tests can assert the exact hint sequence.
        jitterState_ ^= jitterState_ >> 12;
        jitterState_ ^= jitterState_ << 25;
        jitterState_ ^= jitterState_ >> 27;
        x = jitterState_ * 0x2545f4914f6cdd1dull;
    }
    // Up to +50% de-synchronizes a retry storm without materially
    // delaying any one client.
    return base + x % (base / 2 + 1);
}

uint64_t
Server::retryAfterMs() const
{
    uint64_t backlog = pool_->queueDepth();
    uint64_t hint = 25 * (backlog + 1);
    return jitteredRetryAfter(hint > 2000 ? 2000 : hint);
}

void
Server::replyError(const std::shared_ptr<Connection> &conn,
                   const std::string &id, const char *status,
                   const std::string &error)
{
    JsonWriter w;
    if (!id.empty())
        w.field("id", id);
    w.field("status", status).field("error", error);
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++counters_.badRequests;
    }
    writeReply(conn, w.str());
}

void
Server::replyOverloaded(const std::shared_ptr<Connection> &conn,
                        const std::string &id,
                        const std::string &detail)
{
    JsonWriter w;
    if (!id.empty())
        w.field("id", id);
    w.field("status", "overloaded")
        .field("error", detail)
        .field("retry_after_ms", retryAfterMs());
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++counters_.overloaded;
    }
    writeReply(conn, w.str());
}

void
Server::handleRequest(const std::shared_ptr<Connection> &conn,
                      const std::string &line)
{
    JsonObject request;
    std::string parse_error;
    if (!parseJsonObject(line, request, parse_error)) {
        replyError(conn, "", "bad_request",
                   cat("malformed request: ", parse_error));
        return;
    }

    std::string id;
    if (auto it = request.find("id");
        it != request.end() && it->second.isString())
        id = it->second.str;

    std::string op = "query";
    if (auto it = request.find("op"); it != request.end()) {
        if (!it->second.isString()) {
            replyError(conn, id, "bad_request", "\"op\" must be a string");
            return;
        }
        op = it->second.str;
    }

    if (op == "ping") {
        JsonWriter w;
        if (!id.empty())
            w.field("id", id);
        writeReply(conn, w.field("status", "pong").str());
        return;
    }
    if (op == "stats") {
        ServerCounters c = counters();
        ImageCacheStats cs = cache_.stats();
        ServiceStats ps = pool_->stats();
        JsonWriter w;
        if (!id.empty())
            w.field("id", id);
        w.field("status", "ok")
            .field("connections", c.connectionsAccepted)
            .field("connections_refused", c.connectionsRefused)
            .field("requests", c.requests)
            .field("bad_requests", c.badRequests)
            .field("overloaded", c.overloaded)
            .field("queries_accepted", c.queriesAccepted)
            .field("queries_replied", c.queriesReplied)
            .field("compiles", c.compiles)
            .field("compile_micros", c.compileMicros)
            .field("corrupt_retries", c.corruptRetries)
            .field("frame_too_large", c.frameTooLarge)
            .field("outcomes_replayed", c.outcomesReplayed)
            .field("cache_hits", cs.hits)
            .field("cache_misses", cs.misses)
            .field("cache_evictions", cs.evictions)
            .field("cache_corrupt_evictions", cs.corruptEvictions)
            .field("cache_bytes", cs.bytes)
            .field("cache_entries", cs.entries)
            .field("pool_completed", ps.completed)
            .field("pool_failed", ps.failed)
            .field("pool_shed", ps.shed)
            .field("deadline_propagated_sheds",
                   ps.deadlinePropagatedSheds)
            .field("mem_aborts", ps.memAborts)
            .field("mem_admission_refusals", ps.memAdmissionRefusals)
            .field("mem_charged_bytes", ps.memChargedBytes);
        if (durable_) {
            const db::JournalScan &rec = durable_->recoveryReport();
            w.field("db_commits", ps.dbCommits)
                .field("db_ops", ps.dbOps)
                .field("journal_commits", durable_->commitsWritten())
                .field("journal_ops", durable_->opsWritten())
                .field("journal_snapshots",
                       durable_->snapshotsWritten())
                .field("journal_bytes", durable_->bytesWritten())
                .field("journal_recovered_commits", rec.commits)
                .field("journal_recovered_ops", rec.ops)
                .field("journal_recovery", rec.classification())
                .field("journal_truncated_bytes",
                       rec.fileBytes - rec.goodBytes);
        }
        writeReply(conn, w.str());
        return;
    }
    if (op == "corrupt_cache") {
        if (!options_.chaosHooks) {
            replyError(conn, id, "bad_request",
                       "chaos hooks are disabled");
            return;
        }
        size_t n = cache_.corruptOneForTesting();
        JsonWriter w;
        if (!id.empty())
            w.field("id", id);
        writeReply(conn,
                   w.field("status", "ok")
                       .field("corrupted", uint64_t(n))
                       .str());
        return;
    }
    if (op != "query") {
        replyError(conn, id, "bad_request", cat("unknown op \"", op, "\""));
        return;
    }
    handleQuery(conn, request, id);
}

void
Server::handleQuery(const std::shared_ptr<Connection> &conn,
                    const JsonObject &request, const std::string &id)
{
    auto str_field = [&](const char *name,
                         std::string &out) -> bool {
        auto it = request.find(name);
        if (it == request.end() || !it->second.isString())
            return false;
        out = it->second.str;
        return true;
    };

    std::string program, goal;
    if (!str_field("program", program)) {
        replyError(conn, id, "bad_request",
                   "\"program\" (string) is required");
        return;
    }
    if (!str_field("goal", goal) || goal.empty()) {
        replyError(conn, id, "bad_request",
                   "\"goal\" (nonempty string) is required");
        return;
    }

    QueryJob job;
    job.id = id;
    job.goal = goal;
    if (auto it = request.find("deadline_ms"); it != request.end()) {
        int64_t v = it->second.asInt(-1);
        if (!it->second.isNumber() || v < 0) {
            replyError(conn, id, "bad_request",
                       "\"deadline_ms\" must be a nonnegative number");
            return;
        }
        job.deadlineMs = uint64_t(v);
    }
    if (auto it = request.find("max_solutions"); it != request.end()) {
        int64_t v = it->second.asInt(-1);
        if (!it->second.isNumber() || v < 0) {
            replyError(conn, id, "bad_request",
                       "\"max_solutions\" must be a nonnegative number");
            return;
        }
        job.maxSolutions = size_t(v);
    }
    if (auto it = request.find("deadline_abs_ms"); it != request.end()) {
        // End-to-end deadline: absolute wall-clock milliseconds since
        // the Unix epoch, converted here — once — to the steady clock
        // the whole propagation chain (supervisor shedding, session
        // cycle slices) runs on. An already-expired deadline still
        // propagates: the supervisor sheds it with a classified
        // "deadline_exceeded" and zero cycles spent.
        int64_t v = it->second.asInt(-1);
        if (!it->second.isNumber() || v < 0) {
            replyError(
                conn, id, "bad_request",
                "\"deadline_abs_ms\" must be a nonnegative number "
                "(wall-clock ms since the epoch)");
            return;
        }
        int64_t delta_ms = v - wallNowMs();
        uint64_t now_ns = steadyNowNs();
        job.deadlineAbsNs =
            delta_ms > 0 ? now_ns + uint64_t(delta_ms) * 1'000'000u
                         : 1; // nonzero-but-past: sheds at admission
    }
    if (auto it = request.find("memory_budget_bytes");
        it != request.end()) {
        // Per-query memory governance: byte ceiling over the four
        // governed data zones, enforced at zone-growth boundaries and
        // raised as a catchable resource_error(memory). Part of the
        // query shape (cache key): different budgets are different
        // shapes.
        int64_t v = it->second.asInt(-1);
        if (!it->second.isNumber() || v < 0) {
            replyError(
                conn, id, "bad_request",
                "\"memory_budget_bytes\" must be a nonnegative number");
            return;
        }
        if (v > 0) {
            MachineConfig mc = options_.session.machine;
            mc.governor.memoryBudgetBytes = uint64_t(v);
            job.machine = mc;
        }
    }

    // The query shape: image-cache hash over program, goal and the
    // effective machine config (per-query memory budgets are part of
    // the shape; deadlines are not).
    const uint64_t key = imageCacheKey(
        program, goal,
        job.machine ? *job.machine : options_.session.machine);
    job.shapeKey = key;

    // Warm-template cache: hit → restore, miss → compile + insert. A
    // hit may carry the outcome a run of this template ended in; under
    // the same solution cap a run would end in it again, so the query
    // is answered here and never reaches the pool.
    std::shared_ptr<const RememberedOutcome> remembered;
    std::shared_ptr<const Snapshot> tmpl = cache_.lookup(key, &remembered);
    if (remembered &&
        remembered->maxSolutions ==
            job.maxSolutions.value_or(options_.session.maxSolutions)) {
        JsonWriter w;
        if (!id.empty())
            w.field("id", id);
        writeOutcome(w, *remembered, /*cache_hit=*/true, /*wall_ms=*/0);
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++counters_.outcomesReplayed;
        }
        writeReply(conn, w.str());
        return;
    }

    // Per-client fairness: one slow client cannot monopolize the pool.
    {
        std::lock_guard<std::mutex> lock(conn->inflightMutex);
        if (conn->inflight >= options_.maxInflightPerConn) {
            replyOverloaded(conn, id,
                            cat("per-connection in-flight cap (",
                                options_.maxInflightPerConn,
                                ") reached"));
            return;
        }
        ++conn->inflight;
    }

    const bool hit = tmpl != nullptr;
    if (!tmpl) {
        std::string compile_error;
        tmpl = compileTemplate(key, program, goal, compile_error);
        if (!tmpl) {
            {
                std::lock_guard<std::mutex> lock(conn->inflightMutex);
                --conn->inflight;
                conn->inflightCv.notify_all();
            }
            replyError(conn, id, "bad_request",
                       cat("compile_error: ", compile_error));
            return;
        }
    }

    auto ctx = std::make_shared<QueryCtx>();
    ctx->conn = conn;
    ctx->job = job;
    ctx->program = program;
    ctx->key = key;
    ctx->cacheHit = hit;
    ctx->submitted = Clock::now();

    inflightQueries_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++counters_.queriesAccepted;
    }
    pool_->submitAsync(std::move(job), std::move(tmpl),
                       [this, ctx](QueryOutcome outcome) mutable {
                           onOutcome(std::move(ctx),
                                     std::move(outcome));
                       });
}

std::shared_ptr<const Snapshot>
Server::compileTemplate(uint64_t key, const std::string &program,
                        const std::string &goal, std::string &error)
{
    const auto started = Clock::now();
    try {
        KcmSystem system;
        if (options_.consultStdlib)
            system.consultStandardLibrary();
        system.consult(program);
        if (!factsText_.empty())
            system.consult(factsText_);
        CodeImage image = system.compileOnly(goal);

        // The template is taken under the pool's MachineConfig on a
        // pooled machine reset to the fresh state, which the worker
        // running this query then pops with its pages resident.
        std::unique_ptr<Machine> machine = pool_->borrowMachine();
        machine->load(image);
        Snapshot snap = takeSnapshot(*machine);
        pool_->returnMachine(std::move(machine));
        auto tmpl = cache_.insert(key, std::move(snap));
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++counters_.compiles;
        counters_.compileMicros += micros(started);
        return tmpl;
    } catch (const FatalError &e) {
        error = e.what();
        return nullptr;
    }
}

void
Server::onOutcome(std::shared_ptr<QueryCtx> ctx, QueryOutcome outcome)
{
    // A template whose restore refused it (its checksums no longer
    // match): evict, recompile, resubmit once.
    // (Twice corrupt means something is systematically wrong — the
    // client gets the classified failure.)
    if (outcome.status == QueryStatus::Failed &&
        outcome.failure.classification == "corrupt_image_template" &&
        !ctx->retriedCorrupt) {
        ctx->retriedCorrupt = true;
        cache_.evict(ctx->key);
        std::string compile_error;
        auto tmpl = compileTemplate(ctx->key, ctx->program,
                                    ctx->job.goal, compile_error);
        if (tmpl) {
            {
                std::lock_guard<std::mutex> lock(statsMutex_);
                ++counters_.corruptRetries;
            }
            ctx->cacheHit = false;
            QueryJob job = ctx->job;
            pool_->submitAsync(
                std::move(job), std::move(tmpl),
                [this, ctx](QueryOutcome o) mutable {
                    onOutcome(std::move(ctx), std::move(o));
                });
            return;
        }
        // fall through: report the original failure
    }

    JsonWriter w;
    if (!ctx->job.id.empty())
        w.field("id", ctx->job.id);

    if (outcome.status == QueryStatus::Shed) {
        w.field("status", "overloaded")
            .field("error", outcome.failure.detail)
            .field("retry_after_ms", retryAfterMs());
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++counters_.overloaded;
    } else {
        if (outcome.failure.classification == "interrupted") {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++counters_.interrupted;
        }
        auto run = std::make_shared<const RememberedOutcome>(outcomeOf(
            outcome,
            ctx->job.maxSolutions.value_or(options_.session.maxSolutions)));
        writeOutcome(w, *run, ctx->cacheHit,
                     uint64_t(outcome.wallSeconds * 1000.0));
        // Keep a completed run or a deterministic failure with the
        // template it ran from, before the reply goes out, so the next
        // query of this shape and solution cap is answered without
        // running. Not with a durable store: there a run's outcome
        // depends on the store's contents, which are not in the shape.
        if (!durable_ &&
            (run->completed || deterministicFailure(run->failure)))
            cache_.remember(ctx->key, std::move(run));
    }

    // Count before the write lands: a reply into a dead socket still
    // counts as delivered (writeReply absorbs the failure), and a
    // client that reads its reply then immediately asks for stats
    // must already see it in queries_replied.
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++counters_.queriesReplied;
    }
    writeReply(ctx->conn, w.str());
    {
        std::lock_guard<std::mutex> lock(ctx->conn->inflightMutex);
        --ctx->conn->inflight;
        ctx->conn->inflightCv.notify_all();
    }
    if (inflightQueries_.fetch_sub(1, std::memory_order_relaxed) == 1) {
        std::lock_guard<std::mutex> lock(drainMutex_);
        drainCv_.notify_all();
    }
}

void
Server::waitDrained()
{
    if (!pool_)
        return; // already drained

    // Phase 0: wait for the drain request. Polled, because the flag
    // is set from signal handlers, which cannot notify a condition
    // variable (only the atomic store is async-signal-safe).
    while (!draining_.load(std::memory_order_relaxed))
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }

    // Phase 1: grace — every accepted query runs to completion and
    // its reply is flushed by the worker callbacks.
    {
        std::unique_lock<std::mutex> lock(drainMutex_);
        bool quiesced = drainCv_.wait_for(
            lock, std::chrono::milliseconds(options_.drainGraceMs),
            [this] {
                return inflightQueries_.load(
                           std::memory_order_relaxed) == 0;
            });
        if (!quiesced) {
            // Phase 2: out of grace — abort the stragglers. Their
            // sessions stop at the next slice boundary and the
            // callbacks still flush classified "interrupted" replies,
            // so accepted == replied holds even on a hard drain.
            requestServiceInterrupt();
            drainCv_.wait(lock, [this] {
                return inflightQueries_.load(
                           std::memory_order_relaxed) == 0;
            });
        }
    }

    // Every reader sees draining_ within one poll slice and exits once
    // its last reply is out.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        threads.swap(connThreads_);
    }
    for (std::thread &t : threads) {
        if (t.joinable())
            t.join();
    }

    // The pool is idle (no in-flight queries); its destructor joins
    // the workers. Final stats stay readable for the drain report.
    poolFinal_ = pool_->stats();
    pool_.reset();

    // Every acked commit is already write()n (commit-before-ack); the
    // drain flush pushes the tail through fsync so even a subsequent
    // kernel crash keeps the journal and the drain report in agreement.
    if (durable_)
        durable_->flush();
}

ServerCounters
Server::counters() const
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    return counters_;
}

ServiceStats
Server::poolStats() const
{
    return pool_ ? pool_->stats() : poolFinal_;
}

} // namespace kcm::service
