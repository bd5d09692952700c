/**
 * @file
 * The always-on KCM query server.
 *
 * ROADMAP north star: the KCM as "a Prolog accelerator for millions of
 * users" — which means the host side of the paper's Fig. 1 picture has
 * to become a persistent daemon, not a batch driver. This server
 * listens on localhost TCP, speaks a newline-delimited JSON protocol,
 * and layers three robustness mechanisms over the existing Supervisor
 * pool:
 *
 *  1. **Warm snapshot-template cache** (ImageCache): the first query
 *     for a (program, goal, config) triple pays the full compile +
 *     static link + download and snapshots the post-download machine
 *     as a snapshot template; every later identical query restores the
 *     template into a pooled worker — zero recompilation. Every
 *     restore verifies the template's checksums before it mutates the
 *     machine; a corrupt entry is evicted and the query transparently
 *     recompiled (once), so the cache can only ever cost time, never
 *     correctness. **Remembered outcomes:** a query that completes,
 *     or fails with a machine trap or a resource error, leaves that
 *     outcome with its template (not in --db-journal mode, where
 *     outcomes depend on the store): a later query of the same shape
 *     and solution cap gets the same reply, byte for byte but for its
 *     "id", "cache" and "wall_ms" (0), on its connection thread,
 *     without running, and counts in neither queries_accepted nor
 *     queries_replied. An exact repeat costs one run.
 *
 *  2. **Hardened connection lifecycle**: per-connection read/write
 *     deadlines (with a separate slow-loris bound for partial
 *     requests), a per-connection in-flight cap, malformed frames
 *     answered with a structured "bad_request" (never a crash, never a
 *     dropped connection state machine), and global overload answered
 *     with "overloaded" + a retry_after_ms hint that scales with the
 *     admission backlog (the Supervisor sheds earliest-deadline
 *     queries when the queue is full).
 *
 *  3. **Graceful drain**: requestDrain() (wired to SIGTERM/SIGINT by
 *     kcm_serverd) stops accepting connections and reading requests,
 *     but every already-accepted query still completes and its reply
 *     is flushed; after a grace period stragglers are aborted at their
 *     next slice boundary via the process-wide interrupt flag and
 *     answered with a classified "interrupted" failure. Accounting invariant:
 *     accepted == replied at exit — a drain loses no accepted query.
 *
 * Protocol (one JSON object per line, both directions):
 *
 *   request:  {"op": "query", "id": "q1", "program": "p(1).",
 *              "goal": "p(X)", "max_solutions": 0, "deadline_ms": 0}
 *             {"op": "ping"} | {"op": "stats"} |
 *             {"op": "corrupt_cache"}            (chaos hook, gated)
 *   reply:    {"id": ..., "status": "completed" | "failed" |
 *              "overloaded" | "bad_request" | "pong" | "ok", ...}
 *
 *   A completed or failed reply answered from a remembered outcome
 *   reads "cache": "hit" and, when completed, "wall_ms": 0; its other
 *   fields are the run's (stats: "outcomes_replayed").
 *
 * See DESIGN.md ("The always-on query server") for the full schema.
 */

#ifndef KCM_SERVICE_SERVER_HH
#define KCM_SERVICE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "prolog/term.hh"
#include "service/image_cache.hh"
#include "service/supervisor.hh"
#include "service/wire.hh"

namespace kcm::service
{

struct ServerOptions
{
    /** Listen address; the server is a localhost daemon by design. */
    std::string bindAddress = "127.0.0.1";

    /** TCP port; 0 picks an ephemeral port (read it back via port()). */
    uint16_t port = 0;

    /** Per-query supervision policy for the worker pool. The server
     *  forces abortOnInterrupt on so a drain can reclaim stragglers. */
    SessionOptions session;

    unsigned workers = 4;
    size_t maxQueueDepth = 64;

    /** Warm-template cache budget in bytes (0 disables caching). */
    uint64_t cacheBudgetBytes = 256ull << 20;

    /** Consult the bundled standard library into every compiled
     *  program (append/3, member/2, ...). */
    bool consultStdlib = true;

    /** Fact-file text preloaded into every query's dynamic clause
     *  store (kcm_serverd --db-facts). The facts ride the compiled
     *  image's dynamic-init section, so they are part of the warm
     *  snapshot template and restore deterministically into every
     *  pooled worker. The constructor validates it, before it opens
     *  any journal, and renders it once (KcmSystem::canonicalFacts);
     *  a malformed clause is fatal there, with a diagnostic naming
     *  dbFactsOrigin. */
    std::string dbFactsSource;
    std::string dbFactsOrigin = "db-facts";

    /**
     * Durable dynamic database (kcm_serverd --db-journal). When
     * nonempty, the server opens (or recovers) a write-ahead journal
     * in this directory *before accepting connections* and attaches
     * the journaled store to every session: queries run inside store
     * transactions and their mutation batches are journaled before the
     * reply is written (commit-before-ack). In this mode --db-facts
     * seeds the store once, on first boot only (journal commit #1) —
     * compiled images carry the fact predicates' dynamic declarations
     * but not the facts, which live in the recovered store.
     */
    std::string dbJournalDir;
    db::JournalOptions journal;

    // Connection lifecycle.
    uint64_t idleTimeoutMs = 30'000;  ///< between requests
    uint64_t readDeadlineMs = 5'000;  ///< first byte → full request
    uint64_t writeDeadlineMs = 5'000; ///< one reply line
    size_t maxLineBytes = 4u << 20;   ///< request frame cap
    unsigned maxInflightPerConn = 8;  ///< per-client fairness cap
    size_t maxConnections = 256;

    /** Drain grace in ms before in-flight queries are aborted at
     *  their next slice boundary ("interrupted"). */
    uint64_t drainGraceMs = 5'000;

    /** Enable the chaos hook (the "corrupt_cache" op). Off in any
     *  real deployment; the harness turns it on. */
    bool chaosHooks = false;

    /** Seed for the deterministic jitter applied to every
     *  retry_after_ms hint (overloaded, shed, connection-refused).
     *  Jitter de-synchronizes client retry storms; seeding keeps test
     *  runs reproducible. */
    uint64_t retryJitterSeed = 0x9e3779b97f4a7c15ull;

    // Supervisor self-defense knobs (forwarded to SupervisorOptions;
    // see supervisor.hh for semantics).
    uint64_t globalMemoryBudgetBytes = 0;
    uint64_t defaultMemoryChargeBytes = 32ull << 20;
};

/** Server-level counters (cache and supervisor keep their own). */
struct ServerCounters
{
    uint64_t connectionsAccepted = 0;
    uint64_t connectionsRefused = 0; ///< over maxConnections
    uint64_t requests = 0;           ///< complete frames read
    uint64_t badRequests = 0;        ///< malformed / oversize / slow
    uint64_t overloaded = 0;         ///< per-conn cap or queue shed
    uint64_t queriesAccepted = 0;    ///< admitted to the pool
    uint64_t queriesReplied = 0;     ///< replies flushed to the socket
    uint64_t compiles = 0;
    uint64_t compileMicros = 0;      ///< total compile+link+snapshot µs
    uint64_t corruptRetries = 0;     ///< template failed on restore →
                                     ///< evicted, recompiled, re-run
    uint64_t interrupted = 0;        ///< aborted past the drain grace
    uint64_t frameTooLarge = 0;      ///< request frames over the cap
    uint64_t outcomesReplayed = 0;   ///< answered from a remembered
                                     ///< outcome, never admitted
};

/**
 * The daemon core: listen socket + accept loop + per-connection
 * reader threads, queries executed by a Supervisor pool, replies
 * written by the worker completion callbacks. start() it, then
 * waitDrained() blocks until someone calls requestDrain() (signal
 * handlers may: it only stores to an atomic) and every accepted query
 * has been answered.
 */
class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    /** Bind, listen, start the accept loop. Fatal on bind failure. */
    void start();

    /** The bound port (after start()). */
    uint16_t port() const { return port_; }

    /** Begin a graceful drain: stop accepting, stop reading, finish
     *  and flush everything in flight. Async-signal-safe. */
    void requestDrain() { draining_.store(true, std::memory_order_relaxed); }

    /** Block until the drain completes and all threads are joined. */
    void waitDrained();

    ServerCounters counters() const;
    ImageCacheStats cacheStats() const { return cache_.stats(); }
    ServiceStats poolStats() const;

    /** The journaled store (null unless dbJournalDir was set). */
    const db::JournaledStore *durableDb() const { return durable_.get(); }

    /** Machines on the pool's idle stack (at most the worker count). */
    size_t
    idleMachines() const
    {
        return pool_ ? pool_->idleMachines() : 0;
    }

    /**
     * The cache-miss path: compile program + goal (the standard
     * library and the fact text included), load the image into a
     * pooled machine reset to the fresh state, snapshot it and insert
     * the template under @p key. Returns nullptr with @p error set on
     * a compile failure.
     */
    std::shared_ptr<const Snapshot>
    compileTemplate(uint64_t key, const std::string &program,
                    const std::string &goal, std::string &error);

  private:
    struct Connection;
    struct QueryCtx;

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Connection> conn);
    void handleRequest(const std::shared_ptr<Connection> &conn,
                       const std::string &line);
    void handleQuery(const std::shared_ptr<Connection> &conn,
                     const JsonObject &request, const std::string &id);
    void onOutcome(std::shared_ptr<QueryCtx> ctx, QueryOutcome outcome);
    void writeReply(const std::shared_ptr<Connection> &conn,
                    const std::string &line);
    void replyError(const std::shared_ptr<Connection> &conn,
                    const std::string &id, const char *status,
                    const std::string &error);
    void replyOverloaded(const std::shared_ptr<Connection> &conn,
                         const std::string &id,
                         const std::string &detail);

    uint64_t retryAfterMs() const;

    /** @p base plus a deterministic pseudo-random jitter in
     *  [0, base/2] (seeded xorshift64*; see retryJitterSeed). */
    uint64_t jitteredRetryAfter(uint64_t base) const;

    /** Open (and replay) the journal and seed @p facts (the validated
     *  --db-facts file) on first boot (constructor helper; runs before
     *  the pool copies the session options). */
    void openDurableDb(const std::vector<TermRef> &facts);

    ServerOptions options_;
    ImageCache cache_;
    mutable std::mutex jitterMutex_;
    mutable uint64_t jitterState_;
    std::shared_ptr<db::JournaledStore> durable_;
    /** Text consulted after every program: the --db-facts file
     *  rendered canonically, once, at construction — or in durable
     *  mode only the facts' `:- dynamic(f/n).` declarations, so
     *  compiled images keep dynamic dispatch while the facts live in
     *  the journaled store. */
    std::string factsText_;
    std::unique_ptr<Supervisor> pool_;

    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> draining_{false};
    std::thread acceptThread_;

    mutable std::mutex connMutex_;
    std::vector<std::thread> connThreads_;
    size_t liveConnections_ = 0;

    mutable std::mutex statsMutex_;
    ServerCounters counters_;
    ServiceStats poolFinal_; ///< pool stats captured at drain

    /** accepted-but-unreplied queries; drain waits on this. */
    std::atomic<uint64_t> inflightQueries_{0};
    std::mutex drainMutex_;
    std::condition_variable drainCv_;
};

} // namespace kcm::service

#endif // KCM_SERVICE_SERVER_HH
