/**
 * @file
 * kcm_serverd — the always-on KCM query daemon.
 *
 * Binds a localhost TCP port, prints one JSON line with the bound
 * port to stdout ({"listening": <port>}), then serves the
 * newline-delimited JSON query protocol (service/server.hh) until
 * SIGTERM or SIGINT. The signal starts a graceful drain: the listen
 * socket closes, no further requests are read, every accepted query
 * finishes (or, past the grace period, is aborted at its next slice
 * boundary with a classified "interrupted" failure) and its reply is
 * flushed. The daemon then prints one final accounting line —
 *
 *   {"drain": true, "accepted": N, "replied": N, ...}
 *
 * — and exits 0. accepted == replied is the drain invariant the chaos
 * harness asserts: a shutdown loses no accepted query. A query answered
 * from its template's remembered outcome (a completed run, a trap or a
 * resource error; counted in "outcomes_replayed") never reaches the
 * pool and is in neither count.
 *
 * Usage:
 *   kcm_serverd [options]
 *
 * Options:
 *   --port N             TCP port (default 0 = ephemeral, reported)
 *   --workers N          execution worker threads (default 4)
 *   --queue-depth N      admission-queue bound (default 64)
 *   --cache-mb N         warm-template cache budget in MiB (default 256)
 *   --deadline-ms N      default query deadline, terminal, counted
 *                        from the start of the run (default 0 = none)
 *   --idle-timeout-ms N  per-connection idle timeout (default 30000)
 *   --read-deadline-ms N first byte -> full request bound (default 5000)
 *   --write-deadline-ms N reply write bound (default 5000)
 *   --max-inflight N     per-connection in-flight cap (default 8)
 *   --drain-grace-ms N   drain grace before aborting (default 5000)
 *   --db-facts FILE      preload FILE (plain facts only) into every
 *                        query's dynamic clause store; validated at
 *                        startup — a malformed clause (bad syntax, a
 *                        rule, a non-callable term, an over-arity
 *                        head) refuses to start with a diagnostic
 *   --db-journal DIR     durable dynamic database: open (and replay)
 *                        the write-ahead journal in DIR before
 *                        accepting connections; every query's
 *                        mutations are journaled before its reply is
 *                        written, and SIGTERM drain flushes the tail.
 *                        With --db-facts the file seeds the store on
 *                        first boot only (journal commit #1).
 *   --journal-sync MODE  fsync policy: always | group | none
 *                        (default group; see db/journal.hh for the
 *                        durability model of each)
 *   --journal-group-ms N group-commit window in ms (default 5)
 *   --journal-snapshot-every N
 *                        write a compacting snapshot record every N
 *                        commits (default 1024)
 *   --mem-budget-mb N    per-query data-zone memory budget in MiB
 *                        (default 0 = ungoverned); exceeding it fails
 *                        the query with catchable resource_error(memory)
 *   --global-mem-mb N    aggregate resident-memory budget across all
 *                        admitted queries in MiB (default 0 = off);
 *                        admissions beyond it are refused "overloaded"
 *   --mem-charge-mb N    memory charge assumed for an ungoverned query
 *                        (default 32)
 *   --jitter-seed N      seed for the deterministic retry_after_ms
 *                        jitter (tests; default fixed)
 *   --max-line-bytes N   request frame cap in bytes (default 4 MiB);
 *                        oversized frames are classified
 *                        "frame_too_large"
 *   --no-stdlib          do not consult the bundled standard library
 *   --chaos-hooks        enable the chaos op ("corrupt_cache")
 *   --oracle             decode-per-step execution core
 *
 * Exit codes: 0 = clean drain after SIGTERM/SIGINT, 2 = startup or
 * usage error.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "base/logging.hh"
#include "service/server.hh"

namespace
{

kcm::service::Server *activeServer = nullptr;

void
onSignal(int)
{
    // Only an atomic store — async-signal-safe. The server's drain
    // machinery polls the flag.
    if (activeServer)
        activeServer->requestDrain();
}

[[noreturn]] void
usage()
{
    fprintf(stderr,
            "usage: kcm_serverd [options]\n"
            "  --port N  --workers N  --queue-depth N  --cache-mb N\n"
            "  --deadline-ms N  --idle-timeout-ms N  --read-deadline-ms N\n"
            "  --write-deadline-ms N  --max-inflight N\n"
            "  --drain-grace-ms N  --db-facts FILE  --no-stdlib\n"
            "  --db-journal DIR  --journal-sync always|group|none\n"
            "  --journal-group-ms N  --journal-snapshot-every N\n"
            "  --mem-budget-mb N  --global-mem-mb N  --mem-charge-mb N\n"
            "  --jitter-seed N  --max-line-bytes N  --chaos-hooks\n"
            "  --oracle\n"
            "exit codes: 0 = clean drain on SIGTERM/SIGINT, "
            "2 = startup error\n");
    exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    kcm::service::ServerOptions options;
    std::string db_facts_path;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (arg == "--port") {
            options.port =
                uint16_t(strtoul(next().c_str(), nullptr, 10));
        } else if (arg == "--workers") {
            options.workers =
                unsigned(strtoul(next().c_str(), nullptr, 10));
        } else if (arg == "--queue-depth") {
            options.maxQueueDepth =
                size_t(strtoull(next().c_str(), nullptr, 10));
        } else if (arg == "--cache-mb") {
            options.cacheBudgetBytes =
                strtoull(next().c_str(), nullptr, 10) << 20;
        } else if (arg == "--deadline-ms") {
            options.session.deadlineMs =
                strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--idle-timeout-ms") {
            options.idleTimeoutMs =
                strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--read-deadline-ms") {
            options.readDeadlineMs =
                strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--write-deadline-ms") {
            options.writeDeadlineMs =
                strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--max-inflight") {
            options.maxInflightPerConn =
                unsigned(strtoul(next().c_str(), nullptr, 10));
        } else if (arg == "--drain-grace-ms") {
            options.drainGraceMs =
                strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--db-facts") {
            db_facts_path = next();
        } else if (arg == "--db-journal") {
            options.dbJournalDir = next();
        } else if (arg == "--journal-sync") {
            std::string mode = next();
            if (mode == "always")
                options.journal.sync = kcm::db::JournalSync::Always;
            else if (mode == "group")
                options.journal.sync = kcm::db::JournalSync::Group;
            else if (mode == "none")
                options.journal.sync = kcm::db::JournalSync::None;
            else
                usage();
        } else if (arg == "--journal-group-ms") {
            options.journal.groupWindowMs =
                strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--journal-snapshot-every") {
            options.journal.snapshotEvery =
                strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--mem-budget-mb") {
            options.session.machine.governor.memoryBudgetBytes =
                strtoull(next().c_str(), nullptr, 10) << 20;
        } else if (arg == "--global-mem-mb") {
            options.globalMemoryBudgetBytes =
                strtoull(next().c_str(), nullptr, 10) << 20;
        } else if (arg == "--mem-charge-mb") {
            options.defaultMemoryChargeBytes =
                strtoull(next().c_str(), nullptr, 10) << 20;
        } else if (arg == "--jitter-seed") {
            options.retryJitterSeed =
                strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--max-line-bytes") {
            options.maxLineBytes =
                size_t(strtoull(next().c_str(), nullptr, 10));
        } else if (arg == "--no-stdlib") {
            options.consultStdlib = false;
        } else if (arg == "--chaos-hooks") {
            options.chaosHooks = true;
        } else if (arg == "--oracle") {
            options.session.machine.fastDispatch = false;
        } else if (arg == "-h" || arg == "--help") {
            usage();
        } else {
            fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage();
        }
    }

    try {
        if (!db_facts_path.empty()) {
            std::ifstream in(db_facts_path);
            if (!in)
                kcm::fatal("--db-facts ", db_facts_path,
                           ": cannot open file");
            std::ostringstream os;
            os << in.rdbuf();
            options.dbFactsSource = os.str();
            options.dbFactsOrigin = db_facts_path;
        }

        // The constructor validates --db-facts: a malformed clause
        // refuses to start the daemon.
        kcm::service::Server server(options);
        server.start();
        activeServer = &server;

        struct sigaction sa{};
        sa.sa_handler = onSignal;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGTERM, &sa, nullptr);
        sigaction(SIGINT, &sa, nullptr);
        signal(SIGPIPE, SIG_IGN);

        printf("{\"listening\": %u}\n", unsigned(server.port()));
        fflush(stdout);

        server.waitDrained();
        activeServer = nullptr;

        auto c = server.counters();
        auto cache = server.cacheStats();
        auto pool = server.poolStats();
        printf("{\"drain\": true, \"accepted\": %llu, "
               "\"replied\": %llu, \"interrupted\": %llu, "
               "\"requests\": %llu, \"bad_requests\": %llu, "
               "\"overloaded\": %llu, \"compiles\": %llu, "
               "\"cache_hits\": %llu, \"cache_misses\": %llu, "
               "\"cache_corrupt_evictions\": %llu, "
               "\"corrupt_retries\": %llu, "
               "\"pool_completed\": %llu, \"pool_failed\": %llu, "
               "\"frame_too_large\": %llu, "
               "\"deadline_propagated_sheds\": %llu, "
               "\"mem_aborts\": %llu, "
               "\"mem_admission_refusals\": %llu, "
               "\"outcomes_replayed\": %llu, "
               "\"connections_refused\": %llu",
               (unsigned long long)c.queriesAccepted,
               (unsigned long long)c.queriesReplied,
               (unsigned long long)c.interrupted,
               (unsigned long long)c.requests,
               (unsigned long long)c.badRequests,
               (unsigned long long)c.overloaded,
               (unsigned long long)c.compiles,
               (unsigned long long)cache.hits,
               (unsigned long long)cache.misses,
               (unsigned long long)cache.corruptEvictions,
               (unsigned long long)c.corruptRetries,
               (unsigned long long)pool.completed,
               (unsigned long long)pool.failed,
               (unsigned long long)c.frameTooLarge,
               (unsigned long long)pool.deadlinePropagatedSheds,
               (unsigned long long)pool.memAborts,
               (unsigned long long)pool.memAdmissionRefusals,
               (unsigned long long)c.outcomesReplayed,
               (unsigned long long)c.connectionsRefused);
        if (const kcm::db::JournaledStore *db = server.durableDb()) {
            printf(", \"db_commits\": %llu, \"db_ops\": %llu, "
                   "\"journal_commits\": %llu, "
                   "\"journal_snapshots\": %llu, "
                   "\"journal_bytes\": %llu",
                   (unsigned long long)pool.dbCommits,
                   (unsigned long long)pool.dbOps,
                   (unsigned long long)db->commitsWritten(),
                   (unsigned long long)db->snapshotsWritten(),
                   (unsigned long long)db->bytesWritten());
        }
        printf("}\n");
        fflush(stdout);
        return c.queriesAccepted == c.queriesReplied ? 0 : 2;
    } catch (const std::exception &e) {
        fprintf(stderr, "kcm_serverd: %s\n", e.what());
        return 2;
    }
}
