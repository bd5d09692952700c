/**
 * @file
 * Network chaos harness: the always-on query server under hostile
 * clients and a hostile network.
 *
 * Spawns a real kcm_serverd daemon (fork/exec, ephemeral port), then
 * drives it with N concurrent clients whose queries rotate through
 * six families, five of them faults:
 *
 *   clean        well-behaved query/reply round trips (the carrier —
 *                every other family also issues real queries)
 *   garbage      binary/malformed frames before a real query; the
 *                server must answer "bad_request" and keep the
 *                connection serviceable
 *   slow_loris   requests trickled byte-by-byte; a trickle inside the
 *                read deadline must succeed, one past it must be
 *                rejected and the connection closed
 *   drop         the client sends a query and vanishes mid-flight
 *                (RST, no read); the server must complete the query
 *                and survive the dead socket
 *   corrupt      the "corrupt_cache" chaos hook flips a bit in the
 *                warm snapshot-template cache right before a query
 *                that would hit it; the checksum layers must eat the
 *                corruption (evict + recompile) — never a wrong answer
 *   mem_hog      real queries carrying a 1 MiB "memory_budget_bytes"
 *                with heap-hungry work: every one must fail
 *                resource_error(memory) — run, or answered from the
 *                outcome remembered with its template — never complete,
 *                never hang
 *
 * plus a kill-and-restart event: mid-run the daemon is SIGKILLed and
 * a fresh one spawned; every in-flight query classifies as a
 * connection failure and every client reconnects and carries on.
 *
 * Two deterministic sequential phases run before the sweep, each
 * against its own daemon:
 *
 *   journal_corrupt  a durable daemon (--db-journal): commit a few
 *                mutations, drain cleanly, flip one payload byte in a
 *                mid-file journal record, restart — the daemon must
 *                classify the scan as corrupt_record, truncate the
 *                suspect suffix, and serve exactly the surviving-prefix
 *                database (verified against an offline
 *                Journal::scanFile replay); never a silent swallow,
 *                never a half-applied batch
 *   replay       a memory hog sent three times runs once, and the two
 *                later replies equal the run's (outcomes_replayed 2,
 *                queries_accepted 1); so does a completed
 *                multi-solution query, but for "id", "cache" and
 *                "wall_ms"; six 1 ms deadline failures of one shape
 *                are not remembered, so the same goal without a
 *                deadline completes with its closed-form answer; and
 *                app(X, Y, Z), sent after all that, gets the reply a
 *                second, fresh daemon gives it (variables numbered
 *                per answer: a reply is a function of the query)
 *
 * Every completed reply is checked bit-identical against the baseline
 * interpreter (the differential oracle); everything else must be a
 * *classified* failure (a structured server reply or an expected
 * transport event). An unclassified outcome or a divergent answer
 * fails the harness, as does a daemon crash or a drain that loses an
 * accepted query: the final SIGTERM must yield exit 0 with
 * accepted == replied.
 *
 * Modes:
 *   (default)      chaos sweep; writes BENCH_server_chaos.json
 *   --cache-bench  warm-cache speedup: compile+link+download vs
 *                  snapshot-template restore, measured both in-process
 *                  and as client-observed latency, plus the
 *                  client-observed replay of a remembered outcome;
 *                  writes BENCH_server_cache.json
 *
 * Options: --clients N (default 10), --queries N (per client, default
 * 60), --serverd PATH (default: sibling ../tools/kcm_serverd, or
 * $KCM_SERVERD), --json PATH, --no-kill (skip the kill-restart event;
 * the TSan CI leg uses it — SIGKILL mid-write is outside TSan's
 * supported model).
 *
 * Exit codes: 0 = every query matched or failed classified and the
 * drain was clean; 1 = divergence / lost query / daemon crash;
 * 2 = harness error.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/logging.hh"
#include "baseline/interp.hh"
#include "bench_support/daemon.hh"
#include "bench_support/json_report.hh"
#include "core/snapshot.hh"
#include "db/clause_store.hh"
#include "db/journal.hh"
#include "kcm/kcm.hh"
#include "service/client.hh"

using namespace kcm;
using service::Client;
using service::ClientReply;
using service::IoStatus;

namespace
{

const char *chaosProgram = R"PROLOG(
sumto(0, 0).
sumto(N, S) :- N > 0, M is N - 1, sumto(M, T), S is T + N.

mklist(0, []).
mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).

app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).

rev([], []).
rev([H|T], R) :- rev(T, RT), app(RT, [H], R).

suml([], A, A).
suml([H|T], A, S) :- B is A + H, suml(T, B, S).

revsum(N, S) :- mklist(N, L), rev(L, R), suml(R, 0, S).

sumc(0, 0).
sumc(N, S) :- N > 0, !, M is N - 1, sumc(M, T), S is T + N.

itc(0, A, A).
itc(N, A, S) :- N > 0, !, sumc(200, T), B is A + T, M is N - 1,
                itc(M, B, S).
)PROLOG";

// ------------------------------------------------------------------ //
// Oracle: the baseline interpreter plus an answer cache.
// ------------------------------------------------------------------ //

class Oracle
{
  public:
    Oracle() { interp_.consult(chaosProgram); }

    /** (answers, error) for @p goal, first solution only. */
    std::pair<std::string, std::string>
    answer(const std::string &goal)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = cache_.find(goal);
        if (it != cache_.end())
            return it->second;
        baseline::InterpResult res = interp_.query(goal, 1);
        std::string answers;
        for (const auto &s : res.solutions)
            answers += s.toString() + ";";
        auto entry = std::make_pair(answers, res.error);
        cache_[goal] = entry;
        return entry;
    }

  private:
    std::mutex mutex_;
    baseline::Interpreter interp_;
    std::map<std::string, std::pair<std::string, std::string>> cache_;
};

// ------------------------------------------------------------------ //
// Daemon management: fork/exec kcm_serverd, ephemeral port reported
// on its stdout; SIGKILL for the crash family, SIGTERM for the final
// drain assertion.
// ------------------------------------------------------------------ //

/** Spawn kcm_serverd with the sweep's base flags plus @p extra. */
Daemon
spawnChaosDaemon(const std::string &path,
                 const std::vector<std::string> &extra = {})
{
    std::vector<std::string> args = {
        path,        "--chaos-hooks",     "--workers",
        "4",         "--queue-depth",     "256",
        "--deadline-ms", "20000",         "--read-deadline-ms", "800",
        "--idle-timeout-ms", "30000",     "--drain-grace-ms",
        "8000"};
    args.insert(args.end(), extra.begin(), extra.end());
    return spawnDaemon(std::move(args), /*quiet_stderr=*/false);
}

// ------------------------------------------------------------------ //
// The sweep.
// ------------------------------------------------------------------ //

/** Shared daemon endpoint, updated across kill-and-restart. */
struct Endpoint
{
    std::atomic<uint16_t> port{0};
    std::atomic<uint32_t> generation{0};
    std::atomic<bool> restarting{false};
};

struct Tally
{
    int matched = 0;  ///< completed, bit-identical to the oracle
    int diverged = 0; ///< the bug class this harness exists for
    std::map<std::string, int> classified; ///< every other outcome
};

struct SweepShared
{
    Endpoint endpoint;
    Oracle oracle;
    std::atomic<int> issued{0};
    std::mutex tallyMutex;
    std::map<std::string, Tally> tallies; ///< per family
};


std::string
goalFor(uint32_t seed)
{
    // A pool of ~50 distinct goals: small enough that even a short
    // smoke burst repeats some (program, goal) keys and exercises the
    // warm-template hit path, large enough that the LRU cache still
    // churns under the full sweep.
    uint32_t r = mix(seed * 2654435761u + 12345u);
    if (r % 4 == 0)
        return cat("revsum(", 10 + (r >> 4) % 10, ", S)");
    return cat("sumto(", 100 + (r >> 4) % 40, ", S)");
}

void
bump(SweepShared &shared, const std::string &family,
     const std::string &klass)
{
    std::lock_guard<std::mutex> lock(shared.tallyMutex);
    ++shared.tallies[family].classified[klass];
}

/** Connect to the current endpoint, retrying across a restart. */
bool
connectCurrent(Client &client, Endpoint &endpoint)
{
    for (int attempt = 0; attempt < 100; ++attempt) {
        uint16_t port = endpoint.port.load();
        if (port && client.connect("127.0.0.1", port, 2'000))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return false;
}

/** Issue one real query and verify it against the oracle. Returns
 *  false when the connection needs to be re-established. */
bool
verifiedQuery(Client &client, SweepShared &shared,
              const std::string &family, const std::string &id,
              const std::string &goal)
{
    uint32_t gen = shared.endpoint.generation.load();
    service::JsonWriter w;
    w.field("op", "query")
        .field("id", id)
        .field("program", chaosProgram)
        .field("goal", goal)
        .field("max_solutions", uint64_t(1));
    ClientReply reply;
    if (client.sendLine(w.str()) != IoStatus::Ok)
        reply.io = IoStatus::Closed;
    else
        reply = client.readReply(60'000);
    ++shared.issued;

    if (reply.io != IoStatus::Ok || !reply.parsed) {
        // Transport breakage. Expected — and classified — when the
        // daemon was killed under us; anything else is still a
        // classified transport event, never a silent loss.
        bool killed = shared.endpoint.generation.load() != gen ||
                      shared.endpoint.restarting.load();
        bump(shared, family,
             killed ? "daemon_killed"
                    : cat("transport_",
                          service::ioStatusName(reply.io)));
        return false;
    }

    const std::string status = reply.status();
    if (status == "completed") {
        auto [want_answers, want_error] = shared.oracle.answer(goal);
        std::string got;
        auto it = reply.fields.find("answers");
        if (it != reply.fields.end())
            for (const auto &a : it->second.items)
                got += a.str + ";";
        std::string got_error = reply.str("error");
        std::lock_guard<std::mutex> lock(shared.tallyMutex);
        if (got == want_answers && got_error == want_error) {
            ++shared.tallies[family].matched;
        } else {
            ++shared.tallies[family].diverged;
            fprintf(stderr,
                    "DIVERGENCE %s goal=%s\n  server: '%s' err='%s'\n"
                    "  oracle: '%s' err='%s'\n",
                    id.c_str(), goal.c_str(), got.c_str(),
                    got_error.c_str(), want_answers.c_str(),
                    want_error.c_str());
        }
        return true;
    }
    if (status == "failed" || status == "overloaded" ||
        status == "bad_request") {
        // A structured, classified server-side failure.
        std::string klass = reply.str("error");
        bump(shared, family,
             klass.empty() ? status : cat(status, ":", klass));
        return true;
    }
    bump(shared, family, cat("unexpected_status:", status));
    std::lock_guard<std::mutex> lock(shared.tallyMutex);
    ++shared.tallies[family].diverged;
    return true;
}

void
clientMain(SweepShared &shared, int client_id, int queries)
{
    Client client;
    if (!connectCurrent(client, shared.endpoint)) {
        bump(shared, "clean", "never_connected");
        return;
    }

    static const char *families[] = {"clean",      "garbage",
                                     "slow_loris", "drop",
                                     "corrupt",    "mem_hog"};
    for (int i = 0; i < queries; ++i) {
        uint32_t seed = uint32_t(client_id) * 10'000 + uint32_t(i);
        const std::string family =
            families[size_t(client_id + i) % std::size(families)];
        const std::string goal = goalFor(seed);
        const std::string id = cat("c", client_id, "/q", i);

        if (!client.connected() &&
            !connectCurrent(client, shared.endpoint)) {
            bump(shared, family, "reconnect_failed");
            return;
        }

        bool ok = true;
        if (family == "clean") {
            ok = verifiedQuery(client, shared, family, id, goal);
        } else if (family == "garbage") {
            // A garbage frame (binary junk, unterminated JSON, raw
            // control bytes) must yield bad_request and leave the
            // connection usable for the real query that follows.
            static const char *frames[] = {
                "\x01\x02\xff\xfe binary junk",
                "{\"op\": \"query\", \"program\": ",
                "]]]}{{{",
                "{\"op\": [\"nested\", {\"not\": \"allowed\"}]}",
            };
            std::string frame = frames[mix(seed) % 4];
            if (client.sendLine(frame) != IoStatus::Ok) {
                bump(shared, family, "transport_send");
                ok = false;
            } else {
                ClientReply r = client.readReply(10'000);
                if (r.io == IoStatus::Ok &&
                    r.status() == "bad_request") {
                    bump(shared, family, "garbage_rejected");
                    ok = verifiedQuery(client, shared, family, id,
                                       goal);
                } else {
                    bump(shared, family,
                         cat("garbage_unrejected:",
                             service::ioStatusName(r.io)));
                    ok = false;
                }
            }
        } else if (family == "slow_loris") {
            service::JsonWriter w;
            w.field("op", "query")
                .field("id", id)
                .field("program", chaosProgram)
                .field("goal", goal)
                .field("max_solutions", uint64_t(1));
            std::string frame = w.str() + "\n";
            if (mix(seed + 7) % 2 == 0) {
                // Inside the read deadline (800 ms): ~6 large chunks,
                // 25 ms apart. Must be served normally.
                IoStatus st = client.sendSlowly(
                    frame, frame.size() / 6 + 1, 25);
                ++shared.issued;
                if (st != IoStatus::Ok) {
                    bump(shared, family, "transport_send");
                    ok = false;
                } else {
                    ClientReply r = client.readReply(60'000);
                    if (r.io == IoStatus::Ok &&
                        r.status() == "completed") {
                        auto [want, want_err] =
                            shared.oracle.answer(goal);
                        std::string got;
                        auto itf = r.fields.find("answers");
                        if (itf != r.fields.end())
                            for (const auto &a : itf->second.items)
                                got += a.str + ";";
                        std::lock_guard<std::mutex> lock(
                            shared.tallyMutex);
                        if (got == want &&
                            r.str("error") == want_err) {
                            ++shared.tallies[family].matched;
                        } else {
                            ++shared.tallies[family].diverged;
                            fprintf(stderr,
                                    "DIVERGENCE (slow) %s\n",
                                    id.c_str());
                        }
                    } else if (r.io == IoStatus::Ok) {
                        bump(shared, family,
                             cat("slow_ok_variant:", r.status()));
                    } else {
                        bump(shared, family,
                             cat("slow_ok_transport:",
                                 service::ioStatusName(r.io)));
                        ok = false;
                    }
                }
            } else {
                // Past the read deadline: trickle ~2.5 s of a frame.
                // The server must reject and close — if it serves the
                // request anyway, the slow-loris bound is broken.
                IoStatus st = client.sendSlowly(
                    frame.substr(0, 50), 5, 250);
                ClientReply r = client.readReply(10'000);
                if (r.io == IoStatus::Ok &&
                    r.status() == "bad_request") {
                    bump(shared, family, "loris_rejected");
                } else if (r.io == IoStatus::Closed ||
                           st != IoStatus::Ok) {
                    bump(shared, family, "loris_closed");
                } else {
                    bump(shared, family, "loris_not_rejected");
                    std::lock_guard<std::mutex> lock(
                        shared.tallyMutex);
                    ++shared.tallies[family].diverged;
                }
                client.close();
                ok = false; // reconnect
            }
        } else if (family == "drop") {
            // Send a real query and vanish (RST, nothing read). The
            // daemon still executes and replies into the dead socket;
            // its accounting must absorb that without crashing.
            service::JsonWriter w;
            w.field("op", "query")
                .field("id", id)
                .field("program", chaosProgram)
                .field("goal", goal)
                .field("max_solutions", uint64_t(1));
            if (client.sendLine(w.str()) == IoStatus::Ok) {
                ++shared.issued;
                bump(shared, family, "client_aborted");
            } else {
                bump(shared, family, "transport_send");
            }
            client.abort();
            ok = false; // reconnect
        } else if (family == "corrupt") {
            // Flip a bit in the hottest cache template, then query:
            // the checksum layers must turn the corruption into a
            // recompile, never into a wrong answer.
            if (client.sendLine("{\"op\": \"corrupt_cache\"}") ==
                IoStatus::Ok) {
                ClientReply ack = client.readReply(10'000);
                if (ack.io != IoStatus::Ok) {
                    bump(shared, family, "corrupt_ack_lost");
                    ok = false;
                } else {
                    ok = verifiedQuery(client, shared, family, id,
                                       goal);
                }
            } else {
                bump(shared, family, "transport_send");
                ok = false;
            }
        } else { // mem_hog
            // A 1 MiB budget against multi-MiB work: the reply must
            // be resource_error(memory), from a run or from the
            // outcome remembered with the shape's template — never a
            // completion, another classification or a hang.
            service::JsonWriter w;
            w.field("op", "query")
                .field("id", id)
                .field("program", chaosProgram)
                .field("goal", "mklist(200000, L)")
                .field("max_solutions", uint64_t(1))
                .field("memory_budget_bytes", uint64_t(1) << 20);
            if (client.sendLine(w.str()) != IoStatus::Ok) {
                bump(shared, family, "transport_send");
                ok = false;
            } else {
                ClientReply r = client.readReply(60'000);
                ++shared.issued;
                if (r.io != IoStatus::Ok) {
                    bool killed = shared.endpoint.restarting.load();
                    bump(shared, family,
                         killed ? "daemon_killed"
                                : cat("transport_",
                                      service::ioStatusName(r.io)));
                    ok = false;
                } else if (r.status() == "failed" &&
                           r.str("error") == "resource_error(memory)") {
                    bump(shared, family,
                         cat("failed:resource_error(memory), cache ",
                             r.str("cache")));
                } else {
                    std::lock_guard<std::mutex> lock(
                        shared.tallyMutex);
                    ++shared.tallies[family].diverged;
                    fprintf(stderr,
                            "DIVERGENCE %s: mem_hog not failed "
                            "resource_error(memory): %s\n",
                            id.c_str(), r.raw.c_str());
                }
            }
        }

        if (!ok)
            client.close();
    }
}

// ------------------------------------------------------------------ //
// journal_corrupt: bit rot in the durable database's journal. A
// sequential phase with its own daemon — commit, drain, flip one
// payload byte mid-file, restart, and hold the daemon to the
// corrupt_record contract: report it, truncate the suffix, serve
// exactly the surviving prefix.
// ------------------------------------------------------------------ //

void
journalCorruptPhase(const std::string &serverd, SweepShared &shared)
{
    const char *family = "journal_corrupt";
    const char *db_program = ":- dynamic(g/1).\nadd(K) :- assertz(g(K)).\n";
    const int commits = 6;

    auto diverge = [&](const std::string &why) {
        std::lock_guard<std::mutex> lock(shared.tallyMutex);
        ++shared.tallies[family].diverged;
        fprintf(stderr, "journal_corrupt: %s\n", why.c_str());
    };

    char dir_tmpl[] = "/tmp/kcm_chaos_journal_XXXXXX";
    if (!mkdtemp(dir_tmpl))
        fatal("mkdtemp(): ", strerror(errno));
    std::string dir = dir_tmpl;
    std::string jpath = db::Journal::journalFilePath(dir);
    std::vector<std::string> jflags = {"--db-journal", dir,
                                       "--journal-sync", "always",
                                       "--journal-snapshot-every", "0"};

    // Build a small committed history, then drain cleanly.
    {
        Daemon daemon = spawnChaosDaemon(serverd, jflags);
        Client client;
        if (!client.connect("127.0.0.1", daemon.port, 2'000)) {
            diverge("cannot connect to the durable daemon");
            return;
        }
        for (int i = 0; i < commits; ++i) {
            ClientReply r = client.query(cat("jc", i), db_program,
                                         cat("add(", i, ")"), 1, 0,
                                         30'000);
            if (r.io != IoStatus::Ok || r.status() != "completed" ||
                r.num("db_commit") != i + 1) {
                diverge(cat("mutation ", i, " not acked as commit ",
                            i + 1, ": ", r.raw));
                return;
            }
        }
        client.close();
        int status = daemon.stop(SIGTERM);
        std::string drain = readLineFd(daemon.outFd);
        daemon.closeFd();
        service::JsonObject obj;
        std::string err;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
            !service::parseJsonObject(drain, obj, err) ||
            obj["journal_commits"].asInt() != commits) {
            diverge(cat("clean drain did not report ", commits,
                        " journal commits: ", drain));
            return;
        }
        bump(shared, family, "history_committed");
    }

    // Flip one payload byte in a mid-file commit record. The record
    // header is 24 bytes (type, reserved, length, checksum); +24 is
    // the first payload byte.
    db::JournalScan before = db::Journal::scanFile(jpath, nullptr);
    if (!before.clean() || before.commits != commits ||
        before.recordOffsets.size() != size_t(commits)) {
        diverge("pre-corruption journal is not the committed history");
        return;
    }
    const int cut = commits / 2; // records [cut..) must be dropped
    {
        std::FILE *f = std::fopen(jpath.c_str(), "r+b");
        if (!f)
            fatal("cannot reopen ", jpath);
        long off = long(before.recordOffsets[size_t(cut)]) + 24;
        std::fseek(f, off, SEEK_SET);
        int c = std::fgetc(f);
        std::fseek(f, off, SEEK_SET);
        std::fputc(c ^ 0x40, f);
        std::fclose(f);
    }

    // The offline oracle: the corrupted file must classify as
    // corrupt_record and replay exactly the pre-corruption prefix.
    db::ClauseStore replayed{db::DynDbConfig{}};
    db::JournalScan after = db::Journal::scanFile(jpath, &replayed);
    Functor g{AtomTable::instance().intern("g"), 1};
    if (std::string(after.classification()) != "corrupt_record" ||
        after.lastCommitId != uint64_t(cut) ||
        replayed.liveClauseCount(g) != uint64_t(cut)) {
        diverge(cat("offline scan: tail=", after.classification(),
                    " lastCommit=", after.lastCommitId, " live=",
                    replayed.liveClauseCount(g), ", expected "
                    "corrupt_record/", cut, "/", cut));
        return;
    }
    bump(shared, family, "corruption_classified");

    // Restart on the damaged journal: startup recovery must report
    // the corruption, truncate the suffix, and serve the surviving
    // prefix — bit rot is loud, never a wrong answer.
    {
        Daemon daemon = spawnChaosDaemon(serverd, jflags);
        Client client;
        if (!client.connect("127.0.0.1", daemon.port, 2'000)) {
            diverge("cannot reconnect after corruption");
            return;
        }
        ClientReply s = client.stats();
        if (s.io != IoStatus::Ok ||
            s.str("journal_recovery") != "corrupt_record" ||
            s.num("journal_recovered_commits") != cut ||
            s.num("journal_truncated_bytes") <= 0) {
            diverge(cat("stats hide the corruption: ", s.raw));
            return;
        }
        bump(shared, family, "recovery_reported");
        for (int i = 0; i < commits; ++i) {
            ClientReply r = client.query(cat("jp", i), db_program,
                                         cat("g(", i, ")"), 0, 0,
                                         30'000);
            bool want_live = i < cut;
            bool got_live = false;
            auto it = r.fields.find("answers");
            if (it != r.fields.end())
                got_live = !it->second.items.empty();
            if (r.io != IoStatus::Ok || r.status() != "completed" ||
                got_live != want_live) {
                diverge(cat("probe g(", i, "): live=", got_live,
                            " want=", want_live, ": ", r.raw));
                return;
            }
            std::lock_guard<std::mutex> lock(shared.tallyMutex);
            ++shared.tallies[family].matched;
        }
        client.close();
        int status = daemon.stop(SIGTERM);
        daemon.closeFd();
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            diverge("post-corruption drain did not exit 0");
            return;
        }
        bump(shared, family, "drain_clean");
    }
    std::string rm = cat("rm -rf '", dir, "'");
    if (std::system(rm.c_str()) != 0)
        fprintf(stderr, "journal_corrupt: cleanup failed: %s\n",
                dir.c_str());
}

// ------------------------------------------------------------------ //
// replay: a completed run or a deterministic failure is remembered with
// its template. A sequential phase with its own daemon: a repeated
// shape runs once and is answered from its template after that, and a
// failure that depends on timing is never remembered.
// ------------------------------------------------------------------ //

void
replayPhase(const std::string &serverd, SweepShared &shared)
{
    const char *family = "replay";
    auto diverge = [&](const std::string &why) {
        std::lock_guard<std::mutex> lock(shared.tallyMutex);
        ++shared.tallies[family].diverged;
        fprintf(stderr, "replay: %s\n", why.c_str());
    };

    Daemon daemon = spawnChaosDaemon(serverd);
    Client client;
    if (!client.connect("127.0.0.1", daemon.port, 2'000)) {
        diverge("cannot connect to the replay daemon");
        return;
    }

    // A memory hog fails resource_error(memory) every time: the first
    // query runs, the next two get the same reply without running.
    // Only the cache verdict may differ, "miss" for the run.
    std::vector<ClientReply> hog;
    for (int i = 0; i < 3; ++i) {
        service::JsonWriter w;
        w.field("op", "query")
            .field("id", cat("rp", i))
            .field("program", chaosProgram)
            .field("goal", "mklist(200000, L)")
            .field("max_solutions", uint64_t(1))
            .field("memory_budget_bytes", uint64_t(1) << 20);
        ClientReply r;
        if (client.sendLine(w.str()) != IoStatus::Ok)
            r.io = IoStatus::Closed;
        else
            r = client.readReply(60'000);
        if (r.io != IoStatus::Ok || r.status() != "failed" ||
            r.str("error") != "resource_error(memory)" ||
            r.str("cache") != (i == 0 ? "miss" : "hit")) {
            diverge(cat("memory hog ", i, " not classified: ", r.raw));
            return;
        }
        hog.push_back(r);
    }
    // Past the id the replays equal each other, and the run's reply
    // with its cache verdict read as a hit.
    auto afterId = [](const ClientReply &r) {
        return r.raw.substr(r.raw.find("\"status\""));
    };
    std::string run = afterId(hog[0]);
    run.replace(run.rfind("\"miss\""), 6, "\"hit\"");
    if (afterId(hog[1]) != run || afterId(hog[2]) != run) {
        diverge(cat("replayed failure differs from the run: ", hog[0].raw,
                    " / ", hog[1].raw, " / ", hog[2].raw));
        return;
    }
    ClientReply s = client.stats();
    if (s.io != IoStatus::Ok || s.num("outcomes_replayed") != 2 ||
        s.num("queries_accepted") != 1) {
        diverge(cat("memory hog ran more than once: ", s.raw));
        return;
    }
    bump(shared, family, "failure_replayed");

    // A completed query with four answers, sent three times: it runs
    // once, and the two later replies equal the run's but for "id",
    // "cache" and "wall_ms".
    auto runFields = [](const ClientReply &r) {
        const size_t from = r.raw.find("\"status\"");
        return r.raw.substr(from, r.raw.rfind("\"cache\"") - from);
    };
    std::vector<ClientReply> split;
    for (int i = 0; i < 3; ++i) {
        ClientReply r = client.query(cat("rc", i), chaosProgram,
                                     "app(X, Y, [1, 2, 3])", 0, 0, 60'000);
        auto answers = r.fields.find("answers");
        if (r.io != IoStatus::Ok || r.status() != "completed" ||
            answers == r.fields.end() || answers->second.items.size() != 4) {
            diverge(cat("completed query ", i, " not completed: ", r.raw));
            return;
        }
        split.push_back(r);
    }
    if (runFields(split[1]) != runFields(split[0]) ||
        runFields(split[2]) != runFields(split[0]) ||
        split[1].str("cache") != "hit" || split[2].str("cache") != "hit" ||
        split[1].num("wall_ms", -1) != 0 || split[2].num("wall_ms", -1) != 0) {
        diverge(cat("replayed completion differs from the run: ",
                    split[0].raw, " / ", split[1].raw, " / ",
                    split[2].raw));
        return;
    }
    s = client.stats();
    if (s.io != IoStatus::Ok || s.num("outcomes_replayed") != 4 ||
        s.num("queries_accepted") != 2) {
        diverge(cat("completed query ran more than once: ", s.raw));
        return;
    }
    bump(shared, family, "completion_replayed");

    // Six deadline failures of one shape are not remembered: the same
    // goal without a deadline runs and completes.
    const std::string goal = "itc(500, 0, S)";
    for (int i = 0; i < 6; ++i) {
        ClientReply r = client.query(cat("rd", i), chaosProgram, goal, 1,
                                     /*deadline_ms=*/1, 60'000);
        if (r.io != IoStatus::Ok || r.status() != "failed" ||
            r.str("error") != "deadline_exceeded") {
            diverge(cat("deadline failure ", i, " not classified: ",
                        r.raw));
            return;
        }
    }
    ClientReply done = client.query("rdone", chaosProgram, goal, 1, 0,
                                    120'000);
    // itc(500, 0, S) adds sumc(200) = 20100 five hundred times.
    auto answers = done.fields.find("answers");
    if (done.io != IoStatus::Ok || done.status() != "completed" ||
        answers == done.fields.end() || answers->second.items.size() != 1 ||
        answers->second.items[0].str != "S = 10050000") {
        diverge(cat("deadline-free query did not complete: ", done.raw));
        return;
    }
    {
        std::lock_guard<std::mutex> lock(shared.tallyMutex);
        ++shared.tallies[family].matched;
    }

    // Fresh variables after all that traffic: the reply must equal a
    // fresh daemon's (checked after the drain), numbered per answer.
    auto history = [](Client &c) {
        return c.query("rh", chaosProgram, "app(X, Y, Z)", 2, 0, 60'000);
    };
    ClientReply after_traffic = history(client);

    client.close();
    int status = daemon.stop(SIGTERM);
    std::string drain = readLineFd(daemon.outFd);
    daemon.closeFd();
    service::JsonObject obj;
    std::string err;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !service::parseJsonObject(drain, obj, err) ||
        obj["outcomes_replayed"].asInt() != 4 ||
        obj["accepted"].asInt() != 10) {
        diverge(cat("replay daemon drain: ", drain));
        return;
    }
    bump(shared, family, "drain_clean");

    Daemon fresh = spawnChaosDaemon(serverd);
    Client fresh_client;
    if (!fresh_client.connect("127.0.0.1", fresh.port, 2'000)) {
        diverge("cannot connect to the fresh daemon");
        return;
    }
    const ClientReply first = history(fresh_client);
    fresh_client.close();
    status = fresh.stop(SIGTERM);
    fresh.closeFd();
    const auto &got = after_traffic.fields["answers"].items;
    if (after_traffic.status() != "completed" || got.size() != 2 ||
        got[0].str != "X = [], Y = _0, Z = _0" ||
        got[1].str != "X = [_0], Y = _1, Z = [_0|_1]" ||
        runFields(first) != runFields(after_traffic) ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        diverge(cat("reply depends on the daemon's history: ",
                    after_traffic.raw, " / fresh: ", first.raw));
        return;
    }
    bump(shared, family, "history_free");
}

int
chaosSweep(int clients, int queries_per_client,
           const std::string &serverd, const std::string &json_path,
           bool kill_restart)
{
    SweepShared shared;

    // The deterministic sequential phases run first, each against its
    // own daemon; their failures count as divergences in the shared
    // tally.
    journalCorruptPhase(serverd, shared);
    replayPhase(serverd, shared);

    Daemon daemon = spawnChaosDaemon(serverd);
    shared.endpoint.port.store(daemon.port);
    printf("server_chaos: daemon pid %d on port %u; %d clients x %d "
           "queries\n",
           int(daemon.pid), unsigned(daemon.port), clients,
           queries_per_client);

    std::vector<std::thread> threads;
    threads.reserve(size_t(clients));
    for (int c = 0; c < clients; ++c)
        threads.emplace_back(
            [&shared, c, queries_per_client] {
                clientMain(shared, c, queries_per_client);
            });

    // Kill-and-restart: once half the workload is through, SIGKILL
    // the daemon mid-flight and bring up a fresh one. Clients classify
    // the breakage and carry on against the new instance.
    const int total = clients * queries_per_client;
    int restarts = 0;
    if (kill_restart) {
        while (shared.issued.load() < total / 2)
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        shared.endpoint.restarting.store(true);
        daemon.stop(SIGKILL);
        daemon.closeFd();
        printf("server_chaos: SIGKILLed daemon pid %d mid-run\n",
               int(daemon.pid));
        daemon = spawnChaosDaemon(serverd);
        shared.endpoint.port.store(daemon.port);
        shared.endpoint.generation.fetch_add(1);
        shared.endpoint.restarting.store(false);
        ++restarts;
        printf("server_chaos: restarted as pid %d on port %u\n",
               int(daemon.pid), unsigned(daemon.port));
    }

    for (std::thread &t : threads)
        t.join();

    // The daemon must still be alive and serviceable.
    if (daemon.exited()) {
        fprintf(stderr, "server_chaos: daemon died during the sweep\n");
        return 1;
    }
    uint64_t cache_hits = 0, cache_corrupt = 0;
    std::string stats_raw;
    {
        Client probe;
        if (!probe.connect("127.0.0.1", daemon.port, 2'000)) {
            fprintf(stderr,
                    "server_chaos: daemon unreachable after sweep\n");
            return 1;
        }
        ClientReply s = probe.stats();
        if (s.io != IoStatus::Ok || s.status() != "ok") {
            fprintf(stderr, "server_chaos: stats probe failed\n");
            return 1;
        }
        stats_raw = s.raw;
        cache_hits = uint64_t(s.num("cache_hits"));
        cache_corrupt = uint64_t(s.num("cache_corrupt_evictions") +
                                 s.num("corrupt_retries"));
    }

    // Final drain: SIGTERM must exit 0 and lose no accepted query.
    int status = daemon.stop(SIGTERM);
    bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    std::string drain_line = readLineFd(daemon.outFd);
    daemon.closeFd();
    uint64_t accepted = 0, replied = 0;
    {
        service::JsonObject obj;
        std::string err;
        if (service::parseJsonObject(drain_line, obj, err)) {
            accepted = uint64_t(obj["accepted"].asInt());
            replied = uint64_t(obj["replied"].asInt());
        }
    }

    // ---- report ----
    int diverged = 0, matched = 0, classified = 0;
    printf("\n%-12s %8s %8s  %s\n", "family", "matched", "diverged",
           "classified");
    {
        std::lock_guard<std::mutex> lock(shared.tallyMutex);
        for (const auto &[family, tally] : shared.tallies) {
            matched += tally.matched;
            diverged += tally.diverged;
            std::string detail;
            for (const auto &[klass, n] : tally.classified) {
                classified += n;
                detail += cat(klass, "=", n, " ");
            }
            printf("%-12s %8d %8d  %s\n", family.c_str(),
                   tally.matched, tally.diverged, detail.c_str());
        }
    }
    printf("\ndrain: exit %s, accepted=%llu replied=%llu; "
           "cache_hits=%llu corrupt_evictions+retries=%llu; "
           "restarts=%d\n",
           clean_exit ? "0" : "NONZERO",
           (unsigned long long)accepted, (unsigned long long)replied,
           (unsigned long long)cache_hits,
           (unsigned long long)cache_corrupt, restarts);

    // Post-mortem dump: the final daemon stats snapshot and drain
    // summary, written unconditionally so a failing CI run can attach
    // them as artifacts.
    {
        std::string dump = benchOutputPath("server_chaos_stats_dump.json");
        if (std::FILE *f = std::fopen(dump.c_str(), "w")) {
            fprintf(f, "{\"stats\": %s,\n \"drain\": %s}\n",
                    stats_raw.empty() ? "null" : stats_raw.c_str(),
                    drain_line.empty() ? "null" : drain_line.c_str());
            std::fclose(f);
            printf("wrote %s\n", dump.c_str());
        }
    }

    bool lost = accepted != replied;
    bool no_hits = cache_hits == 0;
    if (diverged)
        fprintf(stderr, "server_chaos: %d divergences\n", diverged);
    if (!clean_exit)
        fprintf(stderr, "server_chaos: drain exit was not 0\n");
    if (lost)
        fprintf(stderr, "server_chaos: drain lost %lld replies\n",
                (long long)accepted - (long long)replied);
    if (no_hits)
        fprintf(stderr, "server_chaos: warm cache never hit\n");

    if (std::FILE *f = std::fopen(json_path.c_str(), "w")) {
        fprintf(f, "{\n  \"label\": \"server_chaos\",\n");
        fprintf(f,
                "  \"clients\": %d,\n  \"queriesPerClient\": %d,\n"
                "  \"restarts\": %d,\n",
                clients, queries_per_client, restarts);
        fprintf(f, "  \"families\": [\n");
        std::lock_guard<std::mutex> lock(shared.tallyMutex);
        size_t fi = 0;
        for (const auto &[family, tally] : shared.tallies) {
            fprintf(f,
                    "    {\"name\": \"%s\", \"matched\": %d, "
                    "\"diverged\": %d, \"classified\": {",
                    family.c_str(), tally.matched, tally.diverged);
            size_t ci = 0;
            for (const auto &[klass, n] : tally.classified)
                fprintf(f, "%s\"%s\": %d",
                        ci++ ? ", " : "", klass.c_str(), n);
            fprintf(f, "}}%s\n",
                    ++fi < shared.tallies.size() ? "," : "");
        }
        fprintf(f, "  ],\n");
        fprintf(f,
                "  \"drain\": {\"cleanExit\": %s, \"accepted\": %llu, "
                "\"replied\": %llu},\n"
                "  \"cacheHits\": %llu,\n"
                "  \"corruptEvictions\": %llu\n}\n",
                clean_exit ? "true" : "false",
                (unsigned long long)accepted,
                (unsigned long long)replied,
                (unsigned long long)cache_hits,
                (unsigned long long)cache_corrupt);
        std::fclose(f);
        printf("wrote %s\n", json_path.c_str());
    }

    return (diverged || !clean_exit || lost || no_hits) ? 1 : 0;
}

// ------------------------------------------------------------------ //
// --cache-bench: what does the warm template actually buy?
// ------------------------------------------------------------------ //

int
cacheBench(const std::string &serverd, const std::string &json_path)
{
    const std::string goal = "revsum(25, S)";
    const int reps = 20;

    // In-process: the miss path (consult + compile + static link +
    // download + snapshot) vs the hit path (restore the template).
    using Clock = std::chrono::steady_clock;
    double compile_us = 0, restore_us = 0;
    Snapshot tmpl;
    for (int i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        KcmSystem system;
        system.consultStandardLibrary(); // the server's miss path
        system.consult(chaosProgram);
        CodeImage image = system.compileOnly(goal);
        Machine machine;
        machine.load(image);
        Snapshot snap = takeSnapshot(machine);
        compile_us += std::chrono::duration<double, std::micro>(
                          Clock::now() - t0)
                          .count();
        tmpl = std::move(snap);
    }
    for (int i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        Machine machine;
        restoreSnapshot(machine, tmpl);
        restore_us += std::chrono::duration<double, std::micro>(
                          Clock::now() - t0)
                          .count();
    }
    compile_us /= reps;
    restore_us /= reps;

    // Client-observed, against a real daemon, the mean end-to-end
    // latency of each path a query can take: a compile miss (a program
    // text of its own each time), a template restore (a hit whose
    // solution cap differs from the remembered run's, so it runs) and
    // a replay of the remembered outcome (the same cap again).
    Daemon daemon = spawnChaosDaemon(serverd);
    Client client;
    if (!client.connect("127.0.0.1", daemon.port, 2'000)) {
        fprintf(stderr, "cache-bench: cannot connect\n");
        return 2;
    }
    int sent = 0;
    auto timedQuery = [&](const std::string &program,
                          size_t max_solutions) -> double {
        const std::string id = cat("b", sent++);
        auto t0 = Clock::now();
        ClientReply r = client.query(id, program, goal, max_solutions, 0,
                                     60'000);
        if (r.io != IoStatus::Ok || r.status() != "completed") {
            fprintf(stderr, "cache-bench: query %s failed (%s)\n",
                    id.c_str(), r.raw.c_str());
            return -1;
        }
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0)
            .count();
    };
    auto meanOf = [&](auto &&query) {
        double sum = 0;
        for (int i = 0; i < reps; ++i) {
            const double us = query(i);
            if (us < 0)
                return -1.0;
            sum += us;
        }
        return sum / reps;
    };
    const double miss_us = meanOf([&](int i) {
        return timedQuery(cat(chaosProgram, "bench_miss(", i, ").\n"), 1);
    });
    // Compile the restore loop's template first, untimed; then every
    // query's cap differs from the one its run left.
    const double primed = timedQuery(chaosProgram, 2);
    const double hit_us =
        meanOf([&](int i) { return timedQuery(chaosProgram, 1 + i % 2); });
    const double replay_us = meanOf([&](int) {
        return timedQuery(chaosProgram, 1 + (reps - 1) % 2);
    });
    if (miss_us < 0 || primed < 0 || hit_us < 0 || replay_us < 0)
        return 1;

    ClientReply s = client.stats();
    const uint64_t hits = uint64_t(s.num("cache_hits"));
    const uint64_t replays = uint64_t(s.num("outcomes_replayed"));
    const uint64_t compiles = uint64_t(s.num("compiles"));
    client.close();
    daemon.stop(SIGTERM);
    daemon.closeFd();
    // Every query took the path it is timed as: one compile per miss
    // and one to prime the restores, every other query a hit, and only
    // the last loop's replayed.
    const bool paths_held = compiles == uint64_t(reps) + 1 &&
                            hits == uint64_t(2 * reps) &&
                            replays == uint64_t(reps);

    printf("warm-cache speedup (%d reps, goal %s):\n", reps,
           goal.c_str());
    printf("  in-process: compile+link+download %.0f us, template "
           "restore %.0f us  -> %.1fx\n",
           compile_us, restore_us, compile_us / restore_us);
    printf("  client-observed: compile miss %.0f us, template restore "
           "%.0f us (%.1fx), outcome replay %.0f us (%.1fx)\n",
           miss_us, hit_us, miss_us / hit_us, replay_us,
           miss_us / replay_us);
    printf("  daemon: %llu compiles, %llu cache hits, %llu outcomes "
           "replayed%s\n",
           (unsigned long long)compiles, (unsigned long long)hits,
           (unsigned long long)replays,
           paths_held ? "" : " -- a query took another path");

    if (std::FILE *f = std::fopen(json_path.c_str(), "w")) {
        fprintf(f,
                "{\n  \"label\": \"server_cache\",\n  \"reps\": %d,\n"
                "  \"compileMicros\": %.1f,\n"
                "  \"restoreMicros\": %.1f,\n"
                "  \"inProcessSpeedup\": %.2f,\n"
                "  \"clientColdMicros\": %.1f,\n"
                "  \"clientWarmMicros\": %.1f,\n"
                "  \"clientReplayMicros\": %.1f,\n"
                "  \"clientSpeedup\": %.2f,\n"
                "  \"clientReplaySpeedup\": %.2f,\n"
                "  \"cacheHits\": %llu,\n"
                "  \"outcomesReplayed\": %llu\n}\n",
                reps, compile_us, restore_us, compile_us / restore_us,
                miss_us, hit_us, replay_us, miss_us / hit_us,
                miss_us / replay_us, (unsigned long long)hits,
                (unsigned long long)replays);
        std::fclose(f);
        printf("wrote %s\n", json_path.c_str());
    }

    return paths_held ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    int clients = 10;
    int queries = 60;
    bool cache_bench = false;
    bool kill_restart = true;
    std::string serverd;
    std::string json_path;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--clients") && i + 1 < argc)
            clients = std::max(1, atoi(argv[++i]));
        else if (!std::strcmp(argv[i], "--queries") && i + 1 < argc)
            queries = std::max(1, atoi(argv[++i]));
        else if (!std::strcmp(argv[i], "--serverd") && i + 1 < argc)
            serverd = argv[++i];
        else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_path = argv[++i];
        else if (!std::strcmp(argv[i], "--cache-bench"))
            cache_bench = true;
        else if (!std::strcmp(argv[i], "--no-kill"))
            kill_restart = false;
        else {
            fprintf(stderr,
                    "usage: server_chaos [--clients N] [--queries N] "
                    "[--serverd PATH] [--json PATH] [--cache-bench] "
                    "[--no-kill]\n");
            return 2;
        }
    }
    if (json_path.empty())
        json_path = benchOutputPath(cache_bench
                                        ? "BENCH_server_cache.json"
                                        : "BENCH_server_chaos.json");

    signal(SIGPIPE, SIG_IGN);
    try {
        std::string path = toolPath(serverd, "KCM_SERVERD", "kcm_serverd");
        return cache_bench
                   ? cacheBench(path, json_path)
                   : chaosSweep(clients, queries, path, json_path,
                                kill_restart);
    } catch (const std::exception &e) {
        fprintf(stderr, "server_chaos: %s\n", e.what());
        return 2;
    }
}
