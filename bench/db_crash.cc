/**
 * @file
 * Durable-database torture harness: kill -9 the daemon mid-assert,
 * restart it on its journal, and prove nothing acked was lost and
 * nothing unacked was half-applied.
 *
 * Each iteration runs the full crash-recovery story on a fresh
 * journal directory:
 *
 *   phase A   spawn kcm_serverd --db-journal, stream mutating queries
 *             (assertz bursts, asserta fronts, retract prunes) from a
 *             deterministic schedule, recording every acked commit id
 *             (`db_commit` in the reply); a killer thread SIGKILLs the
 *             daemon at a random point mid-burst
 *   verify    offline Journal::scanFile of what survived: the tail
 *             must be clean or torn_tail (never corrupt_record — no
 *             one flipped bits), the last commit id must cover every
 *             acked commit, and may exceed it by AT MOST ONE (the
 *             single in-flight query committed-but-unacked at the
 *             kill); the replayed store must be bit-identical — same
 *             saveTo() bytes, same skiplist `scanned` counts — to an
 *             in-process oracle that re-executes exactly the
 *             recovered-commit prefix of the schedule on its own
 *             ClauseStore
 *   phase B   restart the daemon on the same directory (startup
 *             recovery replays the journal), continue the schedule
 *             from the recovered prefix, kill again, verify the
 *             cumulative journal the same way
 *   probes    restart once more and differentially probe the
 *             recovered database: daemon answers vs the fast core,
 *             the decode-per-step oracle core and the baseline
 *             interpreter running on the oracle store (fast and
 *             oracle cycles must be bit-identical); then a SIGTERM
 *             drain that must exit 0
 *
 * Every ~8th iteration additionally runs kcm_dbck --verify/--repair
 * between the phases (repair must leave a clean journal, exit 0), and
 * every ~8th (offset) compacts the journal in-process and re-verifies
 * that the snapshot-only file still replays to the same bytes.
 *
 * Sync modes and snapshot cadences are cycled across iterations so
 * kills land on always/group/none journals with and without snapshot
 * records in flight.
 *
 * Modes:
 *   (default)     torture loop; writes BENCH_db_crash.json
 *   --sync-bench  group-commit overhead table: commits/s for
 *                 always / group(1,5,20 ms) / none / no-journal,
 *                 1-op and 16-op batches; writes BENCH_db_sync.json
 *
 * Options: --iterations N (default 40; CI smoke uses a handful, the
 * acceptance run uses >= 200), --serverd PATH ($KCM_SERVERD), --dbck
 * PATH ($KCM_DBCK), --json PATH, --verbose (keep daemon stderr).
 *
 * Exit codes: 0 = every iteration recovered bit-identically with no
 * lost or half-applied commit; 1 = any loss, half-application,
 * divergence or unexpected corruption (the failing journal dir is
 * kept and printed); 2 = harness error.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/logging.hh"
#include "baseline/interp.hh"
#include "bench_support/daemon.hh"
#include "bench_support/harness.hh"
#include "bench_support/json_report.hh"
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

/** The self-contained mutation program every query carries (the
 *  daemon runs --no-stdlib; the oracle replay consults the same
 *  text). All three mutator builtins are exercised. */
const char *mutProgram = R"PROLOG(
:- dynamic(f/2).

growk(_, N, N).
growk(B, I, N) :- I < N, K is B + I, V is K + K + 1,
                  assertz(f(K, V)), I1 is I + 1, growk(B, I1, N).

burst(B, N) :- growk(B, 0, N).

front(K) :- V is K + K + 1, asserta(f(K, V)).

prune(K) :- retract(f(K, _)).
)PROLOG";

bool verbose = false;

// ------------------------------------------------------------------ //
// Mutation schedule: a deterministic stream of assert/retract goals.
// One schedule entry == one query == one journal commit.
// ------------------------------------------------------------------ //

struct MutEntry
{
    int kind = 0; ///< 0 = burst (assertz), 1 = front (asserta), 2 = prune
    int64_t a = 0, b = 0;
    std::string goal;
};

/** Track which keys are live while generating (or re-walking a prefix
 *  of) a schedule; prune only ever targets a live key. */
void
applyToLive(const MutEntry &e, std::vector<int64_t> &live)
{
    if (e.kind == 0) {
        for (int64_t j = 0; j < e.b; ++j)
            live.push_back(e.a + j);
    } else if (e.kind == 1) {
        live.push_back(e.a);
    } else {
        for (size_t i = 0; i < live.size(); ++i) {
            if (live[i] == e.a) {
                live.erase(live.begin() + ptrdiff_t(i));
                break;
            }
        }
    }
}

std::vector<MutEntry>
makeSchedule(uint32_t seed, size_t n)
{
    std::vector<MutEntry> out;
    std::vector<int64_t> live;
    int64_t next_base = 0;
    for (size_t i = 0; i < n; ++i) {
        uint32_t r = mix(seed + uint32_t(i) * 2654435761u);
        MutEntry e;
        if (live.empty() || r % 10 < 5) {
            e.kind = 0;
            e.a = next_base;
            e.b = 2 + int64_t(r % 14);
            next_base += 1000;
            e.goal = cat("burst(", e.a, ", ", e.b, ")");
        } else if (r % 10 < 8) {
            e.kind = 1;
            // Half the fronts duplicate a live key (two clauses, same
            // first argument — order matters for the probes), half
            // mint a fresh one clear of any burst range.
            e.a = r % 2 ? live[(r / 16) % live.size()]
                        : next_base - 1000 + 500 + int64_t(r % 97);
            e.goal = cat("front(", e.a, ")");
        } else {
            e.kind = 2;
            e.a = live[(r / 16) % live.size()];
            e.goal = cat("prune(", e.a, ")");
        }
        applyToLive(e, live);
        out.push_back(std::move(e));
    }
    return out;
}

// ------------------------------------------------------------------ //
// In-process oracle: re-execute schedule entries on a private store
// with the real compiler + machine — byte-for-byte what the daemon's
// sessions did for the same prefix. The daemon's durable store
// reclaims retracted clauses after every commit and after recovery,
// so the oracle reclaims after every entry and every journal replay.
// ------------------------------------------------------------------ //

void
applyEntryInProcess(const std::shared_ptr<db::ClauseStore> &store,
                    const MutEntry &e)
{
    KcmSystem system; // no stdlib, matching the daemon's --no-stdlib
    system.consult(mutProgram);
    CodeImage image = system.compileOnly(e.goal);
    Machine machine;
    machine.attachDynamicDb(store);
    machine.load(image);
    RunStatus status = machine.run();
    if (status == RunStatus::Trapped)
        fatal("oracle mutation trapped: ", e.goal, ": ",
              trapDiagnosis(machine.lastTrap()));
    if (status != RunStatus::SolutionFound)
        fatal("oracle mutation failed: ", e.goal);
    store->reclaimAll();
}

Functor
factFunctor()
{
    return {AtomTable::instance().intern("f"), 2};
}

/** Total index nodes touched resolving @p key to exhaustion — the
 *  skiplist-shape fingerprint the bit-identity contract promises. */
uint64_t
walkScanned(db::ClauseStore &store, const TermRef &key)
{
    Functor f = factFunctor();
    if (!store.isKnown(f))
        return 0;
    db::ArgKey k = db::ArgKey::forTerm(key);
    uint64_t gen = store.generation();
    uint64_t scanned = 0;
    db::ClauseStore::LookupResult r = store.first(f, k, gen);
    while (r.clause) {
        scanned += r.scanned;
        r = store.next(f, k, gen, r.clause->seq);
    }
    return scanned + r.scanned;
}

/** Bit-identity check: saveTo bytes, generation, and scanned counts
 *  over @p probe_keys plus a full unbound walk. */
bool
storesIdentical(db::ClauseStore &got, db::ClauseStore &want,
                const std::vector<int64_t> &probe_keys, std::string &why)
{
    std::vector<uint8_t> gb, wb;
    got.saveTo(gb);
    want.saveTo(wb);
    if (gb != wb) {
        why = cat("saveTo bytes differ (", gb.size(), " vs ", wb.size(),
                  " bytes)");
        return false;
    }
    if (got.generation() != want.generation()) {
        why = cat("generation ", got.generation(), " vs ",
                  want.generation());
        return false;
    }
    for (int64_t key : probe_keys) {
        uint64_t g = walkScanned(got, Term::makeInt(key));
        uint64_t w = walkScanned(want, Term::makeInt(key));
        if (g != w) {
            why = cat("scanned(", key, ") ", g, " vs ", w);
            return false;
        }
    }
    uint64_t g = walkScanned(got, Term::makeVar("X"));
    uint64_t w = walkScanned(want, Term::makeVar("X"));
    if (g != w) {
        why = cat("scanned(unbound) ", g, " vs ", w);
        return false;
    }
    return true;
}

// ------------------------------------------------------------------ //
// Daemon management.
// ------------------------------------------------------------------ //

/** Spawn kcm_serverd with the torture loop's base flags plus
 *  @p extra. The recovery info line repeats hundreds of times across
 *  a torture run, so daemon stderr is kept for --verbose only. */
Daemon
spawnTortureDaemon(const std::string &path,
                   const std::vector<std::string> &extra)
{
    std::vector<std::string> args = {path, "--workers", "1",
                                     "--no-stdlib"};
    args.insert(args.end(), extra.begin(), extra.end());
    return spawnDaemon(std::move(args), /*quiet_stderr=*/!verbose);
}

// ------------------------------------------------------------------ //
// The torture loop.
// ------------------------------------------------------------------ //

struct Tally
{
    int iterations = 0;
    int kills = 0;
    uint64_t acked = 0;      ///< acked commits across all phases
    uint64_t recovered = 0;  ///< commits surviving final scans
    int unackedRecovered = 0; ///< kills that landed commit-before-ack
    int torn = 0;
    int clean = 0;
    int snapshotsSeen = 0;
    int dbckRuns = 0;
    int compactions = 0;
    int probeQueries = 0;
};

struct PhaseResult
{
    uint64_t ackedHi = 0; ///< highest acked commit id
    bool broke = false;   ///< transport died (one query was in flight)
    std::string err;      ///< non-empty = protocol violation
};

/** Stream schedule entries [k_start, ...) at the daemon until the
 *  killer (random delay) takes it down. Entry k must ack as commit
 *  k+1 — commit ids are strictly sequential across restarts. */
PhaseResult
runKillPhase(Daemon &daemon, const std::vector<MutEntry> &sched,
             size_t k_start, uint64_t kill_delay_ms)
{
    PhaseResult res;
    res.ackedHi = k_start;

    std::atomic<bool> done{false};
    pid_t victim = daemon.pid;
    std::thread killer([victim, kill_delay_ms, &done] {
        uint64_t slept = 0;
        while (slept < kill_delay_ms && !done.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            slept += 2;
        }
        kill(victim, SIGKILL);
    });

    Client client;
    if (client.connect("127.0.0.1", daemon.port, 2'000)) {
        size_t k = k_start;
        while (k < sched.size()) {
            ClientReply reply =
                client.query(cat("m", k), mutProgram, sched[k].goal,
                             /*max_solutions=*/1, /*deadline_ms=*/0,
                             /*timeout_ms=*/20'000);
            if (reply.io != IoStatus::Ok || !reply.parsed) {
                res.broke = true; // the kill — entry k is in flight
                break;
            }
            if (reply.status() != "completed") {
                res.err = cat("entry ", k, " unexpected status '",
                              reply.status(), "' error '",
                              reply.str("error"), "'");
                break;
            }
            int64_t commit = reply.num("db_commit");
            if (commit != int64_t(k) + 1) {
                res.err = cat("entry ", k, " acked as commit ", commit,
                              ", expected ", k + 1);
                break;
            }
            res.ackedHi = uint64_t(k) + 1;
            ++k;
        }
    }
    done.store(true);
    killer.join();
    client.close();
    daemon.stop(SIGKILL); // idempotent if the killer already fired
    daemon.closeFd();
    return res;
}

/** Post-kill verification: scan the journal, bound the recovered
 *  commit count, extend the oracle store to match, and compare
 *  bit-for-bit. Returns the recovered commit count via @p commits. */
bool
verifyRecovery(const std::string &jpath, const std::vector<MutEntry> &sched,
               const PhaseResult &phase,
               const std::shared_ptr<db::ClauseStore> &oracle,
               size_t &oracle_applied, uint64_t &commits,
               db::JournalScan &scan, Tally &tally, std::string &why)
{
    db::ClauseStore recovered(db::DynDbConfig{});
    scan = db::Journal::scanFile(jpath, &recovered);
    recovered.reclaimAll();

    if (scan.corrupt) {
        why = cat("corrupt_record after a plain kill: ", scan.reason);
        return false;
    }
    commits = scan.lastCommitId;
    if (commits < phase.ackedHi) {
        why = cat("LOST ", phase.ackedHi - commits,
                  " acked commit(s): acked through ", phase.ackedHi,
                  ", journal has ", commits);
        return false;
    }
    uint64_t max_ok = phase.ackedHi + (phase.broke ? 1 : 0);
    if (commits > max_ok) {
        why = cat("journal has ", commits, " commits but only ",
                  phase.ackedHi, " were acked with ",
                  phase.broke ? 1 : 0, " in flight");
        return false;
    }
    if (commits > phase.ackedHi)
        ++tally.unackedRecovered;
    if (scan.torn)
        ++tally.torn;
    else
        ++tally.clean;
    tally.snapshotsSeen += int(scan.snapshots);

    // Extend the oracle to the recovered prefix and compare. A
    // half-applied batch (record atomicity broken) or any replay
    // divergence shows up as a byte or scanned-count mismatch.
    while (oracle_applied < commits)
        applyEntryInProcess(oracle, sched[oracle_applied++]);

    std::vector<int64_t> probe_keys;
    for (size_t i = 0; i < oracle_applied && probe_keys.size() < 6;
         i += 1 + oracle_applied / 6)
        probe_keys.push_back(sched[i].a);
    return storesIdentical(recovered, *oracle, probe_keys, why);
}

std::vector<std::string>
journalFlags(const std::string &dir, int iteration)
{
    static const char *syncs[] = {"group", "always", "none"};
    static const uint64_t snaps[] = {1024, 4, 0};
    std::vector<std::string> flags = {
        "--db-journal",        dir,
        "--journal-sync",      syncs[iteration % 3],
        "--journal-group-ms",  "2",
        "--journal-snapshot-every",
        std::to_string(snaps[(iteration / 3) % 3])};
    return flags;
}

int
runDbck(const std::string &dbck, const std::string &op,
        const std::string &jpath)
{
    std::string cmd = cat(dbck, " ", op, " '", jpath, "'",
                          verbose ? "" : " >/dev/null 2>&1");
    int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/** Differential probes against the restarted daemon: answers must
 *  match the fast core, the oracle core and the baseline interpreter
 *  on the oracle store; fast and oracle cycles must be bit-identical. */
bool
runProbes(Daemon &daemon, const std::vector<MutEntry> &sched,
          size_t applied, const std::shared_ptr<db::ClauseStore> &oracle,
          Tally &tally, std::string &why)
{
    std::vector<int64_t> live;
    for (size_t i = 0; i < applied; ++i)
        applyToLive(sched[i], live);

    std::vector<int64_t> keys;
    for (size_t i = 0; i < live.size() && keys.size() < 4;
         i += 1 + live.size() / 4)
        keys.push_back(live[i]);
    for (size_t i = 0; i < applied && keys.size() < 6; ++i)
        if (sched[i].kind == 2)
            keys.push_back(sched[i].a); // pruned: first clause is gone
    keys.push_back(1'000'000'007); // never existed

    Client client;
    if (!client.connect("127.0.0.1", daemon.port, 2'000)) {
        why = "cannot connect for probes";
        return false;
    }

    KcmOptions opts; // defaults match the daemon's session config
    MachineConfig fast_cfg = opts.machine;
    MachineConfig oracle_cfg = fast_cfg;
    oracle_cfg.fastDispatch = false;

    for (size_t i = 0; i < keys.size(); ++i) {
        std::string goal = cat("f(", keys[i], ", V)");
        ClientReply reply = client.query(cat("p", i), mutProgram, goal,
                                         /*max_solutions=*/0, 0, 20'000);
        if (reply.io != IoStatus::Ok || reply.status() != "completed") {
            why = cat("probe ", goal, " did not complete: ", reply.raw);
            return false;
        }
        std::vector<std::string> daemon_answers;
        auto it = reply.fields.find("answers");
        if (it != reply.fields.end())
            for (const auto &a : it->second.items)
                daemon_answers.push_back(a.str);

        auto runEngine = [&](const MachineConfig &cfg, uint64_t &cycles) {
            std::vector<std::string> out;
            KcmSystem system;
            system.consult(mutProgram);
            CodeImage image = system.compileOnly(goal);
            Machine machine(cfg);
            machine.attachDynamicDb(oracle);
            machine.load(image);
            for (const Solution &solution : machine.solutions(64))
                out.push_back(solution.toString());
            if (machine.trapped())
                fatal("probe trapped: ", goal);
            cycles = machine.cycles();
            return out;
        };
        uint64_t fast_cycles = 0, oracle_cycles = 0;
        std::vector<std::string> fast = runEngine(fast_cfg, fast_cycles);
        std::vector<std::string> orc = runEngine(oracle_cfg, oracle_cycles);

        std::vector<std::string> base;
        {
            baseline::Interpreter interp;
            interp.attachDynamicDb(oracle);
            interp.consult(mutProgram);
            baseline::InterpResult r = interp.query(goal, 64);
            for (const auto &sol : r.solutions)
                base.push_back(sol.toString());
        }

        if (daemon_answers != fast || fast != orc || fast != base) {
            why = cat("probe ", goal, " diverged: daemon=",
                      daemon_answers.size(), " fast=", fast.size(),
                      " oracle=", orc.size(), " baseline=", base.size(),
                      " answers");
            for (size_t n = 0; n < daemon_answers.size() && n < 3; ++n)
                why += cat(" d[", n, "]='", daemon_answers[n], "'");
            for (size_t n = 0; n < fast.size() && n < 3; ++n)
                why += cat(" f[", n, "]='", fast[n], "'");
            return false;
        }
        if (fast_cycles != oracle_cycles) {
            why = cat("probe ", goal, " fast/oracle cycles diverged: ",
                      fast_cycles, " vs ", oracle_cycles);
            return false;
        }
        ++tally.probeQueries;
    }

    // The recovery report surfaced through stats must classify the
    // startup scan honestly — clean or torn, never silently corrupt.
    ClientReply s = client.stats();
    if (s.io != IoStatus::Ok || s.status() != "ok") {
        why = "stats probe failed";
        return false;
    }
    std::string rec = s.str("journal_recovery");
    if (rec != "clean" && rec != "torn_tail") {
        why = cat("unexpected journal_recovery '", rec, "'");
        return false;
    }
    client.close();
    return true;
}

int
tortureLoop(int iterations, const std::string &serverd,
            const std::string &dbck, const std::string &json_path)
{
    Tally tally;

    for (int iter = 0; iter < iterations; ++iter) {
        uint32_t seed = mix(uint32_t(iter) * 2654435761u + 777u);
        char dir_tmpl[] = "/tmp/kcm_db_crash_XXXXXX";
        if (!mkdtemp(dir_tmpl))
            fatal("mkdtemp: ", strerror(errno));
        std::string dir = dir_tmpl;
        std::string jpath = db::Journal::journalFilePath(dir);
        std::vector<std::string> jflags = journalFlags(dir, iter);

        std::vector<MutEntry> sched = makeSchedule(seed, 400);
        auto oracle = std::make_shared<db::ClauseStore>(db::DynDbConfig{});
        size_t applied = 0;
        std::string why;
        bool failed = false;
        uint64_t commits = 0;
        db::JournalScan scan;

        // Phase A and phase B: kill, verify, restart, kill, verify.
        for (int phase = 0; phase < 2 && !failed; ++phase) {
            Daemon daemon = spawnTortureDaemon(serverd, jflags);
            uint64_t delay = 10 + mix(seed + 31u * uint32_t(phase)) % 140;
            PhaseResult res =
                runKillPhase(daemon, sched, applied, delay);
            ++tally.kills;
            if (!res.err.empty()) {
                why = res.err;
                failed = true;
                break;
            }
            tally.acked += res.ackedHi - applied;
            if (!verifyRecovery(jpath, sched, res, oracle, applied,
                                commits, scan, tally, why)) {
                failed = true;
                break;
            }

            // Interleave the offline tooling between the phases.
            if (phase == 0 && iter % 8 == 3) {
                int v = runDbck(dbck, "--verify", jpath);
                int expect = scan.clean() ? 0 : 1;
                int r = runDbck(dbck, "--repair", jpath);
                int v2 = runDbck(dbck, "--verify", jpath);
                tally.dbckRuns += 3;
                if (v != expect || r != expect || v2 != 0) {
                    why = cat("dbck verify/repair/verify = ", v, "/", r,
                              "/", v2, ", expected ", expect, "/",
                              expect, "/0");
                    failed = true;
                    break;
                }
            }
            if (phase == 0 && iter % 8 == 6) {
                db::Journal::compactFile(jpath, db::DynDbConfig{});
                ++tally.compactions;
                db::ClauseStore compacted(db::DynDbConfig{});
                db::JournalScan cs =
                    db::Journal::scanFile(jpath, &compacted);
                compacted.reclaimAll();
                if (!cs.clean() || cs.lastCommitId != commits ||
                    cs.snapshots != 1 ||
                    !storesIdentical(compacted, *oracle, {}, why)) {
                    why = cat("compaction changed the database: ", why);
                    failed = true;
                    break;
                }
            }
        }

        // Final restart: differential probes + clean SIGTERM drain.
        if (!failed) {
            Daemon daemon = spawnTortureDaemon(serverd, jflags);
            if (!runProbes(daemon, sched, applied, oracle, tally, why)) {
                failed = true;
            } else {
                int status = daemon.stop(SIGTERM);
                daemon.closeFd();
                if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
                    why = "SIGTERM drain did not exit 0";
                    failed = true;
                }
            }
        }

        if (failed) {
            fprintf(stderr,
                    "db_crash: iteration %d FAILED: %s\n"
                    "db_crash: journal kept at %s\n",
                    iter, why.c_str(), dir.c_str());
            return 1;
        }
        tally.recovered += commits;
        ++tally.iterations;
        std::string rm = cat("rm -rf '", dir, "'");
        if (std::system(rm.c_str()) != 0)
            warn("cleanup failed: ", dir);
        printf("iter %3d: commits=%llu acked=%llu tail=%s%s\n", iter,
               (unsigned long long)commits,
               (unsigned long long)tally.acked,
               scan.classification(),
               iter % 8 == 3 ? " +dbck" : iter % 8 == 6 ? " +compact" : "");
        fflush(stdout);
    }

    printf("\ndb_crash: %d iterations, %d kills; %llu acked / %llu "
           "recovered commits,\n%d commit-before-ack races, %d torn "
           "tails, %d clean tails, %d snapshots;\n%d dbck runs, %d "
           "compactions, %d differential probes — all bit-identical\n",
           tally.iterations, tally.kills,
           (unsigned long long)tally.acked,
           (unsigned long long)tally.recovered, tally.unackedRecovered,
           tally.torn, tally.clean, tally.snapshotsSeen, tally.dbckRuns,
           tally.compactions, tally.probeQueries);

    if (std::FILE *f = std::fopen(json_path.c_str(), "w")) {
        fprintf(f,
                "{\n  \"label\": \"db_crash\",\n"
                "  \"iterations\": %d,\n  \"kills\": %d,\n"
                "  \"ackedCommits\": %llu,\n"
                "  \"recoveredCommits\": %llu,\n"
                "  \"unackedRecovered\": %d,\n"
                "  \"tornTails\": %d,\n  \"cleanTails\": %d,\n"
                "  \"snapshots\": %d,\n  \"dbckRuns\": %d,\n"
                "  \"compactions\": %d,\n  \"probeQueries\": %d,\n"
                "  \"lostCommits\": 0,\n  \"halfApplied\": 0,\n"
                "  \"divergences\": 0\n}\n",
                tally.iterations, tally.kills,
                (unsigned long long)tally.acked,
                (unsigned long long)tally.recovered,
                tally.unackedRecovered, tally.torn, tally.clean,
                tally.snapshotsSeen, tally.dbckRuns, tally.compactions,
                tally.probeQueries);
        std::fclose(f);
        printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}

// ------------------------------------------------------------------ //
// --sync-bench: what does each fsync policy cost per commit?
// ------------------------------------------------------------------ //

struct SyncRow
{
    std::string name;
    double oneOpPerSec = 0;
    double batchPerSec = 0;
    uint64_t syncs = 0;
};

SyncRow
measureSync(const std::string &name, bool journaled,
            db::JournalOptions opts)
{
    SyncRow row;
    row.name = name;
    Functor f = factFunctor();

    for (int pass = 0; pass < 2; ++pass) {
        const uint64_t commits = pass ? 600 : 3000;
        const int64_t ops_per = pass ? 16 : 1;

        char dir_tmpl[] = "/tmp/kcm_db_sync_XXXXXX";
        if (!mkdtemp(dir_tmpl))
            fatal("mkdtemp: ", strerror(errno));
        std::string dir = dir_tmpl;

        db::ClauseStore store(db::DynDbConfig{});
        db::Journal journal;
        db::JournalScan scan;
        if (journaled)
            journal.open(dir, opts, store, scan);

        auto t0 = std::chrono::steady_clock::now();
        int64_t key = 0;
        for (uint64_t c = 0; c < commits; ++c) {
            store.beginTxn();
            for (int64_t j = 0; j < ops_per; ++j, ++key)
                store.assertClause(
                    f,
                    Term::makeStruct("f", {Term::makeInt(key),
                                           Term::makeInt(key * 2 + 1)}),
                    nullptr, false);
            if (journaled)
                journal.commit(store.txnOps());
            store.commitTxn();
        }
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        if (journaled) {
            if (pass == 0)
                row.syncs = journal.syncsPerformed();
            journal.close();
        }
        (pass ? row.batchPerSec : row.oneOpPerSec) =
            secs > 0 ? double(commits) / secs : 0;
        std::string rm = cat("rm -rf '", dir, "'");
        if (std::system(rm.c_str()) != 0)
            warn("cleanup failed: ", dir);
    }
    return row;
}

int
syncBench(const std::string &json_path)
{
    db::JournalOptions base;
    base.snapshotEvery = 0; // isolate the fsync cost

    auto groupOpts = [&](uint64_t ms) {
        db::JournalOptions o = base;
        o.sync = db::JournalSync::Group;
        o.groupWindowMs = ms;
        return o;
    };
    db::JournalOptions always = base;
    always.sync = db::JournalSync::Always;
    db::JournalOptions none = base;
    none.sync = db::JournalSync::None;

    std::vector<SyncRow> rows;
    rows.push_back(measureSync("no-journal", false, base));
    rows.push_back(measureSync("none", true, none));
    rows.push_back(measureSync("group-20ms", true, groupOpts(20)));
    rows.push_back(measureSync("group-5ms", true, groupOpts(5)));
    rows.push_back(measureSync("group-1ms", true, groupOpts(1)));
    rows.push_back(measureSync("always", true, always));

    double baseline = rows[0].oneOpPerSec;
    TablePrinter table({"Sync mode", "1-op commits/s", "16-op commits/s",
                        "fsyncs (3000 commits)", "overhead"});
    for (const SyncRow &r : rows) {
        double overhead =
            r.oneOpPerSec > 0 ? baseline / r.oneOpPerSec : 0;
        table.addRow({r.name, cellFixed(r.oneOpPerSec / 1e3, 1) + "k",
                      cellFixed(r.batchPerSec / 1e3, 1) + "k",
                      r.name == "no-journal" ? "-"
                                             : std::to_string(r.syncs),
                      cellFixed(overhead, 2) + "x"});
    }
    printf("Group-commit overhead: single-threaded commits/s by fsync "
           "policy\n(journal on the host filesystem; 'overhead' is "
           "no-journal rate / this rate)\n\n%s\n",
           table.render().c_str());

    if (std::FILE *f = std::fopen(json_path.c_str(), "w")) {
        fprintf(f, "{\n  \"label\": \"db_sync\",\n  \"rows\": [\n");
        for (size_t i = 0; i < rows.size(); ++i)
            fprintf(f,
                    "    {\"mode\": \"%s\", \"oneOpPerSec\": %.0f, "
                    "\"batch16PerSec\": %.0f, \"syncs\": %llu}%s\n",
                    rows[i].name.c_str(), rows[i].oneOpPerSec,
                    rows[i].batchPerSec,
                    (unsigned long long)rows[i].syncs,
                    i + 1 < rows.size() ? "," : "");
        fprintf(f, "  ]\n}\n");
        std::fclose(f);
        printf("wrote %s\n", json_path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    int iterations = 40;
    bool sync_bench = false;
    std::string serverd, dbck, json_path;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--iterations") && i + 1 < argc)
            iterations = std::max(1, atoi(argv[++i]));
        else if (!std::strcmp(argv[i], "--serverd") && i + 1 < argc)
            serverd = argv[++i];
        else if (!std::strcmp(argv[i], "--dbck") && i + 1 < argc)
            dbck = argv[++i];
        else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_path = argv[++i];
        else if (!std::strcmp(argv[i], "--sync-bench"))
            sync_bench = true;
        else if (!std::strcmp(argv[i], "--verbose"))
            verbose = true;
        else {
            fprintf(stderr,
                    "usage: db_crash [--iterations N] [--serverd PATH] "
                    "[--dbck PATH] [--json PATH] [--sync-bench] "
                    "[--verbose]\n");
            return 2;
        }
    }
    if (json_path.empty())
        json_path = benchOutputPath(sync_bench ? "BENCH_db_sync.json"
                                               : "BENCH_db_crash.json");

    signal(SIGPIPE, SIG_IGN);
    setLoggingEnabled(verbose);
    try {
        if (sync_bench)
            return syncBench(json_path);
        return tortureLoop(iterations,
                           toolPath(serverd, "KCM_SERVERD", "kcm_serverd"),
                           toolPath(dbck, "KCM_DBCK", "kcm_dbck"),
                           json_path);
    } catch (const std::exception &e) {
        fprintf(stderr, "db_crash: %s\n", e.what());
        return 2;
    }
}
