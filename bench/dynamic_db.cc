/**
 * @file
 * Dynamic clause-store benchmark: load / lookup / update rates of the
 * first-argument deep index (src/db) at million-fact scale, indexed
 * versus linear, with a differential oracle holding the index to its
 * transparency contract.
 *
 * Four store configurations are measured over the same fact set
 * f(0..N-1, payload):
 *
 *   indexed    hash buckets + skiplist (the default)
 *   hash-only  buckets on, skiplist off (bucket walks are linear)
 *   skip-only  buckets off, skiplist on (master-list express lanes)
 *   linear     both off — every lookup scans the master list
 *
 * Per configuration: the load phase asserts N facts; the lookup phase
 * resolves bound-first-argument queries to exhaustion (first + next
 * until miss — the engines' dispatch protocol) against a
 * deterministic key sample; the update phase interleaves assertz with
 * retract of the clause just added. Host rates and the store's own
 * `scanned` node counts are both reported; simulated lookup KLIPS
 * derives from scanned * DynDbConfig.scanCycles at the paper's 80 ns
 * cycle. Configurations without hash buckets make every clause a
 * candidate, and without the skiplist the stateless cursor re-seek
 * makes exhaustion quadratic — those rows run a smaller key sample
 * and cap the candidate walk, so their reported per-lookup cost is a
 * LOWER BOUND (printed as such).
 *
 * The differential oracle runs bound-key hits and misses against the
 * full-size stores on the fast core, the decode-per-step oracle core
 * and the baseline interpreter, then replays a richer goal set
 * (unbound scan, asserta'd front clause, retracted tombstone) on a
 * small store where the linear-config machine is also tractable. All
 * engines must return identical solutions; fast and oracle cores must
 * agree on cycles bit-for-bit.
 *
 * Usage: dynamic_db [--facts N] [--lookups N] [--updates N]
 *   Defaults: 1,000,000 facts, 100,000 lookups, 50,000 updates (CI
 *   smoke passes --facts 100000). Writes BENCH_dynamic_db.json.
 *   Exit 0 on success, 1 when the indexed/linear per-lookup scanned
 *   ratio falls under 50x (at >= 10,000 facts) or any engine
 *   disagrees, 2 on trap/compile failure.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "baseline/interp.hh"
#include "bench_support/harness.hh"
#include "bench_support/json_report.hh"
#include "db/clause_store.hh"

using namespace kcm;

namespace
{

constexpr double minScannedRatio = 50.0;

/** Deterministic key scrambler (splitmix64) — spreads lookups over
 *  the fact range without any host PRNG state. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

int64_t
payloadOf(int64_t key)
{
    return key * 2 + 1;
}

Functor
factFunctor()
{
    return {AtomTable::instance().intern("f"), 2};
}

TermRef
makeFact(int64_t key, int64_t payload)
{
    return Term::makeStruct(
        "f", {Term::makeInt(key), Term::makeInt(payload)});
}

db::ArgKey
intKey(int64_t key)
{
    return db::ArgKey::forTerm(Term::makeInt(key));
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct StoreMetrics
{
    std::string name;
    double loadSeconds = 0;
    double lookupSeconds = 0;
    double updateSeconds = 0;
    uint64_t lookups = 0;
    uint64_t updates = 0;
    uint64_t scanned = 0;   ///< total index nodes touched (lookups)
    uint64_t found = 0;     ///< candidates yielded
    bool truncated = false; ///< candidate walks hit the step cap

    double loadPerSec(uint64_t facts) const
    {
        return loadSeconds > 0 ? double(facts) / loadSeconds : 0;
    }
    double lookupPerSec() const
    {
        return lookupSeconds > 0 ? double(lookups) / lookupSeconds : 0;
    }
    double updatePerSec() const
    {
        return updateSeconds > 0 ? double(updates) / updateSeconds : 0;
    }
    double avgScanned() const
    {
        return lookups ? double(scanned) / double(lookups) : 0;
    }
    /** Simulated lookup KLIPS under the store's cost model: one
     *  bound-argument resolution = one inference, charged
     *  avgScanned * scanCycles cycles at 80 ns each. */
    double simKlips(unsigned scan_cycles) const
    {
        double cycles_per = avgScanned() * scan_cycles;
        if (cycles_per <= 0)
            return 0;
        return 1.0 / (cycles_per * cycleSeconds) / 1e3;
    }
};

/**
 * Assert N facts, then run the lookup and update phases.
 * @param max_candidates cap on first/next steps per lookup (0 =
 *        exhaustive). Nonzero only for the quadratic no-skiplist
 *        configurations; a capped row reports a lower bound.
 */
StoreMetrics
measureStore(db::ClauseStore &store, const char *name, uint64_t facts,
             uint64_t lookups, uint64_t updates, uint64_t max_candidates)
{
    StoreMetrics m;
    m.name = name;
    Functor f = factFunctor();
    store.declareDynamic(f);

    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < facts; ++i) {
        store.assertClause(f, makeFact(int64_t(i), payloadOf(int64_t(i))),
                           nullptr, /*at_front=*/false);
    }
    m.loadSeconds = secondsSince(t0);

    // Lookup phase: resolve each sampled key to exhaustion, exactly
    // the first/next protocol the engines' dynamic dispatch uses.
    uint64_t gen = store.generation();
    t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < lookups; ++i) {
        int64_t key = int64_t(mix64(i) % facts);
        db::ArgKey k = intKey(key);
        uint64_t steps = 0;
        db::ClauseStore::LookupResult r = store.first(f, k, gen);
        while (r.clause) {
            m.scanned += r.scanned;
            ++m.found;
            if (max_candidates && ++steps >= max_candidates) {
                m.truncated = true;
                break;
            }
            r = store.next(f, k, gen, r.clause->seq);
        }
        if (!r.clause)
            m.scanned += r.scanned; // the final miss costs nodes too
        ++m.lookups;
    }
    m.lookupSeconds = secondsSince(t0);

    // Update phase: assertz a fresh fact, then retract it (tombstone
    // by sequence number) — the store's incremental re-index both
    // ways.
    t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < updates; ++i) {
        int64_t key = int64_t(facts + i);
        const db::StoredClause &added = store.assertClause(
            f, makeFact(key, payloadOf(key)), nullptr, false);
        store.eraseClause(f, added.seq);
        m.updates += 2;
    }
    m.updateSeconds = secondsSince(t0);
    return m;
}

/** One engine's answers to a query set, plus cycle counts for the
 *  fast-vs-oracle bit-identity check. */
struct OracleAnswers
{
    std::vector<std::string> solutions; ///< flattened, per query
    std::vector<uint64_t> cycles;       ///< per query
};

/** Run a compiled goal on a Machine wired to @p store; collect all
 *  solutions (bounded — the oracle queries are deterministic and
 *  small). */
void
runMachineQuery(const CodeImage &image, const MachineConfig &config,
                std::shared_ptr<db::ClauseStore> store,
                const std::string &goal_label, OracleAnswers &answers)
{
    Machine machine(config);
    machine.attachDynamicDb(std::move(store));
    machine.load(image);

    for (const Solution &solution : machine.solutions(64))
        answers.solutions.push_back(goal_label + " " + solution.toString());
    if (machine.trapped())
        fatal("oracle query trapped: ", goal_label, ": ",
              trapDiagnosis(machine.lastTrap()));
    answers.solutions.push_back(goal_label + " <end>");
    answers.cycles.push_back(machine.cycles());
}

void
runBaselineQuery(std::shared_ptr<db::ClauseStore> store,
                 const std::string &program, const std::string &goal,
                 OracleAnswers &answers)
{
    baseline::Interpreter interp;
    interp.attachDynamicDb(std::move(store));
    interp.consult(program);
    baseline::InterpResult r = interp.query(goal, 64);
    for (const auto &sol : r.solutions)
        answers.solutions.push_back(goal + " " + sol.toString());
    answers.solutions.push_back(goal + " <end>");
}

uint64_t
argValue(int argc, char **argv, const char *flag, uint64_t fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return std::strtoull(argv[i + 1], nullptr, 10);
    }
    return fallback;
}

} // namespace

int
main(int argc, char **argv)
try {
    setLoggingEnabled(false);
    uint64_t facts = argValue(argc, argv, "--facts", 1'000'000);
    uint64_t lookups = argValue(argc, argv, "--lookups", 100'000);
    uint64_t updates = argValue(argc, argv, "--updates", 50'000);
    if (facts < 16)
        fatal("--facts must be at least 16");

    // Configurations without hash buckets resolve every lookup
    // against the whole master list, so they get a smaller key sample
    // (per-lookup averages are what the table compares), and the
    // fully linear configuration additionally caps the candidate walk
    // — its quadratic re-seek makes exhaustion infeasible, so its row
    // is an explicit lower bound.
    uint64_t scan_lookups = std::min<uint64_t>(
        lookups, std::max<uint64_t>(8, 8'000'000 / facts));
    uint64_t linear_cap = 1000;

    db::DynDbConfig indexed_cfg;
    db::DynDbConfig hash_only = indexed_cfg;
    hash_only.skiplist = false;
    db::DynDbConfig skip_only = indexed_cfg;
    skip_only.hashIndex = false;
    db::DynDbConfig linear_cfg = indexed_cfg;
    linear_cfg.hashIndex = false;
    linear_cfg.skiplist = false;

    auto wall_start = std::chrono::steady_clock::now();

    // Ablation rows first (freed immediately); the indexed and linear
    // stores stay alive for the differential oracle, bounding peak
    // memory to two full-size stores.
    StoreMetrics rows[4];
    {
        db::ClauseStore store(hash_only);
        rows[1] = measureStore(store, "hash-only", facts, lookups,
                               updates, 0);
    }
    {
        db::ClauseStore store(skip_only);
        rows[2] = measureStore(store, "skip-only", facts, scan_lookups,
                               updates, 0);
    }
    auto linear_store = std::make_shared<db::ClauseStore>(linear_cfg);
    rows[3] = measureStore(*linear_store, "linear", facts, scan_lookups,
                           updates, linear_cap);
    auto indexed_store = std::make_shared<db::ClauseStore>(indexed_cfg);
    rows[0] = measureStore(*indexed_store, "indexed", facts, lookups,
                           updates, 0);

    TablePrinter table({"Config", "load/s", "lookup/s", "update/s",
                        "avg scanned", "sim KLIPS"});
    for (const StoreMetrics &m : rows) {
        std::string scanned = cellFixed(m.avgScanned(), 1);
        if (m.truncated)
            scanned = ">=" + scanned;
        table.addRow({m.name, cellFixed(m.loadPerSec(facts) / 1e3, 0) + "k",
                      cellFixed(m.lookupPerSec() / 1e3, 1) + "k",
                      cellFixed(m.updatePerSec() / 1e3, 0) + "k",
                      scanned,
                      cellFixed(m.simKlips(indexed_cfg.scanCycles), 1)});
    }
    printf("Dynamic clause store: %llu facts, first-argument integer "
           "keys\n(lookup = bound-first-argument resolution to "
           "exhaustion; sim KLIPS at\n%u cycles per scanned index "
           "node, 80 ns cycle; >= rows hit the %llu-candidate\nwalk "
           "cap and report lower bounds)\n\n%s\n",
           (unsigned long long)facts, indexed_cfg.scanCycles,
           (unsigned long long)linear_cap, table.render().c_str());

    double ratio = rows[0].avgScanned() > 0
                       ? rows[3].avgScanned() / rows[0].avgScanned()
                       : 0;
    double host_ratio =
        rows[0].lookupPerSec() > 0 && rows[3].lookupPerSec() > 0
            ? rows[0].lookupPerSec() / rows[3].lookupPerSec()
            : 0;
    printf("indexed vs linear per-lookup: %.0fx fewer index nodes, "
           "%.0fx host speedup\n\n",
           ratio, host_ratio);

    // --- differential oracle -------------------------------------
    const std::string program = ":- dynamic(f/2).";

    // Phase 1: bound-key hits and misses at full size. The linear
    // machine sits this one out (its full-list resolution when
    // backtracking runs dry is the quadratic case above); it is
    // exercised at small scale in phase 2.
    std::vector<std::string> big_goals;
    for (uint64_t k :
         {uint64_t(0), facts - 1, facts / 2, mix64(7) % facts,
          facts * 4 + 1, facts /* retracted update keys */})
        big_goals.push_back("f(" + std::to_string(k) + ", V)");

    KcmOptions fast_opts;
    fast_opts.machine.fastDispatch = true;
    fast_opts.machine.dyndb = indexed_cfg;
    MachineConfig oracle_cfg_m = fast_opts.machine;
    oracle_cfg_m.fastDispatch = false;
    MachineConfig linear_cfg_m = fast_opts.machine;
    linear_cfg_m.dyndb = linear_cfg;

    OracleAnswers big_fast, big_oracle, big_base;
    for (const std::string &goal : big_goals) {
        KcmSystem system(fast_opts);
        system.consult(program);
        CodeImage image = system.compileOnly(goal);
        runMachineQuery(image, fast_opts.machine, indexed_store, goal,
                        big_fast);
        runMachineQuery(image, oracle_cfg_m, indexed_store, goal,
                        big_oracle);
        runBaselineQuery(indexed_store, program, goal, big_base);
    }

    // Phase 2: a small store (front-inserted clause, a tombstone, an
    // unbound full scan) across all four engines. Both stores carry
    // identical clause content; only the index layout differs.
    uint64_t small = std::min<uint64_t>(facts, 2'000);
    auto small_indexed = std::make_shared<db::ClauseStore>(indexed_cfg);
    auto small_linear = std::make_shared<db::ClauseStore>(linear_cfg);
    Functor f = factFunctor();
    for (db::ClauseStore *s :
         {small_indexed.get(), small_linear.get()}) {
        s->declareDynamic(f);
        for (uint64_t i = 0; i < small; ++i)
            s->assertClause(f, makeFact(int64_t(i), payloadOf(int64_t(i))),
                            nullptr, false);
        // A clause asserta'd to the front.
        s->assertClause(f, makeFact(-1, payloadOf(-1)), nullptr,
                        /*at_front=*/true);
    }
    // Tombstone the key-5 clause in both stores. Only the indexed
    // lookup filters by key (hash-off returns every clause as a
    // candidate), but the two stores allocated identical sequence
    // numbers, so the indexed victim's seq applies to both.
    db::ClauseStore::LookupResult victim = small_indexed->first(
        f, intKey(5), small_indexed->generation());
    small_indexed->eraseClause(f, victim.clause->seq);
    small_linear->eraseClause(f, victim.clause->seq);

    std::vector<std::string> small_goals = {
        "f(-1, V)", // the asserta'd front clause
        "f(5, V)",  // retracted: must fail everywhere
        "f(" + std::to_string(small / 2) + ", V)",
        "f(K, V), K < 2", // unbound scan: front clause then 0, 1
    };

    OracleAnswers sm_fast, sm_oracle, sm_linear, sm_base;
    for (const std::string &goal : small_goals) {
        KcmSystem system(fast_opts);
        system.consult(program);
        CodeImage image = system.compileOnly(goal);
        runMachineQuery(image, fast_opts.machine, small_indexed, goal,
                        sm_fast);
        runMachineQuery(image, oracle_cfg_m, small_indexed, goal,
                        sm_oracle);
        runMachineQuery(image, linear_cfg_m, small_linear, goal,
                        sm_linear);
        runBaselineQuery(small_indexed, program, goal, sm_base);
    }

    bool big_ok = big_fast.solutions == big_oracle.solutions &&
                  big_fast.solutions == big_base.solutions;
    bool small_ok = sm_fast.solutions == sm_oracle.solutions &&
                    sm_fast.solutions == sm_linear.solutions &&
                    sm_fast.solutions == sm_base.solutions;
    bool cycles_ok = big_fast.cycles == big_oracle.cycles &&
                     sm_fast.cycles == sm_oracle.cycles;
    bool answers_ok = big_ok && small_ok;
    printf("oracle: %zu full-size + %zu small-store queries; answers "
           "%s; fast vs oracle cycles %s\n",
           big_goals.size(), small_goals.size(),
           answers_ok ? "identical across engines" : "DIVERGED",
           cycles_ok ? "bit-identical" : "DIVERGED");
    auto dumpDivergence = [](const char *tag, const OracleAnswers &a,
                             const OracleAnswers &b) {
        if (a.solutions == b.solutions)
            return;
        size_t n = std::max(a.solutions.size(), b.solutions.size());
        for (size_t i = 0; i < n; ++i) {
            const char *l = i < a.solutions.size()
                                ? a.solutions[i].c_str()
                                : "<missing>";
            const char *r = i < b.solutions.size()
                                ? b.solutions[i].c_str()
                                : "<missing>";
            if (i >= a.solutions.size() || i >= b.solutions.size() ||
                a.solutions[i] != b.solutions[i])
                printf("  %s[%zu] %s | %s\n", tag, i, l, r);
        }
    };
    dumpDivergence("big fast/oracle", big_fast, big_oracle);
    dumpDivergence("big fast/baseline", big_fast, big_base);
    dumpDivergence("small fast/oracle", sm_fast, sm_oracle);
    dumpDivergence("small fast/linear", sm_fast, sm_linear);
    dumpDivergence("small fast/baseline", sm_fast, sm_base);

    // JSON record: the indexed row's simulated lookup KLIPS is the
    // commit-over-commit number.
    std::vector<BenchRun> report;
    for (const StoreMetrics &m : rows) {
        BenchRun run;
        run.name = "dynamic_db_" + m.name;
        run.success = true;
        run.inferences = m.lookups;
        run.klips = m.simKlips(indexed_cfg.scanCycles);
        run.hostSeconds = m.lookupSeconds;
        run.cycles =
            uint64_t(double(m.scanned) * indexed_cfg.scanCycles);
        report.push_back(run);
    }
    writeBenchJson("BENCH_dynamic_db.json", "dynamic_db", report, 1,
                   secondsSince(wall_start));

    bool ratio_ok = facts < 10'000 || ratio >= minScannedRatio;
    if (!ratio_ok)
        printf("ERROR: indexed/linear scanned ratio %.0fx under the "
               "%.0fx floor\n",
               ratio, minScannedRatio);
    if (!answers_ok || !cycles_ok || !ratio_ok)
        return 1;
    return 0;
} catch (const std::exception &err) {
    printf("FATAL: %s\n", err.what());
    return benchTrapExitCode;
}
