/**
 * @file
 * Dynamic clause-store tests: ClauseStore unit behaviour (indexing,
 * logical update view, serialization, index ablation), differential
 * assert/retract semantics across the fast core, the decode-per-step
 * oracle and the baseline interpreter, and snapshot/restore
 * of mid-iteration dynamic-database state.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "baseline/interp.hh"
#include "core/machine.hh"
#include "core/snapshot.hh"
#include "db/clause_store.hh"
#include "kcm/kcm.hh"
#include "prolog/parser.hh"

using namespace kcm;

namespace
{

Functor
fn(const std::string &name, uint32_t arity)
{
    return {AtomTable::instance().intern(name), arity};
}

TermRef
fact2(const std::string &pred, TermRef a, TermRef b)
{
    return Term::makeStruct(pred, {std::move(a), std::move(b)});
}

/** Every visible candidate seq for (f, key) at @p gen, in order. */
std::vector<int64_t>
visibleSeqs(const db::ClauseStore &s, const Functor &f,
            const db::ArgKey &key, uint64_t gen)
{
    std::vector<int64_t> out;
    db::ClauseStore::LookupResult r = s.first(f, key, gen);
    while (r.clause) {
        out.push_back(r.clause->seq);
        r = s.next(f, key, gen, r.clause->seq);
    }
    return out;
}

/** Total scanned nodes for a full (f, key) walk at @p gen. */
uint64_t
walkScanned(const db::ClauseStore &s, const Functor &f,
            const db::ArgKey &key, uint64_t gen)
{
    uint64_t scanned = 0;
    db::ClauseStore::LookupResult r = s.first(f, key, gen);
    scanned += r.scanned;
    while (r.clause) {
        r = s.next(f, key, gen, r.clause->seq);
        scanned += r.scanned;
    }
    return scanned;
}

/**
 * Differential harness: run on the fast core, the decode-per-step
 * oracle and the baseline interpreter. Solutions (and trap/error
 * text) must agree everywhere; the two machine cores must also agree
 * bit-for-bit on cycles and inferences.
 */
void
compareEngines(const std::string &program, const std::string &goal,
               size_t max_solutions = 8)
{
    KcmOptions options;
    options.maxSolutions = max_solutions;
    options.machine.fastDispatch = true;
    KcmSystem fast_system(options);
    if (!program.empty())
        fast_system.consult(program);
    QueryResult fast = fast_system.query(goal);

    KcmOptions oracle_options = options;
    oracle_options.machine.fastDispatch = false;
    KcmSystem oracle_system(oracle_options);
    if (!program.empty())
        oracle_system.consult(program);
    QueryResult oracle = oracle_system.query(goal);

    ASSERT_EQ(fast.success, oracle.success) << goal;
    ASSERT_EQ(fast.solutions.size(), oracle.solutions.size()) << goal;
    for (size_t i = 0; i < fast.solutions.size(); ++i) {
        ASSERT_EQ(fast.solutions[i].toString(),
                  oracle.solutions[i].toString())
            << "fast/oracle solution " << i << " differs for: " << goal;
    }
    ASSERT_EQ(fast.cycles, oracle.cycles)
        << "fast/oracle cycles differ for: " << goal;
    ASSERT_EQ(fast.inferences, oracle.inferences) << goal;
    ASSERT_EQ(fast.trapped, oracle.trapped) << goal;

    baseline::Interpreter interp;
    if (!program.empty())
        interp.consult(program);
    baseline::InterpResult base = interp.query(goal, max_solutions);

    if (fast.trapped) {
        // An uncaught error ball: the baseline reports the same term.
        ASSERT_EQ(fast.error, base.error)
            << "machine/baseline error terms differ for: " << goal;
        return;
    }
    ASSERT_EQ(fast.success, base.success)
        << "machine/baseline disagree on: " << goal;
    ASSERT_EQ(fast.solutions.size(), base.solutions.size()) << goal;
    for (size_t i = 0; i < fast.solutions.size(); ++i) {
        ASSERT_EQ(fast.solutions[i].toString(),
                  base.solutions[i].toString())
            << "machine/baseline solution " << i << " differs for: "
            << goal;
    }
}

} // namespace

// --- ClauseStore unit behaviour ----------------------------------

TEST(ClauseStore, FirstArgumentIndexFiltersCandidates)
{
    db::ClauseStore store;
    Functor f = fn("p", 2);
    store.declareDynamic(f);

    auto a1 = store.assertClause(
        f, fact2("p", Term::makeAtom("a"), Term::makeInt(1)), nullptr,
        false);
    auto a2 = store.assertClause(
        f, fact2("p", Term::makeInt(7), Term::makeInt(2)), nullptr,
        false);
    auto a3 = store.assertClause(
        f, fact2("p", Term::makeVar("X"), Term::makeInt(3)), nullptr,
        false);
    auto a4 = store.assertClause(
        f, fact2("p", Term::makeAtom("a"), Term::makeInt(4)), nullptr,
        false);
    uint64_t gen = store.generation();

    // Bound atom key: its bucket plus the variable-head clause, in
    // sequence order.
    auto atom_key = db::ArgKey::forTerm(Term::makeAtom("a"));
    EXPECT_EQ(visibleSeqs(store, f, atom_key, gen),
              (std::vector<int64_t>{a1.seq, a3.seq, a4.seq}));

    // Bound int key: only the int clause and the variable-head one.
    auto int_key = db::ArgKey::forTerm(Term::makeInt(7));
    EXPECT_EQ(visibleSeqs(store, f, int_key, gen),
              (std::vector<int64_t>{a2.seq, a3.seq}));

    // A key nothing files under still consults the variable list.
    auto miss_key = db::ArgKey::forTerm(Term::makeInt(999));
    EXPECT_EQ(visibleSeqs(store, f, miss_key, gen),
              (std::vector<int64_t>{a3.seq}));

    // Unbound argument: every clause.
    EXPECT_EQ(visibleSeqs(store, f, db::ArgKey{}, gen),
              (std::vector<int64_t>{a1.seq, a2.seq, a3.seq, a4.seq}));
}

TEST(ClauseStore, AssertaOrdersBeforeEveryExistingClause)
{
    db::ClauseStore store;
    Functor f = fn("p", 2);
    auto back = store.assertClause(
        f, fact2("p", Term::makeInt(1), Term::makeInt(1)), nullptr,
        false);
    auto front = store.assertClause(
        f, fact2("p", Term::makeInt(2), Term::makeInt(2)), nullptr,
        /*at_front=*/true);
    EXPECT_LT(front.seq, back.seq);
    EXPECT_EQ(visibleSeqs(store, f, db::ArgKey{}, store.generation()),
              (std::vector<int64_t>{front.seq, back.seq}));
}

TEST(ClauseStore, LogicalUpdateViewIsolatesCapturedGenerations)
{
    db::ClauseStore store;
    Functor f = fn("p", 2);
    auto c1 = store.assertClause(
        f, fact2("p", Term::makeInt(1), Term::makeInt(1)), nullptr,
        false);
    uint64_t old_gen = store.generation();

    auto c2 = store.assertClause(
        f, fact2("p", Term::makeInt(2), Term::makeInt(2)), nullptr,
        false);
    store.eraseClause(f, c1.seq);
    uint64_t new_gen = store.generation();

    // The captured generation still sees exactly the old world:
    // c2 not yet born, c1 not yet dead.
    EXPECT_EQ(visibleSeqs(store, f, db::ArgKey{}, old_gen),
              (std::vector<int64_t>{c1.seq}));
    // The new generation sees the new world.
    EXPECT_EQ(visibleSeqs(store, f, db::ArgKey{}, new_gen),
              (std::vector<int64_t>{c2.seq}));
    // Re-erasing a tombstone is a no-op (no generation bump).
    store.eraseClause(f, c1.seq);
    EXPECT_EQ(store.generation(), new_gen);
    EXPECT_EQ(store.liveClauseCount(f), 1u);
}

TEST(ClauseStore, SaveLoadRoundTripIsByteStableAndScanIdentical)
{
    db::ClauseStore store;
    Functor f = fn("p", 2);
    Functor g = fn("q", 1);
    store.declareDynamic(g); // declared but empty: must survive too
    // A mix: facts, a rule, a front insert, a tombstone, floats.
    store.assertClause(f, fact2("p", Term::makeAtom("k"), Term::makeInt(1)),
                       nullptr, false);
    store.assertClause(
        f, fact2("p", Term::makeVar("X"), Term::makeVar("Y")),
        Term::makeStruct("q", {Term::makeVar("X")}), false);
    store.assertClause(
        f, fact2("p", Term::makeFloat(2.5), Term::makeInt(3)), nullptr,
        true);
    auto victim = store.assertClause(
        f, fact2("p", Term::makeInt(9), Term::makeInt(9)), nullptr,
        false);
    store.eraseClause(f, victim.seq);

    std::vector<uint8_t> blob;
    store.saveTo(blob);

    db::ClauseStore copy;
    copy.loadFrom(blob.data(), blob.size());
    std::vector<uint8_t> blob2;
    copy.saveTo(blob2);
    EXPECT_EQ(blob, blob2) << "save/load/save must be byte-stable";

    EXPECT_EQ(copy.generation(), store.generation());
    EXPECT_EQ(copy.updateCount(), store.updateCount());
    EXPECT_TRUE(copy.isKnown(g));

    // The rebuilt skiplists must reproduce the original node heights:
    // identical scanned counts on identical walks, at the current AND
    // a captured pre-tombstone generation.
    for (uint64_t gen : {store.generation(), store.generation() - 1}) {
        for (const db::ArgKey &key :
             {db::ArgKey{}, db::ArgKey::forTerm(Term::makeAtom("k")),
              db::ArgKey::forTerm(Term::makeFloat(2.5))}) {
            EXPECT_EQ(visibleSeqs(copy, f, key, gen),
                      visibleSeqs(store, f, key, gen));
            EXPECT_EQ(walkScanned(copy, f, key, gen),
                      walkScanned(store, f, key, gen));
        }
    }
}

TEST(ClauseStore, IndexAblationPreservesVisibleSequence)
{
    db::DynDbConfig configs[4];
    configs[1].skiplist = false;
    configs[2].hashIndex = false;
    configs[3].hashIndex = false;
    configs[3].skiplist = false;

    Functor f = fn("p", 2);
    std::vector<std::vector<int64_t>> all_any, all_matching;
    for (const db::DynDbConfig &cfg : configs) {
        db::ClauseStore store(cfg);
        for (int i = 0; i < 40; ++i) {
            store.assertClause(
                f, fact2("p", Term::makeInt(i % 7), Term::makeInt(i)),
                nullptr, i % 5 == 0);
        }
        uint64_t gen = store.generation();
        all_any.push_back(visibleSeqs(store, f, db::ArgKey{}, gen));

        // A bound key yields a candidate superset without the hash
        // index; the clauses whose first argument actually equals the
        // key must be the same subsequence in every configuration.
        std::vector<int64_t> matching;
        auto key = db::ArgKey::forTerm(Term::makeInt(3));
        db::ClauseStore::LookupResult r = store.first(f, key, gen);
        while (r.clause) {
            if (db::ArgKey::forHead(r.clause->head) == key)
                matching.push_back(r.clause->seq);
            r = store.next(f, key, gen, r.clause->seq);
        }
        all_matching.push_back(matching);
    }
    for (int i = 1; i < 4; ++i) {
        EXPECT_EQ(all_any[i], all_any[0]) << "config " << i;
        EXPECT_EQ(all_matching[i], all_matching[0]) << "config " << i;
        EXPECT_FALSE(all_matching[i].empty());
    }
}

// --- differential semantics across all three engines --------------

TEST(DynamicDbDifferential, AssertRetractUnderBacktracking)
{
    const std::string program = ":- dynamic(p/1).\n";
    // retract(p(X)) erases the first clause and binds X; the erasure
    // is a side effect that backtracking must NOT undo.
    compareEngines(program,
                   "assertz(p(1)), assertz(p(2)), retract(p(X)), p(Y)");
    // A retract whose continuation fails: the erasure still stands,
    // and the engines agree that only p(2) survives.
    compareEngines(program,
                   "assertz(p(1)), assertz(p(2)), "
                   "( retract(p(1)), fail ; true ), p(X)");
    // retract is semidet: it erases exactly one clause per call.
    compareEngines(program,
                   "assertz(p(1)), assertz(p(1)), retract(p(1)), p(X)");
}

TEST(DynamicDbDifferential, LogicalUpdateViewMidIteration)
{
    const std::string program = ":- dynamic(p/1).\n";
    // Clauses asserted while p(X) iterates are invisible to it — the
    // goal captured its generation at call time.
    compareEngines(program,
                   "assertz(p(1)), assertz(p(2)), p(X), assertz(p(9))");
    // Retract-while-iterating: the iteration still sees the clause it
    // is standing on and the ones retracted behind its cursor.
    compareEngines(program,
                   "assertz(p(1)), assertz(p(2)), assertz(p(3)), "
                   "p(X), ( retract(p(2)) ; true )");
    // asserta orders before existing clauses for NEW iterations only.
    compareEngines(program,
                   "assertz(p(1)), asserta(p(0)), p(X)");
}

TEST(DynamicDbDifferential, ErrorBallsAgreeAcrossEngines)
{
    const std::string program = ":- dynamic(p/1).\n";
    compareEngines(program, "catch(assertz(X), E, true)");
    compareEngines(program, "catch(asserta(1), E, true)");
    compareEngines(program, "catch(retract(X), E, true)");
    // Modifying a static procedure is a permission error.
    compareEngines("r(1).\n", "catch(assertz(r(2)), E, true)");
    compareEngines("r(1).\n", "catch(retract(r(1)), E, true)");
}

TEST(DynamicDbDifferential, DynamicInitFromConsultedClauses)
{
    // Clauses of a dynamic predicate consulted from source seed the
    // store (the --db-facts path) and stay mutable.
    const std::string program = ":- dynamic(p/2).\n"
                                "p(1, a).\n"
                                "p(2, b).\n"
                                "bridge(X, Y) :- p(X, Y).\n";
    compareEngines(program, "bridge(2, Y)");
    compareEngines(program, "retract(p(1, a)), bridge(X, Y)");
    compareEngines(program, "assertz(p(3, c)), bridge(3, Y)");
}

TEST(DynamicDbDifferential, AnonymousVariablesStayDistinctInASharedStore)
{
    // A reader term with two `_` asserted straight into a store that a
    // machine and the baseline share: both see two variables.
    auto store = std::make_shared<db::ClauseStore>();
    store->assertClause(fn("p", 2), parseTermText("p(_, _)"), nullptr,
                        false);
    KcmSystem host;
    host.consult(":- dynamic(p/2).\n");
    for (const char *goal : {"p(a, b)", "p(X, Y)"}) {
        SCOPED_TRACE(goal);
        Machine machine;
        machine.attachDynamicDb(store);
        machine.load(host.compileOnly(goal));
        ASSERT_EQ(machine.run(), RunStatus::SolutionFound);

        baseline::Interpreter interp;
        interp.attachDynamicDb(store);
        baseline::InterpResult base = interp.query(goal, 1);
        ASSERT_TRUE(base.success);
        ASSERT_EQ(base.solutions.size(), 1u);
        EXPECT_EQ(machine.lastSolution().toString(),
                  base.solutions[0].toString());
    }
    baseline::Interpreter interp;
    interp.attachDynamicDb(store);
    EXPECT_EQ(interp.query("p(X, Y)", 1).solutions.at(0).toString(),
              "X = _0, Y = _1");
}

TEST(FactFile, LexerErrorsNameTheFileAndTheOpeningLine)
{
    // The --db-facts reader prefixes every diagnostic with the file,
    // the lexer's (raised when the text is tokenized) as well as the
    // parser's.
    auto why = [](const char *text) -> std::string {
        try {
            KcmSystem::parseFactFile(text, "bad.pl");
        } catch (const FatalError &err) {
            return err.what();
        }
        return "no error";
    };
    EXPECT_NE(why("edge(a, b).\nedge('b, c).\n")
                  .find("bad.pl: lexer: line 2: unterminated quoted token"),
              std::string::npos)
        << why("edge(a, b).\nedge('b, c).\n");
    EXPECT_NE(why("edge(a, b).\nedge(b c).\n").find("bad.pl: parser: line 2"),
              std::string::npos)
        << why("edge(a, b).\nedge(b c).\n");
}

// --- snapshot/restore of dynamic state ----------------------------

TEST(DynamicDbSnapshot, MidIterationStateRestoresBitIdentically)
{
    KcmSystem host;
    std::string program = ":- dynamic(p/1).\n:- dynamic(q/1).\n";
    for (int i = 1; i <= 20; ++i)
        program += "p(" + std::to_string(i) + ").\n";
    host.consult(program);
    // Mutate the store (fresh clause + tombstone), then iterate the
    // cross product until a late solution; the budget traps mid-walk.
    CodeImage image = host.compileOnly(
        "assertz(q(10)), assertz(q(11)), retract(q(10)), "
        "p(X), p(Y), 38 is X + Y");

    MachineConfig config;
    config.governor.cycleBudget = 4000;
    Machine source(config);
    source.load(image);
    ASSERT_EQ(source.run(), RunStatus::Trapped)
        << "test premise: the budget must interrupt mid-iteration";
    ASSERT_NE(source.dynamicDb(), nullptr);

    Snapshot snap = takeSnapshot(source);

    // Restore into a fresh machine: the clause store (including the
    // q/1 tombstone and live iterator generations parked in X
    // registers) must come back exactly; an immediate re-snapshot is
    // byte-identical.
    Machine restored(config);
    restoreSnapshot(restored, snap);
    ASSERT_NE(restored.dynamicDb(), nullptr);
    EXPECT_EQ(restored.dynamicDb()->generation(),
              source.dynamicDb()->generation());
    EXPECT_EQ(restored.dynamicDb()->updateCount(),
              source.dynamicDb()->updateCount());
    Snapshot again = takeSnapshot(restored);
    EXPECT_EQ(snap.bytes, again.bytes)
        << "restore + re-snapshot must be byte-stable";

    // Both machines resume to the same solution at the same cycle.
    source.setCycleBudget(0);
    restored.setCycleBudget(0);
    ASSERT_EQ(source.resume(), RunStatus::SolutionFound);
    ASSERT_EQ(restored.resume(), RunStatus::SolutionFound);
    EXPECT_EQ(restored.lastSolution().toString(),
              source.lastSolution().toString());
    EXPECT_EQ(restored.cycles(), source.cycles());
    EXPECT_EQ(restored.instructions(), source.instructions());
    EXPECT_EQ(restored.inferences(), source.inferences());
}

TEST(DynamicDbSnapshot, RestoreReplacesAttachedStoreContents)
{
    // A snapshot of a machine with dynamic state, restored into a
    // machine whose store holds unrelated clauses: the restore must
    // replace the contents (no merge, no leak of the old clauses).
    KcmSystem host;
    host.consult(":- dynamic(p/1).\np(1).\n");
    CodeImage image = host.compileOnly("p(X)");

    Machine source;
    source.load(image);
    ASSERT_EQ(source.run(), RunStatus::SolutionFound);
    Snapshot snap = takeSnapshot(source);

    Machine victim;
    auto polluted = std::make_shared<db::ClauseStore>();
    Functor junk = fn("junk", 2);
    polluted->assertClause(
        junk, fact2("junk", Term::makeInt(1), Term::makeInt(2)),
        nullptr, false);
    victim.attachDynamicDb(polluted);
    restoreSnapshot(victim, snap);
    ASSERT_NE(victim.dynamicDb(), nullptr);
    EXPECT_FALSE(victim.dynamicDb()->isKnown(junk));
    EXPECT_TRUE(victim.dynamicDb()->isKnown(fn("p", 1)));
    EXPECT_EQ(victim.dynamicDb()->generation(),
              source.dynamicDb()->generation());
}
