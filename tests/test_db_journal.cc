/**
 * @file
 * Durable-database tests: ClauseStore transactions (exact in-place
 * rollback, op-batch codec round-trips), the write-ahead journal
 * (append / replay / torn-tail truncation / corrupt-record
 * classification / snapshot compaction / sync modes), and the
 * service-layer commit-before-ack contract including a SIGTERM-style
 * drain arriving mid-mutation. bench/db_crash covers the same
 * invariants against a real daemon under kill -9; these pin them down
 * deterministically in the tier-1 suite.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "base/logging.hh"
#include "db/clause_store.hh"
#include "db/journal.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "service/session.hh"

using namespace kcm;

namespace
{

Functor
fn(const std::string &name, uint32_t arity)
{
    return {AtomTable::instance().intern(name), arity};
}

TermRef
fact2(const std::string &pred, int64_t a, int64_t b)
{
    return Term::makeStruct(pred,
                            {Term::makeInt(a), Term::makeInt(b)});
}

std::vector<uint8_t>
storeBytes(const db::ClauseStore &s)
{
    std::vector<uint8_t> bytes;
    s.saveTo(bytes);
    return bytes;
}

/** Fresh scratch directory under TMPDIR; removed by the caller (or
 *  left for inspection on failure — names are unique). */
std::string
scratchDir()
{
    std::string tmpl = "/tmp/kcm_journal_test_XXXXXX";
    char *buf = tmpl.data();
    if (!mkdtemp(buf))
        fatal("mkdtemp: cannot create scratch directory");
    return tmpl;
}

void
removeTree(const std::string &dir)
{
    std::string cmd = "rm -rf '" + dir + "'";
    if (system(cmd.c_str()) != 0)
        fprintf(stderr, "warning: could not remove %s\n", dir.c_str());
}

/** Total nodes scanned walking every candidate of (f, key). The
 *  skiplist shape (not just contents) must survive journal replay for
 *  this to match. */
uint64_t
walkScanned(const db::ClauseStore &s, const Functor &f,
            const db::ArgKey &key)
{
    uint64_t scanned = 0;
    db::ClauseStore::LookupResult r = s.first(f, key, s.generation());
    while (r.clause) {
        scanned += r.scanned;
        r = s.next(f, key, s.generation(), r.clause->seq);
    }
    return scanned + r.scanned;
}

std::vector<uint8_t>
readFileBytes(const std::string &path)
{
    FILE *f = fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open ", path);
    std::vector<uint8_t> bytes;
    uint8_t buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof buf, f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    fclose(f);
    return bytes;
}

void
writeFileBytes(const std::string &path, const std::vector<uint8_t> &bytes)
{
    FILE *f = fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open ", path);
    fwrite(bytes.data(), 1, bytes.size(), f);
    fclose(f);
}

} // namespace

// ------------------------------------------------------------------ //
// Transactions
// ------------------------------------------------------------------ //

TEST(ClauseStoreTxn, RollbackRestoresEveryByteAndCounter)
{
    db::ClauseStore s;
    s.assertClause(fn("f", 2), fact2("f", 1, 10), nullptr, false);
    s.assertClause(fn("f", 2), fact2("f", 2, 20), nullptr, false);
    s.assertClause(fn("g", 1),
                   Term::makeStruct("g", {Term::makeInt(7)}), nullptr,
                   false);

    const std::vector<uint8_t> before = storeBytes(s);
    const uint64_t gen = s.generation();
    const uint64_t updates = s.updateCount();

    s.beginTxn();
    // Every mutation kind, including interning a brand-new predicate
    // and retracting a pre-transaction clause.
    s.assertClause(fn("f", 2), fact2("f", 3, 30), nullptr, false);
    s.assertClause(fn("f", 2), fact2("f", 0, 0), nullptr, true);
    const db::StoredClause &h = s.assertClause(
        fn("h", 1), Term::makeStruct("h", {Term::makeInt(1)}), nullptr,
        false);
    (void)h;
    db::ClauseStore::LookupResult r =
        s.first(fn("f", 2), db::ArgKey::forTerm(Term::makeInt(1)),
                s.generation());
    ASSERT_NE(r.clause, nullptr);
    s.eraseClause(fn("f", 2), r.clause->seq);
    ASSERT_EQ(s.txnOps().size(), 4u);
    s.rollbackTxn();

    EXPECT_EQ(storeBytes(s), before);
    EXPECT_EQ(s.generation(), gen);
    EXPECT_EQ(s.updateCount(), updates);
    EXPECT_FALSE(s.isKnown(fn("h", 1)));
    EXPECT_FALSE(s.inTxn());
}

TEST(ClauseStoreTxn, CommitReturnsOpsAndKeepsMutations)
{
    db::ClauseStore s;
    s.beginTxn();
    s.assertClause(fn("f", 2), fact2("f", 1, 10), nullptr, false);
    s.assertClause(fn("f", 2), fact2("f", 2, 20), nullptr, false);
    std::vector<db::TxnOp> ops = s.commitTxn();
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].kind, db::TxnOp::Kind::AssertZ);
    EXPECT_FALSE(s.inTxn());
    EXPECT_EQ(s.liveClauseCount(fn("f", 2)), 2u);
}

TEST(ClauseStoreTxn, OpBatchCodecRoundTripsAndReplaysBitIdentical)
{
    db::ClauseStore a;
    a.beginTxn();
    a.assertClause(fn("f", 2), fact2("f", 1, 10), nullptr, false);
    a.assertClause(fn("f", 2), fact2("f", 2, 20), nullptr, false);
    a.assertClause(fn("f", 2), fact2("f", 0, 0), nullptr, true);
    // A rule with a body and an atom-only fact, to cover the term
    // codec's hasBody and zero-arity paths.
    a.assertClause(
        fn("r", 1), Term::makeStruct("r", {Term::makeVar("X")}),
        Term::makeStruct("f", {Term::makeVar("X"), Term::makeVar("_")}),
        false);
    a.assertClause(fn("flag", 0), Term::makeAtom("flag"), nullptr,
                   false);
    db::ClauseStore::LookupResult r =
        a.first(fn("f", 2), db::ArgKey::forTerm(Term::makeInt(2)),
                a.generation());
    ASSERT_NE(r.clause, nullptr);
    a.eraseClause(fn("f", 2), r.clause->seq);
    std::vector<db::TxnOp> ops = a.commitTxn();

    std::vector<uint8_t> payload;
    db::ClauseStore::encodeOps(ops, payload);
    std::vector<db::TxnOp> decoded =
        db::ClauseStore::decodeOps(payload.data(), payload.size());
    ASSERT_EQ(decoded.size(), ops.size());

    db::ClauseStore b;
    for (const db::TxnOp &op : decoded)
        b.applyOp(op);
    EXPECT_EQ(storeBytes(b), storeBytes(a));
    EXPECT_EQ(b.generation(), a.generation());

    // Truncated and garbage payloads must throw, never misparse.
    EXPECT_THROW(db::ClauseStore::decodeOps(payload.data(),
                                            payload.size() - 1),
                 FatalError);
    std::vector<uint8_t> junk(16, 0xEE);
    EXPECT_THROW(db::ClauseStore::decodeOps(junk.data(), junk.size()),
                 FatalError);
}

TEST(ClauseStoreTxn, ReplayDivergenceIsFatalNotSilent)
{
    db::ClauseStore s;
    db::TxnOp op;
    op.kind = db::TxnOp::Kind::Erase;
    op.f = fn("nosuch", 1);
    op.seq = 42;
    EXPECT_THROW(s.applyOp(op), FatalError);
}

// ------------------------------------------------------------------ //
// Journal files
// ------------------------------------------------------------------ //

namespace
{

/** Run one transaction against an open journal + store (the service
 *  layer's commit sequence, without the service layer). */
template <typename Mutate>
uint64_t
journaledTxn(db::Journal &j, db::ClauseStore &s, Mutate &&mutate)
{
    s.beginTxn();
    mutate(s);
    uint64_t id = j.commit(s.txnOps());
    s.commitTxn();
    return id;
}

} // namespace

TEST(Journal, FilePathAcceptsDirectoryAndFile)
{
    std::string dir = scratchDir();
    EXPECT_EQ(db::Journal::journalFilePath(dir),
              dir + "/journal.kcmj");
    EXPECT_EQ(db::Journal::journalFilePath(dir + "/x.kcmj"),
              dir + "/x.kcmj");
    removeTree(dir);
}

TEST(Journal, ReopenRebuildsBitIdenticalStoreAndSkiplists)
{
    std::string dir = scratchDir();
    db::ClauseStore original;
    {
        db::Journal j;
        db::JournalScan scan;
        j.open(dir, {}, original, scan);
        EXPECT_TRUE(scan.clean());
        EXPECT_EQ(scan.records, 0u);

        journaledTxn(j, original, [](db::ClauseStore &s) {
            for (int64_t i = 0; i < 40; ++i)
                s.assertClause(fn("f", 2), fact2("f", i, i * 2),
                               nullptr, false);
        });
        journaledTxn(j, original, [](db::ClauseStore &s) {
            s.assertClause(fn("f", 2), fact2("f", -1, -1), nullptr,
                           true);
            db::ClauseStore::LookupResult r = s.first(
                fn("f", 2), db::ArgKey::forTerm(Term::makeInt(7)),
                s.generation());
            ASSERT_NE(r.clause, nullptr);
            s.eraseClause(fn("f", 2), r.clause->seq);
        });
        j.close();
    }

    db::ClauseStore recovered;
    db::JournalScan scan = db::Journal::scanFile(
        db::Journal::journalFilePath(dir), &recovered);
    EXPECT_TRUE(scan.clean());
    EXPECT_EQ(scan.commits, 2u);
    EXPECT_EQ(scan.lastCommitId, 2u);
    EXPECT_EQ(scan.ops, 42u);
    EXPECT_EQ(storeBytes(recovered), storeBytes(original));

    // Same skiplist shape, not just the same clauses: identical
    // scanned counts on a keyed walk and on the unindexed master walk.
    db::ArgKey keyed = db::ArgKey::forTerm(Term::makeInt(13));
    db::ArgKey any = db::ArgKey::forTerm(Term::makeVar("_"));
    EXPECT_EQ(walkScanned(recovered, fn("f", 2), keyed),
              walkScanned(original, fn("f", 2), keyed));
    EXPECT_EQ(walkScanned(recovered, fn("f", 2), any),
              walkScanned(original, fn("f", 2), any));

    // A second open appends where the first left off.
    {
        db::ClauseStore store2;
        db::Journal j;
        db::JournalScan scan2;
        j.open(dir, {}, store2, scan2);
        EXPECT_TRUE(scan2.clean());
        EXPECT_EQ(j.nextCommitId(), 3u);
        EXPECT_EQ(storeBytes(store2), storeBytes(original));
        j.close();
    }
    removeTree(dir);
}

TEST(Journal, SecondWriterIsRefusedWhileFirstHoldsTheLock)
{
    std::string dir = scratchDir();
    db::ClauseStore store;
    db::Journal j;
    db::JournalScan scan;
    j.open(dir, {}, store, scan);

    // flock conflicts across open file descriptions, so a second open
    // in this process exercises exactly what a second daemon would hit.
    db::ClauseStore store2;
    db::Journal j2;
    db::JournalScan scan2;
    try {
        j2.open(dir, {}, store2, scan2);
        FAIL() << "second writer acquired the journal lock";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("locked by another"),
                  std::string::npos)
            << e.what();
    }

    // Releasing the first writer frees the journal for the next.
    j.close();
    db::Journal j3;
    db::JournalScan scan3;
    db::ClauseStore store3;
    j3.open(dir, {}, store3, scan3);
    EXPECT_TRUE(scan3.clean());
    j3.close();
    removeTree(dir);
}

TEST(Journal, TornTailIsClassifiedTruncatedAndPrefixSurvives)
{
    std::string dir = scratchDir();
    const std::string path = db::Journal::journalFilePath(dir);
    db::ClauseStore store;
    {
        db::Journal j;
        db::JournalScan scan;
        j.open(dir, {}, store, scan);
        journaledTxn(j, store, [](db::ClauseStore &s) {
            s.assertClause(fn("f", 2), fact2("f", 1, 1), nullptr,
                           false);
        });
        journaledTxn(j, store, [](db::ClauseStore &s) {
            s.assertClause(fn("f", 2), fact2("f", 2, 2), nullptr,
                           false);
        });
        j.close();
    }
    const std::vector<uint8_t> intact = readFileBytes(path);

    // A crash mid-append leaves a partial record: a header that
    // promises more payload than the file holds.
    std::vector<uint8_t> torn = intact;
    torn.push_back(1); // record type byte of a half-written header
    for (int i = 0; i < 9; ++i)
        torn.push_back(0xAB);
    writeFileBytes(path, torn);

    db::ClauseStore recovered;
    db::JournalScan scan = db::Journal::scanFile(path, &recovered);
    EXPECT_TRUE(scan.torn);
    EXPECT_FALSE(scan.corrupt);
    EXPECT_STREQ(scan.classification(), "torn_tail");
    EXPECT_EQ(scan.goodBytes, intact.size());
    EXPECT_EQ(scan.commits, 2u);
    EXPECT_EQ(storeBytes(recovered), storeBytes(store));

    // open() truncates the torn tail and the journal keeps working.
    {
        db::ClauseStore store2;
        db::Journal j;
        db::JournalScan scan2;
        j.open(dir, {}, store2, scan2);
        EXPECT_TRUE(scan2.torn);
        EXPECT_EQ(storeBytes(store2), storeBytes(store));
        journaledTxn(j, store2, [](db::ClauseStore &s) {
            s.assertClause(fn("f", 2), fact2("f", 3, 3), nullptr,
                           false);
        });
        j.close();
    }
    db::ClauseStore after;
    db::JournalScan rescan = db::Journal::scanFile(path, &after);
    EXPECT_TRUE(rescan.clean());
    EXPECT_EQ(rescan.commits, 3u);
    removeTree(dir);
}

TEST(Journal, CorruptRecordIsReportedAndSuffixDropped)
{
    std::string dir = scratchDir();
    const std::string path = db::Journal::journalFilePath(dir);
    db::ClauseStore store;
    std::vector<uint8_t> after_first;
    {
        db::Journal j;
        db::JournalScan scan;
        j.open(dir, {}, store, scan);
        journaledTxn(j, store, [](db::ClauseStore &s) {
            s.assertClause(fn("f", 2), fact2("f", 1, 1), nullptr,
                           false);
        });
        after_first = storeBytes(store);
        journaledTxn(j, store, [](db::ClauseStore &s) {
            s.assertClause(fn("f", 2), fact2("f", 2, 2), nullptr,
                           false);
        });
        journaledTxn(j, store, [](db::ClauseStore &s) {
            s.assertClause(fn("f", 2), fact2("f", 3, 3), nullptr,
                           false);
        });
        j.close();
    }

    db::JournalScan intact = db::Journal::scanFile(path, nullptr);
    ASSERT_EQ(intact.recordOffsets.size(), 3u);

    // Flip one payload byte of the middle record: checksum failure
    // mid-file — bit rot, not a crash signature.
    std::vector<uint8_t> bytes = readFileBytes(path);
    bytes[intact.recordOffsets[1] + 24] ^= 0x40;
    writeFileBytes(path, bytes);

    db::ClauseStore recovered;
    db::JournalScan scan = db::Journal::scanFile(path, &recovered);
    EXPECT_TRUE(scan.corrupt);
    EXPECT_STREQ(scan.classification(), "corrupt_record");
    EXPECT_FALSE(scan.reason.empty());
    EXPECT_EQ(scan.goodBytes, intact.recordOffsets[1]);
    EXPECT_EQ(scan.commits, 1u);
    // Only the surviving prefix replays; the suspect suffix is never
    // applied, even though the third record's checksum is fine.
    EXPECT_EQ(storeBytes(recovered), after_first);
    removeTree(dir);
}

TEST(Journal, SnapshotRecordsBoundReplayAndCompactionPreservesState)
{
    std::string dir = scratchDir();
    const std::string path = db::Journal::journalFilePath(dir);
    std::vector<uint8_t> expect;
    {
        db::JournalOptions opts;
        opts.snapshotEvery = 2;
        db::JournaledStore js(dir, opts, db::DynDbConfig{});
        std::lock_guard<std::mutex> lock(js.mutex());
        db::ClauseStore &s = js.store();
        for (int64_t i = 0; i < 5; ++i) {
            s.beginTxn();
            s.assertClause(fn("f", 2), fact2("f", i, i), nullptr,
                           false);
            js.commit(s.txnOps());
            s.commitTxn();
        }
        EXPECT_EQ(js.commitsWritten(), 5u);
        EXPECT_EQ(js.snapshotsWritten(), 2u);
        expect = storeBytes(s);
    }

    db::ClauseStore recovered;
    db::JournalScan scan = db::Journal::scanFile(path, &recovered);
    EXPECT_TRUE(scan.clean());
    EXPECT_EQ(scan.snapshots, 2u);
    EXPECT_EQ(scan.lastCommitId, 5u);
    EXPECT_EQ(storeBytes(recovered), expect);

    // Compaction: one snapshot record, same store, same commit id.
    db::JournalScan before =
        db::Journal::compactFile(path, db::DynDbConfig{});
    EXPECT_TRUE(before.clean());
    db::ClauseStore compacted;
    db::JournalScan after = db::Journal::scanFile(path, &compacted);
    EXPECT_TRUE(after.clean());
    EXPECT_EQ(after.records, 1u);
    EXPECT_EQ(after.snapshots, 1u);
    EXPECT_EQ(after.lastCommitId, 5u);
    EXPECT_EQ(storeBytes(compacted), expect);

    // The journal appends after the compacted snapshot seamlessly.
    {
        db::ClauseStore store2;
        db::Journal j;
        db::JournalScan scan2;
        j.open(dir, {}, store2, scan2);
        EXPECT_EQ(j.nextCommitId(), 6u);
        j.close();
    }
    removeTree(dir);
}

TEST(Journal, DurableStoreReclaimsRetractedClausesAtCommit)
{
    // A durable counter bumped 200 times: retract + assertz per
    // commit. Reclaim keeps the store at its 16 live clauses, so its
    // saveTo size and a keyed lookup's scanned count stay constant;
    // sequence numbers and the generation/update counters keep
    // counting as if nothing were reclaimed.
    std::string dir = scratchDir();
    db::JournalOptions opts;
    opts.snapshotEvery = 64; // snapshot records in the history too
    const Functor cnt = fn("cnt", 2);
    const db::ArgKey key3 = db::ArgKey::forTerm(Term::makeInt(3));
    std::vector<uint8_t> committed;
    uint64_t scanned = 0;
    {
        db::JournaledStore js(dir, opts, db::DynDbConfig{});
        std::lock_guard<std::mutex> lock(js.mutex());
        db::ClauseStore &s = js.store();
        s.beginTxn();
        for (int64_t k = 0; k < 16; ++k)
            s.assertClause(cnt, fact2("cnt", k, 0), nullptr, false);
        js.commit(s.txnOps());
        s.commitTxn();
        const size_t size = storeBytes(s).size();
        scanned = walkScanned(s, cnt, key3);

        auto bump = [&](int64_t k) {
            db::ClauseStore::LookupResult r = s.first(
                cnt, db::ArgKey::forTerm(Term::makeInt(k)),
                s.generation());
            ASSERT_NE(r.clause, nullptr);
            int64_t v = r.clause->head->arg(1)->intValue();
            s.eraseClause(cnt, r.clause->seq);
            s.assertClause(cnt, fact2("cnt", k, v + 1), nullptr, false);
        };
        for (int i = 0; i < 200; ++i) {
            s.beginTxn();
            bump(i % 16);
            js.commit(s.txnOps());
            s.commitTxn();
            ASSERT_EQ(storeBytes(s).size(), size) << "commit " << i;
            ASSERT_EQ(walkScanned(s, cnt, key3), scanned)
                << "commit " << i;
        }
        EXPECT_EQ(s.liveClauseCount(cnt), 16u);
        EXPECT_EQ(s.updateCount(), 16u + 2 * 200);
        EXPECT_EQ(s.generation(), 16u + 2 * 200);
        committed = storeBytes(s);

        // A rollback after a reclaim is exact, retracts and asserts
        // of both ends and a new predicate alike.
        s.beginTxn();
        bump(3);
        bump(3);
        s.assertClause(cnt, fact2("cnt", 99, 0), nullptr, true);
        s.assertClause(fn("fresh", 2), fact2("fresh", 1, 1), nullptr,
                       false);
        s.rollbackTxn();
        EXPECT_EQ(storeBytes(s), committed);
        EXPECT_EQ(walkScanned(s, cnt, key3), scanned);
        EXPECT_FALSE(s.isKnown(fn("fresh", 2)));
    }

    // Reopening recovers the reclaimed store byte for byte.
    {
        db::JournaledStore js(dir, opts, db::DynDbConfig{});
        std::lock_guard<std::mutex> lock(js.mutex());
        EXPECT_EQ(storeBytes(js.store()), committed);
        EXPECT_EQ(walkScanned(js.store(), cnt, key3), scanned);
    }
    removeTree(dir);
}

TEST(Journal, SyncModesProduceByteIdenticalJournals)
{
    auto write_with = [](db::JournalSync sync) {
        std::string dir = scratchDir();
        db::JournalOptions opts;
        opts.sync = sync;
        db::ClauseStore store;
        db::Journal j;
        db::JournalScan scan;
        j.open(dir, opts, store, scan);
        for (int64_t i = 0; i < 3; ++i) {
            journaledTxn(j, store, [&](db::ClauseStore &s) {
                s.assertClause(fn("f", 2), fact2("f", i, i), nullptr,
                               false);
            });
        }
        j.close();
        std::vector<uint8_t> bytes =
            readFileBytes(db::Journal::journalFilePath(dir));
        removeTree(dir);
        return bytes;
    };
    std::vector<uint8_t> always = write_with(db::JournalSync::Always);
    EXPECT_EQ(write_with(db::JournalSync::Group), always);
    EXPECT_EQ(write_with(db::JournalSync::None), always);
}

// ------------------------------------------------------------------ //
// Service layer: commit-before-ack and drain-mid-mutation
// ------------------------------------------------------------------ //

TEST(DurableService, DrainMidMutationNeverAcksUnjournaledOps)
{
    std::string dir = scratchDir();
    service::ServerOptions options;
    options.consultStdlib = false;
    options.workers = 1;
    options.dbJournalDir = dir;
    options.drainGraceMs = 100; // interrupt stragglers fast
    service::clearServiceInterrupt();

    uint64_t acked_commits = 0;
    std::vector<uint8_t> acked_bytes;
    {
        service::Server server(options);
        server.start();
        service::Client client;
        ASSERT_TRUE(
            client.connect("127.0.0.1", server.port(), 5'000))
            << client.error();

        const std::string program =
            ":- dynamic(f/2).\n"
            "grow(N, N).\n"
            "grow(I, N) :- I < N, assertz(f(I, I)), I1 is I + 1, "
            "grow(I1, N).\n"
            "spin(0).\n"
            "spin(N) :- M is N - 1, spin(M).\n"
            "burst(N) :- grow(0, N).\n"
            "slow(N) :- grow(0, N), spin(50000000).\n";

        // One completed mutating query: its reply must carry the
        // journal ack.
        service::ClientReply done =
            client.query("ok", program, "burst(10)", 1, 0, 30'000);
        ASSERT_EQ(done.status(), "completed");
        EXPECT_EQ(done.num("db_ops"), 10);
        acked_commits = uint64_t(done.num("db_commit"));
        EXPECT_GT(acked_commits, 0u);

        // A mutating query that asserts and then spins: the drain's
        // grace expires mid-spin, the session aborts at a slice
        // boundary, and the whole transaction rolls back — the reply
        // is "interrupted" with no db_commit ack.
        ASSERT_EQ(client.sendLine(
                      "{\"op\": \"query\", \"id\": \"mid\", "
                      "\"program\": " +
                      service::jsonQuote(program) +
                      ", \"goal\": \"slow(25)\"}"),
                  service::IoStatus::Ok);
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        server.requestDrain();
        server.waitDrained();

        service::ClientReply mid = client.readReply(10'000);
        ASSERT_EQ(mid.io, service::IoStatus::Ok);
        EXPECT_EQ(mid.status(), "failed");
        EXPECT_EQ(mid.str("error"), "interrupted");
        EXPECT_EQ(mid.num("db_commit"), 0);

        const db::JournaledStore *db = server.durableDb();
        ASSERT_NE(db, nullptr);
        EXPECT_EQ(db->commitsWritten(), 1u);
        {
            // The in-memory store agrees with the acked state: the
            // rolled-back burst left nothing half-applied.
            db::JournaledStore *mdb =
                const_cast<db::JournaledStore *>(db);
            std::lock_guard<std::mutex> lock(mdb->mutex());
            EXPECT_EQ(mdb->store().liveClauseCount(fn("f", 2)), 10u);
            acked_bytes = storeBytes(mdb->store());
        }
    }
    service::clearServiceInterrupt();

    // The journal tail agrees with the replies: exactly the acked
    // commit is on disk, and replay reproduces the acked store.
    db::ClauseStore recovered;
    db::JournalScan scan = db::Journal::scanFile(
        db::Journal::journalFilePath(dir), &recovered);
    EXPECT_TRUE(scan.clean());
    EXPECT_EQ(scan.commits, acked_commits);
    EXPECT_EQ(scan.ops, 10u);
    EXPECT_EQ(storeBytes(recovered), acked_bytes);
    removeTree(dir);
}

TEST(DurableService, JournalIoAccountingMatchesStatsOp)
{
    std::string dir = scratchDir();
    service::ServerOptions options;
    options.consultStdlib = false;
    options.workers = 2;
    options.dbJournalDir = dir;
    service::clearServiceInterrupt();
    {
        service::Server server(options);
        server.start();
        service::Client client;
        ASSERT_TRUE(
            client.connect("127.0.0.1", server.port(), 5'000))
            << client.error();

        const std::string program = ":- dynamic(f/1).\n";
        for (int i = 0; i < 3; ++i) {
            service::ClientReply r = client.query(
                cat("q", i), program,
                cat("assertz(f(", i, "))"), 1, 0, 30'000);
            ASSERT_EQ(r.status(), "completed");
            EXPECT_EQ(r.num("db_commit"), i + 1);
        }
        // A read-only query journals nothing and carries no ack.
        service::ClientReply ro =
            client.query("ro", program, "f(X)", 0, 0, 30'000);
        ASSERT_EQ(ro.status(), "completed");
        EXPECT_EQ(ro.num("db_commit"), 0);

        service::ClientReply stats = client.stats();
        ASSERT_EQ(stats.status(), "ok");
        EXPECT_EQ(stats.num("journal_commits"), 3);
        EXPECT_EQ(stats.num("journal_ops"), 3);
        EXPECT_EQ(stats.num("db_commits"), 3);
        EXPECT_EQ(stats.str("journal_recovery"), "clean");

        server.requestDrain();
        server.waitDrained();
    }
    service::clearServiceInterrupt();

    db::JournalScan scan = db::Journal::scanFile(
        db::Journal::journalFilePath(dir), nullptr);
    EXPECT_TRUE(scan.clean());
    EXPECT_EQ(scan.commits, 3u);
    removeTree(dir);
}
