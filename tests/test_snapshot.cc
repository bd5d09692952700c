/**
 * @file
 * Deterministic snapshot/restore.
 *
 * A snapshot taken at a run boundary and restored into a freshly
 * constructed Machine must continue exactly: every simulated metric
 * (cycles, instructions, inferences, cache hits, growth counters) of
 * the resumed run equals the uninterrupted reference run, including
 * across firmware stack-zone growth, and a snapshot of the restored
 * machine is byte-identical to the snapshot it was restored from.
 * Save and restore visit only the elements in each unit's touched
 * set, which is sound because every word, page-table entry and cache
 * cell that differs from its default is in it; that invariant is
 * pinned down here too. The page table and both cache arrays are
 * recorded sparsely (nonzero entries, valid cells), so a post-load
 * template's size tracks its live state. The code image is a binary
 * record of every CodeImage field, checked against the text image
 * codec, also when it is decoded into a machine that holds another
 * image. The section checksum rejects every single-bit flip of a
 * template and every pair of top-bit flips; a payload rewritten behind
 * a recomputed checksum (bad memory extents, a short image record) is
 * rejected before the target changes. A machine restoring one
 * template after another, or reset to the pristine state and loaded,
 * keeps its predecode equal to a decode of every image word.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "compiler/image_io.hh"
#include "core/machine.hh"
#include "core/snapshot.hh"
#include "kcm/kcm.hh"

using namespace kcm;

namespace
{

/** Compile program+goal with the default compiler options. */
CodeImage
compileQuery(const std::string &program, const std::string &goal)
{
    KcmSystem host;
    host.consult(program);
    return host.compileOnly(goal);
}

/** The metrics that must survive a restore bit-exactly. */
struct Metrics
{
    uint64_t cycles, instructions, inferences;
    uint64_t dcacheHits, dcacheMisses, ccacheHits, ccacheMisses;
    uint64_t choicePoints, trailPushes, growths;

    bool
    operator==(const Metrics &o) const
    {
        return cycles == o.cycles && instructions == o.instructions &&
               inferences == o.inferences && dcacheHits == o.dcacheHits &&
               dcacheMisses == o.dcacheMisses &&
               ccacheHits == o.ccacheHits &&
               ccacheMisses == o.ccacheMisses &&
               choicePoints == o.choicePoints &&
               trailPushes == o.trailPushes && growths == o.growths;
    }
};

Metrics
metricsOf(Machine &m)
{
    return Metrics{
        m.cycles(),
        m.instructions(),
        m.inferences(),
        m.mem().dataCache().readHits.value() +
            m.mem().dataCache().writeHits.value(),
        m.mem().dataCache().readMisses.value() +
            m.mem().dataCache().writeMisses.value(),
        m.mem().codeCache().readHits.value(),
        m.mem().codeCache().readMisses.value(),
        m.choicePointsCreated.value(),
        m.trailPushes.value(),
        m.stackZoneGrowths.value(),
    };
}

const char *countProgram =
    "count(0).\n"
    "count(N) :- N > 0, M is N - 1, count(M).\n";

const char *mklistProgram =
    "mklist(0, []).\n"
    "mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).\n";

/** Every physical word at or past the MMU's allocated prefix is zero:
 *  nothing of an earlier, larger run survives a restore. */
::testing::AssertionResult
zeroPastAllocatedPrefix(Machine &m)
{
    const MainMemory &mm = m.mem().memory();
    const size_t prefix = size_t(m.mem().mmu().allocatedPages())
                          << pageShift;
    for (size_t a = prefix; a < mm.sizeWords(); ++a) {
        if (mm.peek(PhysAddr(a)))
            return ::testing::AssertionFailure()
                   << "physical word " << a << " is nonzero past the "
                   << prefix << "-word allocated prefix";
    }
    return ::testing::AssertionSuccess();
}

} // namespace

TEST(Snapshot, RestoredRunContinuesBitIdentically)
{
    CodeImage image = compileQuery(countProgram, "count(200)");

    // Reference: the uninterrupted run.
    Machine reference;
    reference.load(image);
    ASSERT_EQ(reference.run(), RunStatus::SolutionFound);
    Metrics full = metricsOf(reference);

    // Interrupted: trap on a half-way cycle budget, snapshot, restore
    // into a fresh machine, resume there.
    MachineConfig config;
    config.governor.cycleBudget = full.cycles / 2;
    Machine source(config);
    source.load(image);
    ASSERT_EQ(source.run(), RunStatus::Trapped);
    ASSERT_EQ(source.lastTrap().kind, TrapKind::Abort);

    Snapshot snap = takeSnapshot(source);
    EXPECT_FALSE(snap.bytes.empty());

    Machine restored(config);
    restoreSnapshot(restored, snap);
    EXPECT_TRUE(restored.trapped());
    EXPECT_EQ(restored.cycles(), source.cycles());

    restored.setCycleBudget(0);
    ASSERT_EQ(restored.resume(), RunStatus::SolutionFound);
    EXPECT_EQ(metricsOf(restored), full)
        << "restored continuation diverged from the uninterrupted run";

    // The original machine, resumed in place, matches too (the
    // snapshot did not perturb it).
    source.setCycleBudget(0);
    ASSERT_EQ(source.resume(), RunStatus::SolutionFound);
    EXPECT_EQ(metricsOf(source), full);
}

TEST(Snapshot, SnapshotOfRestoredMachineIsByteIdentical)
{
    CodeImage image = compileQuery(countProgram, "count(120)");
    MachineConfig config;
    config.governor.cycleBudget = 1500;
    Machine source(config);
    source.load(image);
    ASSERT_EQ(source.run(), RunStatus::Trapped);

    Snapshot first = takeSnapshot(source);
    Machine restored(config);
    restoreSnapshot(restored, first);
    Snapshot second = takeSnapshot(restored);
    EXPECT_EQ(first.bytes, second.bytes);
}

TEST(Snapshot, RoundTripAcrossGrownStackZone)
{
    // The interrupted run crosses firmware stack growth (64-word heap
    // quota, list of 200 cons cells): the snapshot must carry the
    // grown zone limits and the growth charges so the continuation
    // still matches the uninterrupted governed run exactly.
    CodeImage image = compileQuery(mklistProgram, "mklist(200, L)");
    MachineConfig config;
    config.governor.globalQuotaWords = 64;

    Machine reference(config);
    reference.load(image);
    ASSERT_EQ(reference.run(), RunStatus::SolutionFound);
    Metrics full = metricsOf(reference);
    ASSERT_GE(full.growths, 1u) << "test premise: growth must occur";

    MachineConfig budgeted = config;
    budgeted.governor.cycleBudget = full.cycles * 3 / 4;
    Machine source(budgeted);
    source.load(image);
    ASSERT_EQ(source.run(), RunStatus::Trapped);
    ASSERT_GE(source.stackZoneGrowths.value(), 1u)
        << "test premise: snapshot must be taken after a growth";

    Snapshot snap = takeSnapshot(source);
    Machine restored(budgeted);
    restoreSnapshot(restored, snap);
    restored.setCycleBudget(0);
    ASSERT_EQ(restored.resume(), RunStatus::SolutionFound);
    EXPECT_EQ(metricsOf(restored), full);
    EXPECT_EQ(restored.lastSolution().toString(),
              reference.lastSolution().toString());
}

TEST(Snapshot, RestoreBridgesDispatchCores)
{
    // The two cores are cycle-identical by construction, so a
    // snapshot taken on the fast core must continue bit-identically
    // on the oracle core — state is state.
    CodeImage image = compileQuery(countProgram, "count(150)");

    MachineConfig fast_config;
    fast_config.fastDispatch = true;
    Machine reference(fast_config);
    reference.load(image);
    ASSERT_EQ(reference.run(), RunStatus::SolutionFound);
    Metrics full = metricsOf(reference);

    MachineConfig budgeted = fast_config;
    budgeted.governor.cycleBudget = full.cycles / 2;
    Machine source(budgeted);
    source.load(image);
    ASSERT_EQ(source.run(), RunStatus::Trapped);
    Snapshot snap = takeSnapshot(source);

    MachineConfig oracle_config = budgeted;
    oracle_config.fastDispatch = false;
    Machine restored(oracle_config);
    restoreSnapshot(restored, snap);
    restored.setCycleBudget(0);
    ASSERT_EQ(restored.resume(), RunStatus::SolutionFound);
    EXPECT_EQ(metricsOf(restored), full);
}

TEST(Snapshot, NextSolutionAfterRestoreMatches)
{
    // Snapshot at a solution boundary; the restored machine
    // backtracks into the same next solution at the same cost.
    CodeImage image = compileQuery("p(1). p(2). p(3).", "p(X)");

    Machine source;
    source.load(image);
    ASSERT_EQ(source.run(), RunStatus::SolutionFound);
    Snapshot snap = takeSnapshot(source);

    Machine restored;
    restoreSnapshot(restored, snap);
    ASSERT_EQ(source.nextSolution(), RunStatus::SolutionFound);
    ASSERT_EQ(restored.nextSolution(), RunStatus::SolutionFound);
    EXPECT_EQ(restored.lastSolution().toString(),
              source.lastSolution().toString());
    EXPECT_EQ(restored.cycles(), source.cycles());
    EXPECT_EQ(restored.instructions(), source.instructions());
}

TEST(Snapshot, HostOutputAndTraceSurviveRestore)
{
    CodeImage image =
        compileQuery("greet :- write(hello), nl.", "greet");
    Machine source;
    source.load(image);
    ASSERT_EQ(source.run(), RunStatus::SolutionFound);
    ASSERT_EQ(source.output(), "hello\n");

    Snapshot snap = takeSnapshot(source);
    Machine restored;
    restoreSnapshot(restored, snap);
    EXPECT_EQ(restored.output(), "hello\n");
    EXPECT_EQ(restored.recentTrace(8), source.recentTrace(8));
    EXPECT_EQ(restored.stateString(), source.stateString());
}

TEST(Snapshot, ThrowDeliveryAfterRestoreBridgesCores)
{
    // Interrupt inside a protected goal *before* the throw, snapshot,
    // restore into the other execution core: the ball must still be
    // delivered to the catcher at the identical simulated cost. This
    // is the catch/throw ↔ snapshot interaction: the catch marker
    // lives in snapshotted machine state, not host state.
    const char *program =
        "work(0).\n"
        "work(N) :- N > 0, M is N - 1, work(M).\n"
        "boom(R) :- catch((work(300), throw(ball(7)), R = no),\n"
        "                 ball(V), R = caught(V)).\n";
    CodeImage image = compileQuery(program, "boom(R)");

    for (bool fast : {true, false}) {
        MachineConfig config;
        config.fastDispatch = fast;

        Machine reference(config);
        reference.load(image);
        ASSERT_EQ(reference.run(), RunStatus::SolutionFound);
        Metrics full = metricsOf(reference);

        // Interrupt with a host slice stop halfway through work/1:
        // strictly before the throw is reached.
        Machine source(config);
        source.load(image);
        source.setSliceStop(full.cycles / 2);
        ASSERT_EQ(source.run(), RunStatus::Trapped);
        ASSERT_TRUE(source.sliceExpired());
        Snapshot snap = takeSnapshot(source);

        MachineConfig cross = config;
        cross.fastDispatch = !fast;
        Machine restored(cross);
        restoreSnapshot(restored, snap);
        restored.setSliceStop(0);
        ASSERT_EQ(restored.resume(), RunStatus::SolutionFound);
        EXPECT_EQ(metricsOf(restored), full)
            << "cross-core continuation diverged (fast=" << fast << ")";
        EXPECT_EQ(restored.lastSolution().toString(),
                  reference.lastSolution().toString());
        EXPECT_NE(restored.lastSolution().toString().find("caught(7)"),
                  std::string::npos)
            << restored.lastSolution().toString();
    }
}

TEST(Snapshot, GovernorRecoveryAfterRestoreBridgesCores)
{
    // The cycle budget is snapshotted as an absolute stop cycle: a
    // restored machine must exhaust the governor at the identical
    // cycle and deliver the same catchable resource_error ball.
    const char *program =
        "spin(0).\n"
        "spin(N) :- N > 0, M is N - 1, spin(M).\n"
        "guarded(R) :- catch(spin(100000), resource_error(K),\n"
        "                    R = caught(K)).\n";
    CodeImage image = compileQuery(program, "guarded(R)");

    for (bool fast : {true, false}) {
        MachineConfig config;
        config.fastDispatch = fast;
        config.governor.cycleBudget = 4000;

        Machine reference(config);
        reference.load(image);
        ASSERT_EQ(reference.run(), RunStatus::SolutionFound);
        Metrics full = metricsOf(reference);
        ASSERT_NE(reference.lastSolution().toString().find("caught"),
                  std::string::npos)
            << "test premise: the budget must exhaust inside catch/3";

        Machine source(config);
        source.load(image);
        source.setSliceStop(full.cycles / 2);
        ASSERT_EQ(source.run(), RunStatus::Trapped);
        ASSERT_TRUE(source.sliceExpired());
        Snapshot snap = takeSnapshot(source);

        MachineConfig cross = config;
        cross.fastDispatch = !fast;
        Machine restored(cross);
        restoreSnapshot(restored, snap);
        restored.setSliceStop(0);
        ASSERT_EQ(restored.resume(), RunStatus::SolutionFound);
        EXPECT_EQ(metricsOf(restored), full)
            << "cross-core continuation diverged (fast=" << fast << ")";
        EXPECT_EQ(restored.lastSolution().toString(),
                  reference.lastSolution().toString());
    }
}

TEST(Snapshot, CorruptImagesAreRejected)
{
    CodeImage image = compileQuery("p(1).", "p(X)");
    Machine source;
    source.load(image);
    Snapshot snap = takeSnapshot(source);

    Snapshot bad_magic = snap;
    bad_magic.bytes[0] ^= 0xFF;
    Machine victim;
    EXPECT_THROW(restoreSnapshot(victim, bad_magic), FatalError);

    Snapshot truncated = snap;
    truncated.bytes.resize(truncated.bytes.size() / 2);
    EXPECT_THROW(restoreSnapshot(victim, truncated), FatalError);
}

TEST(Snapshot, TemplateRestoresManyTimesAcrossCoresUnmodified)
{
    // The server's warm image cache snapshots the post-download
    // machine ONCE and restores that shared template for every later
    // query with the same (program, goal, config) key. The contract:
    // every restore yields the same run, on either dispatch core, and
    // the template buffer itself is never modified by being used.
    CodeImage image = compileQuery(mklistProgram, "mklist(40, L)");

    Machine loaded;
    loaded.load(image);
    const Snapshot tmpl = takeSnapshot(loaded);
    const std::vector<uint8_t> pristine = tmpl.bytes;

    // Reference run: straight from load(), no snapshot involved.
    Machine reference;
    reference.load(image);
    ASSERT_EQ(reference.run(), RunStatus::SolutionFound);
    const Metrics want = metricsOf(reference);

    // Restore-many, alternating the fast and oracle cores.
    for (int i = 0; i < 6; ++i) {
        MachineConfig config;
        config.fastDispatch = (i % 2 == 0);
        Machine worker(config);
        restoreSnapshot(worker, tmpl);
        ASSERT_EQ(worker.run(), RunStatus::SolutionFound)
            << "restore #" << i;
        EXPECT_EQ(metricsOf(worker), want)
            << "restore #" << i << " diverged from the direct load";
        EXPECT_EQ(tmpl.bytes, pristine)
            << "restore #" << i << " modified the shared template";
    }

    // The server restores the same shared buffer from concurrent
    // worker threads; races would corrupt answers, not just bytes.
    std::vector<std::thread> workers;
    std::atomic<int> mismatches{0};
    for (int i = 0; i < 4; ++i) {
        workers.emplace_back([&, i] {
            MachineConfig config;
            config.fastDispatch = (i % 2 == 0);
            Machine worker(config);
            restoreSnapshot(worker, tmpl);
            if (worker.run() != RunStatus::SolutionFound ||
                !(metricsOf(worker) == want))
                ++mismatches;
        });
    }
    for (std::thread &t : workers)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(tmpl.bytes, pristine);
}

TEST(Snapshot, ValidateSnapshotCatchesBitFlipWithoutAMachine)
{
    // The structural check restoreSnapshot runs before it mutates
    // anything, callable without a machine: it must accept a healthy
    // template and reject every single-bit corruption of it, and every
    // pair of top-bit flips in two words of one section payload (the
    // pairs a word-wise FNV-1a step lets cancel).
    CodeImage image = compileQuery(mklistProgram, "mklist(10, L)");
    Machine loaded;
    loaded.load(image);
    Snapshot tmpl = takeSnapshot(loaded);

    std::string why;
    EXPECT_TRUE(validateSnapshot(tmpl, &why)) << why;

    size_t missed = 0;
    for (size_t pos = 0; pos < tmpl.bytes.size(); ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
            tmpl.bytes[pos] ^= uint8_t(1u << bit);
            if (validateSnapshot(tmpl) && ++missed <= 5)
                ADD_FAILURE() << "flip of bit " << bit << " at byte "
                              << pos << " went undetected";
            tmpl.bytes[pos] ^= uint8_t(1u << bit);
        }
    }
    EXPECT_EQ(missed, 0u);

    // Pairs in the memory section, the third. Each section is a u32
    // id, a u64 length, a u64 checksum and the payload, after the magic
    // and the section count; bit 63 of the payload's little-endian
    // word w is the top bit of byte 7 of that word.
    size_t payload = 8 + 4;
    uint64_t length = 0;
    for (int section = 0; section < 3; ++section) {
        payload += size_t(length);
        std::memcpy(&length, tmpl.bytes.data() + payload + 4,
                    sizeof length);
        payload += 4 + 8 + 8;
    }
    constexpr size_t words = 64;
    ASSERT_GE(length, words * 8) << "test premise: a 64-word payload";
    auto top_bit = [&](size_t w) -> uint8_t & {
        return tmpl.bytes[payload + 8 * w + 7];
    };
    missed = 0;
    for (size_t a = 0; a < words; ++a) {
        for (size_t b = a + 1; b < words; ++b) {
            top_bit(a) ^= 0x80;
            top_bit(b) ^= 0x80;
            if (validateSnapshot(tmpl) && ++missed <= 5)
                ADD_FAILURE() << "bit-63 flips in words " << a << " and "
                              << b << " went undetected";
            top_bit(a) ^= 0x80;
            top_bit(b) ^= 0x80;
        }
    }
    EXPECT_EQ(missed, 0u);
    EXPECT_TRUE(validateSnapshot(tmpl, &why)) << why;
}

TEST(Snapshot, PooledRestoreRedecodesExactlyTheChangedWords)
{
    // One machine restores the templates of three programs in turn, as
    // a pooled machine does; the image shrinks, then grows past the
    // shorter length again. After every restore each predecoded entry
    // must be decodeInstr of its image word (DecodedInstr{} is not:
    // its baseCycles is 0, a zero word's is not), and the run must
    // match a fresh machine's.
    const char *nrevProgram =
        "app([], L, L).\n"
        "app([H|T], L, [H|R]) :- app(T, L, R).\n"
        "nrev([], []).\n"
        "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n";
    const CodeImage images[] = {
        compileQuery(nrevProgram, "nrev([1,2,3,4,5,6,7,8], R)"),
        compileQuery(countProgram, "count(50)"),
        compileQuery(mklistProgram, "mklist(12, L)"),
    };
    ASSERT_GT(images[0].words.size(), images[1].words.size());
    ASSERT_GT(images[2].words.size(), images[1].words.size());
    const std::vector<uint64_t> &grown = images[2].words;
    ASSERT_NE(std::find(grown.begin() + images[1].words.size(),
                        grown.end(), uint64_t(0)),
              grown.end())
        << "test premise: a zero word past the shorter image";

    std::vector<Snapshot> templates;
    for (const CodeImage &image : images) {
        Machine loaded;
        loaded.load(image);
        templates.push_back(takeSnapshot(loaded));
    }

    Machine pooled;
    auto expect_predecode_follows_words = [&] {
        const std::vector<uint64_t> &words = pooled.image().words;
        const std::vector<DecodedInstr> &decoded = pooled.predecoded();
        ASSERT_EQ(decoded.size(), words.size());
        for (size_t k = 0; k < words.size(); ++k) {
            const DecodedInstr want = decodeInstr(words[k]);
            const DecodedInstr &got = decoded[k];
            EXPECT_TRUE(got.raw == want.raw &&
                        got.constant.raw() == want.constant.raw() &&
                        got.value == want.value &&
                        got.offset == want.offset && got.op == want.op &&
                        got.r1 == want.r1 && got.r2 == want.r2 &&
                        got.r3 == want.r3 && got.r4 == want.r4 &&
                        got.baseCycles == want.baseCycles &&
                        got.inferenceMark == want.inferenceMark)
                << "predecoded word " << k << " (" << words[k]
                << ") does not decode its image word";
        }
    };
    auto expect_run_matches_fresh = [&](auto start_fresh) {
        Machine fresh;
        start_fresh(fresh);
        ASSERT_EQ(fresh.run(), RunStatus::SolutionFound);
        ASSERT_EQ(pooled.run(), RunStatus::SolutionFound);
        EXPECT_EQ(metricsOf(pooled), metricsOf(fresh));
        EXPECT_EQ(pooled.lastSolution().toString(),
                  fresh.lastSolution().toString());
    };
    for (size_t i : {0, 1, 2, 0}) {
        SCOPED_TRACE(i);
        restoreSnapshot(pooled, templates[i]);
        expect_predecode_follows_words();
        expect_run_matches_fresh(
            [&](Machine &fresh) { restoreSnapshot(fresh, templates[i]); });
    }

    // A compile miss: the pristine reset of the pooled machine (an
    // empty image, so an empty predecode), then a load() of an image
    // other than the one the machine held before the reset.
    Machine blank;
    const Snapshot pristine = takeSnapshot(blank);
    for (size_t i : {1, 2}) {
        SCOPED_TRACE(i);
        restoreSnapshot(pooled, pristine);
        EXPECT_TRUE(pooled.image().words.empty());
        expect_predecode_follows_words();
        EXPECT_EQ(takeSnapshot(pooled).bytes, pristine.bytes);
        pooled.load(images[i]);
        expect_predecode_follows_words();
        expect_run_matches_fresh([&](Machine &fresh) { fresh.load(images[i]); });
    }
}

TEST(Snapshot, TouchedSetsCoverEveryNonDefaultElement)
{
    // Take scans and restore resets only the touched sets, so every
    // word, page-table entry and cache cell that differs from its
    // default must be in one after each way a machine's state moves:
    // load, a run cut short by a trap, a collection, the resumed run,
    // restores that shrink and grow the allocated prefix, and a cold
    // load into a used machine.
    CodeImage image = compileQuery(mklistProgram, "mklist(3000, L)");
    MachineConfig config;
    config.governor.cycleBudget = 20000;
    Machine m(config);
    m.load(image);
    EXPECT_EQ(untrackedState(m), "") << "after load";

    ASSERT_EQ(m.run(), RunStatus::Trapped);
    ASSERT_EQ(m.lastTrap().kind, TrapKind::Abort);
    EXPECT_EQ(untrackedState(m), "") << "after a trap";

    m.collectGarbage();
    EXPECT_EQ(untrackedState(m), "") << "after a collection";

    m.setCycleBudget(0);
    ASSERT_EQ(m.resume(), RunStatus::SolutionFound);
    EXPECT_EQ(untrackedState(m), "") << "after the run";
    const Snapshot large = takeSnapshot(m);
    const uint32_t large_pages = m.mem().mmu().allocatedPages();

    Machine restored(config);
    restoreSnapshot(restored, large);
    EXPECT_EQ(untrackedState(restored), "") << "after a fresh restore";

    Machine small_source(config);
    small_source.load(compileQuery(countProgram, "count(200)"));
    const Snapshot small = takeSnapshot(small_source);
    ASSERT_LT(small_source.mem().mmu().allocatedPages(), large_pages)
        << "test premise: the template's prefix must be the smaller one";

    restoreSnapshot(m, small);
    EXPECT_EQ(untrackedState(m), "") << "after a shrinking restore";
    EXPECT_EQ(takeSnapshot(m).bytes, small.bytes);

    restoreSnapshot(m, large);
    EXPECT_EQ(untrackedState(m), "") << "after a growing restore";
    EXPECT_EQ(takeSnapshot(m).bytes, large.bytes);

    // A cold load into a used machine, then a query that fails back
    // into the bottom choice point: reading it misses on data-cache
    // cells that no write has filled.
    m.load(compileQuery(countProgram, "count(-1)"));
    EXPECT_EQ(untrackedState(m), "") << "after a cold load into a used "
                                        "machine";
    m.setCycleBudget(0);
    ASSERT_EQ(m.run(), RunStatus::Failed);
    EXPECT_EQ(untrackedState(m), "") << "after a failed run";
}

TEST(Snapshot, RestoreOverALargerPrefixClearsItAndContinuesExactly)
{
    // A small-prefix snapshot restored into a machine that has already
    // run a bigger program: restore resets only the words, page-table
    // entries and cache cells the target's touched sets hold, which
    // must be enough to leave nothing of the old run. Two inputs: a
    // mid-run snapshot, and the post-load template, in which every
    // cache cell is invalid and only a few pages are mapped.
    CodeImage small = compileQuery(countProgram, "count(200)");
    Machine reference;
    reference.load(small);
    ASSERT_EQ(reference.run(), RunStatus::SolutionFound);
    const Metrics full = metricsOf(reference);

    MachineConfig config;
    config.governor.cycleBudget = full.cycles / 2;
    struct Input
    {
        const char *name;
        Snapshot snap;
        uint32_t pages;
    };
    Machine source(config);
    source.load(small);
    const Input tmpl{"post-load", takeSnapshot(source),
                     source.mem().mmu().allocatedPages()};
    ASSERT_EQ(source.run(), RunStatus::Trapped);
    const Input mid{"mid-run", takeSnapshot(source),
                    source.mem().mmu().allocatedPages()};

    for (const Input *in : {&mid, &tmpl}) {
        Machine target(config);
        target.load(compileQuery(mklistProgram, "mklist(20000, L)"));
        target.setCycleBudget(0);
        ASSERT_EQ(target.run(), RunStatus::SolutionFound);
        ASSERT_GT(target.mem().mmu().allocatedPages(), in->pages)
            << "test premise: the target's prefix must be the larger one";

        restoreSnapshot(target, in->snap);
        EXPECT_EQ(target.mem().mmu().allocatedPages(), in->pages)
            << in->name;
        EXPECT_TRUE(zeroPastAllocatedPrefix(target)) << in->name;
        EXPECT_EQ(untrackedState(target), "") << in->name;
        EXPECT_EQ(takeSnapshot(target).bytes, in->snap.bytes) << in->name;

        target.setCycleBudget(0);
        ASSERT_EQ(in == &mid ? target.resume() : target.run(),
                  RunStatus::SolutionFound)
            << in->name;
        EXPECT_EQ(metricsOf(target), full) << in->name;
        EXPECT_EQ(target.lastSolution().toString(),
                  reference.lastSolution().toString())
            << in->name;
    }
}

TEST(Snapshot, PostLoadTemplateBytesTrackLiveState)
{
    // A freshly loaded machine maps a few pages and holds no valid
    // cache cell, so its snapshot is a few pages of live words, not
    // the whole page table and both cache arrays.
    Machine loaded;
    loaded.load(compileQuery(countProgram, "count(200)"));
    EXPECT_LT(takeSnapshot(loaded).bytes.size(), 64u * 1024);
}

TEST(Snapshot, ImageSectionRoundTripsEveryField)
{
    // The image section records the CodeImage field for field. A
    // field dropped from both save and restore would still pass the
    // re-snapshot byte-identity test, so compare the restored image
    // with the original through the text codec, which writes them all.
    const char *program =
        ":- dynamic(seen/1).\n"
        "seen(a).\n"
        "seen(b).\n"
        "probe(X, L) :- catch(seen(X), _, fail), append([X], [X], L).\n";
    KcmSystem host;
    host.consultStandardLibrary();
    host.consult(program);
    CodeImage image = host.compileOnly("probe(Who, Pair)");
    // Premise: every optional part of the image is populated.
    ASSERT_FALSE(image.dynamicInit.empty());
    ASSERT_FALSE(image.dynamicDecls.empty());
    ASSERT_FALSE(image.dynStubs.empty());
    ASSERT_NE(image.dynRetryEntry, 0u);
    ASSERT_NE(image.catchFailEntry, 0u);
    ASSERT_NE(image.queryEntry, 0u);
    ASSERT_EQ(image.querySolutionSlots.size(), 2u);
    ASSERT_TRUE(std::any_of(image.predicates.begin(),
                            image.predicates.end(), [](const auto &p) {
                                return p.second.fromLibrary;
                            }));

    auto text = [](const CodeImage &i) {
        std::ostringstream out;
        saveImage(i, out);
        return out.str();
    };
    Machine source;
    source.load(image);
    const Snapshot snap = takeSnapshot(source);

    // The decode merges into the target's own image: restore into a
    // fresh machine, into one that holds an image with more of every
    // part, and into one that holds an image with fewer.
    KcmSystem larger_host;
    larger_host.consultStandardLibrary();
    larger_host.consult(std::string(program) +
                        ":- dynamic(other/2).\n"
                        ":- dynamic(third/1).\n"
                        "other(1, x).\n"
                        "third(z).\n"
                        "seen(c).\n"
                        "pick(N, Z) :- other(N, _), third(Z).\n");
    const CodeImage larger =
        larger_host.compileOnly("probe(Who, Pair), pick(N, Z)");
    const CodeImage smaller = compileQuery(countProgram, "count(3)");
    ASSERT_GT(larger.predicates.size(), image.predicates.size());
    ASSERT_GT(larger.dynStubs.size(), image.dynStubs.size());
    ASSERT_GT(larger.dynamicDecls.size(), image.dynamicDecls.size());
    ASSERT_GT(larger.dynamicInit.size(), image.dynamicInit.size());
    ASSERT_GT(larger.querySolutionSlots.size(),
              image.querySolutionSlots.size());
    ASSERT_LT(smaller.predicates.size(), image.predicates.size());
    ASSERT_LT(smaller.querySolutionSlots.size(),
              image.querySolutionSlots.size());
    ASSERT_TRUE(smaller.dynStubs.empty() && smaller.dynamicDecls.empty() &&
                smaller.dynamicInit.empty());

    struct Held
    {
        const char *name;
        const CodeImage *image;
    };
    for (const Held &held : {Held{"fresh", nullptr}, Held{"larger", &larger},
                             Held{"smaller", &smaller}}) {
        SCOPED_TRACE(held.name);
        Machine target;
        if (held.image)
            target.load(*held.image);
        restoreSnapshot(target, snap);
        EXPECT_EQ(text(target.image()), text(image));
        EXPECT_EQ(takeSnapshot(target).bytes, snap.bytes);
        ASSERT_EQ(target.run(), RunStatus::SolutionFound);
        EXPECT_EQ(target.lastSolution().toString(), "Who = a, Pair = [a,a]");
    }
}

TEST(Snapshot, MalformedPayloadsAreRejectedBeforeAnythingMutates)
{
    // Payloads rewritten behind a recomputed checksum: memory extents
    // past the board, empty, overlapping or out of order, and an image
    // record one solution slot short of its count. Phase one rejects
    // each before the target changes, though the image record is
    // decoded in place and the extents are copied unchecked.
    Machine source;
    source.load(compileQuery(mklistProgram, "mklist(30, L)"));
    const Snapshot good = takeSnapshot(source);

    Machine target;
    target.load(compileQuery(
        countProgram + std::string("pair(X, Y) :- count(3), X = a, Y = b.\n"),
        "pair(X, Y)"));
    ASSERT_EQ(target.run(), RunStatus::SolutionFound);
    const std::vector<uint8_t> before = takeSnapshot(target).bytes;

    // The payload offset of section @p s (image 0, memory 2).
    auto payload_of = [&](size_t s) {
        size_t pos = 8 + 4;
        for (size_t k = 0;; ++k) {
            uint64_t length;
            std::memcpy(&length, good.bytes.data() + pos + 4, 8);
            pos += 4 + 8 + 8;
            if (k == s)
                return pos;
            pos += size_t(length);
        }
    };
    auto u32_at = [&](const Snapshot &snap, size_t at) {
        uint32_t v;
        std::memcpy(&v, snap.bytes.data() + at, 4);
        return v;
    };
    auto u64_at = [&](const Snapshot &snap, size_t at) {
        uint64_t v;
        std::memcpy(&v, snap.bytes.data() + at, 8);
        return v;
    };

    // Memory: the geometry header (4 u64s), the extent count, then each
    // extent's u32 start, u32 length and words.
    const size_t mem = payload_of(2);
    const uint64_t board = u64_at(good, mem);
    ASSERT_GE(u64_at(good, mem + 32), 2u) << "test premise: two extents";
    const size_t first = mem + 40;
    const uint32_t first_start = u32_at(good, first);
    const uint32_t first_length = u32_at(good, first + 4);
    ASSERT_GE(first_length, 2u) << "test premise: a multi-word extent";
    const size_t second = first + 8 + 8 * size_t(first_length);
    ASSERT_GT(first_start, 0u) << "test premise: room below the first";

    struct Edit
    {
        const char *name;
        size_t at;
        uint32_t value;
    };
    const Edit edits[] = {
        {"extent past the board", first, uint32_t(board - 1)},
        {"empty extent", first + 4, 0},
        {"overlapping extents", second, first_start + 1},
        {"extents out of order", second, first_start - 1},
        {"adjacent extents", second, first_start + first_length},
    };
    for (const Edit &edit : edits) {
        SCOPED_TRACE(edit.name);
        Snapshot bad = good;
        std::memcpy(bad.bytes.data() + edit.at, &edit.value, 4);
        resealSnapshot(bad);
        EXPECT_FALSE(validateSnapshot(bad));
        EXPECT_THROW(restoreSnapshot(target, bad), FatalError);
        EXPECT_EQ(takeSnapshot(target).bytes, before);
    }

    // Image: base and five entries (u32), the words, the predicates,
    // stubs and declarations (fixed-size records), the dynamic-init
    // strings, then the solution-slot count.
    size_t at = payload_of(0) + 6 * 4;
    at += 8 + 8 * size_t(u64_at(good, at));
    at += 8 + (4 + 4 + 4 + 8 + 8 + 1) * size_t(u64_at(good, at));
    at += 8 + (4 + 4 + 4) * size_t(u64_at(good, at));
    at += 8 + (4 + 4) * size_t(u64_at(good, at));
    const uint64_t inits = u64_at(good, at);
    at += 8;
    for (uint64_t k = 0; k < inits; ++k)
        at += 8 + size_t(u64_at(good, at));
    const uint64_t slots = u64_at(good, at) + 1;
    Snapshot bad = good;
    std::memcpy(bad.bytes.data() + at, &slots, 8);
    resealSnapshot(bad);
    EXPECT_FALSE(validateSnapshot(bad));
    EXPECT_THROW(restoreSnapshot(target, bad), FatalError);
    EXPECT_EQ(takeSnapshot(target).bytes, before);

    // The unedited template still restores over the target.
    restoreSnapshot(target, good);
    EXPECT_EQ(takeSnapshot(target).bytes, good.bytes);
}
