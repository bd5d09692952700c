/**
 * @file
 * Memory system tests: main memory timing, MMU, zone check, caches,
 * and the host-side touched set they mark.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/logging.hh"
#include "mem/mem_system.hh"
#include "mem/touched_set.hh"

using namespace kcm;

// ----------------------------------------------------------- touched set

TEST(TouchedSet, VisitsAscendingAndDrainLeavesNothingMarked)
{
    // 130 elements: three bitmap words, the last holding two. Marks
    // arrive out of order, twice for one index, and straddle the
    // 64-bit word boundaries.
    TouchedSet set(130);
    for (size_t i : {129, 64, 0, 63, 65, 64, 127, 128})
        set.mark(i);
    const std::vector<size_t> want = {0, 63, 64, 65, 127, 128, 129};

    std::vector<size_t> seen;
    set.forEach([&](size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, want);

    seen.clear();
    set.drain([&](size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, want);

    seen.clear();
    set.forEach([&](size_t i) { seen.push_back(i); });
    EXPECT_TRUE(seen.empty());
}

// ---------------------------------------------------------------- memory

TEST(MainMemory, BurstTiming)
{
    MainMemory memory(1 << 16);
    uint64_t buffer[4] = {1, 2, 3, 4};
    unsigned c1 = memory.writeBurst(0x100, buffer, 1);
    unsigned c4 = memory.writeBurst(0x200, buffer, 4);
    EXPECT_EQ(c1, memory.timings().firstWord);
    EXPECT_EQ(c4, memory.timings().firstWord +
                      3 * memory.timings().pageModeWord);
}

TEST(MainMemory, DataRoundTrip)
{
    MainMemory memory(1 << 16);
    uint64_t in[2] = {0xDEADBEEFCAFEF00D, 42};
    memory.writeBurst(10, in, 2);
    uint64_t out[2] = {0, 0};
    memory.readBurst(10, out, 2);
    EXPECT_EQ(out[0], in[0]);
    EXPECT_EQ(out[1], in[1]);
}

TEST(MainMemory, OutOfRangePanics)
{
    MainMemory memory(128);
    uint64_t w = 0;
    EXPECT_THROW(memory.writeBurst(127, &w, 2), PanicError);
}

// ------------------------------------------------------------------ mmu

TEST(Mmu, DemandAllocation)
{
    MainMemory memory(1 << 20);
    Mmu mmu(memory);
    EXPECT_EQ(mmu.demandFaults.value(), 0u);
    PhysAddr pa1 = mmu.translate(AddrSpace::Data, 0x100, false);
    EXPECT_EQ(mmu.demandFaults.value(), 1u);
    // Second access to the same page: no new fault.
    PhysAddr pa2 = mmu.translate(AddrSpace::Data, 0x101, false);
    EXPECT_EQ(mmu.demandFaults.value(), 1u);
    EXPECT_EQ(pa2, pa1 + 1);
}

TEST(Mmu, SeparateSpaces)
{
    MainMemory memory(1 << 20);
    Mmu mmu(memory);
    PhysAddr code = mmu.translate(AddrSpace::Code, 0x0, false);
    PhysAddr data = mmu.translate(AddrSpace::Data, 0x0, false);
    EXPECT_NE(code, data);
}

TEST(Mmu, PageOffsetPreserved)
{
    MainMemory memory(1 << 20);
    Mmu mmu(memory);
    Addr va = (3u << pageShift) | 0x123;
    PhysAddr pa = mmu.translate(AddrSpace::Data, va, false);
    EXPECT_EQ(pa & (pageSizeWords - 1), 0x123u);
}

TEST(Mmu, DirtyAndReferencedBits)
{
    MainMemory memory(1 << 20);
    Mmu mmu(memory);
    mmu.translate(AddrSpace::Data, 0x0, false);
    EXPECT_TRUE(mmu.entry(AddrSpace::Data, 0).referenced());
    EXPECT_FALSE(mmu.entry(AddrSpace::Data, 0).dirty());
    mmu.translate(AddrSpace::Data, 0x0, true);
    EXPECT_TRUE(mmu.entry(AddrSpace::Data, 0).dirty());
}

TEST(Mmu, WriteProtectionTraps)
{
    MainMemory memory(1 << 20);
    Mmu mmu(memory);
    mmu.translate(AddrSpace::Code, 0x0, true);
    mmu.entry(AddrSpace::Code, 0).setWritable(false);
    EXPECT_THROW(mmu.translate(AddrSpace::Code, 0x0, true), MachineTrap);
    EXPECT_NO_THROW(mmu.translate(AddrSpace::Code, 0x0, false));
}

TEST(Mmu, BatchCompilationPageHandOver)
{
    // §3.2.1: compile into the data space, then attach the physical
    // page to the code space.
    MainMemory memory(1 << 20);
    Mmu mmu(memory);
    PhysAddr data_pa = mmu.translate(AddrSpace::Data, 0x0, true);
    memory.poke(data_pa, 0x1234);
    mmu.attachDataPageToCode(0, 5);
    PhysAddr code_pa =
        mmu.translate(AddrSpace::Code, 5u << pageShift, false);
    EXPECT_EQ(memory.peek(code_pa), 0x1234u);
    // The data mapping is gone: a new touch faults in a fresh page.
    uint64_t faults = mmu.demandFaults.value();
    mmu.translate(AddrSpace::Data, 0x0, false);
    EXPECT_EQ(mmu.demandFaults.value(), faults + 1);
}

TEST(Mmu, OutOfPhysicalPagesTraps)
{
    MainMemory memory(2 * pageSizeWords); // two physical pages only
    Mmu mmu(memory);
    mmu.translate(AddrSpace::Data, 0, false);
    mmu.translate(AddrSpace::Data, pageSizeWords, false);
    EXPECT_THROW(mmu.translate(AddrSpace::Data, 2 * pageSizeWords, false),
                 MachineTrap);
}

// ----------------------------------------------------------- zone check

class ZoneCheckTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        installStandardZones(checker, layout);
    }

    DataLayout layout;
    ZoneChecker checker;
};

TEST_F(ZoneCheckTest, ListIntoGlobalOk)
{
    Word w = Word::makeList(Zone::Global, layout.globalStart + 4);
    EXPECT_NO_THROW(checker.check(w, false));
}

TEST_F(ZoneCheckTest, FloatAsAddressTraps)
{
    // "prevent the programmer from using e.g. the result of a floating
    // point operation to address a memory cell" (§3.2.3)
    Word f = Word::makeFloat(1.0f);
    Word as_addr = Word::make(Tag::Float, Zone::Global,
                              layout.globalStart + 4);
    EXPECT_THROW(checker.check(as_addr, false), MachineTrap);
    (void)f;
}

TEST_F(ZoneCheckTest, IntAsAddressTraps)
{
    Word w = Word::make(Tag::Int, Zone::Local, layout.localStart);
    EXPECT_THROW(checker.check(w, false), MachineTrap);
}

TEST_F(ZoneCheckTest, ListIntoLocalTraps)
{
    // Lists are not constructed on the local stack (§3.2.3).
    Word w = Word::makeList(Zone::Local, layout.localStart + 4);
    EXPECT_THROW(checker.check(w, false), MachineTrap);
}

TEST_F(ZoneCheckTest, RefIntoControlStackTraps)
{
    // No reference may ever point into the choice point stack.
    Word w = Word::makeRef(Zone::Control, layout.controlStart + 4);
    EXPECT_THROW(checker.check(w, false), MachineTrap);
}

TEST_F(ZoneCheckTest, DataPtrIntoControlOk)
{
    Word w = Word::makeDataPtr(Zone::Control, layout.controlStart + 4);
    EXPECT_NO_THROW(checker.check(w, false));
}

TEST_F(ZoneCheckTest, OutOfRangeTraps)
{
    Word w = Word::makeRef(Zone::Global, layout.globalEnd);
    EXPECT_THROW(checker.check(w, false), MachineTrap);
    Word w2 = Word::makeRef(Zone::Global, layout.globalStart - 1);
    EXPECT_THROW(checker.check(w2, false), MachineTrap);
}

TEST_F(ZoneCheckTest, DynamicLimitChange)
{
    Addr a = layout.globalEnd + 0x1000;
    Word w = Word::makeRef(Zone::Global, a);
    EXPECT_THROW(checker.check(w, false), MachineTrap);
    checker.setLimits(Zone::Global, layout.globalStart, a + 0x1000);
    EXPECT_NO_THROW(checker.check(w, false));
}

TEST_F(ZoneCheckTest, WriteProtection)
{
    ZoneInfo zi;
    zi.start = 0x10;
    zi.end = 0x20;
    zi.allowedTags = tagMask({Tag::DataPtr});
    zi.writeProtected = true;
    checker.configure(Zone::System, zi);
    Word w = Word::makeDataPtr(Zone::System, 0x10);
    EXPECT_NO_THROW(checker.check(w, false));
    EXPECT_THROW(checker.check(w, true), MachineTrap);
}

TEST_F(ZoneCheckTest, HighAddressBitsTrap)
{
    Word w = Word::make(Tag::Ref, Zone::Global, 0xF0000000 |
                        (layout.globalStart + 4));
    EXPECT_THROW(checker.check(w, false), MachineTrap);
}

TEST_F(ZoneCheckTest, DisabledCheckerPassesEverything)
{
    checker.setEnabled(false);
    Word w = Word::make(Tag::Float, Zone::Control, 0x4);
    EXPECT_NO_THROW(checker.check(w, true));
}

// ---------------------------------------------------------------- dcache

class DataCacheTest : public ::testing::Test
{
  protected:
    DataCacheTest() : memory(1 << 20), mmu(memory) {}

    MainMemory memory;
    Mmu mmu;
};

TEST_F(DataCacheTest, WriteMissNeedsNoMemoryFetch)
{
    DataCache cache(mmu, memory, {});
    unsigned penalty = 0;
    Word addr = Word::makeRef(Zone::Global, 0x100);
    cache.write(addr, Word::makeInt(1), penalty);
    EXPECT_EQ(penalty, 0u); // line size 1: allocate without fetch
    EXPECT_EQ(cache.writeMisses.value(), 1u);
    EXPECT_EQ(memory.readWords.value(), 0u);
}

TEST_F(DataCacheTest, ReadAfterWriteHits)
{
    DataCache cache(mmu, memory, {});
    unsigned penalty = 0;
    Word addr = Word::makeRef(Zone::Global, 0x100);
    cache.write(addr, Word::makeInt(77), penalty);
    Word got = cache.read(addr, penalty);
    EXPECT_EQ(got.intValue(), 77);
    EXPECT_EQ(cache.readHits.value(), 1u);
    EXPECT_EQ(penalty, 0u);
}

TEST_F(DataCacheTest, DirtyEvictionWritesBack)
{
    DataCacheConfig config;
    config.sectionWords = 16;
    config.sections = 8;
    DataCache cache(mmu, memory, config);
    unsigned penalty = 0;
    Word a1 = Word::makeRef(Zone::Global, 0x100);
    Word a2 = Word::makeRef(Zone::Global, 0x110); // same index (16 apart)
    cache.write(a1, Word::makeInt(1), penalty);
    EXPECT_EQ(penalty, 0u);
    cache.write(a2, Word::makeInt(2), penalty);
    EXPECT_GT(penalty, 0u); // victim write-back
    EXPECT_EQ(cache.writeBacks.value(), 1u);
    // a1 went to memory; reading it misses and fetches the value.
    penalty = 0;
    EXPECT_EQ(cache.read(a1, penalty).intValue(), 1);
    EXPECT_GT(penalty, 0u);
}

TEST_F(DataCacheTest, ZoneSectionsPreventStackCollisions)
{
    DataCacheConfig config;
    config.sectionWords = 16;
    config.sections = 8;
    DataCache cache(mmu, memory, config);
    unsigned penalty = 0;
    // Same low address bits, different zones: no conflict.
    Word global = Word::makeRef(Zone::Global, 0x300);
    Word local = Word::makeDataPtr(Zone::Local, 0x300);
    cache.write(global, Word::makeInt(1), penalty);
    cache.write(local, Word::makeInt(2), penalty);
    EXPECT_EQ(cache.writeBacks.value(), 0u);
    EXPECT_EQ(cache.read(global, penalty).intValue(), 1);
    EXPECT_EQ(cache.read(local, penalty).intValue(), 2);
    EXPECT_EQ(cache.readMisses.value(), 0u);
}

TEST_F(DataCacheTest, UnifiedModeSuffersStackCollisions)
{
    DataCacheConfig config;
    config.sectionWords = 16;
    config.sections = 8;
    config.zoneIndexed = false; // plain direct-mapped, 128 words
    DataCache cache(mmu, memory, config);
    unsigned penalty = 0;
    // Two addresses 128 words apart collide in unified mode.
    Word a1 = Word::makeRef(Zone::Global, 0x100);
    Word a2 = Word::makeDataPtr(Zone::Local, 0x180);
    cache.write(a1, Word::makeInt(1), penalty);
    cache.write(a2, Word::makeInt(2), penalty);
    EXPECT_EQ(cache.writeBacks.value(), 1u);
}

TEST_F(DataCacheTest, ProbeDoesNotDisturbStats)
{
    DataCache cache(mmu, memory, {});
    unsigned penalty = 0;
    Word addr = Word::makeRef(Zone::Global, 0x42);
    cache.write(addr, Word::makeInt(9), penalty);
    uint64_t hits = cache.readHits.value();
    Word out;
    EXPECT_TRUE(cache.probe(addr, out));
    EXPECT_EQ(out.intValue(), 9);
    EXPECT_EQ(cache.readHits.value(), hits);
    Word absent = Word::makeRef(Zone::Global, 0x999);
    EXPECT_FALSE(cache.probe(absent, out));
}

TEST_F(DataCacheTest, FlushAllWritesDirtyData)
{
    DataCache cache(mmu, memory, {});
    unsigned penalty = 0;
    Word addr = Word::makeRef(Zone::Global, 0x55);
    cache.write(addr, Word::makeInt(5), penalty);
    cache.flushAll();
    PhysAddr pa = mmu.translate(AddrSpace::Data, 0x55, false);
    EXPECT_EQ(Word(memory.peek(pa)).intValue(), 5);
}

TEST_F(DataCacheTest, DisabledCacheAlwaysGoesToMemory)
{
    DataCacheConfig config;
    config.enabled = false;
    DataCache cache(mmu, memory, config);
    unsigned penalty = 0;
    Word addr = Word::makeRef(Zone::Global, 0x10);
    cache.write(addr, Word::makeInt(3), penalty);
    EXPECT_GT(penalty, 0u);
    penalty = 0;
    EXPECT_EQ(cache.read(addr, penalty).intValue(), 3);
    EXPECT_GT(penalty, 0u);
}

// ---------------------------------------------------------------- icache

TEST(CodeCache, PrefetchOnMiss)
{
    MainMemory memory(1 << 20);
    Mmu mmu(memory);
    CodeCacheConfig config;
    config.prefetchWords = 4;
    CodeCache cache(mmu, memory, config);

    // Preload memory with code at virtual 0x100..0x103.
    for (unsigned i = 0; i < 4; ++i) {
        PhysAddr pa = mmu.translate(AddrSpace::Code, 0x100 + i, true);
        memory.poke(pa, 0xC0DE + i);
    }

    unsigned penalty = 0;
    EXPECT_EQ(cache.read(0x100, penalty), 0xC0DEu);
    EXPECT_GT(penalty, 0u);
    EXPECT_EQ(cache.readMisses.value(), 1u);

    // The three following words were prefetched.
    penalty = 0;
    EXPECT_EQ(cache.read(0x101, penalty), 0xC0DFu);
    EXPECT_EQ(cache.read(0x102, penalty), 0xC0E0u);
    EXPECT_EQ(cache.read(0x103, penalty), 0xC0E1u);
    EXPECT_EQ(penalty, 0u);
    EXPECT_EQ(cache.readHits.value(), 3u);
}

TEST(CodeCache, WriteThrough)
{
    MainMemory memory(1 << 20);
    Mmu mmu(memory);
    CodeCache cache(mmu, memory, {});
    unsigned penalty = 0;
    cache.write(0x200, 0xFEED, penalty);
    EXPECT_GT(penalty, 0u); // write-through pays memory latency
    PhysAddr pa = mmu.translate(AddrSpace::Code, 0x200, false);
    EXPECT_EQ(memory.peek(pa), 0xFEEDu);
    penalty = 0;
    EXPECT_EQ(cache.read(0x200, penalty), 0xFEEDu);
    EXPECT_EQ(cache.readHits.value(), 1u);
}

// ------------------------------------------------------------ mem system

TEST(MemSystem, EndToEndDataPath)
{
    MemSystem mem;
    unsigned penalty = 0;
    Word addr = Word::makeRef(Zone::Global, mem.layout().globalStart + 8);
    mem.writeData(addr, Word::makeAtom(internAtom("x")), penalty);
    Word got = mem.readData(addr, penalty);
    EXPECT_EQ(got.atom(), internAtom("x"));
}

TEST(MemSystem, ZoneCheckOnDataPath)
{
    MemSystem mem;
    unsigned penalty = 0;
    Word bad = Word::make(Tag::Int, Zone::Global,
                          mem.layout().globalStart + 8);
    EXPECT_THROW(mem.readData(bad, penalty), MachineTrap);
}

TEST(MemSystem, PeekSeesDirtyCacheData)
{
    MemSystem mem;
    unsigned penalty = 0;
    Addr a = mem.layout().globalStart + 16;
    Word addr = Word::makeRef(Zone::Global, a);
    mem.writeData(addr, Word::makeInt(123), penalty);
    EXPECT_EQ(mem.peekData(a).intValue(), 123);
}

TEST(MemSystem, CodeRoundTrip)
{
    MemSystem mem;
    mem.pokeCode(0x40, 0xABCDEF);
    unsigned penalty = 0;
    EXPECT_EQ(mem.fetchCode(0x40, penalty), 0xABCDEFu);
}
