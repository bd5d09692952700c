#include "core/snapshot.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string_view>

#include "base/checksum.hh"
#include "base/logging.hh"
#include "core/machine.hh"

namespace kcm
{

namespace
{

/**
 * Container format (version 6):
 *
 *   magic "KCMSNAP6"
 *   u32   section count (== 4)
 *   per section: u32 id, u64 payload length, u64 checksum
 *                (sectionChecksum below), payload bytes
 *
 * Sections, in order: the code image, the processor state (registers,
 * counters, prefetch pipeline), the memory system (main memory, MMU,
 * caches, zones), and the dynamic clause store (assert/retract
 * database). All values are little-endian; a count is a u64, a string
 * is a u64 length plus its bytes. The memory payload leads with a
 * geometry header (memory size, page-table size, cache cell counts)
 * so a snapshot taken on a differently configured machine is rejected
 * up front.
 *
 * The image payload is the CodeImage field for field: base and the
 * five entry addresses (u32 each); the code words (count, then the
 * words as one block of u64s); the predicates (count; name, arity,
 * entry, words, instructions, fromLibrary each); the dynamic stubs
 * (count; address, name, arity each); the dynamic declarations (count;
 * name, arity each); the dynamic-init clauses (count; one string
 * each); the query solution slots (count; name string, u32 slot each).
 * Atom ids are recorded raw, with no atom table: a snapshot is
 * process-local (its memory words embed raw atom ids too), so the ids
 * mean the same atoms in any restore it can serve. Image files that
 * cross processes use the text format of compiler/image_io.hh, which
 * re-interns.
 *
 * The memory payload is sparse throughout, so its size tracks live
 * state rather than the board:
 *  - Main memory is recorded as extents: a count, then per maximal run
 *    of consecutive nonzero words a u32 start address, a u32 length
 *    and the words, in ascending address order. Consecutive extents
 *    are separated by at least one zero word.
 *  - The page table is recorded as (index, raw) pairs for its nonzero
 *    entries, and each cache array as one (index, fields) entry per
 *    valid cell, in ascending index order.
 *
 * Save and restore cost what the machine touched, not the arrays:
 * each of the four arrays keeps a host-side touched set
 * (mem/touched_set.hh) that holds every element differing from its
 * default (64-word blocks for main memory). Save scans only the marked
 * elements, in ascending order and with the filters above, so it
 * writes the bytes a scan of the whole array would. Restore resets
 * each marked element to its default (zero word, zero entry, invalid
 * zero cell), unmarking it, then applies the recorded entries and
 * marks each. No simulated behaviour reads an invalid cell's tag or
 * data (every cache path tests `valid` first), so continuations and
 * re-snapshots stay exact.
 *
 * restoreSnapshot() validates the whole container — structure,
 * lengths, every checksum, geometry, the image record's layout and
 * every memory extent — before mutating one word of the target
 * machine: a truncated or bit-flipped blob is reported with a
 * diagnostic and the target stays untouched.
 */
constexpr char snapshotMagic[8] = {'K', 'C', 'M', 'S', 'N', 'A', 'P', '6'};

enum : uint32_t
{
    secImage = 1,
    secCpu = 2,
    secMem = 3,
    secDb = 4,
};

constexpr uint32_t sectionOrder[] = {secImage, secCpu, secMem, secDb};
constexpr size_t numSections = 4;

/** Store @p v at @p out, little-endian. */
template <typename T>
void
storeLe(uint8_t *out, T v)
{
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(out, &v, sizeof(T));
    } else {
        for (size_t i = 0; i < sizeof(T); ++i)
            out[i] = uint8_t(v >> (8 * i));
    }
}

/** Load a little-endian T from @p in. */
template <typename T>
T
loadLe(const uint8_t *in)
{
    T v = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, in, sizeof(T));
    } else {
        for (size_t i = 0; i < sizeof(T); ++i)
            v = T(v | T(T(in[i]) << (8 * i)));
    }
    return v;
}

/**
 * Section checksum: 64-bit, eight little-endian bytes per step. Word i
 * of the payload goes to lane i mod 4, so the four multiply chains run
 * side by side; the length, the four lanes and the zero-padded tail
 * bytes are then folded into one value with the same step. For a
 * fixed word the step is a bijection of the state, and for a fixed
 * state a bijection of the word, so any change confined to one aligned
 * word changes the result. The rotate carries a difference out of the
 * top bit: without it, two flips of bit 63 in words of one lane (or of
 * two lanes) cancel, as they do in word-wise FNV-1a.
 */
uint64_t
sectionChecksum(const uint8_t *data, size_t size)
{
    const auto step = [](uint64_t x, uint64_t w) {
        return std::rotl((x ^ w) * fnvPrime, 31);
    };
    uint64_t lanes[4] = {fnvOffsetBasis, fnvOffsetBasis + 1,
                         fnvOffsetBasis + 2, fnvOffsetBasis + 3};
    const size_t words = size / 8;
    size_t i = 0;
    for (; i + 4 <= words; i += 4)
        for (size_t k = 0; k < 4; ++k)
            lanes[k] = step(lanes[k], loadLe<uint64_t>(data + 8 * (i + k)));
    for (; i < words; ++i)
        lanes[i % 4] = step(lanes[i % 4], loadLe<uint64_t>(data + 8 * i));
    uint64_t tail = 0;
    for (size_t b = 8 * words; b < size; ++b)
        tail |= uint64_t(data[b]) << (8 * (b - 8 * words));

    uint64_t h = step(fnvOffsetBasis, size);
    for (uint64_t lane : lanes)
        h = step(h, lane);
    return step(h, tail);
}

/**
 * Little-endian byte-stream writer in two modes. A counting writer
 * (default-constructed) stores nothing and only advances tell(); a
 * writing writer stores each value at its offset in a buffer of
 * exactly the size the counting run of the same save code reached.
 * takeSnapshot() runs the save code once in each mode, so a snapshot
 * is written in place, with no intermediate buffer and no reallocation.
 */
class ByteWriter
{
  public:
    ByteWriter() = default;
    ByteWriter(uint8_t *out, size_t size) : out_(out), size_(size) {}

    void u8(uint8_t v) { put(v); }
    void u16(uint16_t v) { put(v); }
    void u32(uint32_t v) { put(v); }
    void u64(uint64_t v) { put(v); }

    void
    bytes(const void *data, size_t n)
    {
        if (out_ && n) {
            room(n);
            std::memcpy(out_ + pos_, data, n);
        }
        pos_ += n;
    }

    /** @p n code or memory words as one block. */
    void
    words(const uint64_t *data, size_t n)
    {
        if constexpr (std::endian::native == std::endian::little) {
            bytes(data, 8 * n);
        } else {
            for (size_t i = 0; i < n; ++i)
                u64(data[i]);
        }
    }

    void
    str(std::string_view s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    void boolean(bool v) { u8(v ? 1 : 0); }
    void word(Word w) { u64(w.raw()); }
    void counter(const Counter &c) { u64(c.value()); }

    void
    functor(const Functor &f)
    {
        u32(f.name);
        u32(f.arity);
    }

    /** Offset of the next value: write a placeholder there, then
     *  patch() it once the real value is known. */
    size_t tell() const { return pos_; }

    template <typename T>
    void
    patch(size_t offset, T v)
    {
        if (out_)
            storeLe(out_ + offset, v);
    }

    /** Patch the u64 length and u64 checksum placeholders at
     *  @p header with those of the payload written since. */
    void
    sealSection(size_t header)
    {
        const size_t payload = header + 16;
        patch(header, uint64_t(pos_ - payload));
        if (out_)
            patch(header + 8, sectionChecksum(out_ + payload, pos_ - payload));
    }

  private:
    template <typename T>
    void
    put(T v)
    {
        if (out_) {
            room(sizeof(T));
            storeLe(out_ + pos_, v);
        }
        pos_ += sizeof(T);
    }

    void
    room(size_t n) const
    {
        if (n > size_ - pos_)
            panic("snapshot: writing past the counted size");
    }

    uint8_t *out_ = nullptr;
    size_t size_ = 0;
    size_t pos_ = 0;
};

/** Reader over one section's payload: one bounds check per value. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size) : data_(data), size_(size)
    {
    }

    uint8_t u8() { return fixed<uint8_t>(); }
    uint16_t u16() { return fixed<uint16_t>(); }
    uint32_t u32() { return fixed<uint32_t>(); }
    uint64_t u64() { return fixed<uint64_t>(); }

    /** The next @p n bytes, in place. */
    const uint8_t *
    bytes(uint64_t n)
    {
        if (n > size_ - pos_)
            fatal("snapshot: truncated section payload");
        const uint8_t *at = data_ + pos_;
        pos_ += size_t(n);
        return at;
    }

    void skip(uint64_t n) { bytes(n); }

    /** A reader over the next @p n bytes. A local one keeps its
     *  position in a register across calls that the caller's reader,
     *  passed by reference, would have to be reloaded around. */
    ByteReader sub(uint64_t n) { return ByteReader(bytes(n), size_t(n)); }

    /** A string, viewed in the payload. */
    std::string_view
    str()
    {
        uint64_t n = u64();
        return {reinterpret_cast<const char *>(bytes(n)), size_t(n)};
    }

    /** @p n words into @p out, as ByteWriter::words() wrote them. */
    void
    words(uint64_t *out, size_t n)
    {
        if (n > (size_ - pos_) / 8)
            fatal("snapshot: truncated section payload");
        if constexpr (std::endian::native == std::endian::little) {
            if (n)
                std::memcpy(out, bytes(8 * n), 8 * n);
        } else {
            for (size_t i = 0; i < n; ++i)
                out[i] = u64();
        }
    }

    bool boolean() { return u8() != 0; }
    Word word() { return Word(u64()); }

    void
    counter(Counter &c)
    {
        c.reset();
        c += u64();
    }

    Functor
    functor()
    {
        AtomId name = u32();
        return Functor{name, u32()};
    }

    /** An element count. Every element takes at least one byte, so a
     *  count past the bytes left is truncation, and rejecting it keeps
     *  a bad count from sizing a huge allocation. */
    size_t
    count()
    {
        uint64_t n = u64();
        if (n > size_ - pos_)
            fatal("snapshot: truncated section payload");
        return size_t(n);
    }

    bool atEnd() const { return pos_ == size_; }

  private:
    template <typename T>
    T
    fixed()
    {
        if (sizeof(T) > size_ - pos_)
            fatal("snapshot: truncated section payload");
        T v = loadLe<T>(data_ + pos_);
        pos_ += sizeof(T);
        return v;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

struct SectionView
{
    uint32_t id = 0;
    const uint8_t *data = nullptr;
    size_t size = 0;

    ByteReader reader() const { return ByteReader(data, size); }
};

/**
 * Record a fixed hardware array sparsely: a count, then the index and
 * the fields (@p save) of each entry @p live accepts. Only the entries
 * in @p touched can be live, so only those are scanned, in ascending
 * order. The arrays (page table, cache cells) hold tens of thousands
 * of entries, so count and index are u32. One pass: the count is a
 * placeholder, patched after.
 */
template <typename T, typename Live, typename Save>
void
saveSparse(ByteWriter &w, const std::vector<T> &cells,
           const TouchedSet &touched, Live live, Save save)
{
    const size_t count_at = w.tell();
    w.u32(0);
    uint32_t count = 0;
    touched.forEach([&](size_t i) {
        if (live(cells[i])) {
            w.u32(uint32_t(i));
            save(cells[i]);
            ++count;
        }
    });
    w.patch(count_at, count);
}

/** Mirror of saveSparse(): reset every touched entry to its default
 *  (invalid, zero) state, then apply the recorded ones with @p load,
 *  marking each. */
template <typename T, typename Load>
void
restoreSparse(ByteReader &r, std::vector<T> &cells, TouchedSet &touched,
              const char *what, Load load)
{
    touched.drain([&](size_t i) { cells[i] = T{}; });
    uint32_t count = r.u32();
    for (uint32_t k = 0; k < count; ++k) {
        uint32_t i = r.u32();
        if (i >= cells.size())
            fatal("snapshot: ", what, " index out of range");
        touched.mark(i);
        load(cells[i]);
    }
}

/** Name of the first element of @p cells that differs from its
 *  default (@p is_default) but is not in @p touched, or "". */
template <typename T, typename IsDefault>
std::string
firstUntracked(const std::vector<T> &cells, const TouchedSet &touched,
               IsDefault is_default, const char *what)
{
    std::vector<bool> marked(cells.size());
    touched.forEach([&](size_t i) { marked[i] = true; });
    for (size_t i = 0; i < cells.size(); ++i)
        if (!marked[i] && !is_default(cells[i]))
            return cat(what, " ", i);
    return "";
}

/** The four sections of a container, in sectionOrder. */
using Sections = std::array<SectionView, numSections>;

/**
 * The first step of phase one of restoreSnapshot(): parse the
 * container, bounds-check every length, verify every checksum. Throws
 * FatalError with a diagnostic on the first problem; nothing has been
 * mutated yet.
 */
Sections
parseAndVerify(const std::vector<uint8_t> &bytes)
{
    if (bytes.size() < 8 ||
        std::memcmp(bytes.data(), snapshotMagic, 8) != 0) {
        fatal("snapshot: bad magic (not a KCMSNAP6 image)");
    }

    size_t pos = 8;
    auto need = [&](size_t n, const char *what) {
        if (n > bytes.size() - pos)
            fatal("snapshot: truncated image (", what, ")");
    };
    auto read_u32 = [&]() {
        uint32_t v = loadLe<uint32_t>(bytes.data() + pos);
        pos += 4;
        return v;
    };
    auto read_u64 = [&]() {
        uint64_t v = loadLe<uint64_t>(bytes.data() + pos);
        pos += 8;
        return v;
    };

    need(4, "section count");
    uint32_t count = read_u32();
    if (count != numSections)
        fatal("snapshot: unexpected section count ", count);

    Sections sections;
    for (size_t s = 0; s < numSections; ++s) {
        need(4 + 8 + 8, "section header");
        uint32_t id = read_u32();
        uint64_t length = read_u64();
        uint64_t checksum = read_u64();
        if (id != sectionOrder[s])
            fatal("snapshot: section ", s, " has id ", id, ", expected ",
                  sectionOrder[s]);
        need(size_t(length), "section payload");
        const uint8_t *payload = bytes.data() + pos;
        uint64_t actual = sectionChecksum(payload, size_t(length));
        if (actual != checksum) {
            fatal("snapshot: checksum mismatch in section ", id,
                  " (stored ", checksum, ", computed ", actual,
                  ") — corrupt or bit-flipped image rejected");
        }
        sections[s] = SectionView{id, payload, size_t(length)};
        pos += size_t(length);
    }
    if (pos != bytes.size())
        fatal("snapshot: ", bytes.size() - pos, " trailing bytes");
    return sections;
}

/**
 * Merge a sorted record list into a std::map or std::set in place:
 * node(key) returns the entry for each recorded key in ascending
 * order, erasing the entries between, and keeps the entry of a key
 * the tree already holds (a map's value is then the caller's to
 * assign); the destructor erases the entries past the last key. A key
 * out of order still lands in its place, so the tree stays valid on
 * any input.
 */
template <typename Tree>
class SortedMerge
{
  public:
    explicit SortedMerge(Tree &tree) : tree_(tree), next_(tree.begin()) {}
    ~SortedMerge() { tree_.erase(next_, tree_.end()); }

    typename Tree::iterator
    node(const typename Tree::key_type &key)
    {
        while (next_ != tree_.end() && keyOf(*next_) < key)
            next_ = tree_.erase(next_);
        if (next_ != tree_.end() && !(key < keyOf(*next_)))
            return next_++;
        if constexpr (isMap)
            return tree_.try_emplace(next_, key);
        else
            return tree_.emplace_hint(next_, key);
    }

  private:
    static constexpr bool isMap = requires { typename Tree::mapped_type; };

    static const typename Tree::key_type &
    keyOf(const typename Tree::value_type &entry)
    {
        if constexpr (isMap)
            return entry.first;
        else
            return entry;
    }

    Tree &tree_;
    typename Tree::iterator next_;
};

} // namespace

/**
 * The one friend of every serialized hardware unit. All field access
 * is concentrated here so the save and restore sides read as one
 * field-for-field mirror — a field added to a unit but not to both
 * methods below is a snapshot bug, so keep them in lockstep.
 */
struct SnapshotAccess
{
    /** The memory payload's geometry header, written first so restore
     *  can reject a mismatched machine before mutating anything. */
    static void
    saveMemGeometry(MemSystem &mem, ByteWriter &w)
    {
        w.u64(mem.memory().sizeWords());
        w.u64(mem.mmu().table_.size());
        w.u64(mem.dataCache().cells_.size());
        w.u64(mem.codeCache().cells_.size());
    }

    /** Validate the geometry header against @p mem (phase one; throws
     *  without mutating). checkMemExtents() has checked the extents
     *  against the recorded board size this confirms. */
    static void
    checkMemGeometry(MemSystem &mem, ByteReader &r)
    {
        uint64_t mm_words = r.u64();
        if (mm_words != mem.memory().sizeWords())
            fatal("snapshot: main-memory size mismatch (image ", mm_words,
                  " words, machine ", mem.memory().sizeWords(), ")");
        uint64_t table = r.u64();
        if (table != mem.mmu().table_.size())
            fatal("snapshot: page-table size mismatch (image ", table,
                  ", machine ", mem.mmu().table_.size(), ")");
        uint64_t dcells = r.u64();
        if (dcells != mem.dataCache().cells_.size())
            fatal("snapshot: data-cache geometry mismatch (image ", dcells,
                  " cells, machine ", mem.dataCache().cells_.size(), ")");
        uint64_t ccells = r.u64();
        if (ccells != mem.codeCache().cells_.size())
            fatal("snapshot: code-cache geometry mismatch (image ", ccells,
                  " cells, machine ", mem.codeCache().cells_.size(), ")");
    }

    /** The words of touched block @p block of @p mm: [first, end). */
    static std::pair<size_t, size_t>
    blockWords(const MainMemory &mm, size_t block)
    {
        constexpr size_t words = size_t(1) << MainMemory::touchedBlockShift;
        const size_t first = block * words;
        return {first, std::min(first + words, mm.sizeWords())};
    }

    /** A maximal run of consecutive nonzero main-memory words. */
    struct Extent
    {
        uint32_t start = 0;
        uint32_t length = 0;
    };

    /** The extents of @p mm in ascending order. Only a touched block
     *  can hold a nonzero word, so only those are scanned; a run that
     *  reaches the end of a block continues into the next one only if
     *  that block is touched too. */
    static std::vector<Extent>
    memExtents(const MainMemory &mm)
    {
        std::vector<Extent> extents;
        const uint64_t *words = mm.data_.get();
        mm.touched_.forEach([&](size_t block) {
            const auto [first, end] = blockWords(mm, block);
            for (size_t a = first; a < end; ++a) {
                if (!words[a])
                    continue;
                if (!extents.empty() &&
                    extents.back().start + extents.back().length == a)
                    ++extents.back().length;
                else
                    extents.push_back(Extent{uint32_t(a), 1});
            }
        });
        return extents;
    }

    /** What a take reads that is not a field in place, gathered once
     *  for both of its runs of the save code: the main-memory extents
     *  and the clause store's own payload. */
    struct TakeInputs
    {
        std::vector<Extent> extents;
        bool hasDb = false;
        std::vector<uint8_t> db;
    };

    static TakeInputs
    takeInputs(Machine &m)
    {
        TakeInputs in;
        in.extents = memExtents(m.mem_->memory());
        in.hasDb = m.db_ != nullptr;
        if (in.hasDb)
            m.db_->saveTo(in.db);
        return in;
    }

    /**
     * Phase one for the memory payload, with no machine: every extent
     * is nonempty, lies on the board the geometry header records, and
     * starts past the end of the one before and the zero word after
     * it. restoreMem() copies the extents without a check of its own.
     */
    static void
    checkMemExtents(ByteReader r)
    {
        const uint64_t board = r.u64();
        r.skip(3 * 8);
        uint64_t floor = 0;
        for (size_t n = r.count(); n > 0; --n) {
            const uint64_t start = r.u32();
            const uint64_t length = r.u32();
            if (length == 0)
                fatal("snapshot: empty memory extent at word ", start);
            if (start < floor)
                fatal("snapshot: memory extent at word ", start,
                      " overlaps or does not follow the one before");
            if (start + length > board)
                fatal("snapshot: memory extent at word ", start,
                      " runs past the ", board, "-word board");
            r.skip(8 * length);
            floor = start + length + 1;
        }
    }

    static void
    saveMem(MemSystem &mem, const std::vector<Extent> &extents,
            ByteWriter &w)
    {
        saveMemGeometry(mem, w);

        // Main memory, sparse: the extents of nonzero words, each
        // written as one block.
        MainMemory &mm = mem.memory();
        const uint64_t *words = mm.data_.get();
        w.u64(extents.size());
        for (const Extent &e : extents) {
            w.u32(e.start);
            w.u32(e.length);
            w.words(words + e.start, e.length);
        }
        w.counter(mm.readWords);
        w.counter(mm.writtenWords);
        w.counter(mm.transactions);

        // Page table, sparse: only nonzero entries are recorded.
        Mmu &mmu = mem.mmu();
        saveSparse(
            w, mmu.table_, mmu.touched_,
            [](const PageEntry &e) { return e.raw != 0; },
            [&](const PageEntry &e) { w.u16(e.raw); });
        w.u16(mmu.nextPhysPage_);
        w.boolean(mmu.injectFault_);
        w.counter(mmu.translations);
        w.counter(mmu.demandFaults);

        // Data cache array, sparse: valid cells only (dirty bit, tag,
        // data). An invalid cell's tag and data are never read.
        DataCache &dc = mem.dataCache();
        saveSparse(
            w, dc.cells_, dc.touched_,
            [](const DataCache::Cell &c) { return c.valid; },
            [&](const DataCache::Cell &c) {
                w.boolean(c.dirty);
                w.u32(c.vaddr);
                w.u64(c.data);
            });
        w.counter(dc.readHits);
        w.counter(dc.readMisses);
        w.counter(dc.writeHits);
        w.counter(dc.writeMisses);
        w.counter(dc.writeBacks);

        // Code cache array, sparse: valid cells only (tag, data).
        CodeCache &cc = mem.codeCache();
        saveSparse(
            w, cc.cells_, cc.touched_,
            [](const CodeCache::Cell &c) { return c.valid; },
            [&](const CodeCache::Cell &c) {
                w.u32(c.vaddr);
                w.u64(c.data);
            });
        w.counter(cc.readHits);
        w.counter(cc.readMisses);
        w.counter(cc.writes);

        // Zone checker: limits move at run time (quotas, firmware
        // stack growth), so the full zone table is state.
        ZoneChecker &zc = mem.zoneChecker();
        for (const ZoneInfo &z : zc.zones_) {
            w.u64(z.start);
            w.u64(z.end);
            w.u64(z.softLimit);
            w.u16(z.allowedTags);
            w.boolean(z.writeProtected);
            w.boolean(z.enabled);
            w.boolean(z.growable);
        }
        w.boolean(zc.enabled_);
        w.counter(zc.checksPerformed);
    }

    static void
    restoreMem(MemSystem &mem, ByteReader &r)
    {
        // Geometry already validated in phase one; skip the header.
        for (int i = 0; i < 4; ++i)
            r.u64();

        MainMemory &mm = mem.memory();
        uint64_t *words = mm.data_.get();
        // Zero the target's touched blocks (every other word is
        // already zero), then copy in the recorded extents, which phase
        // one checked, and mark their blocks.
        mm.touched_.drain([&](size_t block) {
            const auto [first, end] = blockWords(mm, block);
            std::fill(words + first, words + end, uint64_t(0));
        });
        constexpr unsigned shift = MainMemory::touchedBlockShift;
        for (size_t n = r.count(); n > 0; --n) {
            const size_t start = r.u32();
            const size_t length = r.u32();
            r.words(words + start, length);
            for (size_t b = start >> shift; b <= (start + length - 1) >> shift;
                 ++b)
                mm.touched_.mark(b);
        }
        r.counter(mm.readWords);
        r.counter(mm.writtenWords);
        r.counter(mm.transactions);

        Mmu &mmu = mem.mmu();
        restoreSparse(r, mmu.table_, mmu.touched_, "page-table entry",
                      [&](PageEntry &e) { e.raw = r.u16(); });
        mmu.nextPhysPage_ = r.u16();
        mmu.injectFault_ = r.boolean();
        r.counter(mmu.translations);
        r.counter(mmu.demandFaults);

        DataCache &dc = mem.dataCache();
        restoreSparse(r, dc.cells_, dc.touched_, "data-cache cell",
                      [&](DataCache::Cell &c) {
                          c.valid = true;
                          c.dirty = r.boolean();
                          c.vaddr = Addr(r.u32());
                          c.data = r.u64();
                      });
        r.counter(dc.readHits);
        r.counter(dc.readMisses);
        r.counter(dc.writeHits);
        r.counter(dc.writeMisses);
        r.counter(dc.writeBacks);

        CodeCache &cc = mem.codeCache();
        restoreSparse(r, cc.cells_, cc.touched_, "code-cache cell",
                      [&](CodeCache::Cell &c) {
                          c.valid = true;
                          c.vaddr = Addr(r.u32());
                          c.data = r.u64();
                      });
        r.counter(cc.readHits);
        r.counter(cc.readMisses);
        r.counter(cc.writes);

        ZoneChecker &zc = mem.zoneChecker();
        for (ZoneInfo &z : zc.zones_) {
            z.start = Addr(r.u64());
            z.end = Addr(r.u64());
            z.softLimit = Addr(r.u64());
            z.allowedTags = r.u16();
            z.writeProtected = r.boolean();
            z.enabled = r.boolean();
            z.growable = r.boolean();
        }
        zc.enabled_ = r.boolean();
        r.counter(zc.checksPerformed);
    }

    /** The linked image, field for field: the code words, the symbol
     *  table metaCall resolves against, the entry stubs and the
     *  dynamic-database seed. It is what the predecoded core is
     *  rebuilt from on restore. Atom ids are recorded raw. */
    static void
    saveImageSection(Machine &m, ByteWriter &w)
    {
        const CodeImage &image = m.image_;
        w.u32(image.base);
        w.u32(image.queryEntry);
        w.u32(image.failEntry);
        w.u32(image.haltFailEntry);
        w.u32(image.catchFailEntry);
        w.u32(image.dynRetryEntry);

        w.u64(image.words.size());
        w.words(image.words.data(), image.words.size());

        w.u64(image.predicates.size());
        for (const auto &[functor, info] : image.predicates) {
            w.functor(functor);
            w.u32(info.entry);
            w.u64(info.words);
            w.u64(info.instructions);
            w.boolean(info.fromLibrary);
        }

        w.u64(image.dynStubs.size());
        for (const auto &[addr, functor] : image.dynStubs) {
            w.u32(addr);
            w.functor(functor);
        }

        w.u64(image.dynamicDecls.size());
        for (const Functor &functor : image.dynamicDecls)
            w.functor(functor);

        w.u64(image.dynamicInit.size());
        for (const std::string &clause : image.dynamicInit)
            w.str(clause);

        w.u64(image.querySolutionSlots.size());
        for (const auto &[name, slot] : image.querySolutionSlots) {
            w.str(name);
            w.u32(uint32_t(slot));
        }
    }

    /** Bytes of one predicate record (name, arity, entry, words,
     *  instructions, fromLibrary), of one dynamic stub (address, name,
     *  arity) and of one functor (name, arity) in the image record. */
    static constexpr uint64_t predicateRecordBytes = 4 + 4 + 4 + 8 + 8 + 1;
    static constexpr uint64_t stubRecordBytes = 4 + 4 + 4;
    static constexpr uint64_t functorBytes = 4 + 4;

    /** Phase one for the image payload: its counts and string lengths
     *  fit the payload and nothing trails it, so the in-place decode
     *  of restoreImageSection() cannot stop half way. */
    static void
    checkImageSection(ByteReader r)
    {
        r.skip(6 * 4);
        r.skip(8 * uint64_t(r.count()));
        r.skip(predicateRecordBytes * r.count());
        r.skip(stubRecordBytes * r.count());
        r.skip(functorBytes * r.count());
        for (size_t n = r.count(); n > 0; --n)
            r.str();
        for (size_t n = r.count(); n > 0; --n) {
            r.str();
            r.u32();
        }
        if (!r.atEnd())
            fatal("snapshot: trailing bytes in image section");
    }

    static void
    saveCpu(Machine &m, ByteWriter &w)
    {
        // Register file and state registers.
        for (const Word &x : m.x_)
            w.word(x);
        w.u64(m.p_);
        w.u64(m.nextP_);
        w.u64(m.cpCont_);
        w.u64(m.h_);
        w.u64(m.hb_);
        w.u64(m.s_);
        w.u64(m.tr_);
        w.u64(m.e_);
        w.u64(m.lt_);
        w.u64(m.lb_);
        w.u64(m.b_);
        w.u64(m.ct_);
        w.u64(m.b0_);
        w.boolean(m.writeMode_);

        // Shallow-backtracking shadow registers.
        w.boolean(m.shallowFlag_);
        w.boolean(m.cpFlag_);
        w.u64(m.shadowH_);
        w.u64(m.shadowTR_);
        w.u64(m.shadowCP_);
        w.u64(m.pendingAlt_);
        w.u32(m.pendingArity_);

        // Counters and run bookkeeping.
        w.u64(m.cycles_);
        w.u64(m.instructions_);
        w.u64(m.inferences_);
        w.u32(m.penalty_);
        w.u64(m.expectedNextP_);
        w.boolean(m.halted_);
        w.boolean(m.haltFailed_);
        w.boolean(m.solutionReady_);
        w.str(m.hostOutput_);

        // Trap delivery and governor state.
        w.u64(m.stepStartCycles_);
        w.u64(m.stopCycles_);
        w.u8(uint8_t(m.stopKind_));
        w.u64(m.sliceStop_);
        w.boolean(m.sliceExpired_);
        w.boolean(m.budgetWaived_);
        w.boolean(m.trapped_);
        w.u8(uint8_t(m.lastTrap_.kind));
        w.str(m.lastTrap_.message);
        w.u32(m.lastTrap_.pc);
        w.u32(m.lastTrap_.faultAddr);
        w.u64(m.lastTrap_.cycle);
        w.u64(m.lastTrap_.instructions);
        w.str(m.lastTrap_.state);
        w.u64(m.faultCursor_);
        w.boolean(m.faultsPending_);

        // Trace ring buffer (so recentTrace() survives a restore).
        for (const auto &t : m.trace_) {
            w.u64(t.p);
            w.u64(t.raw);
        }
        w.u64(m.traceHead_);

        // Environment-size debug table (GC metadata).
        w.u64(m.envSizes_.size());
        for (uint32_t n : m.envSizes_)
            w.u32(n);

        // Event counters.
        w.counter(m.choicePointsCreated);
        w.counter(m.choicePointsAvoided);
        w.counter(m.shallowFails);
        w.counter(m.deepFails);
        w.counter(m.trailPushes);
        w.counter(m.derefSteps);
        w.counter(m.bindOps);
        w.counter(m.unifyCalls);
        w.counter(m.envAllocs);
        w.counter(m.cpWordsWritten);
        w.counter(m.cpWordsRead);
        w.counter(m.gcRuns);
        w.counter(m.gcWordsReclaimed);
        w.counter(m.trapsTaken);
        w.counter(m.stackZoneGrowths);

        // Prefetch pipeline.
        PrefetchUnit &pf = m.prefetch_;
        w.u64(pf.tp_);
        w.u64(pf.sp_);
        w.u64(pf.p_);
        w.u64(pf.lastAddr_);
        w.boolean(pf.primed_);
        w.counter(pf.sequentialFetches);
        w.counter(pf.pipelineBreaks);
        w.counter(pf.takenBranches);
        w.counter(pf.untakenBranches);
    }

    static void
    restoreImageSection(Machine &m, ByteReader &r)
    {
        // Decode into the machine's own image, keeping every entry,
        // string and buffer the record repeats: a pooled machine that
        // restores the templates of one program changes only what
        // differs. checkImageSection() has checked the layout, so
        // nothing below stops half way.
        CodeImage &image = m.image_;
        image.base = r.u32();
        image.queryEntry = r.u32();
        image.failEntry = r.u32();
        image.haltFailEntry = r.u32();
        image.catchFailEntry = r.u32();
        image.dynRetryEntry = r.u32();

        // The record's words over the image's, 64 at a time: a block
        // whose bytes match is skipped, and in one that does not, a
        // word is stored, and the span the predecode re-checks
        // widened, only where the two differ.
        std::vector<uint64_t> &words = image.words;
        const size_t count = r.count();
        const uint8_t *in = r.bytes(8 * uint64_t(count));
        const size_t kept = std::min(count, words.size());
        size_t first = kept, end = kept;
        for (size_t block = 0; block < kept; block += 64) {
            const size_t block_end = std::min(block + 64, kept);
            if (std::memcmp(words.data() + block, in + 8 * block,
                            8 * (block_end - block)) == 0)
                continue;
            for (size_t i = block; i < block_end; ++i) {
                const uint64_t word = loadLe<uint64_t>(in + 8 * i);
                if (words[i] != word) {
                    first = std::min(first, i);
                    end = i + 1;
                    words[i] = word;
                }
            }
        }
        words.resize(count);
        for (size_t i = kept; i < count; ++i)
            words[i] = loadLe<uint64_t>(in + 8 * i);

        {
            SortedMerge merge(image.predicates);
            const size_t n = r.count();
            ByteReader records = r.sub(predicateRecordBytes * n);
            for (size_t k = 0; k < n; ++k) {
                PredicateInfo info;
                info.functor = records.functor();
                info.entry = records.u32();
                info.words = size_t(records.u64());
                info.instructions = size_t(records.u64());
                info.fromLibrary = records.boolean();
                merge.node(info.functor)->second = info;
            }
        }
        {
            SortedMerge merge(image.dynStubs);
            for (size_t n = r.count(); n > 0; --n) {
                Addr addr = r.u32();
                merge.node(addr)->second = r.functor();
            }
        }
        {
            SortedMerge merge(image.dynamicDecls);
            for (size_t n = r.count(); n > 0; --n)
                merge.node(r.functor());
        }

        image.dynamicInit.resize(r.count());
        for (std::string &clause : image.dynamicInit)
            clause = r.str();

        image.querySolutionSlots.resize(r.count());
        for (auto &[name, slot] : image.querySolutionSlots) {
            name = r.str();
            slot = int(r.u32());
        }

        // Rebuild the predecoded image per the *target's* dispatch
        // core: a snapshot is portable between the oracle and the
        // threaded core (cycle-identical by construction).
        m.attachImage(first, end);
    }

    static void
    restoreCpu(Machine &m, ByteReader &r)
    {
        for (Word &x : m.x_)
            x = r.word();
        m.p_ = Addr(r.u64());
        m.nextP_ = Addr(r.u64());
        m.cpCont_ = Addr(r.u64());
        m.h_ = Addr(r.u64());
        m.hb_ = Addr(r.u64());
        m.s_ = Addr(r.u64());
        m.tr_ = Addr(r.u64());
        m.e_ = Addr(r.u64());
        m.lt_ = Addr(r.u64());
        m.lb_ = Addr(r.u64());
        m.b_ = Addr(r.u64());
        m.ct_ = Addr(r.u64());
        m.b0_ = Addr(r.u64());
        m.writeMode_ = r.boolean();

        m.shallowFlag_ = r.boolean();
        m.cpFlag_ = r.boolean();
        m.shadowH_ = Addr(r.u64());
        m.shadowTR_ = Addr(r.u64());
        m.shadowCP_ = Addr(r.u64());
        m.pendingAlt_ = Addr(r.u64());
        m.pendingArity_ = r.u32();

        m.cycles_ = r.u64();
        m.instructions_ = r.u64();
        m.inferences_ = r.u64();
        m.penalty_ = r.u32();
        m.expectedNextP_ = Addr(r.u64());
        m.halted_ = r.boolean();
        m.haltFailed_ = r.boolean();
        m.solutionReady_ = r.boolean();
        m.hostOutput_ = r.str();
        // Host-side solution terms are not serialized; the bindings
        // live in machine memory and are re-exported on the next
        // SolutionFound.
        m.solution_ = Solution{};

        m.stepStartCycles_ = r.u64();
        m.stopCycles_ = r.u64();
        m.stopKind_ = Machine::StopKind(r.u8());
        m.sliceStop_ = r.u64();
        m.sliceExpired_ = r.boolean();
        m.budgetWaived_ = r.boolean();
        m.trapped_ = r.boolean();
        m.lastTrap_.kind = TrapKind(r.u8());
        m.lastTrap_.message = r.str();
        m.lastTrap_.pc = r.u32();
        m.lastTrap_.faultAddr = r.u32();
        m.lastTrap_.cycle = r.u64();
        m.lastTrap_.instructions = r.u64();
        m.lastTrap_.state = r.str();
        m.faultCursor_ = size_t(r.u64());
        m.faultsPending_ = r.boolean();

        for (auto &t : m.trace_) {
            t.p = Addr(r.u64());
            t.raw = r.u64();
        }
        m.traceHead_ = size_t(r.u64());

        m.envSizes_.assign(size_t(r.u64()), 0);
        for (uint32_t &n : m.envSizes_)
            n = r.u32();

        r.counter(m.choicePointsCreated);
        r.counter(m.choicePointsAvoided);
        r.counter(m.shallowFails);
        r.counter(m.deepFails);
        r.counter(m.trailPushes);
        r.counter(m.derefSteps);
        r.counter(m.bindOps);
        r.counter(m.unifyCalls);
        r.counter(m.envAllocs);
        r.counter(m.cpWordsWritten);
        r.counter(m.cpWordsRead);
        r.counter(m.gcRuns);
        r.counter(m.gcWordsReclaimed);
        r.counter(m.trapsTaken);
        r.counter(m.stackZoneGrowths);

        PrefetchUnit &pf = m.prefetch_;
        pf.tp_ = Addr(r.u64());
        pf.sp_ = Addr(r.u64());
        pf.p_ = Addr(r.u64());
        pf.lastAddr_ = Addr(r.u64());
        pf.primed_ = r.boolean();
        r.counter(pf.sequentialFetches);
        r.counter(pf.pipelineBreaks);
        r.counter(pf.takenBranches);
        r.counter(pf.untakenBranches);
    }

    /** The dynamic clause store, via its own byte-stable payload
     *  (ClauseStore::saveTo). The deterministic skiplist heights make
     *  a restored store index-identical to the original, so scanned
     *  counts — and simulated cycles — replay exactly. */
    static void
    saveDb(const TakeInputs &in, ByteWriter &w)
    {
        w.boolean(in.hasDb);
        if (!in.hasDb)
            return;
        w.u64(in.db.size());
        w.bytes(in.db.data(), in.db.size());
    }

    static void
    restoreDb(Machine &m, ByteReader &r)
    {
        bool present = r.boolean();
        if (!present) {
            // The snapshotted machine had no store (never loaded an
            // image). Mirror that; an attached store is shared with
            // the session, so clear it rather than detach.
            if (m.dbAttached_)
                m.db_->clear();
            else
                m.db_ = nullptr;
            return;
        }
        std::string_view blob = r.str();
        if (!m.db_)
            m.db_ = std::make_shared<db::ClauseStore>(m.config_.dyndb);
        m.db_->loadFrom(reinterpret_cast<const uint8_t *>(blob.data()),
                        blob.size());
    }

    static std::string
    untrackedState(MemSystem &mem)
    {
        MainMemory &mm = mem.memory();
        std::vector<bool> blocks(
            (mm.sizeWords() >> MainMemory::touchedBlockShift) + 1);
        mm.touched_.forEach([&](size_t block) { blocks[block] = true; });
        for (size_t a = 0; a < mm.sizeWords(); ++a)
            if (mm.data_[a] && !blocks[a >> MainMemory::touchedBlockShift])
                return cat("main-memory word ", a);

        std::string found = firstUntracked(
            mem.mmu().table_, mem.mmu().touched_,
            [](const PageEntry &e) { return e.raw == 0; },
            "page-table entry");
        if (found.empty())
            found = firstUntracked(
                mem.dataCache().cells_, mem.dataCache().touched_,
                [](const DataCache::Cell &c) {
                    return !c.valid && !c.dirty && !c.vaddr && !c.data;
                },
                "data-cache cell");
        if (found.empty())
            found = firstUntracked(
                mem.codeCache().cells_, mem.codeCache().touched_,
                [](const CodeCache::Cell &c) {
                    return !c.valid && !c.vaddr && !c.data;
                },
                "code-cache cell");
        return found;
    }

    /** The whole container: magic, section count, then each section
     *  header and payload, the header's length and checksum patched
     *  once the payload is written. */
    static void
    save(Machine &m, const TakeInputs &in, ByteWriter &w)
    {
        w.bytes(snapshotMagic, sizeof snapshotMagic);
        w.u32(numSections);
        auto section = [&](uint32_t id, auto save_payload) {
            w.u32(id);
            const size_t header = w.tell();
            w.u64(0);
            w.u64(0);
            save_payload();
            w.sealSection(header);
        };
        section(secImage, [&] { saveImageSection(m, w); });
        section(secCpu, [&] { saveCpu(m, w); });
        section(secMem, [&] { saveMem(*m.mem_, in.extents, w); });
        section(secDb, [&] { saveDb(in, w); });
    }

    /** The checks of phase one that need no machine, past the
     *  container's: the image record's layout and the extents. */
    static void
    checkSections(const Sections &sections)
    {
        checkImageSection(sections[0].reader());
        checkMemExtents(sections[2].reader());
    }

    static MemSystem &mem(Machine &m) { return *m.mem_; }
};

Snapshot
takeSnapshot(Machine &machine)
{
    // Run the save code once to count the bytes, size the buffer once,
    // then run it again to write them in place.
    const SnapshotAccess::TakeInputs in = SnapshotAccess::takeInputs(machine);
    ByteWriter counter;
    SnapshotAccess::save(machine, in, counter);
    Snapshot snap;
    snap.bytes.resize(counter.tell());
    ByteWriter w(snap.bytes.data(), snap.bytes.size());
    SnapshotAccess::save(machine, in, w);
    if (w.tell() != snap.bytes.size())
        panic("snapshot: wrote ", w.tell(), " of ", snap.bytes.size(),
              " counted bytes");
    return snap;
}

bool
validateSnapshot(const Snapshot &snapshot, std::string *why)
{
    try {
        SnapshotAccess::checkSections(parseAndVerify(snapshot.bytes));
        return true;
    } catch (const FatalError &e) {
        if (why)
            *why = e.what();
        return false;
    }
}

void
resealSnapshot(Snapshot &snapshot)
{
    std::vector<uint8_t> &bytes = snapshot.bytes;
    size_t pos = 8 + 4;
    if (bytes.size() < pos)
        fatal("snapshot: truncated image (section count)");
    for (size_t s = 0; s < numSections; ++s) {
        if (bytes.size() - pos < 4 + 8 + 8)
            fatal("snapshot: truncated image (section header)");
        const uint64_t length = loadLe<uint64_t>(bytes.data() + pos + 4);
        pos += 4 + 8 + 8;
        if (length > bytes.size() - pos)
            fatal("snapshot: truncated image (section payload)");
        storeLe(bytes.data() + pos - 8,
                sectionChecksum(bytes.data() + pos, size_t(length)));
        pos += size_t(length);
    }
}

std::string
untrackedState(Machine &machine)
{
    return SnapshotAccess::untrackedState(SnapshotAccess::mem(machine));
}

void
restoreSnapshot(Machine &machine, const Snapshot &snapshot)
{
    // Phase one: validate everything — container structure, section
    // lengths, checksums, the image record's layout, every memory
    // extent and the memory geometry — before touching the target. A
    // rejected image leaves the machine exactly as it was.
    const Sections sections = parseAndVerify(snapshot.bytes);
    SnapshotAccess::checkSections(sections);
    {
        ByteReader geom = sections[2].reader();
        SnapshotAccess::checkMemGeometry(SnapshotAccess::mem(machine),
                                         geom);
    }

    // Phase two: apply. Each section's payload is checksummed and was
    // produced by the writer mirrored above, so these parses cannot
    // run past their bounds on any input that passed phase one.
    {
        ByteReader r = sections[0].reader();
        SnapshotAccess::restoreImageSection(machine, r);
    }
    {
        ByteReader r = sections[1].reader();
        SnapshotAccess::restoreCpu(machine, r);
        if (!r.atEnd())
            fatal("snapshot: trailing bytes in processor section");
    }
    {
        ByteReader r = sections[2].reader();
        SnapshotAccess::restoreMem(SnapshotAccess::mem(machine), r);
        if (!r.atEnd())
            fatal("snapshot: trailing bytes in memory section");
    }
    {
        ByteReader r = sections[3].reader();
        SnapshotAccess::restoreDb(machine, r);
        if (!r.atEnd())
            fatal("snapshot: trailing bytes in clause-store section");
    }
}

} // namespace kcm
