/**
 * @file
 * The KCM data cache (§3.2.4).
 *
 * A logical (virtually indexed/tagged) store-in cache with a line size
 * of one word. It is direct mapped but split into 8 sections of 1K
 * words each, the section being selected by the zone field of the
 * address word — so different stacks can never collide in the cache,
 * which fixes the multi-stack collision problem of a plain
 * direct-mapped cache. A plain (non-zone-indexed) mode is provided for
 * the §3.2.4 collision experiment and the ablation benches.
 *
 * Because the line size is one word, a write miss allocates without a
 * memory fetch: items pushed on stacks and never read again cost no
 * memory-read traffic until eviction (this is why the paper chose
 * store-in given Prolog's ~1:1 read/write mix).
 *
 * Host side, the cell array keeps a touched set (mem/touched_set.hh):
 * the miss paths mark the cell they fill, which is the only way a cell
 * leaves its default (invalid, zero) state. The inline hit paths only
 * change cells that are already valid, so they mark nothing.
 * invalidateAll() and flushAll() visit only the marked cells and put
 * each back to its default, and snapshots scan only them.
 */

#ifndef KCM_MEM_DATA_CACHE_HH
#define KCM_MEM_DATA_CACHE_HH

#include <cstdint>
#include <vector>

#include "base/stats.hh"
#include "isa/word.hh"
#include "mem/main_memory.hh"
#include "mem/mmu.hh"
#include "mem/touched_set.hh"

namespace kcm
{

struct DataCacheConfig
{
    unsigned sectionWords = 1024; ///< words per section (power of two)
    unsigned sections = 8;        ///< number of sections
    bool zoneIndexed = true;      ///< section selected by zone field
    bool enabled = true;          ///< disabled: every access to memory
};

/** Virtually-indexed write-back data cache. */
class DataCache
{
  public:
    DataCache(Mmu &mmu, MainMemory &memory,
              const DataCacheConfig &config = {});

    /**
     * Read the word addressed by @p addr_word.
     * @param penalty_cycles incremented by miss/write-back penalties
     *        (a hit costs the base 80 ns access charged by the caller).
     * Hit path inline; misses take the cold out-of-line fill path.
     */
    Word
    read(Word addr_word, unsigned &penalty_cycles)
    {
        if (config_.enabled) [[likely]] {
            Cell &cell = cells_[indexOf(addr_word)];
            if (cell.valid && cell.vaddr == addr_word.addr()) [[likely]] {
                ++readHits;
                return Word(cell.data);
            }
        }
        return readMiss(addr_word, penalty_cycles);
    }

    /** Write @p value at @p addr_word (write-allocate, no fetch).
     *  Hit path inline; allocation/eviction out of line. */
    void
    write(Word addr_word, Word value, unsigned &penalty_cycles)
    {
        if (config_.enabled) [[likely]] {
            Cell &cell = cells_[indexOf(addr_word)];
            if (cell.valid && cell.vaddr == addr_word.addr()) [[likely]] {
                ++writeHits;
                cell.data = value.raw();
                cell.dirty = true;
                return;
            }
        }
        writeMiss(addr_word, value, penalty_cycles);
    }

    /** Write every dirty cell back to memory and invalidate it. */
    void flushAll();

    /**
     * Untimed, statistics-free probe: returns true and fills @p out if
     * the word at @p addr_word is present in the cache.
     */
    bool probe(Word addr_word, Word &out) const;

    /**
     * Untimed coherent poke: updates the cache cell if the address is
     * resident, otherwise writes physical memory directly. For loaders
     * and debuggers only.
     */
    void pokeCoherent(Word addr_word, Word value);

    /** Drop all cache contents without writing back (tests). */
    void invalidateAll();

    const DataCacheConfig &config() const { return config_; }

    StatGroup &stats() { return stats_; }

    Counter readHits;
    Counter readMisses;
    Counter writeHits;
    Counter writeMisses;
    Counter writeBacks;

    /** Total accesses / hit ratio helpers for the cache benches. */
    uint64_t
    totalAccesses() const
    {
        return readHits.value() + readMisses.value() + writeHits.value() +
               writeMisses.value();
    }

    double
    hitRatio() const
    {
        uint64_t total = totalAccesses();
        if (!total)
            return 1.0;
        return double(readHits.value() + writeHits.value()) / double(total);
    }

  private:
    friend struct SnapshotAccess;

    struct Cell
    {
        bool valid = false;
        bool dirty = false;
        Addr vaddr = 0; ///< full virtual word address of the occupant
        uint64_t data = 0;
    };

    /** Cache index of @p addr_word under the configured policy. */
    size_t
    indexOf(Word addr_word) const
    {
        Addr a = addr_word.addr();
        if (config_.zoneIndexed) [[likely]] {
            unsigned section =
                static_cast<unsigned>(addr_word.zone()) % config_.sections;
            return size_t(section) * config_.sectionWords +
                   (a & (config_.sectionWords - 1));
        }
        size_t total = cells_.size();
        return a & (total - 1);
    }

    /** Cold path of read(): cache disabled or miss. */
    Word readMiss(Word addr_word, unsigned &penalty_cycles);

    /** Cold path of write(): cache disabled or allocate-on-miss. */
    void writeMiss(Word addr_word, Word value, unsigned &penalty_cycles);

    /** Evict @p cell if dirty, adding the write-back penalty. */
    void evict(Cell &cell, unsigned &penalty_cycles);

    Mmu &mmu_;
    MainMemory &memory_;
    DataCacheConfig config_;
    std::vector<Cell> cells_;
    TouchedSet touched_; ///< cells that may differ from Cell{}
    StatGroup stats_;
};

} // namespace kcm

#endif // KCM_MEM_DATA_CACHE_HH
