/**
 * @file
 * The KCM code cache (§3.2.4).
 *
 * 8K x 64-bit, logical, direct mapped, line size one, write-through.
 * Being write-through, it can use the memory's fast page mode to fetch
 * a few words ahead when a miss occurs; the prefetch depth is
 * configurable.
 *
 * Host side, the cell array keeps a touched set (mem/touched_set.hh):
 * fill(), the only way a cell leaves its default (invalid, zero)
 * state, marks the cell. invalidateAll() visits only the marked cells
 * and puts each back to its default, and snapshots scan only them.
 */

#ifndef KCM_MEM_CODE_CACHE_HH
#define KCM_MEM_CODE_CACHE_HH

#include <cstdint>
#include <vector>

#include "base/stats.hh"
#include "isa/word.hh"
#include "mem/main_memory.hh"
#include "mem/mmu.hh"
#include "mem/touched_set.hh"

namespace kcm
{

struct CodeCacheConfig
{
    unsigned sizeWords = 8192; ///< power of two
    unsigned prefetchWords = 4; ///< words fetched ahead on a miss
    bool enabled = true;
};

/** Virtually-indexed write-through instruction cache. */
class CodeCache
{
  public:
    CodeCache(Mmu &mmu, MainMemory &memory,
              const CodeCacheConfig &config = {});

    /** Fetch the instruction word at code address @p addr. The hit
     *  path is inline (one fetch per simulated instruction makes this
     *  the hottest call in the simulator); misses take the cold
     *  out-of-line burst-fill path. */
    uint64_t
    read(Addr addr, unsigned &penalty_cycles)
    {
        if (config_.enabled) [[likely]] {
            Cell &cell = cells_[addr & (config_.sizeWords - 1)];
            if (cell.valid && cell.vaddr == addr) [[likely]] {
                ++readHits;
                return cell.data;
            }
        }
        return readMiss(addr, penalty_cycles);
    }

    /** Fetch for timing and statistics only (predecoded execution
     *  keeps its own copy of the word): hit/miss accounting, fills
     *  and penalties are exactly those of read(). */
    void touch(Addr addr, unsigned &penalty_cycles)
    {
        (void)read(addr, penalty_cycles);
    }

    /**
     * Write @p value at code address @p addr (incremental compilation
     * writes directly into the code cache and through to memory,
     * §3.2.1).
     */
    void write(Addr addr, uint64_t value, unsigned &penalty_cycles);

    void invalidateAll();

    StatGroup &stats() { return stats_; }

    Counter readHits;
    Counter readMisses;
    Counter writes;

    double
    hitRatio() const
    {
        uint64_t total = readHits.value() + readMisses.value();
        if (!total)
            return 1.0;
        return double(readHits.value()) / double(total);
    }

  private:
    friend struct SnapshotAccess;

    struct Cell
    {
        bool valid = false;
        Addr vaddr = 0;
        uint64_t data = 0;
    };

    void fill(Addr addr, uint64_t data);

    /** Cold path of read(): cache disabled or miss. Does the
     *  page-mode burst fill and accounting. */
    uint64_t readMiss(Addr addr, unsigned &penalty_cycles);

    Mmu &mmu_;
    MainMemory &memory_;
    CodeCacheConfig config_;
    std::vector<Cell> cells_;
    TouchedSet touched_; ///< cells that may differ from Cell{}
    StatGroup stats_;
};

} // namespace kcm

#endif // KCM_MEM_CODE_CACHE_HH
