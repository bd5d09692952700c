/**
 * @file
 * Physical main memory model (§3.2.6).
 *
 * One 32-Mbyte board of 64-bit words, accessed over a 32-bit bus using
 * fast page mode: a 64-bit word costs two 32-bit page-mode accesses;
 * sequential words within the same DRAM page are cheaper, which the
 * code cache exploits to prefetch.
 *
 * Host side, the board keeps a touched set of 64-word blocks (see
 * mem/touched_set.hh): writeBurst() and poke(), which every physical
 * write goes through, mark the block they write, so every nonzero
 * word lies in a marked block and a snapshot scans, and a restore
 * clears, only those.
 */

#ifndef KCM_MEM_MAIN_MEMORY_HH
#define KCM_MEM_MAIN_MEMORY_HH

#include <cstdint>
#include <cstdlib>
#include <memory>

#include "base/stats.hh"
#include "mem/touched_set.hh"

namespace kcm
{

/** A physical word address. */
using PhysAddr = uint32_t;

/** Cycle costs of physical memory transactions (in CPU cycles). */
struct MemTimings
{
    /** First 64-bit word of a transaction (row activate + 2 column
     *  accesses over the 32-bit bus). */
    unsigned firstWord = 4;
    /** Each further sequential word in fast page mode. */
    unsigned pageModeWord = 2;
};

/** Word-addressed physical memory with transaction timing. */
class MainMemory
{
  public:
    /** @param size_words capacity (default: one 32-Mbyte board). */
    explicit MainMemory(size_t size_words = 4 * 1024 * 1024);

    /** log2 of the words per block of the touched set. */
    static constexpr unsigned touchedBlockShift = 6;

    size_t sizeWords() const { return sizeWords_; }

    /** Read @p count sequential words starting at @p addr.
     *  @return the cycle cost of the transaction. */
    unsigned readBurst(PhysAddr addr, uint64_t *out, unsigned count);

    /** Write @p count sequential words.
     *  @return the cycle cost of the transaction. */
    unsigned writeBurst(PhysAddr addr, const uint64_t *in, unsigned count);

    /** Untimed access for loaders and debuggers. */
    uint64_t peek(PhysAddr addr) const;
    void poke(PhysAddr addr, uint64_t value);

    const MemTimings &timings() const { return timings_; }
    void setTimings(const MemTimings &t) { timings_ = t; }

    StatGroup &stats() { return stats_; }

    Counter readWords;
    Counter writtenWords;
    Counter transactions;

  private:
    friend struct SnapshotAccess;

    void checkRange(PhysAddr addr, unsigned count) const;

    struct FreeDeleter
    {
        void operator()(uint64_t *p) const { std::free(p); }
    };

    // calloc-backed so the 32-Mbyte board is lazily zeroed by the
    // host kernel: untouched pages are never faulted in, which makes
    // constructing a Machine cheap (reads of untouched words still
    // return 0, exactly as the old eagerly-zeroed vector did).
    std::unique_ptr<uint64_t[], FreeDeleter> data_;
    size_t sizeWords_ = 0;
    TouchedSet touched_; ///< blocks that may hold a nonzero word
    MemTimings timings_;
    StatGroup stats_;
};

} // namespace kcm

#endif // KCM_MEM_MAIN_MEMORY_HH
