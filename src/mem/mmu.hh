/**
 * @file
 * Address translation (§3.2.5).
 *
 * A simple RAM holds the entire page table (no TLB): one entry per
 * virtual page for each of the two address spaces (code and data,
 * §3.2.1). Pages are 16K words (address bits 27..14 select the page).
 * Each entry holds 5 status bits plus an 11-bit physical page number.
 *
 * KCM's host serves page faults; here, the "host" is a demand
 * allocator handing out physical pages on first touch.
 *
 * Host side, the table keeps a touched set (mem/touched_set.hh):
 * entry(), the one way to a mutable entry besides the inline hit path
 * (which only sets bits of an entry that is already valid), marks the
 * entry it returns, so every nonzero entry is marked and snapshots and
 * restores visit only those.
 */

#ifndef KCM_MEM_MMU_HH
#define KCM_MEM_MMU_HH

#include <cstdint>
#include <vector>

#include "base/stats.hh"
#include "isa/word.hh"
#include "mem/main_memory.hh"
#include "mem/touched_set.hh"
#include "mem/traps.hh"

namespace kcm
{

/** The two virtual address spaces (§3.2.1). */
enum class AddrSpace : uint8_t
{
    Code = 0,
    Data = 1,
};

/** log2 of the page size in words (16K words). */
constexpr unsigned pageShift = 14;
constexpr uint32_t pageSizeWords = 1u << pageShift;
/** Virtual pages per address space (bits 27..14). */
constexpr uint32_t numVirtualPages = 1u << 14;

/** One 16-bit page table entry: 5 status bits + 11-bit physical page. */
struct PageEntry
{
    uint16_t raw = 0;

    bool valid() const { return raw & 0x8000; }
    bool writable() const { return raw & 0x4000; }
    bool dirty() const { return raw & 0x2000; }
    bool referenced() const { return raw & 0x1000; }
    bool reserved() const { return raw & 0x0800; }
    uint16_t physPage() const { return raw & 0x07FF; }

    void setValid(bool v) { raw = v ? raw | 0x8000 : raw & ~0x8000; }
    void setWritable(bool v) { raw = v ? raw | 0x4000 : raw & ~0x4000; }
    void setDirty(bool v) { raw = v ? raw | 0x2000 : raw & ~0x2000; }
    void setReferenced(bool v) { raw = v ? raw | 0x1000 : raw & ~0x1000; }
    void setPhysPage(uint16_t p) { raw = (raw & ~0x07FF) | (p & 0x07FF); }
};

/**
 * The memory management unit: page-table RAM plus a demand allocator
 * of physical pages.
 */
class Mmu
{
  public:
    explicit Mmu(MainMemory &memory);

    /**
     * Translate @p vaddr in @p space, demand-allocating a physical
     * page on first touch (this models the host paging server).
     * Marks the page referenced (and dirty on writes).
     *
     * The hot case — valid, writable page, no injected fault — runs
     * inline; first touches and faults take the out-of-line slow
     * path.
     */
    PhysAddr translate(AddrSpace space, Addr vaddr, bool is_write)
    {
        ++translations;
        if (!injectFault_ && !(vaddr & ~addrMask)) [[likely]] {
            PageEntry &pe =
                table_[static_cast<uint32_t>(space) * numVirtualPages +
                       (vaddr >> pageShift)];
            if (pe.valid() && (!is_write || pe.writable())) [[likely]] {
                pe.raw |= is_write ? 0x3000 : 0x1000; // referenced+dirty
                return (PhysAddr(pe.physPage()) << pageShift) |
                       (vaddr & (pageSizeWords - 1));
            }
        }
        return translateSlow(space, vaddr, is_write);
    }

    /** Direct page-table manipulation (used by the language system to
     *  move batch-compiled code pages from data to code space,
     *  §3.2.1). Marks the entry touched. */
    PageEntry &entry(AddrSpace space, uint32_t virtual_page);

    /**
     * Re-attach the physical page backing @p data_page in the data
     * space to @p code_page in the code space, invalidating the data
     * mapping (batch compilation hand-over, §3.2.1).
     */
    void attachDataPageToCode(uint32_t data_page, uint32_t code_page);

    /** Number of physical pages handed out so far. */
    uint32_t allocatedPages() const { return nextPhysPage_; }

    /** Fault injection: the next translate() raises an unrecoverable
     *  PageFault (one-shot; the FaultPlan machinery arms this at a
     *  chosen cycle). */
    void injectPageFault() { injectFault_ = true; }

    StatGroup &stats() { return stats_; }

    Counter translations;
    Counter demandFaults;

  private:
    friend struct SnapshotAccess;

    uint16_t allocPhysPage();

    [[gnu::cold, gnu::noinline]] PhysAddr
    translateSlow(AddrSpace space, Addr vaddr, bool is_write);

    MainMemory &memory_;
    std::vector<PageEntry> table_; // [space][page] flattened
    TouchedSet touched_;           ///< entries that may be nonzero
    uint16_t nextPhysPage_ = 0;
    bool injectFault_ = false;
    StatGroup stats_;
};

} // namespace kcm

#endif // KCM_MEM_MMU_HH
