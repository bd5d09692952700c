#include "mem/mmu.hh"

#include "base/logging.hh"

namespace kcm
{

Mmu::Mmu(MainMemory &memory)
    : memory_(memory), table_(2 * numVirtualPages),
      touched_(table_.size()), stats_("mmu")
{
    stats_.add("translations", translations);
    stats_.add("demandFaults", demandFaults);
}

PageEntry &
Mmu::entry(AddrSpace space, uint32_t virtual_page)
{
    if (virtual_page >= numVirtualPages)
        panic("virtual page out of range: ", virtual_page);
    const uint32_t i =
        static_cast<uint32_t>(space) * numVirtualPages + virtual_page;
    touched_.mark(i);
    return table_[i];
}

uint16_t
Mmu::allocPhysPage()
{
    uint32_t total_pages =
        static_cast<uint32_t>(memory_.sizeWords() >> pageShift);
    if (nextPhysPage_ >= total_pages) {
        throw MachineTrap(TrapKind::PageFault,
                          "out of physical memory pages");
    }
    return nextPhysPage_++;
}

PhysAddr
Mmu::translateSlow(AddrSpace space, Addr vaddr, bool is_write)
{
    // translations was already counted by the inline fast path.
    if (injectFault_) [[unlikely]] {
        injectFault_ = false;
        throw MachineTrap(TrapKind::PageFault,
                          cat("injected page fault at 0x", std::hex,
                              vaddr),
                          vaddr);
    }
    if (vaddr & ~addrMask) {
        throw MachineTrap(TrapKind::PageFault,
                          cat("address above implemented bits: 0x",
                              std::hex, vaddr),
                          vaddr);
    }
    uint32_t page = vaddr >> pageShift;
    PageEntry &pe = entry(space, page);
    if (!pe.valid()) {
        // Demand allocation: the host's paging server maps a fresh
        // physical page.
        ++demandFaults;
        pe.setPhysPage(allocPhysPage());
        pe.setValid(true);
        pe.setWritable(true);
    }
    pe.setReferenced(true);
    if (is_write) {
        if (!pe.writable()) {
            throw MachineTrap(TrapKind::WriteProtection,
                              cat("write to protected page 0x", std::hex,
                                  page),
                              vaddr);
        }
        pe.setDirty(true);
    }
    return (PhysAddr(pe.physPage()) << pageShift) |
           (vaddr & (pageSizeWords - 1));
}

void
Mmu::attachDataPageToCode(uint32_t data_page, uint32_t code_page)
{
    PageEntry &from = entry(AddrSpace::Data, data_page);
    if (!from.valid())
        fatal("attachDataPageToCode: data page not mapped");
    PageEntry &to = entry(AddrSpace::Code, code_page);
    to.setPhysPage(from.physPage());
    to.setValid(true);
    to.setWritable(false);
    from.setValid(false);
}

} // namespace kcm
