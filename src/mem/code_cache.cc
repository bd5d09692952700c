#include "mem/code_cache.hh"

#include "base/logging.hh"

namespace kcm
{

CodeCache::CodeCache(Mmu &mmu, MainMemory &memory,
                     const CodeCacheConfig &config)
    : mmu_(mmu), memory_(memory), config_(config),
      cells_(config.sizeWords), touched_(cells_.size()), stats_("icache")
{
    if (config_.sizeWords == 0 ||
        (config_.sizeWords & (config_.sizeWords - 1))) {
        fatal("code cache size must be a power of two");
    }
    stats_.add("readHits", readHits);
    stats_.add("readMisses", readMisses);
    stats_.add("writes", writes);
}

void
CodeCache::fill(Addr addr, uint64_t data)
{
    const size_t index = addr & (config_.sizeWords - 1);
    Cell &cell = cells_[index];
    touched_.mark(index);
    cell.valid = true;
    cell.vaddr = addr;
    cell.data = data;
}

uint64_t
CodeCache::readMiss(Addr addr, unsigned &penalty_cycles)
{
    if (!config_.enabled) {
        ++readMisses;
        PhysAddr pa = mmu_.translate(AddrSpace::Code, addr, false);
        uint64_t raw = 0;
        penalty_cycles += memory_.readBurst(pa, &raw, 1);
        return raw;
    }
    ++readMisses;

    // Fetch the missing word plus a few sequential words using the
    // memory's page mode. The prefetch must not cross a page boundary.
    unsigned count = config_.prefetchWords ? config_.prefetchWords : 1;
    uint32_t page_remaining = pageSizeWords - (addr & (pageSizeWords - 1));
    if (count > page_remaining)
        count = page_remaining;

    PhysAddr pa = mmu_.translate(AddrSpace::Code, addr, false);
    std::vector<uint64_t> buffer(count);
    penalty_cycles += memory_.readBurst(pa, buffer.data(), count);
    for (unsigned i = 0; i < count; ++i)
        fill(addr + i, buffer[i]);
    return buffer[0];
}

void
CodeCache::write(Addr addr, uint64_t value, unsigned &penalty_cycles)
{
    ++writes;
    if (config_.enabled)
        fill(addr, value);
    PhysAddr pa = mmu_.translate(AddrSpace::Code, addr, true);
    penalty_cycles += memory_.writeBurst(pa, &value, 1);
}

void
CodeCache::invalidateAll()
{
    touched_.drain([&](size_t i) { cells_[i] = Cell{}; });
}

} // namespace kcm
