#include "mem/data_cache.hh"

#include "base/logging.hh"

namespace kcm
{

DataCache::DataCache(Mmu &mmu, MainMemory &memory,
                     const DataCacheConfig &config)
    : mmu_(mmu), memory_(memory), config_(config),
      cells_(size_t(config.sectionWords) * config.sections),
      touched_(cells_.size()), stats_("dcache")
{
    if (config_.sectionWords == 0 ||
        (config_.sectionWords & (config_.sectionWords - 1))) {
        fatal("data cache section size must be a power of two");
    }
    stats_.add("readHits", readHits);
    stats_.add("readMisses", readMisses);
    stats_.add("writeHits", writeHits);
    stats_.add("writeMisses", writeMisses);
    stats_.add("writeBacks", writeBacks);
}

void
DataCache::evict(Cell &cell, unsigned &penalty_cycles)
{
    if (cell.valid && cell.dirty) {
        PhysAddr pa = mmu_.translate(AddrSpace::Data, cell.vaddr, true);
        penalty_cycles += memory_.writeBurst(pa, &cell.data, 1);
        ++writeBacks;
    }
    cell.valid = false;
    cell.dirty = false;
}

Word
DataCache::readMiss(Word addr_word, unsigned &penalty_cycles)
{
    Addr a = addr_word.addr();

    if (!config_.enabled) {
        ++readMisses;
        PhysAddr pa = mmu_.translate(AddrSpace::Data, a, false);
        uint64_t raw = 0;
        penalty_cycles += memory_.readBurst(pa, &raw, 1);
        return Word(raw);
    }

    const size_t index = indexOf(addr_word);
    Cell &cell = cells_[index];
    touched_.mark(index);
    ++readMisses;
    evict(cell, penalty_cycles);
    PhysAddr pa = mmu_.translate(AddrSpace::Data, a, false);
    uint64_t raw = 0;
    penalty_cycles += memory_.readBurst(pa, &raw, 1);
    cell.valid = true;
    cell.dirty = false;
    cell.vaddr = a;
    cell.data = raw;
    return Word(raw);
}

void
DataCache::writeMiss(Word addr_word, Word value, unsigned &penalty_cycles)
{
    Addr a = addr_word.addr();

    if (!config_.enabled) {
        ++writeMisses;
        PhysAddr pa = mmu_.translate(AddrSpace::Data, a, true);
        uint64_t raw = value.raw();
        penalty_cycles += memory_.writeBurst(pa, &raw, 1);
        return;
    }

    const size_t index = indexOf(addr_word);
    Cell &cell = cells_[index];
    touched_.mark(index);
    ++writeMisses;
    // Line size one: allocate without fetching from memory.
    evict(cell, penalty_cycles);
    cell.valid = true;
    cell.vaddr = a;
    cell.data = value.raw();
    cell.dirty = true;
}

bool
DataCache::probe(Word addr_word, Word &out) const
{
    if (!config_.enabled)
        return false;
    const Cell &cell = cells_[indexOf(addr_word)];
    if (cell.valid && cell.vaddr == addr_word.addr()) {
        out = Word(cell.data);
        return true;
    }
    return false;
}

void
DataCache::pokeCoherent(Word addr_word, Word value)
{
    if (config_.enabled) {
        Cell &cell = cells_[indexOf(addr_word)];
        if (cell.valid && cell.vaddr == addr_word.addr()) {
            cell.data = value.raw();
            cell.dirty = true;
            return;
        }
    }
    PhysAddr pa = mmu_.translate(AddrSpace::Data, addr_word.addr(), true);
    memory_.poke(pa, value.raw());
}

void
DataCache::flushAll()
{
    unsigned penalty = 0;
    touched_.drain([&](size_t i) {
        evict(cells_[i], penalty);
        cells_[i] = Cell{};
    });
}

void
DataCache::invalidateAll()
{
    touched_.drain([&](size_t i) { cells_[i] = Cell{}; });
}

} // namespace kcm
