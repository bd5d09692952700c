#include "mem/main_memory.hh"

#include "base/logging.hh"

namespace kcm
{

MainMemory::MainMemory(size_t size_words)
    : data_(static_cast<uint64_t *>(
          std::calloc(size_words ? size_words : 1, sizeof(uint64_t)))),
      sizeWords_(size_words),
      touched_((size_words + (1u << touchedBlockShift) - 1) >>
               touchedBlockShift),
      stats_("memory")
{
    if (!data_)
        panic("cannot allocate ", size_words, "-word main memory");
    stats_.add("readWords", readWords);
    stats_.add("writtenWords", writtenWords);
    stats_.add("transactions", transactions);
}

void
MainMemory::checkRange(PhysAddr addr, unsigned count) const
{
    if (size_t(addr) + count > sizeWords_)
        panic("physical access out of range: 0x", std::hex, addr, " + ",
              std::dec, count);
}

unsigned
MainMemory::readBurst(PhysAddr addr, uint64_t *out, unsigned count)
{
    checkRange(addr, count);
    for (unsigned i = 0; i < count; ++i)
        out[i] = data_[addr + i];
    readWords += count;
    ++transactions;
    return timings_.firstWord + (count - 1) * timings_.pageModeWord;
}

unsigned
MainMemory::writeBurst(PhysAddr addr, const uint64_t *in, unsigned count)
{
    checkRange(addr, count);
    for (unsigned i = 0; i < count; ++i) {
        data_[addr + i] = in[i];
        touched_.mark((addr + i) >> touchedBlockShift);
    }
    writtenWords += count;
    ++transactions;
    return timings_.firstWord + (count - 1) * timings_.pageModeWord;
}

uint64_t
MainMemory::peek(PhysAddr addr) const
{
    checkRange(addr, 1);
    return data_[addr];
}

void
MainMemory::poke(PhysAddr addr, uint64_t value)
{
    checkRange(addr, 1);
    data_[addr] = value;
    touched_.mark(addr >> touchedBlockShift);
}

} // namespace kcm
