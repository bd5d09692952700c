/**
 * @file
 * Host-side record of the elements of a fixed hardware array that may
 * differ from their default value.
 *
 * The paper's MMU keeps a referenced and a dirty bit per page so the
 * host's paging server handles only the pages a run touched (§3.2.5).
 * The simulator's host side does the same for its own bookkeeping:
 * main memory (per 64-word block), the page table and both cache
 * arrays each mark an element on the slow path where it can stop
 * being default. Snapshots then scan, and resets clear, only the
 * marked elements, so their cost follows what a run touched rather
 * than the size of the arrays.
 *
 * Invariant kept by every owner: an element that differs from its
 * default value is marked. Marking more is harmless. The set is host
 * state only: it is never serialised and no simulated behaviour reads
 * it.
 */

#ifndef KCM_MEM_TOUCHED_SET_HH
#define KCM_MEM_TOUCHED_SET_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace kcm
{

/** A bitmap with one bit per element of a fixed array. */
class TouchedSet
{
  public:
    explicit TouchedSet(size_t size) : bits_((size + 63) / 64) {}

    void mark(size_t i) { bits_[i >> 6] |= uint64_t(1) << (i & 63); }

    /** Call @p visit(i) for every marked index, in ascending order. */
    template <typename Visit>
    void
    forEach(Visit visit) const
    {
        for (size_t w = 0; w < bits_.size(); ++w)
            for (uint64_t b = bits_[w]; b; b &= b - 1)
                visit(w * 64 + size_t(std::countr_zero(b)));
    }

    /**
     * forEach(), unmarking each group of 64 once it is visited. If
     * @p visit throws, the group it threw in stays marked. @p visit
     * must not mark.
     */
    template <typename Visit>
    void
    drain(Visit visit)
    {
        for (size_t w = 0; w < bits_.size(); ++w) {
            if (!bits_[w])
                continue;
            for (uint64_t b = bits_[w]; b; b &= b - 1)
                visit(w * 64 + size_t(std::countr_zero(b)));
            bits_[w] = 0;
        }
    }

  private:
    std::vector<uint64_t> bits_;
};

} // namespace kcm

#endif // KCM_MEM_TOUCHED_SET_HH
