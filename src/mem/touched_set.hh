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

/**
 * A bitmap with one bit per element of a fixed array, and a summary
 * bit per 64-bit word of it that is set whenever the word may be
 * nonzero: a scan visits only the summary and the words it marks, so
 * it costs what is marked, not the size of the array.
 */
class TouchedSet
{
  public:
    explicit TouchedSet(size_t size)
        : bits_((size + 63) / 64), summary_((bits_.size() + 63) / 64)
    {
    }

    void
    mark(size_t i)
    {
        bits_[i >> 6] |= uint64_t(1) << (i & 63);
        summary_[i >> 12] |= uint64_t(1) << ((i >> 6) & 63);
    }

    /** Call @p visit(i) for every marked index, in ascending order. */
    template <typename Visit>
    void
    forEach(Visit visit) const
    {
        for (size_t s = 0; s < summary_.size(); ++s)
            for (uint64_t m = summary_[s]; m; m &= m - 1) {
                const size_t w = s * 64 + size_t(std::countr_zero(m));
                for (uint64_t b = bits_[w]; b; b &= b - 1)
                    visit(w * 64 + size_t(std::countr_zero(b)));
            }
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
        for (size_t s = 0; s < summary_.size(); ++s) {
            for (uint64_t m = summary_[s]; m; m &= m - 1) {
                const size_t w = s * 64 + size_t(std::countr_zero(m));
                for (uint64_t b = bits_[w]; b; b &= b - 1)
                    visit(w * 64 + size_t(std::countr_zero(b)));
                bits_[w] = 0;
            }
            summary_[s] = 0;
        }
    }

  private:
    std::vector<uint64_t> bits_;
    std::vector<uint64_t> summary_; ///< bit w: bits_[w] may be nonzero
};

} // namespace kcm

#endif // KCM_MEM_TOUCHED_SET_HH
