/**
 * @file
 * Execution profiler — the "monitors (at microcode, macrocode, and
 * Prolog levels)" of the paper's software environment (§4).
 *
 * The macrocode monitor is an opcode histogram; the Prolog-level
 * monitor counts invocations per predicate (resolved through the
 * loaded image's symbol table).
 *
 * Everything on the record() hot path is flat-array indexing: the
 * predicate map is resolved at attach() time into a dense entry→index
 * table, so profiling mode itself does not distort the measured
 * instruction mix (no ordered-map lookups per call instruction).
 */

#ifndef KCM_CORE_PROFILER_HH
#define KCM_CORE_PROFILER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/code_image.hh"
#include "isa/decoded.hh"
#include "isa/opcodes.hh"

namespace kcm
{

class Profiler
{
  public:
    /** Prepare the predicate tables from a loaded image. */
    void attach(const CodeImage &image);

    /** Record one executed instruction. */
    void
    record(Opcode op, Addr target_of_call = 0)
    {
        opcodeCounts_[static_cast<size_t>(op)]++;
        if (target_of_call) {
            // Dense entry→predicate table built by attach(): one
            // bounds check and two array reads, no map lookup.
            size_t idx = size_t(target_of_call) - entryBase_;
            if (idx < entryIndex_.size()) {
                int32_t pred = entryIndex_[idx];
                if (pred >= 0)
                    predicateCounts_[size_t(pred)]++;
            }
        }
    }

    void reset();

    /** Opcode histogram, most frequent first. */
    std::vector<std::pair<Opcode, uint64_t>> opcodeHistogram() const;

    /** Per-predicate invocation counts, most frequent first. */
    std::vector<std::pair<std::string, uint64_t>> predicateProfile() const;

    /** Formatted report of the enabled monitors. */
    std::string report(size_t top = 16) const;

    uint64_t
    totalInstructions() const
    {
        uint64_t total = 0;
        for (uint64_t c : opcodeCounts_)
            total += c;
        return total;
    }

  private:
    /** Sized for every dispatchable token, including the invalid-word
     *  token, so a fetch of a data word cannot index out of range. */
    uint64_t opcodeCounts_[numOpcodeTokens] = {};

    // Predicate monitor: dense entry→index table over the image's
    // code-address span, plus parallel name/count vectors.
    Addr entryBase_ = 0;
    std::vector<int32_t> entryIndex_;
    std::vector<std::string> predicateNames_;
    std::vector<uint64_t> predicateCounts_;
};

} // namespace kcm

#endif // KCM_CORE_PROFILER_HH
