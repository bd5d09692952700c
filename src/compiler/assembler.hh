/**
 * @file
 * Code emission with labels and link-time fixups.
 *
 * The compiler emits into an Assembler; predicate calls are recorded
 * as fixups against functors and patched once every predicate has an
 * address (static linking, as used for the paper's benchmarks).
 */

#ifndef KCM_COMPILER_ASSEMBLER_HH
#define KCM_COMPILER_ASSEMBLER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "compiler/code_image.hh"
#include "isa/instr.hh"

namespace kcm
{

/** A local label within the assembler. */
using Label = uint32_t;

class Assembler
{
  public:
    explicit Assembler(Addr base = 0x100) : base_(base) {}

    /** Current emission address. */
    Addr here() const { return base_ + static_cast<Addr>(words_.size()); }

    /** Emit one instruction; returns its address. */
    Addr emit(Instr instr);

    /** Emit a raw table word (switch tables). */
    Addr emitWord(Word word);

    /** Set the inference mark on the most recently emitted word. */
    void markLast();

    /** Create a fresh unbound label. */
    Label newLabel();

    /** Bind @p label to the current address. */
    void bind(Label label);

    /** Emit an instruction whose value field is @p label's address. */
    Addr emitWithLabel(Instr instr, Label label);

    /** Emit a CodePtr table word that will hold @p label's address. */
    Addr emitLabelWord(Label label);

    /**
     * Emit an instruction whose value field is the entry address of
     * @p callee, to be resolved at link time.
     */
    Addr emitCall(Instr instr, Functor callee);

    /** Emit a CodePtr table word resolved to @p callee at link time. */
    Addr emitCalleeWord(Functor callee);

    /** Number of instruction words emitted so far (tables excluded). */
    size_t instructionCount() const { return instructionCount_; }
    size_t wordCount() const { return words_.size(); }

    /**
     * Resolve all label fixups (predicate fixups are resolved by the
     * linker in Compiler); move the words into @p image.
     */
    void finalize(CodeImage &image);

    /**
     * Copy the words of @p unit, an unfinalised assembler of its own,
     * to the current address and return that address. The unit's
     * bound labels are rebased and resolved here; its label
     * @p unit_fail, left unbound, resolves to this assembler's @p fail,
     * which must be bound. Its predicate fixups join this assembler's,
     * each callee passed through @p rename, for the linker.
     */
    Addr append(const Assembler &unit, Label unit_fail, Label fail,
                const std::function<Functor(const Functor &)> &rename);

    /** Unresolved predicate references: offset -> callee. */
    struct PredFixup
    {
        size_t index;   ///< word index within the assembler
        Functor callee;
        bool isTableWord; ///< patch a CodePtr word, not an instruction
    };

    const std::vector<PredFixup> &predFixups() const { return predFixups_; }

    Addr base() const { return base_; }

  private:
    void patchValue(size_t index, uint32_t value, bool is_table_word);

    struct LabelFixup
    {
        size_t index;
        Label label;
        bool isTableWord;
    };

    Addr base_;
    std::vector<uint64_t> words_;
    size_t instructionCount_ = 0;
    std::vector<Addr> labelAddrs_; // 0 = unbound
    std::vector<LabelFixup> labelFixups_;
    std::vector<PredFixup> predFixups_;
};

} // namespace kcm

#endif // KCM_COMPILER_ASSEMBLER_HH
