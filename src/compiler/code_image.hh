/**
 * @file
 * The output of compilation: a linked image of 64-bit code words plus
 * the symbol table and per-predicate size bookkeeping (used both by
 * the loader and by the Table 1 static-size measurements).
 */

#ifndef KCM_COMPILER_CODE_IMAGE_HH
#define KCM_COMPILER_CODE_IMAGE_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "isa/instr.hh"
#include "prolog/atom_table.hh"

namespace kcm
{

/** Where a predicate lives in the image. */
struct PredicateInfo
{
    Functor functor;
    Addr entry = 0;           ///< address callers jump to
    size_t words = 0;         ///< code words including switch tables
    size_t instructions = 0;  ///< instruction count (tables excluded)
    bool fromLibrary = false; ///< runtime-library predicate (excluded
                              ///< from Table 1 program sizes)
};

/** A linked code image based at @ref base. */
struct CodeImage
{
    /** First code address; address 0 is reserved as "null". */
    Addr base = 0x100;

    /** The code words, index i lives at address base + i. */
    std::vector<uint64_t> words;

    /** Symbol table. */
    std::map<Functor, PredicateInfo> predicates;

    /** Entry point of the compiled query, 0 if none. */
    Addr queryEntry = 0;

    /** Address of the shared fail stub (deep fail into an empty
     *  indexing bucket lands here). */
    Addr failEntry = 0;

    /** Address of the query-failure halt stub (the bottom choice
     *  point's alternative). */
    Addr haltFailEntry = 0;

    /** Address of the catch-marker alternative: a choice point whose
     *  alt field equals this address is a catch/3 barrier. Backtracking
     *  into it pops the marker and keeps failing; throw/1 scans the B
     *  chain for it. */
    Addr catchFailEntry = 0;

    /** Named query variables: (name, Y slot) pairs for solutions. */
    std::vector<std::pair<std::string, int>> querySolutionSlots;

    /** Address of the shared dynamic-retry stub: a choice point whose
     *  alt field equals this address is a dynamic-predicate clause
     *  iterator (its saved X slots carry the cursor; see
     *  Machine::execDynamicRetry). 0 when the image has no dynamic
     *  dispatch. */
    Addr dynRetryEntry = 0;

    /** Dynamic-dispatch stubs: address of each `Escape $dynamic_call`
     *  instruction → the predicate it traps into the clause store
     *  for. Both cores hold the current instruction address in p_
     *  while executing an escape, so this doubles as the stub's
     *  self-identification. */
    std::map<Addr, Functor> dynStubs;

    /** Predicates declared `:- dynamic(F/N)` (calls trap to the
     *  store; asserting to anything else is a permission error). */
    std::set<Functor> dynamicDecls;

    /**
     * Source clauses of dynamic predicates, in canonical quoted
     * ignore-ops text, in source order. The loader asserts these into
     * the machine's clause store after download (assertz order), so a
     * snapshot template taken post-download already contains them.
     * `--db-facts` preloads append here after compilation.
     */
    std::vector<std::string> dynamicInit;

    /** True when calls to @p f dispatch through the clause store. */
    bool
    isDynamic(const Functor &f) const
    {
        return dynamicDecls.count(f) != 0;
    }

    Addr
    endAddr() const
    {
        return base + static_cast<Addr>(words.size());
    }

    /** Lookup a predicate; null if absent. */
    const PredicateInfo *
    find(Functor f) const
    {
        auto it = predicates.find(f);
        return it == predicates.end() ? nullptr : &it->second;
    }

    /** Static size of the non-library program code, for Table 1. */
    void
    programSize(size_t &instructions, size_t &words_out) const
    {
        instructions = 0;
        words_out = 0;
        for (const auto &[functor, info] : predicates) {
            if (info.fromLibrary)
                continue;
            instructions += info.instructions;
            words_out += info.words;
        }
    }
};

} // namespace kcm

#endif // KCM_COMPILER_CODE_IMAGE_HH
