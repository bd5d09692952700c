/**
 * @file
 * The top-level Prolog-to-KCM compiler: parses program text, runs the
 * normalizer and clause compiler over every predicate, emits runtime
 * stubs, compiles the query, and statically links the result into a
 * CodeImage ready for the loader (the paper's benchmarks were compiled
 * and statically linked on the host, §4). A library compiled once into
 * a LibraryUnit is linked into each image instead of compiled again.
 */

#ifndef KCM_COMPILER_COMPILER_HH
#define KCM_COMPILER_COMPILER_HH

#include <set>
#include <string>
#include <vector>

#include "compiler/assembler.hh"
#include "compiler/code_image.hh"
#include "compiler/codegen.hh"
#include "compiler/indexing.hh"
#include "compiler/normalize.hh"
#include "prolog/operators.hh"

namespace kcm
{

struct CompilerOptions
{
    /** Compile arithmetic to native ALU instructions (the benchmark
     *  mode of §4; false = generic arithmetic through escapes). */
    bool integerArithmetic = true;
    /** Compile write/1, nl/0, tab/1 as unit clauses costing exactly
     *  the 5-cycle call/return sequence, as done for Table 2. */
    bool ioAsUnitClauses = false;
    /** Emit first-argument indexing. */
    bool indexing = true;
};

/**
 * A library compiled once, for linking into any number of images: its
 * predicates' code, not yet placed, and what the link needs to know
 * about it. The code depends on integerArithmetic and indexing, so a
 * unit serves only compilers with the options it was built under.
 *
 * A link reproduces a whole-program compile only if the clauses
 * declare nothing dynamic, use no catch/3 (its auxiliaries would be
 * data, which a link does not rename), mention no `$aux` name, and
 * define none of the predicates Compiler::compile() adds itself (the
 * Table 2 I/O unit clauses, the dynamic support). The standard
 * library meets these; tests/library_parse_check.hh checks its images
 * byte for byte.
 */
struct LibraryUnit
{
    /** Compile @p clauses, which must outlive the unit. */
    LibraryUnit(const std::vector<ReadClause> &clauses,
                const CompilerOptions &options);

    CompilerOptions options;
    /** The code, unfinalised: its words, label fixups and predicate
     *  fixups by functor, based at the assembler's default base. */
    Assembler code;
    /** Where clauses fail to: left unbound, linked to the image's
     *  fail stub. */
    Label failLabel = 0;
    /** Its predicates in emission order, entries relative to
     *  code.base(), under the unit's own auxiliary names. */
    std::vector<PredicateInfo> predicates;
    /** The functors it defines, its auxiliaries excepted. */
    std::set<Functor> defines;
    /** The functors its clauses call and it does not define. */
    std::set<Functor> calls;
    /** Its auxiliaries in creation order: the i-th is `$aux<i>`. */
    std::vector<Functor> auxiliaries;
    /** The source clauses, compiled whole when the unit cannot be
     *  linked. */
    const std::vector<ReadClause> *clauses;
};

class Compiler
{
  public:
    explicit Compiler(const CompilerOptions &options = {});

    /** Parse and add program source text. */
    void addProgram(const std::string &source);

    /** Same, but the predicates are marked as runtime library (they
     *  are excluded from Table 1 program sizes). */
    void addLibrary(const std::string &source);

    /**
     * Add a library compiled once (the process-wide standard library
     * unit; it must outlive this compiler and have been built under
     * this compiler's integerArithmetic and indexing). compile() links
     * its code after the program's predicates unless the program
     * defines, or declares dynamic, a functor the unit defines, or
     * another library is added too; then its clauses are compiled
     * with the program. Either way the image is the one a compile of
     * the library's text gives, byte for byte.
     */
    void addLibrary(const LibraryUnit &unit);

    /** Set the query to compile ("goal" or "?- goal."). */
    void setQuery(const std::string &source);

    /** Compile everything into a linked image. */
    CodeImage compile();

    OperatorTable &operators() { return ops_; }

    /** Whether the last compile() linked a library unit's code rather
     *  than compiling its clauses. */
    bool linkedLibrary() const { return linkedLibrary_; }

  private:
    void addSource(const std::string &source,
                   std::vector<ReadClause> &clauses);

    /** Compile the unit's clauses with the rest instead of linking. */
    void unlinkLibraryUnit();

    CompilerOptions options_;
    OperatorTable ops_;
    std::vector<ReadClause> programClauses_;
    std::vector<ReadClause> libraryClauses_;
    const LibraryUnit *libraryUnit_ = nullptr;
    bool linkedLibrary_ = false;
    std::string querySource_;
};

} // namespace kcm

#endif // KCM_COMPILER_COMPILER_HH
