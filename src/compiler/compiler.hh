/**
 * @file
 * The top-level Prolog-to-KCM compiler: parses program text, runs the
 * normalizer and clause compiler over every predicate, emits runtime
 * stubs, compiles the query, and statically links the result into a
 * CodeImage ready for the loader (the paper's benchmarks were compiled
 * and statically linked on the host, §4).
 */

#ifndef KCM_COMPILER_COMPILER_HH
#define KCM_COMPILER_COMPILER_HH

#include <string>
#include <vector>

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

class Compiler
{
  public:
    explicit Compiler(const CompilerOptions &options = {});

    /** Parse and add program source text. */
    void addProgram(const std::string &source);

    /** Same, but the predicates are marked as runtime library (they
     *  are excluded from Table 1 program sizes). */
    void addLibrary(const std::string &source);

    /** Add library clauses parsed elsewhere (the process-wide
     *  standard library parse). They were read under their own
     *  operator table; this compiler's table does not change. */
    void addLibrary(const std::vector<ReadClause> &clauses);

    /** Set the query to compile ("goal" or "?- goal."). */
    void setQuery(const std::string &source);

    /** Compile everything into a linked image. */
    CodeImage compile();

    OperatorTable &operators() { return ops_; }

  private:
    void addSource(const std::string &source,
                   std::vector<ReadClause> &clauses);

    CompilerOptions options_;
    OperatorTable ops_;
    std::vector<ReadClause> programClauses_;
    std::vector<ReadClause> libraryClauses_;
    std::string querySource_;
};

} // namespace kcm

#endif // KCM_COMPILER_COMPILER_HH
