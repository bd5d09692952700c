/**
 * @file
 * Clause code generation: one normalized clause to KCM instructions.
 *
 * The generated code respects the KCM execution model:
 *
 *  - Head unification and guard tests never modify the argument
 *    registers, so shallow backtracking (§3.1.5) can re-try the next
 *    clause without restoring them.
 *  - The neck instruction separating head+guard from the body is where
 *    a delayed choice point is materialized.
 *  - The environment is allocated after the neck; permanent variables
 *    captured during head unification are moved into their Y slots
 *    right after allocation.
 *  - Integer arithmetic compiles to native ALU instructions (the
 *    benchmark mode of §4); generic mode escapes to the host library.
 */

#ifndef KCM_COMPILER_CODEGEN_HH
#define KCM_COMPILER_CODEGEN_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/assembler.hh"
#include "compiler/normalize.hh"
#include "prolog/term.hh"

namespace kcm
{

struct CodegenOptions
{
    /** Compile is/2 and arithmetic comparisons to native ALU code. */
    bool integerArithmetic = true;
};

/** Per-clause facts the predicate emitter provides. */
struct ClauseContext
{
    uint32_t arity = 0;
    /** Predicate has other clauses: emit a neck instruction. */
    bool hasAlternatives = false;
};

/**
 * Compiles clause bodies into an Assembler. One instance per
 * compilation unit; per-clause state is reset in compileClause().
 */
class ClauseCompiler
{
  public:
    ClauseCompiler(Assembler &assembler, const CodegenOptions &options)
        : asm_(assembler), options_(options)
    {
    }

    /** Emit the code of @p clause at the current address. */
    void compileClause(const NormClause &clause, const ClauseContext &ctx);

    /**
     * Emit a query body: like a clause body, but every variable is
     * permanent (so bindings can be collected), last-call optimization
     * is disabled, and the code ends with the collect-solution escape
     * followed by halt. @p var_order receives the named variables in
     * Y-slot order.
     */
    void compileQuery(const std::vector<TermRef> &goals,
                      std::vector<TermRef> &var_order);

  private:
    // --- analysis ---

    struct VarInfo
    {
        int firstChunk = -1;
        int lastChunk = -1;
        int occurrences = 0;
        int lastGoal = -1; ///< index of last body goal mentioning it
        bool perm = false;
        int y = -1;
        int x = -1;       ///< temp register home (-1: none)
        int argHome = -1; ///< still lives in this argument register
        bool yValid = false;
        bool heapSafe = false; ///< known to reference the global stack
        bool unsafe = false;   ///< initialized by put_variable Y
    };

    enum class GoalClass
    {
        True,
        Fail,
        Cut,
        Unify,   ///< =/2
        Is,      ///< is/2 (inline when integerArithmetic)
        Compare, ///< </2 etc. (inline when integerArithmetic)
        Call,    ///< everything else (user predicate or escape stub)
    };

    GoalClass classify(const TermRef &goal) const;
    void analyze(const NormClause &clause, bool force_all_perm);
    void noteVars(const TermRef &t, int chunk, int goal_index);
    VarInfo &info(const TermRef &var);

    // --- register management ---

    Reg newTemp();
    /** Return a structure-holder temp to the pool for reuse. */
    void releaseTemp(Reg r);
    /** Register currently holding @p var; panics if it has none. */
    Reg homeReg(const TermRef &var);
    bool hasHome(const TermRef &var) const;

    // --- head ---

    void compileHead(const TermRef &head);
    void compileHeadArg(const TermRef &t, Reg areg);
    /** Emit unify_* instructions for subterms, breadth-first;
     *  cons levels chain through unify_list. */
    void compileUnifyArgs(std::span<const TermRef> args, bool is_cons);

    // --- body ---

    void compileBody(const NormClause &clause, bool query_mode);
    void compileCallGoal(const TermRef &goal, bool is_last, bool query_mode);
    void putGoalArgs(const TermRef &goal, bool is_last_call);
    void resolveConflicts(const TermRef &goal);
    void putArg(const TermRef &t, Reg areg, bool is_last_call,
                int goal_index);
    /** Build a compound term bottom-up into @p target. */
    void buildCompound(const TermRef &t, Reg target);
    void emitUnifyChild(const TermRef &child);
    /** Materialize any term into a register (for =/2 etc.). */
    Reg termToReg(const TermRef &t);

    // --- inline goals ---

    void compileUnifyGoal(const TermRef &goal);
    void compileIsGoal(const TermRef &goal);
    void compileCompareGoal(const TermRef &goal);
    Reg evalArith(const TermRef &expr);
    /** True if this goal may sit in the guard (before the neck). */
    bool guardSafe(const TermRef &goal, GoalClass klass) const;

    void emitMove(Reg from, Reg to);
    /** Mark the most recently emitted instruction as an inference. */
    void markLast();

    Assembler &asm_;
    CodegenOptions options_;

    // per-clause state
    std::map<const Term *, VarInfo> vars_;
    std::vector<TermRef> varOrder_; ///< first-occurrence order
    uint32_t arity_ = 0;
    unsigned tempBase_ = 0;
    unsigned nextTemp_ = 0;
    std::vector<Reg> freeTemps_;
    int permCount_ = 0;
    int cutLevelY_ = -1;
    int firstCallGoal_ = -1; ///< index of first Call-class body goal
    bool inHead_ = false;    ///< compiling head unification
};

} // namespace kcm

#endif // KCM_COMPILER_CODEGEN_HH
