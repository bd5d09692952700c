/**
 * @file
 * Reference Prolog interpreter (the software baseline).
 *
 * A straightforward structure-copying SLD-resolution interpreter over
 * the front end's term representation. It plays two roles:
 *
 *  - a differential-testing oracle: the KCM simulator and this
 *    interpreter must agree on every solution;
 *  - a "portable software system on a general-purpose CPU" comparison
 *    point, measured in wall-clock time (the role QUINTUS/SUN3 plays
 *    in Table 3).
 *
 * It is deliberately *not* a WAM: no compilation, no argument
 * registers, no clause indexing — just clause renaming, unification
 * with a trail, and chronological backtracking.
 */

#ifndef KCM_BASELINE_INTERP_HH
#define KCM_BASELINE_INTERP_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/clause_store.hh"
#include "prolog/operators.hh"
#include "prolog/parser.hh"
#include "prolog/term.hh"

namespace kcm::baseline
{

/** A runtime term cell. Variables are mutable bindable cells. */
struct Cell
{
    enum class Kind
    {
        Var,
        Atom,
        Int,
        Float,
        Struct,
    };

    Kind kind = Kind::Var;
    Cell *ref = nullptr; ///< Var: binding (null = unbound)
    AtomId functor = 0;  ///< Atom / Struct
    int64_t intValue = 0;
    double floatValue = 0;
    std::vector<Cell *> args;
};

/** One solution from the interpreter. */
struct InterpSolution
{
    std::vector<std::pair<std::string, TermRef>> bindings;

    std::string toString() const;
};

struct InterpResult
{
    bool success = false;
    std::vector<InterpSolution> solutions;
    std::string output;

    /** True when the program executed halt/0 (search abandoned). */
    bool halted = false;

    /** Uncaught throw/1 ball, formatted exactly like the KCM
     *  machine's diagnosis: "unhandled_exception(<ball>)" with the
     *  ball in writeq notation. Empty on a clean run. */
    std::string error;

    uint64_t inferences = 0;
    double seconds = 0; ///< wall-clock
};

/** The interpreter: consult sources, then run queries. */
class Interpreter
{
  public:
    Interpreter();
    ~Interpreter();

    void consult(const std::string &source);

    /** Run @p goal; collect up to @p max_solutions. The solver
     *  recurses once per inference, so it runs on a thread of its own
     *  with a 1 GiB stack, whatever the caller's stack is. */
    InterpResult query(const std::string &goal, size_t max_solutions = 1);

    /** Replace the dynamic clause store (e.g. to share a preloaded or
     *  snapshot-restored store with a Machine under differential
     *  test). The interpreter owns one of its own by default. */
    void attachDynamicDb(std::shared_ptr<db::ClauseStore> store);

    /**
     * Arena-byte ceiling (0 = unlimited), mirroring the machine
     * governor's memoryBudgetBytes: exceeding it throws a catchable
     * resource_error(memory) ball, the same term all three engines
     * raise for memory exhaustion. The scale differs from the
     * machine's zone accounting (interpreter cells vs simulated
     * words); the contract is the identical ball, not an identical
     * byte count.
     */
    void setMemoryBudgetBytes(uint64_t bytes);

    /** The store backing dynamic/1 predicates for this interpreter. */
    const std::shared_ptr<db::ClauseStore> &dynamicDb() const;

  private:
    /** query()'s body, on the calling thread's stack. */
    InterpResult queryOnThisStack(const std::string &goal,
                                  size_t max_solutions);

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace kcm::baseline

#endif // KCM_BASELINE_INTERP_HH
