/**
 * @file
 * KcmSystem: the public API of the KCM reproduction.
 *
 * Mirrors the system environment of Fig. 1: the host compiles, links
 * and downloads Prolog programs; KCM executes them; the host serves
 * I/O. Typical use:
 *
 * @code
 *   kcm::KcmSystem system;
 *   system.consult("append([],L,L). "
 *                  "append([H|T],L,[H|R]) :- append(T,L,R).");
 *   auto result = system.query("append([1,2],[3],X)");
 *   // result.solutions[0].toString() == "X = [1,2,3]"
 *   // result.cycles, result.seconds, result.klips, result.inferences
 * @endcode
 *
 * query() compiles the goal against the consulted program and hands
 * the image to run(), which also runs a linked image saved earlier
 * (kcm_run --load). run() downloads the image to a fresh machine and
 * collects solutions through Machine::solutions, the one host loop;
 * an optional stop callback, asked at slice boundaries, ends the run
 * early (kcm_run's SIGINT/SIGTERM and deadline).
 */

#ifndef KCM_KCM_HH
#define KCM_KCM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compiler.hh"
#include "core/machine.hh"

namespace kcm
{

/** Everything a query run produces. */
struct QueryResult
{
    bool success = false;             ///< at least one solution
    std::vector<Solution> solutions;  ///< collected solutions
    std::string output;               ///< captured write/1 output

    /** True when the program executed halt/0 (the run stopped without
     *  exhausting alternatives). */
    bool halted = false;

    /** True when the run's stop callback ended it at a slice boundary
     *  (SIGINT/SIGTERM or a deadline in kcm_run); the collected
     *  solutions are a valid partial result. */
    bool interrupted = false;

    /** True when the run ended in a machine trap instead of a normal
     *  halt/fail; @ref trap then holds the structured report. */
    bool trapped = false;
    TrapInfo trap;
    /**
     * Structured diagnosis, empty on a clean run — always a valid,
     * re-readable Prolog term: "resource_error(<kind>)" for governor
     * exhaustion (cycle budget, stack ceiling) that no catch/3
     * intercepted, "unhandled_exception(<ball>)" for an uncaught
     * throw/1, "machine_trap(<kind>)" for everything else.
     */
    std::string error;

    // Measurements of the run (first solution unless all requested).
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t inferences = 0;
    double seconds = 0;
    double klips = 0;
    /** Governed data-zone footprint at the end of the run (the
     *  quantity ResourceGovernor::memoryBudgetBytes bounds). */
    uint64_t residentBytes = 0;
};

struct KcmOptions
{
    CompilerOptions compiler;
    MachineConfig machine;
    /** Collect at most this many solutions (default: first only;
     *  0 = all solutions). */
    size_t maxSolutions = 1;
};

/**
 * A complete KCM installation: compiler + machine. Each query is
 * compiled together with the consulted program (static linking) and
 * downloaded to a freshly reset machine, as the paper's benchmark
 * flow did.
 */
class KcmSystem
{
  public:
    explicit KcmSystem(const KcmOptions &options = {});
    ~KcmSystem();

    /** Add program text (clauses and directives). */
    void consult(const std::string &source);

    /**
     * Consult the bundled standard library (append/3, member/2,
     * length/2, between/3, once/1, ... — see kcm/stdlib.hh), excluded
     * from static code sizes. The compiler gets the process-wide unit
     * for this system's code options (standardLibraryUnit(): parsed
     * and compiled once, shared read-only across threads), never the
     * text, so the library always reads under the standard operator
     * table, whatever op/3 directives the sources consulted before it
     * define. A compile normalises and emits only the program and
     * links the unit's code after it; a program that redefines a
     * library predicate compiles the library's clauses with its own.
     * Either way the image is the one a compile of the text under the
     * standard table gives, byte for byte.
     */
    void consultStandardLibrary();

    /**
     * Preload a fact file into the dynamic clause store (the
     * `--db-facts` path of kcm_run/kcm_serverd). Every clause must be
     * a plain fact — an atom or a compound of arity ≤
     * db::maxDynamicArity, no `:-` rules, no directives; the facts'
     * predicates are implicitly declared dynamic and the store is
     * seeded in file order when a query's machine loads. A malformed
     * clause (unreadable syntax, a rule, a non-callable term, or an
     * over-arity head) aborts with a fatal diagnostic naming @p origin
     * and the offending clause — nothing is partially loaded.
     */
    void preloadFacts(const std::string &source,
                      const std::string &origin = "db-facts");

    /**
     * The text preloadFacts() consults: @p facts (as parseFactFile()
     * returns them) re-rendered canonically — quoted, ignoring
     * operators — after their factDeclarations(). A server renders it
     * once and consults it on every compile.
     */
    static std::string canonicalFacts(const std::vector<TermRef> &facts);

    /**
     * The validation half of preloadFacts(): parse @p source and
     * return the validated facts in file order, enforcing the same
     * facts-only rules (and the same all-or-nothing fatal diagnostics
     * naming @p origin). Used directly by the durable-database server
     * path, which seeds a journaled store once instead of carrying the
     * facts in every compiled image.
     */
    static std::vector<TermRef> parseFactFile(const std::string &source,
                                              const std::string &origin);

    /**
     * Canonical `:- dynamic(name/arity).` declaration text for the
     * predicate set of @p facts (sorted, deduplicated). In durable
     * mode the server consults only these declarations — the compiled
     * image keeps its dynamic-dispatch stubs while the facts
     * themselves live in the journaled store.
     */
    static std::string factDeclarations(const std::vector<TermRef> &facts);

    /** Compile and run a query: run(compileOnly(goal), ...). */
    QueryResult query(const std::string &goal,
                      const std::function<bool()> &stop = {},
                      uint64_t slice_cycles = 4'000'000);

    /**
     * Download @p image to a fresh machine under this system's config
     * and collect up to maxSolutions (Machine::solutions). With
     * @p stop set, the run goes in host slices of @p slice_cycles
     * simulated cycles and asks stop() at each boundary; when it
     * returns true the run ends there with the solutions collected so
     * far and QueryResult::interrupted set. Slice stops are pure host
     * machinery, so every simulated metric equals an unsliced run's.
     */
    QueryResult run(const CodeImage &image,
                    const std::function<bool()> &stop = {},
                    uint64_t slice_cycles = 4'000'000);

    /** Compile the current program plus @p goal without running. */
    CodeImage compileOnly(const std::string &goal);

    /** The machine of the last query or run (valid until the next). */
    Machine &machine();

    const KcmOptions &options() const { return options_; }

  private:
    /** One consulted source, in consult order: program text, or the
     *  standard library. */
    struct Source
    {
        std::string text;
        bool library = false;
    };

    KcmOptions options_;
    std::vector<Source> sources_;
    std::unique_ptr<Machine> machine_;
};

} // namespace kcm

#endif // KCM_KCM_HH
