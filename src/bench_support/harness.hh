/**
 * @file
 * Benchmark harness: compiles and runs PLM-suite programs on the
 * simulated KCM under the paper's measurement conventions, and
 * formats the result tables.
 */

#ifndef KCM_BENCH_SUPPORT_HARNESS_HH
#define KCM_BENCH_SUPPORT_HARNESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench_support/plm_suite.hh"
#include "kcm/kcm.hh"

namespace kcm
{

/** Measurements of one benchmark run on the simulated KCM. */
struct BenchRun
{
    std::string name;
    bool success = false;

    // Crash isolation: a benchmark that traps, times out or throws is
    // recorded here as a failed run while the rest of a (possibly
    // parallel) suite completes normally.
    std::string failure;   ///< empty on success; structured diagnosis
    bool trapped = false;  ///< machine trap (failure holds the TrapInfo)
    bool timedOut = false; ///< wall-clock watchdog expired

    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t inferences = 0;
    double ms = 0;
    double klips = 0;

    // Engine events.
    uint64_t choicePointsCreated = 0;
    uint64_t choicePointsAvoided = 0;
    uint64_t shallowFails = 0;
    uint64_t deepFails = 0;
    uint64_t trailPushes = 0;

    // Memory behaviour.
    uint64_t dataReads = 0;
    uint64_t dataWrites = 0;
    double dcacheHitRatio = 1.0;
    double icacheHitRatio = 1.0;
    uint64_t memoryWords = 0; ///< physical traffic (words moved)

    // Static sizes of the program predicates (library excluded).
    size_t staticInstructions = 0;
    size_t staticWords = 0;

    // Host-side throughput of the simulator itself (wall time of the
    // execution phase: machine setup + warm-up + measured run).
    double hostSeconds = 0;
    double simCyclesPerHostSecond = 0;
};

/**
 * A compiled-and-linked benchmark, ready to execute. Compilation
 * interns atoms (and switch-table layouts depend on interning order),
 * so preparation always happens on one thread, in suite order; the
 * execution phase shares nothing and can run anywhere.
 */
struct PreparedBenchmark
{
    std::string name;
    CodeImage image;
    MachineConfig machine;
};

/**
 * Compile one PLM benchmark (the serial phase).
 * @param pure use the Table 3 form (I/O removed); otherwise the
 *        Table 2 form with write/nl compiled as unit clauses.
 */
PreparedBenchmark preparePlmBenchmark(const PlmBenchmark &bench, bool pure,
                                      const KcmOptions &base_options = {});

/**
 * Execute a prepared benchmark on a fresh Machine (thread-safe).
 * Never throws: traps, resource exhaustion and harness errors are
 * recorded in the returned BenchRun's failure fields.
 *
 * @param watchdog_seconds wall-clock limit for the execution phase
 *        (0 = none). Enforced by running the machine in cycle-budget
 *        slices and sampling the host clock at each Abort/resume
 *        boundary, which leaves the simulated metrics untouched.
 */
BenchRun runPrepared(const PreparedBenchmark &prep,
                     double watchdog_seconds = 0);

/** Compile and run one PLM benchmark (prepare + runPrepared). */
BenchRun runPlmBenchmark(const PlmBenchmark &bench, bool pure,
                         const KcmOptions &base_options = {},
                         double watchdog_seconds = 0);

/**
 * Run the named benchmarks. Results come back in the order of
 * @p names regardless of completion order. @p jobs > 1 compiles
 * everything serially up front, then executes on a pool of that many
 * threads (one independent Machine per benchmark); jobs <= 1 is
 * exactly the sequential compile-run-compile-run loop. A benchmark
 * that traps or exceeds @p watchdog_seconds is recorded as failed
 * (BenchRun::failure) without disturbing the other benchmarks.
 */
std::vector<BenchRun> runPlmBenchmarks(const std::vector<std::string> &names,
                                       bool pure,
                                       const KcmOptions &base_options = {},
                                       unsigned jobs = 1,
                                       double watchdog_seconds = 0);

/** Run every benchmark of the suite (name order). */
std::vector<BenchRun> runPlmSuite(bool pure,
                                  const KcmOptions &base_options = {},
                                  unsigned jobs = 1,
                                  double watchdog_seconds = 0);

/** Parse a --jobs N argument list for the bench drivers: returns
 *  hardware_concurrency by default, N after "--jobs N". */
unsigned benchJobsFromArgs(int argc, char **argv);

/** Parse a --timeout SECONDS argument for the bench drivers: the
 *  per-benchmark wall-clock watchdog (0 = off, the default). */
double benchWatchdogFromArgs(int argc, char **argv);

/** Exit code for drivers whose run ended in traps/timeouts (kept
 *  distinct from 1, the metrics-mismatch code). */
constexpr int benchTrapExitCode = 2;

/** Driver exit code for a finished suite: benchTrapExitCode when any
 *  run failed (trap, timeout, compile error), else 0. */
int benchExitCode(const std::vector<BenchRun> &runs);

// --- table formatting ---

/** Simple fixed-width table printer. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);
    /** Render with a separator under the header. */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format helpers for table cells. */
std::string cellInt(uint64_t v);
std::string cellFixed(double v, int digits);
std::string cellRatio(double v);

} // namespace kcm

#endif // KCM_BENCH_SUPPORT_HARNESS_HH
