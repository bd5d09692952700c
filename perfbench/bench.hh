/**
 * @file
 * Shared pieces of the repository benchmark: options, the result
 * record, sample statistics and the in-memory span tracer.
 *
 * Tracing follows one rule: spans are recorded only from the
 * benchmark's own code, around calls into each layer's public
 * functions. The program itself is never instrumented, so a run with
 * tracing off measures exactly what a user of the system sees.
 */

#ifndef KCM_PERFBENCH_BENCH_HH
#define KCM_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <time.h>

namespace kcm
{
class Machine;
}

namespace perfbench
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string serverd; ///< kcm_serverd binary
    std::string workdir; ///< scratch directory inside the checkout
};

/** What one run measured, plus its correctness verdict. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> divergences; ///< correctness-gate failures
    std::map<std::string, double> metrics;

    void
    diverge(std::string what)
    {
        if (divergences.size() < 20)
            divergences.push_back(std::move(what));
        else if (divergences.size() == 20)
            divergences.push_back("... further divergences suppressed");
    }
    bool correct() const { return divergences.empty(); }
};

inline uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

/** Unmeasured load before each measured window, so start-up
 *  transients of the host and the program stay out of the figures. */
constexpr double warmupSeconds = 2.0;

/**
 * Whether set-up should run again: setup_s is the fastest of at least
 * five set-ups, each on the next CPU in turn, and cheap ones repeat
 * until a second of CPU time has gone by (at most 40 times).
 */
inline bool
moreSetups(const std::vector<double> &done_s)
{
    double total = 0;
    for (double s : done_s)
        total += s;
    return done_s.size() < 5 || (total < 1.0 && done_s.size() < 40);
}

/** Nearest-rank percentile of an ascending-sorted sample (q in (0,1]). */
double percentile(const std::vector<double> &sorted, double q);

/** Median of an unsorted sample (0 when empty). */
double median(std::vector<double> values);

/** Median, p99 and sum of a sample of per-request times. */
struct Timing
{
    size_t count = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    double totalS = 0;
    size_t beyondP99 = 0; ///< samples above the p99 rank

    explicit Timing(std::vector<double> ms);
};

/**
 * CPU time of the calling thread in ns. The host this runs on is
 * shared: time it gives to other processes, or through steal to other
 * guests, does not count, so CPU time stays steady where wall time
 * swings with the neighbours' load.
 */
uint64_t threadCpuNs();

/**
 * Moves the measuring threads round the CPUs this process may use. On
 * a shared host, how much other tenants slow a core differs from core
 * to core and changes every few seconds; a pass that stays on one core
 * can spend all its time on a loaded one. Rotating gives every shape
 * runs on whichever core is quiet at the time, and its fastest run is
 * then what the work costs. Where affinity cannot be set, hop() does
 * nothing.
 */
class CpuRotation
{
  public:
    CpuRotation();

    /** Pin the calling thread, and every thread of @p pid when
     *  nonzero, to the next CPU in turn. */
    void hop(long pid = 0);

    size_t cpus() const { return cpus_.size(); }

  private:
    std::vector<int> cpus_;
    size_t next_ = 0;
};

/**
 * The fastest CPU time of each class of request in a run. A class is
 * one kind of request whose work is fixed — a PLM program, a query
 * goal — so its fastest run is the cost of that work with the host's
 * contention taken out. Classes weigh equally, so the seeded mix of a
 * run does not move the figures.
 */
class BestTimes
{
  public:
    /** One request of class @p cls: its CPU time and simulated cycles. */
    void add(size_t cls, double cpu_ms, uint64_t cycles);

    /** Mean over the classes of each one's fastest time. */
    double perRequestMs() const;

    /** Simulated Mcycles per CPU-second over one request of each class
     *  at its fastest. */
    double mcycPerCpuS() const;

    /** Fewest requests any class had. */
    size_t fewestSamples() const;

  private:
    struct Class
    {
        double bestMs = 1e300;
        size_t count = 0;
        double cycles = 0; ///< summed over the class's requests
    };
    std::vector<Class> classes_;
};

/** CPU time of every thread of another process, exited ones included. */
class ProcessCpu
{
  public:
    explicit ProcessCpu(long pid);
    uint64_t ns() const;

  private:
    clockid_t clock_;
};

/** Peak resident set (VmHWM) of @p pid in MB; 0 if unreadable. */
double peakRssMb(long pid);

/** Every simulated statistic of one run. A host-only change must leave
 *  all of them identical. */
struct SimSig
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t inferences = 0;
    uint64_t dcacheHits = 0;
    uint64_t dcacheAccesses = 0;
    uint64_t icacheHits = 0;
    uint64_t icacheAccesses = 0;
    uint64_t memoryWords = 0;

    bool operator==(const SimSig &) const = default;
    SimSig &operator+=(const SimSig &o);
};

/** The statistics @p m gathered since its last load/resetMeasurement. */
SimSig signatureOf(kcm::Machine &m);

/** splitmix64: the benchmark's only source of generated inputs. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t state_;
};

/** One traced call: name, interval, causing span and request id. */
struct Span
{
    const char *name = "";
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    int64_t parent = -1; ///< index into the span list, -1 = root
    uint64_t request = 0;
};

/** Per-name totals derived from the spans. */
struct SpanTotals
{
    uint64_t count = 0;
    double totalMs = 0; ///< summed durations
    double selfMs = 0;  ///< durations minus time covered by children
};

/**
 * In-memory span recorder. Spans nest through an explicit stack; a
 * span may also name a parent outside the stack (the sibling probes
 * that split Session::run). When disabled every call is a no-op, so
 * the same replay code gives the untraced baseline.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled)
    {
        if (enabled_)
            spans_.reserve(1 << 16);
    }

    bool enabled() const { return enabled_; }

    int64_t begin(const char *name, uint64_t request, int64_t parent);
    void end(int64_t id);

    /** Run @p fn inside a span named @p name (child of the open span). */
    template <class Fn>
    decltype(auto)
    span(const char *name, uint64_t request, Fn &&fn)
    {
        struct Closer
        {
            Tracer &t;
            int64_t id;
            ~Closer() { t.end(id); }
        } closer{*this, begin(name, request, kStackParent)};
        return fn();
    }

    /** Index of the most recently begun span (for explicit parents). */
    int64_t last() const { return int64_t(spans_.size()) - 1; }

    std::map<std::string, SpanTotals> totals() const;

    /** Write every span as one JSON line; false on I/O failure. */
    bool write(const std::string &path) const;

    /** Print count, total and self time per span name to stdout. */
    void printTotals() const;

    static constexpr int64_t kStackParent = -2;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int64_t> stack_;
};

/** Workload entry points (each fills the metrics of its mode). */
Report runSimPlm(const Options &opt);
Report runServe(const Options &opt);

} // namespace perfbench

#endif // KCM_PERFBENCH_BENCH_HH
