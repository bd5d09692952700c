/**
 * @file
 * The generated traffic of the serve_* workloads. The daemon run and
 * the in-process traced replay draw their requests from here, so the
 * replay sees the same inputs as the daemon did.
 */

#ifndef KCM_PERFBENCH_WORKLOAD_HH
#define KCM_PERFBENCH_WORKLOAD_HH

#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench
{

/** Small programs with ground answers: the service's fixed cost, not
 *  simulation, dominates each query. */
inline const char *serveProgram = R"PROLOG(
sumto(0, 0).
sumto(N, S) :- N > 0, M is N - 1, sumto(M, T), S is T + N.
mklist(0, []).
mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
rev([], []).
rev([H|T], R) :- rev(T, RT), app(RT, [H], R).
suml([], A, A).
suml([H|T], A, S) :- B is A + H, suml(T, B, S).
revsum(N, S) :- mklist(N, L), rev(L, R), suml(R, 0, S).
fib(0, 0).
fib(1, 1).
fib(N, F) :- N > 1, A is N - 1, B is N - 2, fib(A, FA), fib(B, FB),
             F is FA + FB.
)PROLOG";

/** The durable workload's counters: bump/1 is a journaled write. */
inline const char *durableProgram =
    "bump(K) :- retract(cnt(K, V)), W is V + 1, assertz(cnt(K, W)).\n";

constexpr int durableKeys = 16;

/** One generated query. */
struct Request
{
    std::string program;
    std::string goal;
    size_t shape = 0; ///< index into ServeWorkload::goals
    bool write = false;
    int key = -1;     ///< durable counter key
};

struct ServeWorkload
{
    enum class Kind
    {
        Warm,
        Cold,
        Durable,
    };

    Kind kind = Kind::Warm;
    std::string program;
    /** Fixed query shapes: the warm/cold goals, or for durable the 16
     *  bump(K) writes followed by the 16 cnt(K, V) reads. */
    std::vector<std::string> goals;
    std::string facts; ///< durable --db-facts text

    explicit ServeWorkload(const std::string &name)
    {
        if (name == "serve_durable") {
            kind = Kind::Durable;
            program = durableProgram;
            for (int k = 0; k < durableKeys; ++k)
                goals.push_back("bump(" + std::to_string(k) + ")");
            for (int k = 0; k < durableKeys; ++k) {
                goals.push_back("cnt(" + std::to_string(k) + ", V)");
                facts += "cnt(" + std::to_string(k) + ", 0).\n";
            }
            return;
        }
        kind = name == "serve_cold" ? Kind::Cold : Kind::Warm;
        program = serveProgram;
        goals = {"sumto(60, S)",   "sumto(150, S)", "revsum(10, S)",
                 "revsum(18, S)",  "revsum(26, S)", "fib(8, F)",
                 "fib(11, F)",     "sumto(240, S)"};
    }

    /** Whether set-up primes every shape into the daemon's cache. */
    bool primes() const { return kind != Kind::Cold; }

    /**
     * The daemon's image-cache budget. serve_cold runs with a small one
     * that its warm-up fills (about 40 templates of 380 KB), so every
     * measured miss also evicts and the daemon's peak memory no longer
     * grows with how many requests a run got through.
     */
    uint64_t cacheMb() const { return kind == Kind::Cold ? 16 : 256; }

    /**
     * The next request of one client stream. Cold requests append one
     * fact unique to (seed, stream, sequence), so every program text —
     * and with it every image-cache key — is new.
     */
    Request
    next(Rng &rng, uint64_t seed, unsigned stream, uint64_t sequence) const
    {
        Request r;
        r.program = program;
        if (kind == Kind::Durable) {
            r.write = rng.below(2) == 0;
            r.key = int(rng.below(durableKeys));
            r.shape = size_t(r.key) + (r.write ? 0 : durableKeys);
        } else {
            r.shape = size_t(rng.below(goals.size()));
            if (kind == Kind::Cold)
                r.program += "pad(" + std::to_string(seed) + ", " +
                             std::to_string(stream) + ", " +
                             std::to_string(sequence) + ").\n";
        }
        r.goal = goals[r.shape];
        return r;
    }
};

/** Seed of client stream @p stream (the replay samples stream 0). */
inline uint64_t
streamSeed(uint64_t seed, unsigned stream)
{
    return seed * 0x100000001b3ull + stream * 0x9e3779b97f4a7c15ull + 1;
}

/**
 * Expected outcome of each shape, computed in-process before the
 * measured window: the baseline interpreter's answers and the cycles of
 * an in-process compile + load + run of the same image.
 */
struct ShapeOracle
{
    std::vector<std::string> answers; ///< ";"-joined, per shape
    std::vector<uint64_t> cycles;     ///< per shape
};

ShapeOracle buildOracle(const ServeWorkload &w);

/** In-process traced replay of a sample of the workload's requests;
 *  fills the replay-derived per-layer metrics. */
void replayTraced(const Options &opt, const ServeWorkload &w,
                  const ShapeOracle &oracle, double daemon_p50_ms,
                  Report &report);

} // namespace perfbench

#endif // KCM_PERFBENCH_WORKLOAD_HH
