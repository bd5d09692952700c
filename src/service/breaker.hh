/**
 * @file
 * Per-query-shape circuit breakers.
 *
 * A query shape — the image-cache hash over (program, goal, machine
 * config) — that keeps failing will keep failing: the failure is in
 * the work itself (a goal that always blows its memory budget, a
 * program that always traps), not in transient load. Admitting more
 * instances of it burns worker time that healthy shapes are queued
 * behind. The breaker registry watches classified failures per shape
 * and trips a standard three-state breaker:
 *
 *   Closed    — normal admission; a run of `failureThreshold`
 *               *consecutive* classified failures opens the breaker
 *               (one success resets the run).
 *   Open      — admissions fast-fail with classification
 *               "circuit_open" and a retry_after_ms hint, spending
 *               zero machine cycles, until `openMs` has elapsed.
 *   Half-open — after the cooldown exactly one probe query is
 *               admitted; its success closes the breaker, its
 *               failure re-opens the cooldown. Concurrent arrivals
 *               while the probe is in flight still fast-fail.
 *
 * What counts as a failure is the *caller's* decision (recordSuccess /
 * recordFailure): the server counts classified service failures —
 * deadline_exceeded, resource_error(...), machine traps — but not
 * "interrupted" (a drain's stop) and not shed queries (which never
 * ran). A query that completes — even with a
 * program-level error term — is a success: the shape is servable.
 *
 * Thread-safe; one registry per server, shared by every connection.
 */

#ifndef KCM_SERVICE_BREAKER_HH
#define KCM_SERVICE_BREAKER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>

namespace kcm::service
{

struct BreakerOptions
{
    /** Master switch (kcm_serverd --no-breakers). */
    bool enabled = true;

    /** Consecutive classified failures that open a shape's breaker. */
    unsigned failureThreshold = 5;

    /** Cooldown before a half-open probe is admitted. Also the base
     *  of the retry_after_ms hint on fast-fails. */
    uint64_t openMs = 250;
};

/** Aggregate counters across all shapes (monotonic, except where
 *  noted). */
struct BreakerStats
{
    uint64_t opened = 0;    ///< closed → open transitions
    uint64_t reopened = 0;  ///< half-open probe failed → open again
    uint64_t closed = 0;    ///< half-open probe succeeded → closed
    uint64_t fastFails = 0; ///< admissions rejected while open
    uint64_t probes = 0;    ///< half-open probes admitted
    uint64_t openShapes = 0; ///< gauge: shapes currently open/half-open
};

class BreakerRegistry
{
  public:
    explicit BreakerRegistry(BreakerOptions options);

    /**
     * Admission gate for one query of shape @p key. Returns true to
     * fast-fail the query (breaker open; @p retry_after_ms is set to
     * the remaining cooldown), false to admit it — which may be the
     * shape's half-open probe (@p is_probe, when non-null, reports
     * which; a probe that ends without a countable outcome must be
     * released via abandonProbe or the shape stays stuck half-open).
     */
    bool shouldReject(uint64_t key, uint64_t &retry_after_ms,
                      bool *is_probe = nullptr);

    /** The admitted query of shape @p key completed servably. */
    void recordSuccess(uint64_t key);

    /** The admitted query of shape @p key failed in a way that counts
     *  against the breaker. */
    void recordFailure(uint64_t key);

    /** A half-open probe ended with a neutral outcome (shed or
     *  interrupted — the shape was never really tried):
     *  release the probe slot so the next arrival probes instead. */
    void abandonProbe(uint64_t key);

    BreakerStats stats() const;

  private:
    using Clock = std::chrono::steady_clock;

    enum class State
    {
        Closed,
        Open,
        HalfOpen,
    };

    struct Breaker
    {
        State state = State::Closed;
        unsigned consecutiveFailures = 0;
        Clock::time_point openUntil;
        bool probeInFlight = false;
    };

    BreakerOptions options_;
    mutable std::mutex mutex_;
    std::map<uint64_t, Breaker> breakers_;
    BreakerStats stats_;
};

} // namespace kcm::service

#endif // KCM_SERVICE_BREAKER_HH
