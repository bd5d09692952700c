/**
 * @file
 * Warm snapshot-template cache for the always-on query server.
 *
 * The paper's workflow pays a full compile + static link + download
 * for every query (§3: the compiler links the whole consulted program
 * with the goal into one image). A serving deployment sees the same
 * (program, goal) pair over and over; this cache memoises the
 * *post-download machine state* as a snapshot template keyed
 * by a content hash of (program text, goal text, machine-config
 * fingerprint). A hit restores the template into a pooled machine —
 * zero recompilation, zero re-linking — and, because restoreSnapshot
 * verifies every section checksum before mutating the machine, a
 * corrupt cache entry can only ever produce a classified
 * "corrupt_image_template" failure, never a wrong answer.
 *
 * Safety/robustness contract:
 *  - entries are immutable shared buffers (std::shared_ptr<const
 *    Snapshot>); concurrent sessions restore from the same bytes and
 *    never write them;
 *  - lookup() does not verify: the restore is the one checksum pass
 *    per hit, and on its "corrupt_image_template" the server evicts
 *    the entry (evict()), recompiles and resubmits the query once;
 *  - the cache is LRU under a byte budget: inserting past the budget
 *    evicts least-recently-used templates first;
 *  - corruptOneForTesting() is the chaos hook: it *replaces* an entry
 *    with a bit-flipped copy under the cache lock (in-place mutation
 *    of a shared buffer would race concurrent restores);
 *  - an entry may also hold one remembered outcome (remember()): the
 *    machine is deterministic, so a template that completed, or ran
 *    into a trap or resource error, under a given solution cap will
 *    end the same way again. Its bytes count against the budget, and
 *    it lives and dies with its entry: eviction drops it, insert() and
 *    the corruption hook drop it, and a zero budget remembers nothing.
 */

#ifndef KCM_SERVICE_IMAGE_CACHE_HH
#define KCM_SERVICE_IMAGE_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/machine_config.hh"
#include "core/snapshot.hh"
#include "service/session.hh"

namespace kcm::service
{

/** Cache-observable counters (monotonic; snapshot under the lock). */
struct ImageCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;        ///< LRU budget evictions
    uint64_t corruptEvictions = 0; ///< evict() after a refused restore
    uint64_t bytes = 0;            ///< resident template + outcome bytes
    uint64_t entries = 0;
};

/**
 * Content-hash key for one warm template. The machine configuration
 * participates because the dispatch core and memory geometry are
 * baked into the snapshot's restore target; two tenants with
 * different configs must never share a template.
 */
uint64_t imageCacheKey(const std::string &program,
                       const std::string &goal,
                       const MachineConfig &config);

/** How a query run from a cached template ended: every field of its
 *  reply but "id", "cache" and "wall_ms". Kept with the template, it
 *  answers the same query under the same solution cap without running
 *  again. */
struct RememberedOutcome
{
    size_t maxSolutions = 0; ///< the run's effective solution cap
    bool completed = false;  ///< else failed, as failure says

    // A completed run (QueryOutcome's fields of the same names).
    bool success = false;
    std::vector<std::string> answers;
    std::string output;
    bool halted = false;
    std::string error;
    uint64_t dbOps = 0;      ///< durable runs only: never remembered
    uint64_t dbCommitId = 0;

    FailureReport failure;   ///< a failed run

    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t inferences = 0;

    /** What it holds, as counted against the cache budget. */
    uint64_t bytes() const;
};

class ImageCache
{
  public:
    /** @p budget_bytes bounds resident template bytes (0 disables
     *  caching entirely: every lookup misses, inserts are dropped). */
    explicit ImageCache(uint64_t budget_bytes);

    /**
     * Fetch the template for @p key, bumping its LRU position, without
     * verifying it (the restore does). Returns nullptr on miss. On a
     * hit, @p outcome (when non-null) receives the entry's remembered
     * outcome, null when it has none.
     */
    std::shared_ptr<const Snapshot>
    lookup(uint64_t key,
           std::shared_ptr<const RememberedOutcome> *outcome = nullptr);

    /**
     * Insert (or replace, dropping any remembered outcome) the
     * template for @p key, then evict LRU entries until the byte
     * budget holds. The snapshot is stored as an immutable shared
     * buffer, which is also returned so the inserting query can run
     * from it without a second lookup (and still can when a zero
     * budget made the insert a no-op).
     */
    std::shared_ptr<const Snapshot> insert(uint64_t key,
                                           Snapshot snapshot);

    /** Keep @p outcome with @p key's entry, replacing any earlier
     *  one, then evict LRU entries until the byte budget holds;
     *  nothing is kept when the key has no entry. */
    void remember(uint64_t key,
                  std::shared_ptr<const RememberedOutcome> outcome);

    /** Drop @p key if present (after a worker reported
     *  "corrupt_image_template": its restore refused the template).
     *  Returns true if an entry was evicted. */
    bool evict(uint64_t key);

    /**
     * Chaos hook: replace the most-recently-used entry with a copy
     * whose payload has one bit flipped (the container keeps its
     * declared lengths, so the corruption is only catchable by the
     * checksums), and drop its remembered outcome, so that the next
     * query of its shape restores it. Returns the number of entries
     * corrupted (0 or 1).
     */
    size_t corruptOneForTesting();

    ImageCacheStats stats() const;

  private:
    struct Entry
    {
        uint64_t key = 0;
        std::shared_ptr<const Snapshot> snap;
        uint64_t bytes = 0; ///< the template's and the outcome's
        std::shared_ptr<const RememberedOutcome> outcome;
    };

    void dropOutcomeLocked(Entry &entry);
    void evictLruLocked();
    void fitBudgetLocked();

    const uint64_t budgetBytes_;

    mutable std::mutex mutex_;
    /** MRU at front. */
    std::list<Entry> lru_;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
    ImageCacheStats stats_;
};

} // namespace kcm::service

#endif // KCM_SERVICE_IMAGE_CACHE_HH
