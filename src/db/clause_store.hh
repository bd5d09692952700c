/**
 * @file
 * Runtime dynamic clause store with first-argument deep indexing.
 *
 * One store instance backs `dynamic/1` predicates for one engine
 * (Machine or baseline Interpreter). Clauses live in per-predicate
 * lists ordered by a signed sequence number (asserta allocates below
 * the minimum, assertz above the maximum), threaded through a
 * deterministic skiplist so ordered traversal, ordered retract and
 * seek-past-cursor are O(log n). On top of the sequence order sits a
 * first-argument index: clauses whose head's first argument is a
 * constant or a functor hash into per-key buckets (each bucket its own
 * skiplist over the same sequence numbers), clauses with a variable
 * first argument go to a separate always-consulted list, and a lookup
 * with a bound first argument merges its key bucket with the variable
 * list in sequence order. Both index layers can be disabled
 * independently (DynDbConfig) for the EXPERIMENTS.md ablation:
 * hash off degrades lookup to a master-list scan, skiplist off
 * degrades every seek to a level-0 linear walk.
 *
 * ISO logical update view: the store keeps a generation counter
 * bumped by every assert/retract; a clause is visible to a goal that
 * captured generation G iff `birth <= G < death`. Retract never
 * unlinks — it stamps the death generation — so the visible set at
 * any captured G is immutable and cursors survive arbitrary
 * concurrent-in-the-Prolog-sense mutation (retract while iterating,
 * assert during backtracking). Dead clauses are unlinked only by
 * reclaim(), once no goal can hold an older generation: a durable
 * store (db::JournaledStore) reclaims what each commit retracted, so
 * its size and its lookups' scanned counts track the live clauses, not
 * the history of retracts.
 *
 * Determinism contract: lookups report how many index nodes they
 * touched (`LookupResult::scanned`) and the engines charge simulated
 * cycles per touched node, so indexing shows up in simulated KLIPS.
 * Skiplist node height is a pure function of the node's sequence
 * number (not of insertion order or any PRNG state), so a store
 * rebuilt from a snapshot template reproduces the exact node heights
 * — and therefore the exact scanned counts and cycles — of the
 * original. Instances are not thread-safe; each session owns its own.
 */

#ifndef KCM_DB_CLAUSE_STORE_HH
#define KCM_DB_CLAUSE_STORE_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/checksum.hh"
#include "prolog/atom_table.hh"
#include "prolog/term.hh"

namespace kcm::db
{

/** Hard cap on dynamic-predicate arity: the machine parks its clause
 *  iterator (generation, cursor seq, functor) in the three X registers
 *  after the arguments, so arity + 3 must fit the register file. Both
 *  engines raise representation_error(max_arity) above this. */
constexpr uint32_t maxDynamicArity = 45;

/** Index ablation toggles + the simulated cost model, part of
 *  MachineConfig so the image cache keys on it. */
struct DynDbConfig
{
    /** First-argument hash buckets. Off: every lookup scans the
     *  predicate's master sequence list. */
    bool hashIndex = true;

    /** Skiplist express lanes above level 0. Off: every seek walks
     *  the level-0 chain linearly. */
    bool skiplist = true;

    /** Simulated cycles charged per index node touched during a
     *  store lookup (the "microcoded clause-selection step" of the
     *  dynamic-dispatch firmware; see DESIGN.md). */
    unsigned scanCycles = 2;

    /** Simulated cycles charged per assert/retract for the
     *  incremental re-index write. */
    unsigned updateCycles = 8;
};

/** First-argument index key. `Any` covers variable first arguments,
 *  arity-0 predicates, and (on lookup) an unbound caller argument. */
struct ArgKey
{
    enum class Kind : uint8_t
    {
        Any,
        Int,     ///< payload a = int64 value
        Float,   ///< payload a = bit pattern of float(value)
        Atom,    ///< payload a = AtomId ([] keys as the nil atom)
        Functor, ///< payload a = name AtomId, b = arity ('.'/2 = lists)
    };

    Kind kind = Kind::Any;
    uint64_t a = 0;
    uint64_t b = 0;

    bool
    operator==(const ArgKey &o) const
    {
        return kind == o.kind && a == o.a && b == o.b;
    }

    bool isAny() const { return kind == Kind::Any; }

    /** Key under which a clause head files: first argument of @p head
     *  (Any when the head has no arguments or a variable first one).
     *  Floats key on the bit pattern of the value narrowed to float,
     *  matching the machine's 32-bit float words. */
    static ArgKey forHead(const TermRef &head);

    /** Key a caller's (dereferenced) first argument selects. */
    static ArgKey forTerm(const TermRef &arg);
};

struct ArgKeyHash
{
    size_t
    operator()(const ArgKey &k) const
    {
        uint64_t h = fnvLegacyBasis;
        auto mix = [&h](uint64_t v) {
            h ^= v;
            h *= fnvPrime;
        };
        mix(static_cast<uint64_t>(k.kind));
        mix(k.a);
        mix(k.b);
        return static_cast<size_t>(h);
    }
};

/** One stored clause. `body` is null for facts. Head and body share
 *  variables by TermRef pointer *and* by name (the store
 *  canonicalizes on insert), so both the machine's importTerm and the
 *  baseline's instantiate see the same sharing. */
struct StoredClause
{
    int64_t seq = 0;      ///< ordering key (asserta < 0 side, assertz > 0)
    uint64_t birth = 0;   ///< generation the clause became visible
    uint64_t death = ~0ull; ///< generation it stopped being visible
    TermRef head;
    TermRef body;         ///< null for facts

    bool
    visibleAt(uint64_t gen) const
    {
        return birth <= gen && gen < death;
    }
};

/**
 * One recorded mutation. Produced by the transaction machinery below
 * (and by the journal's record decoder): replaying a TxnOp sequence
 * against an empty store via assertClause()/eraseClause() rebuilds
 * the exact original — same sequence numbers, same generation
 * counters, same skiplist heights, same scanned counts.
 */
struct TxnOp
{
    enum class Kind : uint8_t
    {
        AssertZ = 0,
        AssertA = 1,
        Erase = 2,
    };

    Kind kind = Kind::AssertZ;
    Functor f{};
    TermRef head;  ///< asserts only (store-canonicalized)
    TermRef body;  ///< asserts only; null = fact
    /** Sequence number the op touched — allocated by assert, target
     *  of erase. Replay verifies asserts land on the same seq. */
    int64_t seq = 0;
    /** Txn-internal: this assert interned the predicate, so rollback
     *  must drop the Pred entirely (isKnown() and the serialized
     *  payload would otherwise diverge). Not serialized. */
    bool createdPred = false;
};

class ClauseStore
{
  public:
    explicit ClauseStore(DynDbConfig config = {});
    ~ClauseStore();

    ClauseStore(const ClauseStore &) = delete;
    ClauseStore &operator=(const ClauseStore &) = delete;

    const DynDbConfig &config() const { return config_; }

    /** Mark @p f dynamic (idempotent). Asserting also marks. */
    void declareDynamic(const Functor &f);

    /** True when @p f was declared dynamic or has ever been asserted
     *  to — i.e. calls should dispatch into the store, not report an
     *  undefined predicate. */
    bool isKnown(const Functor &f) const;

    /** Current generation (bumped by every assert/retract). A goal
     *  captures this once at call time and passes it to every
     *  first()/next() it performs. */
    uint64_t generation() const { return generation_; }

    /**
     * Insert a clause (head :- body; null @p body = fact) at the
     * front (@p at_front, asserta) or back (assertz) of @p f's
     * chain. Bumps the generation; the new clause is visible only to
     * goals that start after this call. Variables are canonicalized
     * to fresh shared-by-name-and-pointer nodes.
     */
    const StoredClause &assertClause(const Functor &f, const TermRef &head,
                                     const TermRef &body, bool at_front);

    /** Stamp clause @p seq of @p f dead at a fresh generation
     *  (retract). The node stays in every index as a tombstone so
     *  older goals still see it. No-op if already dead or absent. */
    void eraseClause(const Functor &f, int64_t seq);

    struct LookupResult
    {
        const StoredClause *clause = nullptr;
        /** Index nodes touched: skiplist seek hops + level-0 scan
         *  steps across every list consulted. The engines charge
         *  `scanCycles * scanned` simulated cycles. */
        uint64_t scanned = 0;
    };

    /** First clause of @p f visible at @p gen whose head can match a
     *  first argument selecting @p key (bucket ∪ variable-head list,
     *  merged in sequence order; Any or hash-off consults the master
     *  list). */
    LookupResult first(const Functor &f, const ArgKey &key,
                       uint64_t gen) const;

    /** Next candidate after sequence number @p after_seq. Stateless:
     *  re-seeks past the cursor, so callers only persist the seq. */
    LookupResult next(const Functor &f, const ArgKey &key, uint64_t gen,
                      int64_t after_seq) const;

    /** Live-clause count of @p f at the current generation (0 when
     *  unknown). Linear in the chain; for tests and stats. */
    uint64_t liveClauseCount(const Functor &f) const;

    /** Predicates known to the store, name/arity ordered. */
    std::vector<Functor> knownPredicates() const;

    /** Total asserts + retracts performed (for stats/tests). */
    uint64_t updateCount() const { return updates_; }

    // -- serialization (snapshot template section payload) ----------
    //
    // Binary, byte-stable: predicates in first-intern order, clauses
    // in sequence order, terms encoded structurally (floats by bit
    // pattern — no text round-trip). loadFrom() rebuilds the indexes
    // node by node; the deterministic height function guarantees the
    // rebuilt skiplists match the originals hop for hop.

    void saveTo(std::vector<uint8_t> &out) const;
    /** Replace the whole store contents. Throws FatalError on a
     *  malformed payload, leaving the store cleared. */
    void loadFrom(const uint8_t *data, size_t size);

    /** Drop everything (predicates, clauses, generation). */
    void clear();

    // -- transactions (journal support) -----------------------------
    //
    // A transaction records every assert/erase between beginTxn() and
    // commitTxn()/rollbackTxn() as a TxnOp. Rollback undoes the ops
    // in reverse order *exactly*: sequence counters, generation and
    // update counters, skiplist links and predicate interning all
    // return to their pre-transaction state bit for bit (verified by
    // saveTo() byte comparison in the tests). declareDynamic() is not
    // covered — durable flows never declare mid-transaction.

    /** Start recording. It is a fatal error if one is active. */
    void beginTxn();

    bool inTxn() const { return txnActive_; }

    /** Ops recorded so far (empty when no mutation ran). */
    const std::vector<TxnOp> &txnOps() const { return txn_; }

    /** Keep the mutations: stop recording and return the op list
     *  (for the journal). */
    std::vector<TxnOp> commitTxn();

    /** Undo every recorded op in reverse order and stop recording. */
    void rollbackTxn();

    // -- reclaim -----------------------------------------------------
    //
    // Unlink dead clauses from every index and free them. Sequence
    // numbers, generation() and updateCount() do not change. Only
    // safe once no goal holds a generation in which the clauses were
    // still alive, and never ahead of a rollback of the transaction
    // that erased them.

    /** Reclaim the clauses @p ops erased: O(k log n) for k erasures. */
    void reclaim(const std::vector<TxnOp> &ops);

    /** Reclaim every dead clause (after a journal replay). */
    void reclaimAll();

    // -- op-batch codec (journal record payloads) -------------------
    //
    // Same structural term encoding as saveTo()/loadFrom(), with a
    // per-batch atom pool: byte-stable across processes, floats by
    // bit pattern. decodeOps() throws FatalError on malformed input.

    static void encodeOps(const std::vector<TxnOp> &ops,
                          std::vector<uint8_t> &out);
    static std::vector<TxnOp> decodeOps(const uint8_t *data, size_t size);

    /** Apply a decoded op. Asserts must land on the recorded sequence
     *  number — a divergence throws FatalError (the journal does not
     *  match the store it is being replayed into). */
    void applyOp(const TxnOp &op);

  private:
    struct Pred;
    struct SeqList;

    Pred &internPred(const Functor &f);
    const Pred *findPred(const Functor &f) const;

    DynDbConfig config_;
    uint64_t generation_ = 0;
    uint64_t updates_ = 0;
    std::map<Functor, std::unique_ptr<Pred>> preds_;
    bool txnActive_ = false;
    std::vector<TxnOp> txn_;
};

} // namespace kcm::db

#endif // KCM_DB_CLAUSE_STORE_HH
