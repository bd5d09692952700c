#include "db/clause_store.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "base/logging.hh"

namespace kcm::db
{

namespace
{

/** Height ceiling: comfortable for ~1M clauses (expected height
 *  log2 n with p = 1/2). */
constexpr int kMaxLevel = 20;

/** Deterministic node height: a pure mix of the sequence number
 *  (splitmix64 finalizer), then count-trailing-ones with p = 1/2.
 *  Never depends on insertion order or PRNG state, so a store rebuilt
 *  from a snapshot reproduces identical towers — and identical
 *  scanned counts — to the original. */
int
towerHeight(int64_t seq)
{
    uint64_t h = static_cast<uint64_t>(seq) + 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
    int level = 1;
    while ((h & 1) && level < kMaxLevel) {
        h >>= 1;
        ++level;
    }
    return level;
}

/**
 * Rebuild a term with canonical variable nodes, one distinct name per
 * distinct node. Producers (the reader, the baseline's exportCell, the
 * machine's exportTerm) share a repeated variable by pointer, and only
 * by pointer: the reader names every anonymous variable `_`. After
 * this pass importTerm (name-keyed) and the baseline's instantiate
 * (pointer-keyed) agree on head/body sharing. The names are those a
 * journal replay gives (`_D<n>`, n in first-occurrence order).
 */
struct VarCanon
{
    std::unordered_map<const Term *, TermRef> byPtr;

    TermRef
    rename(const TermRef &t)
    {
        if (!t)
            return nullptr;
        switch (t->kind()) {
          case TermKind::Var: {
            auto [it, fresh] = byPtr.emplace(t.get(), nullptr);
            if (fresh)
                it->second = Term::makeVar(cat("_D", byPtr.size() - 1));
            return it->second;
          }
          case TermKind::Struct: {
            std::vector<TermRef> args;
            args.reserve(t->arity());
            bool changed = false;
            for (const auto &a : t->args()) {
                TermRef r = rename(a);
                changed |= r != a;
                args.push_back(std::move(r));
            }
            if (!changed)
                return t;
            return Term::makeStruct(t->functorName(), std::move(args));
          }
          default:
            return t;
        }
    }
};

} // namespace

ArgKey
ArgKey::forTerm(const TermRef &arg)
{
    ArgKey k;
    if (!arg)
        return k;
    switch (arg->kind()) {
      case TermKind::Var:
        break;
      case TermKind::Int:
        // Narrowed to the machine's 32-bit integer word: the machine
        // unifies on the narrowed value, and an index key must never
        // be finer than unification (that would hide candidates) —
        // coarser only costs a filtered-out candidate.
        k.kind = Kind::Int;
        k.a = static_cast<uint64_t>(
            static_cast<int64_t>(static_cast<int32_t>(arg->intValue())));
        break;
      case TermKind::Float: {
        // Key on the machine's 32-bit float word so both engines and
        // the Word-side key builder agree bit for bit.
        float f = static_cast<float>(arg->floatValue());
        uint32_t bits;
        std::memcpy(&bits, &f, sizeof bits);
        k.kind = Kind::Float;
        k.a = bits;
        break;
      }
      case TermKind::Atom:
        k.kind = Kind::Atom;
        k.a = arg->atom();
        break;
      case TermKind::Struct:
        k.kind = Kind::Functor;
        k.a = arg->functorName();
        k.b = arg->arity();
        break;
    }
    return k;
}

ArgKey
ArgKey::forHead(const TermRef &head)
{
    if (!head || !head->isStruct() || head->arity() == 0)
        return ArgKey{};
    return forTerm(head->arg(0));
}

/** One skiplist over clause sequence numbers. The sentinel head has a
 *  full-height tower; node towers are `towerHeight(seq)` tall. The
 *  list links nodes its owner allocates (see Pred::Entry). */
struct ClauseStore::SeqList
{
    struct Node
    {
        const StoredClause *clause = nullptr;
        int64_t seq = 0;
        int level = 1;
        std::array<Node *, kMaxLevel> next{};
    };

    Node head;

    SeqList()
    {
        head.seq = std::numeric_limits<int64_t>::min();
        head.level = kMaxLevel;
        head.next.fill(nullptr);
    }

    bool empty() const { return head.next[0] == nullptr; }

    /** Link @p n, standing for @p c, in sequence order. */
    void
    insert(Node *n, const StoredClause *c)
    {
        Node *update[kMaxLevel];
        Node *x = &head;
        for (int i = kMaxLevel - 1; i >= 0; --i) {
            while (x->next[i] && x->next[i]->seq < c->seq)
                x = x->next[i];
            update[i] = x;
        }
        n->clause = c;
        n->seq = c->seq;
        n->level = towerHeight(c->seq);
        for (int i = 0; i < n->level; ++i) {
            n->next[i] = update[i]->next[i];
            update[i]->next[i] = n;
        }
    }

    /** Unlink the node of @p seq, which must be linked: O(log n) hops
     *  down the express lanes (always built; the skiplist ablation
     *  only changes how lookups seek). */
    void
    unlink(int64_t seq)
    {
        bool found = false;
        Node *x = &head;
        for (int i = kMaxLevel - 1; i >= 0; --i) {
            while (x->next[i] && x->next[i]->seq < seq)
                x = x->next[i];
            if (x->next[i] && x->next[i]->seq == seq) {
                x->next[i] = x->next[i]->next[i];
                found = true;
            }
        }
        if (!found)
            panic("skiplist unlink: seq ", seq, " is not linked");
    }

    /**
     * First node with seq >= @p target. With the express lanes the
     * descent costs O(log n) horizontal hops; without (the skiplist
     * ablation) it is a level-0 walk. Every horizontal hop and the
     * landing node are counted into @p scanned — the unit the engines
     * convert to simulated cycles.
     */
    const Node *
    seekGE(int64_t target, bool use_skiplist, uint64_t &scanned) const
    {
        const Node *x = &head;
        const int top = use_skiplist ? kMaxLevel - 1 : 0;
        for (int i = top; i >= 0; --i) {
            while (x->next[i] && x->next[i]->seq < target) {
                x = x->next[i];
                ++scanned;
            }
        }
        const Node *landed = x->next[0];
        if (landed)
            ++scanned;
        return landed;
    }

    /** First clause with seq >= @p from visible at @p gen (tombstones
     *  and future births are stepped over, each step counted). */
    const StoredClause *
    firstVisibleGE(int64_t from, uint64_t gen, bool use_skiplist,
                   uint64_t &scanned) const
    {
        const Node *n = seekGE(from, use_skiplist, scanned);
        while (n && !n->clause->visibleAt(gen)) {
            n = n->next[0];
            if (n)
                ++scanned;
        }
        return n ? n->clause : nullptr;
    }
};

struct ClauseStore::Pred
{
    /** One clause with its two skiplist nodes: one in the master
     *  list, one in its key bucket or the variable list. Each entry
     *  is one allocation of `clauses`, so its address is stable and
     *  erasing it frees all three. */
    struct Entry
    {
        StoredClause clause;
        SeqList::Node inMaster;
        SeqList::Node inKey;
    };

    Functor f{};
    bool declared = false;
    int64_t minSeq = 0; ///< lowest seq ever allocated (asserta side)
    int64_t maxSeq = 0; ///< highest seq ever allocated (assertz side)
    std::unordered_map<int64_t, Entry> clauses; ///< by seq
    SeqList master;
    SeqList varList;
    std::unordered_map<ArgKey, std::unique_ptr<SeqList>, ArgKeyHash> buckets;

    /** Store @p c and index it under its seq and first-argument key. */
    const StoredClause &
    link(StoredClause c)
    {
        auto [it, fresh] = clauses.try_emplace(c.seq);
        if (!fresh)
            fatal("clause store: duplicate clause seq ", c.seq);
        Entry &e = it->second;
        e.clause = std::move(c);
        master.insert(&e.inMaster, &e.clause);
        keyList(ArgKey::forHead(e.clause.head))
            .insert(&e.inKey, &e.clause);
        return e.clause;
    }

    /** Remove clause @p seq from every index and free it (rollback of
     *  its assert, or reclaim of a dead clause). O(log n). */
    void
    unlink(int64_t seq)
    {
        auto it = clauses.find(seq);
        if (it == clauses.end())
            panic("clause store: unlink of absent seq ", seq);
        master.unlink(seq);
        ArgKey key = ArgKey::forHead(it->second.clause.head);
        SeqList &list = keyList(key);
        list.unlink(seq);
        if (&list != &varList && list.empty())
            buckets.erase(key);
        clauses.erase(it);
    }

    /** The list a clause filed under @p key lives in (created on
     *  first use). */
    SeqList &
    keyList(const ArgKey &key)
    {
        if (key.isAny())
            return varList;
        auto &bucket = buckets[key];
        if (!bucket)
            bucket = std::make_unique<SeqList>();
        return *bucket;
    }
};

ClauseStore::ClauseStore(DynDbConfig config) : config_(config) {}

ClauseStore::~ClauseStore() = default;

ClauseStore::Pred &
ClauseStore::internPred(const Functor &f)
{
    auto &slot = preds_[f];
    if (!slot) {
        slot = std::make_unique<Pred>();
        slot->f = f;
    }
    return *slot;
}

const ClauseStore::Pred *
ClauseStore::findPred(const Functor &f) const
{
    auto it = preds_.find(f);
    return it == preds_.end() ? nullptr : it->second.get();
}

void
ClauseStore::declareDynamic(const Functor &f)
{
    internPred(f).declared = true;
}

bool
ClauseStore::isKnown(const Functor &f) const
{
    return findPred(f) != nullptr;
}

const StoredClause &
ClauseStore::assertClause(const Functor &f, const TermRef &head,
                          const TermRef &body, bool at_front)
{
    const bool created = txnActive_ && preds_.find(f) == preds_.end();
    Pred &p = internPred(f);
    VarCanon canon;
    StoredClause c;
    if (f.arity > maxDynamicArity) {
        fatal("dynamic predicate arity ", f.arity,
              " exceeds the supported maximum ", maxDynamicArity);
    }
    c.head = canon.rename(head);
    // A `true` body is a fact; storing it as null keeps the
    // fact-vs-rule distinction cheap for both engines.
    c.body = (body && !body->isAtomNamed(AtomTable::instance().trueAtom))
                 ? canon.rename(body)
                 : nullptr;
    c.seq = at_front ? --p.minSeq : ++p.maxSeq;
    c.birth = ++generation_;
    ++updates_;

    const StoredClause &stored = p.link(std::move(c));
    if (txnActive_) {
        TxnOp op;
        op.kind = at_front ? TxnOp::Kind::AssertA : TxnOp::Kind::AssertZ;
        op.f = f;
        op.head = stored.head;
        op.body = stored.body;
        op.seq = stored.seq;
        op.createdPred = created;
        txn_.push_back(std::move(op));
    }
    return stored;
}

void
ClauseStore::eraseClause(const Functor &f, int64_t seq)
{
    auto it = preds_.find(f);
    if (it == preds_.end())
        return;
    auto cit = it->second->clauses.find(seq);
    if (cit == it->second->clauses.end())
        return;
    StoredClause &c = cit->second.clause;
    if (c.death != ~0ull)
        return; // already a tombstone
    c.death = ++generation_;
    ++updates_;
    if (txnActive_) {
        TxnOp op;
        op.kind = TxnOp::Kind::Erase;
        op.f = f;
        op.seq = seq;
        txn_.push_back(std::move(op));
    }
}

ClauseStore::LookupResult
ClauseStore::first(const Functor &f, const ArgKey &key, uint64_t gen) const
{
    return next(f, key, gen, std::numeric_limits<int64_t>::min());
}

ClauseStore::LookupResult
ClauseStore::next(const Functor &f, const ArgKey &key, uint64_t gen,
                  int64_t after_seq) const
{
    LookupResult out;
    const Pred *p = findPred(f);
    if (!p)
        return out;
    const int64_t from = after_seq == std::numeric_limits<int64_t>::min()
                             ? after_seq
                             : after_seq + 1;
    const bool sl = config_.skiplist;
    auto consider = [&](const SeqList *list) {
        if (!list)
            return;
        const StoredClause *c =
            list->firstVisibleGE(from, gen, sl, out.scanned);
        if (c && (!out.clause || c->seq < out.clause->seq))
            out.clause = c;
    };
    if (!config_.hashIndex || key.isAny()) {
        consider(&p->master);
    } else {
        auto bit = p->buckets.find(key);
        consider(bit == p->buckets.end() ? nullptr : bit->second.get());
        consider(&p->varList);
    }
    return out;
}

uint64_t
ClauseStore::liveClauseCount(const Functor &f) const
{
    const Pred *p = findPred(f);
    if (!p)
        return 0;
    uint64_t n = 0;
    for (const auto &[seq, e] : p->clauses)
        n += e.clause.visibleAt(generation_);
    return n;
}

std::vector<Functor>
ClauseStore::knownPredicates() const
{
    std::vector<Functor> out;
    out.reserve(preds_.size());
    for (const auto &[f, p] : preds_)
        out.push_back(f);
    return out;
}

void
ClauseStore::clear()
{
    preds_.clear();
    generation_ = 0;
    updates_ = 0;
    txnActive_ = false;
    txn_.clear();
}

// ---------------------------------------------------------------------
// Transactions. Every mutation between beginTxn() and commit/rollback
// is recorded as a TxnOp; rollback replays the record newest-first and
// restores the exact pre-transaction state. The exactness argument:
// an assert is undone by unlinking its seq from every index it joined
// (the skiplists are a function of the linked seqs alone), an erase
// by clearing its death stamp, and the sequence/generation/update
// counters — each bumped exactly once per op — by one decrement per
// op; newest-first order keeps each undone assert at its predicate's
// minSeq/maxSeq end.

void
ClauseStore::beginTxn()
{
    if (txnActive_)
        fatal("clause store: beginTxn with a transaction already active");
    txn_.clear();
    txnActive_ = true;
}

std::vector<TxnOp>
ClauseStore::commitTxn()
{
    if (!txnActive_)
        fatal("clause store: commitTxn without beginTxn");
    std::vector<TxnOp> ops = std::move(txn_);
    txn_.clear();
    txnActive_ = false;
    return ops;
}

void
ClauseStore::rollbackTxn()
{
    if (!txnActive_)
        fatal("clause store: rollbackTxn without beginTxn");
    for (auto it = txn_.rbegin(); it != txn_.rend(); ++it) {
        const TxnOp &op = *it;
        auto pit = preds_.find(op.f);
        if (pit == preds_.end())
            panic("transaction rollback: predicate vanished");
        Pred &p = *pit->second;
        if (op.kind == TxnOp::Kind::Erase) {
            auto cit = p.clauses.find(op.seq);
            if (cit == p.clauses.end())
                panic("transaction rollback: erased clause vanished");
            cit->second.clause.death = ~0ull;
        } else {
            int64_t &end =
                op.kind == TxnOp::Kind::AssertA ? p.minSeq : p.maxSeq;
            if (op.seq != end)
                panic("transaction rollback: out-of-order assert undo");
            p.unlink(op.seq);
            end += op.kind == TxnOp::Kind::AssertA ? 1 : -1;
            if (op.createdPred)
                preds_.erase(pit);
        }
        --generation_;
        --updates_;
    }
    txn_.clear();
    txnActive_ = false;
}

void
ClauseStore::reclaim(const std::vector<TxnOp> &ops)
{
    for (const TxnOp &op : ops) {
        if (op.kind != TxnOp::Kind::Erase)
            continue;
        auto pit = preds_.find(op.f);
        if (pit == preds_.end())
            continue;
        Pred &p = *pit->second;
        auto cit = p.clauses.find(op.seq);
        if (cit != p.clauses.end() && cit->second.clause.death != ~0ull)
            p.unlink(op.seq);
    }
}

void
ClauseStore::reclaimAll()
{
    for (auto &[f, p] : preds_) {
        std::vector<int64_t> dead;
        for (const auto &[seq, e] : p->clauses) {
            if (e.clause.death != ~0ull)
                dead.push_back(seq);
        }
        for (int64_t seq : dead)
            p->unlink(seq);
    }
}

// ---------------------------------------------------------------------
// Serialization. Canonical form: predicates in functor order, clauses
// in sequence order (a master-list walk), atoms through a payload-local
// string table, floats by bit pattern. Canonical ordering makes
// save(load(save(x))) byte-identical to save(x) regardless of the
// original insertion order.

namespace
{

constexpr uint32_t kMagic = 0x4B434D44; // "KCMD"
constexpr uint32_t kVersion = 1;

enum : uint8_t
{
    tVar = 0,
    tAtom = 1,
    tInt = 2,
    tFloat = 3,
    tStruct = 4,
};

void
putU8(std::vector<uint8_t> &out, uint8_t v)
{
    out.push_back(v);
}

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putI64(std::vector<uint8_t> &out, int64_t v)
{
    putU64(out, static_cast<uint64_t>(v));
}

void
putStr(std::vector<uint8_t> &out, const std::string &s)
{
    putU32(out, static_cast<uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

struct PayloadReader
{
    const uint8_t *p;
    const uint8_t *end;

    void
    need(size_t n) const
    {
        if (static_cast<size_t>(end - p) < n)
            fatal("clause store payload truncated");
    }

    uint8_t
    u8()
    {
        need(1);
        return *p++;
    }

    uint32_t
    u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(*p++) << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(*p++) << (8 * i);
        return v;
    }

    int64_t
    i64()
    {
        return static_cast<int64_t>(u64());
    }

    std::string
    str()
    {
        uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(p), n);
        p += n;
        return s;
    }
};

struct AtomPool
{
    std::vector<AtomId> atoms;
    std::unordered_map<AtomId, uint32_t> index;

    uint32_t
    intern(AtomId a)
    {
        auto [it, fresh] = index.emplace(a, atoms.size());
        if (fresh)
            atoms.push_back(a);
        return it->second;
    }

    void
    collect(const TermRef &t)
    {
        if (!t)
            return;
        switch (t->kind()) {
          case TermKind::Atom:
            intern(t->atom());
            break;
          case TermKind::Struct:
            intern(t->functorName());
            for (const auto &a : t->args())
                collect(a);
            break;
          default:
            break;
        }
    }
};

void
encodeTerm(std::vector<uint8_t> &out, const TermRef &t, AtomPool &pool,
           std::unordered_map<const Term *, uint32_t> &var_ids)
{
    switch (t->kind()) {
      case TermKind::Var: {
        auto [it, fresh] = var_ids.emplace(t.get(), var_ids.size());
        putU8(out, tVar);
        putU32(out, it->second);
        (void)fresh;
        break;
      }
      case TermKind::Atom:
        putU8(out, tAtom);
        putU32(out, pool.intern(t->atom()));
        break;
      case TermKind::Int:
        putU8(out, tInt);
        putI64(out, t->intValue());
        break;
      case TermKind::Float: {
        double d = t->floatValue();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        putU8(out, tFloat);
        putU64(out, bits);
        break;
      }
      case TermKind::Struct:
        putU8(out, tStruct);
        putU32(out, pool.intern(t->functorName()));
        putU32(out, t->arity());
        for (const auto &a : t->args())
            encodeTerm(out, a, pool, var_ids);
        break;
    }
}

TermRef
decodeTerm(PayloadReader &r, const std::vector<AtomId> &atoms,
           std::vector<TermRef> &vars, int depth = 0)
{
    if (depth > 100000)
        fatal("clause store payload: term nesting too deep");
    auto atomAt = [&atoms](uint32_t i) {
        if (i >= atoms.size())
            fatal("clause store payload: atom index ", i, " out of range");
        return atoms[i];
    };
    switch (r.u8()) {
      case tVar: {
        uint32_t id = r.u32();
        if (id >= vars.size())
            vars.resize(id + 1);
        if (!vars[id])
            vars[id] = Term::makeVar(cat("_D", id));
        return vars[id];
      }
      case tAtom:
        return Term::makeAtom(atomAt(r.u32()));
      case tInt:
        return Term::makeInt(r.i64());
      case tFloat: {
        uint64_t bits = r.u64();
        double d;
        std::memcpy(&d, &bits, sizeof d);
        return Term::makeFloat(d);
      }
      case tStruct: {
        AtomId name = atomAt(r.u32());
        uint32_t arity = r.u32();
        if (arity > 0xFF)
            fatal("clause store payload: arity ", arity, " out of range");
        std::vector<TermRef> args;
        args.reserve(arity);
        for (uint32_t i = 0; i < arity; ++i)
            args.push_back(decodeTerm(r, atoms, vars, depth + 1));
        return Term::makeStruct(name, std::move(args));
      }
      default:
        fatal("clause store payload: bad term tag");
    }
    return nullptr; // unreachable
}

} // namespace

void
ClauseStore::saveTo(std::vector<uint8_t> &out) const
{
    // Pass 1: the atom pool, in first-appearance order of the same
    // walk the encoder performs.
    AtomPool pool;
    for (const auto &[f, p] : preds_) {
        pool.intern(f.name);
        for (const SeqList::Node *n = p->master.head.next[0]; n;
             n = n->next[0]) {
            pool.collect(n->clause->head);
            pool.collect(n->clause->body);
        }
    }

    putU32(out, kMagic);
    putU32(out, kVersion);
    putU64(out, generation_);
    putU64(out, updates_);
    putU32(out, static_cast<uint32_t>(pool.atoms.size()));
    for (AtomId a : pool.atoms)
        putStr(out, atomText(a));
    putU32(out, static_cast<uint32_t>(preds_.size()));
    for (const auto &[f, p] : preds_) {
        putU32(out, pool.index.at(f.name));
        putU32(out, f.arity);
        putU8(out, p->declared ? 1 : 0);
        putI64(out, p->minSeq);
        putI64(out, p->maxSeq);
        putU64(out, p->clauses.size());
        for (const SeqList::Node *n = p->master.head.next[0]; n;
             n = n->next[0]) {
            const StoredClause *c = n->clause;
            putI64(out, c->seq);
            putU64(out, c->birth);
            putU64(out, c->death);
            putU8(out, c->body ? 1 : 0);
            std::unordered_map<const Term *, uint32_t> var_ids;
            encodeTerm(out, c->head, pool, var_ids);
            if (c->body)
                encodeTerm(out, c->body, pool, var_ids);
        }
    }
}

void
ClauseStore::loadFrom(const uint8_t *data, size_t size)
{
    clear();
    PayloadReader r{data, data + size};
    if (r.u32() != kMagic)
        fatal("clause store payload: bad magic");
    if (uint32_t v = r.u32(); v != kVersion)
        fatal("clause store payload: unsupported version ", v);
    generation_ = r.u64();
    updates_ = r.u64();

    uint32_t natoms = r.u32();
    std::vector<AtomId> atoms;
    atoms.reserve(natoms);
    for (uint32_t i = 0; i < natoms; ++i)
        atoms.push_back(internAtom(r.str()));

    uint32_t npreds = r.u32();
    for (uint32_t pi = 0; pi < npreds; ++pi) {
        uint32_t name_idx = r.u32();
        if (name_idx >= atoms.size())
            fatal("clause store payload: pred atom index out of range");
        Functor f{atoms[name_idx], r.u32()};
        Pred &p = internPred(f);
        p.declared = r.u8() != 0;
        p.minSeq = r.i64();
        p.maxSeq = r.i64();
        uint64_t nclauses = r.u64();
        for (uint64_t ci = 0; ci < nclauses; ++ci) {
            StoredClause c;
            c.seq = r.i64();
            c.birth = r.u64();
            c.death = r.u64();
            bool has_body = r.u8() != 0;
            std::vector<TermRef> vars;
            c.head = decodeTerm(r, atoms, vars);
            if (has_body)
                c.body = decodeTerm(r, atoms, vars);
            p.link(std::move(c));
        }
    }
    if (r.p != r.end)
        fatal("clause store payload: trailing bytes");
}

// ---------------------------------------------------------------------
// Op-batch codec: the payload of one journal commit record. Reuses the
// structural term encoding above with a per-batch atom pool, so the
// bytes are stable across processes (atoms travel as text, floats by
// bit pattern) and a batch re-encoded from a decode is byte-identical.

void
ClauseStore::encodeOps(const std::vector<TxnOp> &ops,
                       std::vector<uint8_t> &out)
{
    // Pass 1: atom pool in first-appearance order of the encoder walk.
    AtomPool pool;
    for (const TxnOp &op : ops) {
        pool.intern(op.f.name);
        if (op.kind != TxnOp::Kind::Erase) {
            pool.collect(op.head);
            pool.collect(op.body);
        }
    }
    putU32(out, static_cast<uint32_t>(pool.atoms.size()));
    for (AtomId a : pool.atoms)
        putStr(out, atomText(a));
    putU32(out, static_cast<uint32_t>(ops.size()));
    for (const TxnOp &op : ops) {
        putU8(out, static_cast<uint8_t>(op.kind));
        putU32(out, pool.index.at(op.f.name));
        putU32(out, op.f.arity);
        putI64(out, op.seq);
        if (op.kind == TxnOp::Kind::Erase)
            continue;
        putU8(out, op.body ? 1 : 0);
        std::unordered_map<const Term *, uint32_t> var_ids;
        encodeTerm(out, op.head, pool, var_ids);
        if (op.body)
            encodeTerm(out, op.body, pool, var_ids);
    }
}

std::vector<TxnOp>
ClauseStore::decodeOps(const uint8_t *data, size_t size)
{
    PayloadReader r{data, data + size};
    uint32_t natoms = r.u32();
    if (natoms > size)
        fatal("op batch payload: atom count ", natoms, " exceeds payload");
    std::vector<AtomId> atoms;
    atoms.reserve(natoms);
    for (uint32_t i = 0; i < natoms; ++i)
        atoms.push_back(internAtom(r.str()));
    uint32_t nops = r.u32();
    if (nops > size)
        fatal("op batch payload: op count ", nops, " exceeds payload");
    std::vector<TxnOp> ops;
    ops.reserve(nops);
    for (uint32_t i = 0; i < nops; ++i) {
        TxnOp op;
        uint8_t kind = r.u8();
        if (kind > static_cast<uint8_t>(TxnOp::Kind::Erase))
            fatal("op batch payload: bad op kind ", unsigned(kind));
        op.kind = static_cast<TxnOp::Kind>(kind);
        uint32_t name_idx = r.u32();
        if (name_idx >= atoms.size())
            fatal("op batch payload: atom index out of range");
        op.f = Functor{atoms[name_idx], r.u32()};
        op.seq = r.i64();
        if (op.kind != TxnOp::Kind::Erase) {
            bool has_body = r.u8() != 0;
            std::vector<TermRef> vars;
            op.head = decodeTerm(r, atoms, vars);
            if (has_body)
                op.body = decodeTerm(r, atoms, vars);
        }
        ops.push_back(std::move(op));
    }
    if (r.p != r.end)
        fatal("op batch payload: trailing bytes");
    return ops;
}

void
ClauseStore::applyOp(const TxnOp &op)
{
    if (op.kind == TxnOp::Kind::Erase) {
        const uint64_t before = updates_;
        eraseClause(op.f, op.seq);
        if (updates_ == before) {
            fatal("journal replay diverged: retract of ",
                  atomText(op.f.name), "/", op.f.arity, " seq ", op.seq,
                  " found no live clause");
        }
        return;
    }
    const StoredClause &c = assertClause(op.f, op.head, op.body,
                                         op.kind == TxnOp::Kind::AssertA);
    if (c.seq != op.seq) {
        fatal("journal replay diverged: assert to ", atomText(op.f.name),
              "/", op.f.arity, " landed on seq ", c.seq,
              " but the record says ", op.seq);
    }
}

} // namespace kcm::db
