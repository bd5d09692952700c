#include "core/machine.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "base/logging.hh"
#include "isa/disasm.hh"
#include "prolog/parser.hh"
#include "prolog/writer.hh"

namespace kcm
{

/**
 * Choice point record layout on the control stack (§3.1.5). B points
 * at the base; the record is 9 words plus the saved argument
 * registers, matching the paper's "typical size is about 10 words".
 */
namespace cpfield
{
constexpr unsigned prevB = 0;
constexpr unsigned alt = 1;
constexpr unsigned e = 2;
constexpr unsigned cpCont = 3;
constexpr unsigned b0 = 4;
constexpr unsigned h = 5;
constexpr unsigned tr = 6;
constexpr unsigned lt = 7;
constexpr unsigned arity = 8;
constexpr unsigned args = 9;
} // namespace cpfield

std::string
Solution::toString() const
{
    return writeAnswer(bindings);
}

Machine::Machine(const MachineConfig &config)
    : config_(config), stats_("machine")
{
    mem_ = std::make_unique<MemSystem>(config_.mem);
    if (const char *env = getenv("KCM_WATCH_ADDR"))
        watchAddr_ = static_cast<Addr>(strtoul(env, nullptr, 16));
    stats_.add("choicePointsCreated", choicePointsCreated);
    stats_.add("choicePointsAvoided", choicePointsAvoided);
    stats_.add("shallowFails", shallowFails);
    stats_.add("deepFails", deepFails);
    stats_.add("trailPushes", trailPushes);
    stats_.add("derefSteps", derefSteps);
    stats_.add("bindOps", bindOps);
    stats_.add("unifyCalls", unifyCalls);
    stats_.add("envAllocs", envAllocs);
    stats_.add("cpWordsWritten", cpWordsWritten);
    stats_.add("cpWordsRead", cpWordsRead);
    stats_.add("gcRuns", gcRuns);
    stats_.add("gcWordsReclaimed", gcWordsReclaimed);
    stats_.add("trapsTaken", trapsTaken);
    stats_.add("stackZoneGrowths", stackZoneGrowths);
    stats_.addChild(prefetch_.stats());
    stats_.addChild(mem_->stats());
}

Machine::~Machine() = default;

double
Machine::klips() const
{
    double secs = seconds();
    if (secs <= 0)
        return 0;
    return double(inferences_) / secs / 1000.0;
}

void
Machine::resetMeasurement()
{
    cycles_ = 0;
    instructions_ = 0;
    inferences_ = 0;
    stats_.reset();
}

void
Machine::debugWatchWrite(Word addr_word, Word value)
{
    fprintf(stderr, "WATCH write [%s] <- %s\n  state %s\n  trace:\n%s\n",
            addr_word.toString().c_str(), value.toString().c_str(),
            stateString().c_str(), recentTrace(8).c_str());
}

void
Machine::writeDataRetry(Word addr_word, Word value)
{
    for (;;) {
        try {
            mem_->writeData(addr_word, value, penalty_);
            return;
        } catch (const MachineTrap &trap) {
            if (trap.kind() != TrapKind::StackOverflow ||
                !growStackZone(addr_word.zone()))
                throw;
        }
    }
}

void
Machine::load(const CodeImage &image, bool cold_caches)
{
    image_ = image;

    // Download the code image (host loader; untimed).
    for (size_t i = 0; i < image_.words.size(); ++i)
        mem_->pokeCode(image_.base + static_cast<Addr>(i), image_.words[i]);

    attachImage();

    // The download wrote through the code cache; a first run starts
    // cold, as the real machine does after a download from the host.
    if (cold_caches) {
        mem_->codeCache().invalidateAll();
        mem_->dataCache().invalidateAll();
    }

    const DataLayout &layout = mem_->layout();

    for (auto &reg : x_)
        reg = Word::makeInt(0);

    h_ = layout.globalStart;
    hb_ = h_;
    tr_ = layout.trailStart;
    s_ = h_;
    writeMode_ = false;

    // Bottom environment.
    envSizes_.clear();
    e_ = layout.localStart;
    noteEnvSize(e_, 0);
    mem_->pokeData(e_ + 0, Word::makeDataPtr(Zone::Local, e_));
    mem_->pokeData(e_ + 1, Word::makeCodePtr(image_.haltFailEntry));
    lt_ = e_ + 2;
    lb_ = lt_;

    // Bottom choice point: its alternative halts the query as failed.
    b_ = layout.controlStart;
    auto put = [&](unsigned field, Word w) {
        mem_->pokeData(b_ + field, w);
    };
    put(cpfield::prevB, Word::makeDataPtr(Zone::Control, b_));
    put(cpfield::alt, Word::makeCodePtr(image_.haltFailEntry));
    put(cpfield::e, Word::makeDataPtr(Zone::Local, e_));
    put(cpfield::cpCont, Word::makeCodePtr(image_.haltFailEntry));
    put(cpfield::b0, Word::makeDataPtr(Zone::Control, b_));
    put(cpfield::h, Word::makeDataPtr(Zone::Global, h_));
    put(cpfield::tr, Word::makeDataPtr(Zone::TrailZ, tr_));
    put(cpfield::lt, Word::makeDataPtr(Zone::Local, lt_));
    put(cpfield::arity, Word::makeInt(0));
    ct_ = b_ + cpfield::args;
    b0_ = b_;

    cpCont_ = image_.haltFailEntry;
    p_ = image_.queryEntry ? image_.queryEntry : image_.haltFailEntry;
    nextP_ = p_;
    prefetch_.reset(p_);
    expectedNextP_ = p_;

    shallowFlag_ = false;
    cpFlag_ = false;
    pendingAlt_ = 0;
    pendingArity_ = 0;

    halted_ = false;
    haltFailed_ = false;
    solutionReady_ = false;
    solution_ = Solution{};
    cycles_ = 0;
    instructions_ = 0;
    inferences_ = 0;

    // Trap/governor state: a fresh load re-arms the machine — quotas
    // return to their configured size (undoing any firmware growth)
    // and any recorded trap is cleared. The fault script does NOT
    // rewind: each scripted fault fires once per machine lifetime, so
    // a reload after an injected fault runs clean.
    trapped_ = false;
    lastTrap_ = TrapInfo{};
    stepStartCycles_ = 0;
    budgetWaived_ = false;
    sliceStop_ = 0; // host slices are per-run; re-arm via setSliceStop

    // Per-load dynamic clause store, seeded from the image's dynamic
    // declarations and source clauses — unless the host attached one.
    if (!dbAttached_)
        seedDynamicDb();

    applyQuotas();
    armGovernor();
}

void
Machine::seedDynamicDb()
{
    db_ = std::make_shared<db::ClauseStore>(config_.dyndb);
    for (const Functor &f : image_.dynamicDecls)
        db_->declareDynamic(f);
    if (image_.dynamicInit.empty())
        return;
    // dynamicInit holds canonical (quoted, ignore-ops) clause texts;
    // they parse against any operator table.
    OperatorTable ops;
    AtomId neck = AtomTable::instance().neck;
    for (const std::string &text : image_.dynamicInit) {
        Parser parser(text + " .", ops);
        ReadClause read;
        if (!parser.readClause(read))
            fatal("dynamic init: unreadable clause: ", text);
        TermRef term = read.term;
        TermRef head = term;
        TermRef body = nullptr;
        if (term->isStruct() && term->arity() == 2 &&
            term->functorName() == neck) {
            head = term->arg(0);
            body = term->arg(1);
        }
        if (!head->isAtom() && !head->isStruct())
            fatal("dynamic init: bad clause head in: ", text);
        db_->assertClause(head->functor(), head, body, false);
    }
}

// ------------------------------------------------------------- core ops

void
Machine::unwindTrail(Addr target_tr)
{
    while (tr_ > target_tr) {
        --tr_;
        Word entry = readData(dataPtr(tr_));
        // Restore the cell to an unbound self-reference.
        writeData(entry, Word::makeRef(entry.zone(), entry.addr()));
        ++cycles_;
    }
}

bool
Machine::unify(Word a, Word b)
{
    ++unifyCalls;
    std::vector<std::pair<Word, Word>> pdl;
    pdl.emplace_back(a, b);

    bool first = true;
    while (!pdl.empty()) {
        auto [u, v] = pdl.back();
        pdl.pop_back();
        if (!first)
            ++cycles_; // PDL pop in the general unification microcode
        first = false;

        Word du = deref(u);
        Word dv = deref(v);
        if (du.raw() == dv.raw())
            continue;

        bool u_unbound = du.isRef();
        bool v_unbound = dv.isRef();

        if (u_unbound && v_unbound) {
            // Bind local to global, else younger to older, so that no
            // global-stack cell ever references the local stack.
            bool u_local = du.zone() == Zone::Local;
            bool v_local = dv.zone() == Zone::Local;
            if (u_local && !v_local) {
                bind(du, dv);
            } else if (v_local && !u_local) {
                bind(dv, du);
            } else if (du.addr() >= dv.addr()) {
                bind(du, dv);
            } else {
                bind(dv, du);
            }
            continue;
        }
        if (u_unbound) {
            if (dv.isList() || dv.isStruct() || du.zone() != Zone::Local) {
                bind(du, dv);
            } else {
                bind(du, dv);
            }
            continue;
        }
        if (v_unbound) {
            bind(dv, du);
            continue;
        }

        // Both bound: the MWAC selects the case from the two type
        // fields without extra test cycles (§3.1.4).
        if (du.tag() != dv.tag())
            return false;
        switch (du.tag()) {
          case Tag::Nil:
            break;
          case Tag::Atom:
          case Tag::Int:
          case Tag::Float:
            if (du.value() != dv.value())
                return false;
            break;
          case Tag::List: {
            Word u_head = readData(Word::makeDataPtr(du.zone(), du.addr()));
            Word v_head = readData(Word::makeDataPtr(dv.zone(), dv.addr()));
            Word u_tail =
                readData(Word::makeDataPtr(du.zone(), du.addr() + 1));
            Word v_tail =
                readData(Word::makeDataPtr(dv.zone(), dv.addr() + 1));
            cycles_ += 4;
            pdl.emplace_back(u_tail, v_tail);
            pdl.emplace_back(u_head, v_head);
            break;
          }
          case Tag::Struct: {
            Word uf = readData(Word::makeDataPtr(du.zone(), du.addr()));
            Word vf = readData(Word::makeDataPtr(dv.zone(), dv.addr()));
            cycles_ += 2;
            if (uf.raw() != vf.raw())
                return false;
            uint32_t n = uf.functorArity();
            for (uint32_t i = n; i > 0; --i) {
                Word ua = readData(
                    Word::makeDataPtr(du.zone(), du.addr() + i));
                Word va = readData(
                    Word::makeDataPtr(dv.zone(), dv.addr() + i));
                cycles_ += 2;
                pdl.emplace_back(ua, va);
            }
            break;
          }
          default:
            return false;
        }
    }
    return true;
}

// -------------------------------------------------------------- control

void
Machine::pushChoicePoint(Addr alt, uint32_t arity, Addr saved_h,
                         Addr saved_tr, Addr saved_cp)
{
    Addr base = ct_;
    // The protected local-stack boundary: everything the previous
    // choice point protected plus the currently live frames. LT alone
    // is not enough — a deallocate may have lowered it below frames
    // that an older choice point will revive.
    Addr protected_lt = std::max(lt_, lb_);
    auto put = [&](unsigned field, Word w) {
        writeData(Word::makeDataPtr(Zone::Control, base + field), w);
    };
    put(cpfield::prevB, Word::makeDataPtr(Zone::Control, b_));
    put(cpfield::alt, Word::makeCodePtr(alt));
    put(cpfield::e, Word::makeDataPtr(Zone::Local, e_));
    put(cpfield::cpCont, Word::makeCodePtr(saved_cp));
    put(cpfield::b0, Word::makeDataPtr(Zone::Control, b0_));
    put(cpfield::h, Word::makeDataPtr(Zone::Global, saved_h));
    put(cpfield::tr, Word::makeDataPtr(Zone::TrailZ, saved_tr));
    put(cpfield::lt, Word::makeDataPtr(Zone::Local, protected_lt));
    put(cpfield::arity, Word::makeInt(static_cast<int32_t>(arity)));
    for (uint32_t i = 0; i < arity; ++i)
        put(cpfield::args + i, x_[i]);

    // One register per cycle through the RAC (§3.1.5); the first write
    // is covered by the instruction's base cost.
    cycles_ += cpfield::args + arity - 1;
    if (!config_.racBlockMoves)
        cycles_ += cpfield::args + arity; // address setup per word

    b_ = base;
    ct_ = base + cpfield::args + arity;
    hb_ = saved_h;
    lb_ = protected_lt;
    cpWordsWritten += cpfield::args + arity;
    ++choicePointsCreated;
}

void
Machine::restoreFromChoicePoint()
{
    auto get = [&](unsigned field) {
        return readData(Word::makeDataPtr(Zone::Control, b_ + field));
    };
    Word alt = get(cpfield::alt);
    Word e = get(cpfield::e);
    Word cp = get(cpfield::cpCont);
    Word b0 = get(cpfield::b0);
    Word h = get(cpfield::h);
    Word tr = get(cpfield::tr);
    Word lt = get(cpfield::lt);
    Word arity = get(cpfield::arity);

    uint32_t n = static_cast<uint32_t>(arity.intValue());
    for (uint32_t i = 0; i < n; ++i)
        x_[i] = get(cpfield::args + i);

    cycles_ += cpfield::args + n - 1;
    if (!config_.racBlockMoves)
        cycles_ += cpfield::args + n;
    cpWordsRead += cpfield::args + n;

    unwindTrail(tr.addr());
    h_ = h.addr();
    hb_ = h.addr();
    e_ = e.addr();
    lt_ = lt.addr();
    lb_ = lt.addr();
    cpCont_ = cp.addr();
    b0_ = b0.addr();
    ct_ = b_ + cpfield::args + n;
    p_ = alt.addr();
    nextP_ = p_;

    cpFlag_ = true;
    shallowFlag_ = false;
}

void
Machine::fail()
{
    if (config_.shallowBacktracking && shallowFlag_ && !cpFlag_) {
        // Shallow backtracking: restore the three shadow registers,
        // undo head bindings, and jump to the alternative. Argument
        // registers were never modified (compiler guarantee).
        ++shallowFails;
        ++choicePointsAvoided;
        h_ = shadowH_;
        unwindTrail(shadowTR_);
        cpCont_ = shadowCP_;
        p_ = pendingAlt_;
        nextP_ = p_;
        cycles_ += 3; // restore + refetch
        return;
    }
    ++deepFails;
    cycles_ += 3;
    restoreFromChoicePoint();
}

void
Machine::cutTo(Addr target_b)
{
    if (config_.shallowBacktracking && shallowFlag_ && !cpFlag_) {
        shallowFlag_ = false;
        ++choicePointsAvoided;
    }
    if (target_b < b_) {
        b_ = target_b;
        Word arity =
            readData(Word::makeDataPtr(Zone::Control, b_ + cpfield::arity));
        Word h = readData(Word::makeDataPtr(Zone::Control, b_ + cpfield::h));
        Word lt =
            readData(Word::makeDataPtr(Zone::Control, b_ + cpfield::lt));
        cycles_ += 2;
        ct_ = b_ + cpfield::args +
              static_cast<uint32_t>(arity.intValue());
        hb_ = h.addr();
        lb_ = lt.addr();
    }
    cpFlag_ = false;
}

void
Machine::popChoicePoint()
{
    Word prev =
        readData(Word::makeDataPtr(Zone::Control, b_ + cpfield::prevB));
    ++cycles_;
    cutTo(prev.addr());
}

void
Machine::doCall(Addr target, bool is_execute)
{
    b0_ = b_;
    shallowFlag_ = false;
    cpFlag_ = false;
    if (!is_execute)
        cpCont_ = nextP_;
    nextP_ = target;
}

// -------------------------------------------- ISO exceptions (catch/throw)

void
Machine::metaCall(Word goal_word)
{
    metaCallWithBarrier(goal_word, b_);
}

void
Machine::metaCallWithBarrier(Word goal_word, Addr barrier)
{
    Word goal = deref(goal_word);
    Functor f;
    if (goal.isAtom()) {
        // Control atoms are served inline: every meta-call site is an
        // escape followed by Proceed, so plain return means success.
        AtomTable &atoms = AtomTable::instance();
        if (goal.atom() == atoms.trueAtom)
            return;
        if (goal.atom() == atoms.failAtom ||
            goal.atom() == internAtom("false")) {
            fail();
            return;
        }
        if (goal.atom() == atoms.cutAtom) {
            cutTo(barrier);
            return;
        }
        f = Functor{goal.atom(), 0};
    } else if (goal.isStruct()) {
        Word fw = readData(Word::makeDataPtr(goal.zone(), goal.addr()));
        f = Functor{fw.functorName(), fw.functorArity()};
        for (uint32_t i = 0; i < f.arity; ++i)
            x_[i] = readData(
                Word::makeDataPtr(goal.zone(), goal.addr() + 1 + i));
    } else if (goal.isList()) {
        f = Functor{AtomTable::instance().dot, 2};
        x_[0] = readData(Word::makeDataPtr(goal.zone(), goal.addr()));
        x_[1] = readData(Word::makeDataPtr(goal.zone(), goal.addr() + 1));
    } else if (goal.isRef()) {
        raiseBall(Term::makeAtom("instantiation_error"));
        return;
    } else {
        raiseBall(Term::makeStruct(
            "type_error",
            {Term::makeAtom("callable"), exportTerm(goal)}));
        return;
    }
    const PredicateInfo *info = image_.find(f);
    if (!info) {
        if (db_ && db_->isKnown(f) && image_.dynRetryEntry) {
            // Runtime-asserted predicate without a compiled stub: the
            // arguments are already in X, dispatch through the store.
            shallowFlag_ = false;
            cpFlag_ = false;
            b0_ = barrier;
            execDynamicCall(f);
            return;
        }
        warn("call/1: undefined predicate ", atomText(f.name), "/",
             f.arity);
        fail();
        return;
    }
    // Tail-jump into the predicate; the callee's proceed returns to
    // our caller.
    b0_ = barrier;
    shallowFlag_ = false;
    cpFlag_ = false;
    nextP_ = info->entry;
}

Word
Machine::importTerm(const TermRef &term)
{
    // Variables sharing a name (exportTerm names unbound cells
    // "_G<addr>") share one fresh heap cell, preserving what sharing
    // the exported ball recorded.
    std::map<std::string, Word> vars;
    std::function<Word(const TermRef &)> imp =
        [&](const TermRef &t) -> Word {
        switch (t->kind()) {
          case TermKind::Var: {
            auto [it, fresh] = vars.emplace(t->varName(), Word());
            if (fresh)
                it->second = newHeapVar();
            return it->second;
          }
          case TermKind::Atom:
            return t->isNil() ? Word::makeNil()
                              : Word::makeAtom(t->atom());
          case TermKind::Int:
            return Word::makeInt(static_cast<int32_t>(t->intValue()));
          case TermKind::Float:
            return Word::makeFloat(static_cast<float>(t->floatValue()));
          case TermKind::Struct: {
            if (t->isCons()) {
                Word head = imp(t->arg(0));
                Word tail = imp(t->arg(1));
                Addr cell = h_;
                pushHeapCell(head);
                pushHeapCell(tail);
                return Word::makeList(Zone::Global, cell);
            }
            std::vector<Word> args;
            for (const auto &a : t->args())
                args.push_back(imp(a));
            Addr cell = h_;
            pushHeapCell(Word::makeFunctor(t->functorName(), t->arity()));
            for (Word a : args)
                pushHeapCell(a);
            return Word::makeStruct(Zone::Global, cell);
          }
        }
        panic("importTerm: unreachable term kind");
    };
    return imp(term);
}

// ------------------------------------------- dynamic clause database

db::ArgKey
Machine::argKeyOf(Word w)
{
    using K = db::ArgKey;
    K key;
    if (w.isRef())
        return key; // unbound: Any (every clause is a candidate)
    switch (w.tag()) {
      case Tag::Int:
        key.kind = K::Kind::Int;
        key.a = static_cast<uint64_t>(
            static_cast<int64_t>(w.intValue()));
        break;
      case Tag::Float: {
        float f = w.floatValue();
        uint32_t bits;
        memcpy(&bits, &f, sizeof bits);
        key.kind = K::Kind::Float;
        key.a = bits;
        break;
      }
      case Tag::Atom:
        key.kind = K::Kind::Atom;
        key.a = w.atom();
        break;
      case Tag::Nil:
        key.kind = K::Kind::Atom;
        key.a = AtomTable::instance().nil;
        break;
      case Tag::List:
        key.kind = K::Kind::Functor;
        key.a = AtomTable::instance().dot;
        key.b = 2;
        break;
      case Tag::Struct: {
        Word f = readData(Word::makeDataPtr(w.zone(), w.addr()));
        key.kind = K::Kind::Functor;
        key.a = f.functorName();
        key.b = f.functorArity();
        break;
      }
      default:
        break; // non-indexable word: fall back to Any
    }
    return key;
}

void
Machine::execDynamicCall(const Functor &f)
{
    if (!db_) {
        fail();
        return;
    }
    uint32_t n = f.arity;
    uint64_t gen = db_->generation();
    db::ArgKey key = n ? argKeyOf(deref(x_[0])) : db::ArgKey{};
    db::ClauseStore::LookupResult res = db_->first(f, key, gen);
    cycles_ += config_.dyndb.scanCycles * res.scanned;
    if (!res.clause) {
        fail();
        return;
    }
    // Cut barrier of the clause bodies: the B current before any
    // iterator choice point — `!` in an asserted body prunes the
    // remaining clauses of this predicate (ISO 7.8.9.1).
    Addr barrier = b_;
    // Look ahead: an iterator choice point is pushed only when a
    // further candidate exists (the WAM try/trust distinction).
    db::ClauseStore::LookupResult ahead =
        db_->next(f, key, gen, res.clause->seq);
    cycles_ += config_.dyndb.scanCycles * ahead.scanned;
    if (ahead.clause) {
        // Iterator state rides in the X registers after the
        // arguments, saved and revived by the ordinary choice-point
        // RAC block moves: captured generation, cursor sequence
        // number, and the predicate's functor word.
        x_[n] = Word::makeInt(static_cast<int32_t>(gen));
        x_[n + 1] = Word::makeInt(static_cast<int32_t>(res.clause->seq));
        x_[n + 2] = Word::makeFunctor(f.name, f.arity);
        pushChoicePoint(image_.dynRetryEntry, n + 3, h_, tr_, cpCont_);
        cpFlag_ = true;
        shallowFlag_ = false;
    }
    runDynamicClause(*res.clause, n, barrier);
}

void
Machine::execDynamicRetry()
{
    // Entered through a deep fail: B is the iterator choice point and
    // the X registers (arguments + iterator slots) are restored.
    uint32_t total = static_cast<uint32_t>(
        readData(Word::makeDataPtr(Zone::Control, b_ + cpfield::arity))
            .intValue());
    uint32_t n = total - 3;
    uint64_t gen = static_cast<uint64_t>(x_[n].intValue());
    int64_t after = x_[n + 1].intValue();
    Word fw = x_[n + 2];
    Functor f{fw.functorName(), fw.functorArity()};
    db::ArgKey key = n ? argKeyOf(deref(x_[0])) : db::ArgKey{};
    db::ClauseStore::LookupResult res = db_->next(f, key, gen, after);
    cycles_ += config_.dyndb.scanCycles * res.scanned;
    if (!res.clause) {
        // Only reachable when the image was reloaded around a
        // snapshot boundary; the lookahead otherwise guarantees a
        // candidate. Drop the iterator and keep failing.
        popChoicePoint();
        fail();
        return;
    }
    db::ClauseStore::LookupResult ahead =
        db_->next(f, key, gen, res.clause->seq);
    cycles_ += config_.dyndb.scanCycles * ahead.scanned;
    Addr barrier;
    if (ahead.clause) {
        // Advance the cursor in place (register and saved CP slot);
        // the iterator choice point stays for the next retry.
        Word cursor = Word::makeInt(static_cast<int32_t>(res.clause->seq));
        x_[n + 1] = cursor;
        writeData(Word::makeDataPtr(Zone::Control,
                                    b_ + cpfield::args + n + 1),
                  cursor);
        barrier =
            readData(
                Word::makeDataPtr(Zone::Control, b_ + cpfield::prevB))
                .addr();
    } else {
        popChoicePoint(); // last candidate: trust — drop the iterator
        barrier = b_;
    }
    runDynamicClause(*res.clause, n, barrier);
}

void
Machine::runDynamicClause(const db::StoredClause &clause, uint32_t arity,
                          Addr barrier)
{
    bool is_rule = clause.body != nullptr;
    Word head_w;
    Word body_w;
    if (is_rule) {
        // Import head and body as one term so the variables they
        // share (by name, per importTerm's contract) land in shared
        // heap cells.
        TermRef whole = Term::makeStruct(AtomTable::instance().neck,
                                         {clause.head, clause.body});
        Word w = importTerm(whole);
        head_w = readData(Word::makeDataPtr(w.zone(), w.addr() + 1));
        body_w = readData(Word::makeDataPtr(w.zone(), w.addr() + 2));
    } else if (arity > 0) {
        head_w = importTerm(clause.head);
    } else {
        return; // arity-0 fact: trivially true
    }
    if (arity > 0) {
        Word hd = deref(head_w);
        for (uint32_t i = 0; i < arity; ++i) {
            Word a =
                readData(Word::makeDataPtr(hd.zone(), hd.addr() + 1 + i));
            ++cycles_; // head-argument fetch
            if (!unify(x_[i], a)) {
                fail();
                return;
            }
        }
    }
    if (is_rule)
        metaCallWithBarrier(body_w, barrier);
    // Facts fall through to the stub's Proceed.
}

void
Machine::execAssert(bool at_front)
{
    Word w = deref(x_[0]);
    if (w.isRef()) {
        raiseBall(Term::makeAtom("instantiation_error"));
        return;
    }
    TermRef term = exportTerm(w);
    AtomId neck = AtomTable::instance().neck;
    TermRef head = term;
    TermRef body = nullptr;
    if (term->isStruct() && term->arity() == 2 &&
        term->functorName() == neck) {
        head = term->arg(0);
        body = term->arg(1);
    }
    if (head->isVar()) {
        raiseBall(Term::makeAtom("instantiation_error"));
        return;
    }
    if (!head->isAtom() && !head->isStruct()) {
        raiseBall(Term::makeStruct(
            "type_error", {Term::makeAtom("callable"), head}));
        return;
    }
    Functor f = head->functor();
    if (f.arity > db::maxDynamicArity) {
        raiseBall(Term::makeStruct("representation_error",
                                   {Term::makeAtom("max_arity")}));
        return;
    }
    const PredicateInfo *info = image_.find(f);
    bool is_static =
        (info && !image_.isDynamic(f)) || findBuiltin(f).has_value();
    if (is_static) {
        raiseBall(Term::makeStruct(
            "permission_error",
            {Term::makeAtom("modify"), Term::makeAtom("static_procedure"),
             Term::makeStruct("/",
                              {Term::makeAtom(f.name),
                               Term::makeInt(f.arity)})}));
        return;
    }
    if (!db_) {
        fail();
        return;
    }
    db_->assertClause(f, head, body, at_front);
    cycles_ += config_.dyndb.updateCycles;
}

void
Machine::execRetract()
{
    Word w = deref(x_[0]);
    if (w.isRef()) {
        raiseBall(Term::makeAtom("instantiation_error"));
        return;
    }
    AtomId neck = AtomTable::instance().neck;
    Word head_w = w;
    Word body_w = Word::makeAtom(AtomTable::instance().trueAtom);
    if (w.isStruct()) {
        Word fw = readData(Word::makeDataPtr(w.zone(), w.addr()));
        if (fw.functorName() == neck && fw.functorArity() == 2) {
            head_w = deref(
                readData(Word::makeDataPtr(w.zone(), w.addr() + 1)));
            body_w = readData(Word::makeDataPtr(w.zone(), w.addr() + 2));
        }
    }
    Functor f;
    if (head_w.isRef()) {
        raiseBall(Term::makeAtom("instantiation_error"));
        return;
    } else if (head_w.isAtom()) {
        f = Functor{head_w.atom(), 0};
    } else if (head_w.isStruct()) {
        Word fw =
            readData(Word::makeDataPtr(head_w.zone(), head_w.addr()));
        f = Functor{fw.functorName(), fw.functorArity()};
    } else if (head_w.isList()) {
        f = Functor{AtomTable::instance().dot, 2};
    } else {
        raiseBall(Term::makeStruct(
            "type_error",
            {Term::makeAtom("callable"), exportTerm(head_w)}));
        return;
    }
    const PredicateInfo *info = image_.find(f);
    bool is_static =
        (info && !image_.isDynamic(f)) || findBuiltin(f).has_value();
    if (is_static) {
        raiseBall(Term::makeStruct(
            "permission_error",
            {Term::makeAtom("modify"), Term::makeAtom("static_procedure"),
             Term::makeStruct("/",
                              {Term::makeAtom(f.name),
                               Term::makeInt(f.arity)})}));
        return;
    }
    if (!db_ || !db_->isKnown(f)) {
        fail();
        return;
    }
    uint64_t gen = db_->generation();
    db::ArgKey key;
    if (f.arity) {
        Word first =
            head_w.isList()
                ? readData(
                      Word::makeDataPtr(head_w.zone(), head_w.addr()))
                : readData(Word::makeDataPtr(head_w.zone(),
                                             head_w.addr() + 1));
        key = argKeyOf(deref(first));
    }
    Word true_w = Word::makeAtom(AtomTable::instance().trueAtom);
    int64_t cursor = 0;
    bool have_cursor = false;
    for (;;) {
        db::ClauseStore::LookupResult res =
            have_cursor ? db_->next(f, key, gen, cursor)
                        : db_->first(f, key, gen);
        cycles_ += config_.dyndb.scanCycles * res.scanned;
        if (!res.clause) {
            fail();
            return;
        }
        cursor = res.clause->seq;
        have_cursor = true;
        // Trial unification against the candidate. Force the trail
        // boundaries so every binding into a pre-existing cell is
        // recorded, letting a mismatch be undone precisely; the
        // shallow-backtracking shortcut must not bypass that.
        Addr h0 = h_;
        Addr tr0 = tr_;
        Addr hb0 = hb_;
        Addr lb0 = lb_;
        bool shallow0 = shallowFlag_;
        shallowFlag_ = false;
        hb_ = h0;
        lb_ = lt_;
        Word cand_head;
        Word cand_body = true_w;
        if (res.clause->body) {
            TermRef whole =
                Term::makeStruct(AtomTable::instance().neck,
                                 {res.clause->head, res.clause->body});
            Word cw = importTerm(whole);
            cand_head =
                readData(Word::makeDataPtr(cw.zone(), cw.addr() + 1));
            cand_body =
                readData(Word::makeDataPtr(cw.zone(), cw.addr() + 2));
        } else {
            cand_head = importTerm(res.clause->head);
        }
        bool ok = unify(head_w, cand_head) && unify(body_w, cand_body);
        hb_ = hb0;
        lb_ = lb0;
        shallowFlag_ = shallow0;
        if (ok) {
            // The pattern stays unified with the removed clause (ISO);
            // the imported cells above h0 are part of the bindings.
            db_->eraseClause(f, res.clause->seq);
            cycles_ += config_.dyndb.updateCycles;
            return;
        }
        unwindTrail(tr0);
        h_ = h0;
    }
}

bool
Machine::deliverBall(const TermRef &ball)
{
    if (!image_.catchFailEntry)
        return false; // image without the catch machinery (raw tests)

    for (;;) {
        // Scan the B chain for the innermost catch/3 marker. Only
        // live choice points are linked (cut unlinks discarded ones),
        // so any marker found is a valid catcher. Each inspected
        // frame is charged the alt-field control-stack read plus the
        // marker comparator.
        Addr marker = 0;
        Addr cp = b_;
        for (;;) {
            cycles_ += config_.catchUnwindCycles;
            Word alt = mem_->peekData(cp + cpfield::alt);
            if (alt.addr() == image_.catchFailEntry) {
                marker = cp;
                break;
            }
            Word prev = mem_->peekData(cp + cpfield::prevB);
            if (prev.addr() == cp)
                return false; // bottom choice point: uncaught
            cp = prev.addr();
        }

        // RAC block restore at the marker — the ordinary deep-fail
        // data path: revives X0..X2 (Goal, Catcher, Recovery), undoes
        // bindings through the trail, resets H/E/LT/CP. Then pop the
        // marker: the catcher frame is consumed whether or not it
        // accepts the ball.
        b_ = marker;
        restoreFromChoicePoint();
        popChoicePoint();

        // Copy the ball onto the unwound heap and unify it with the
        // revived Catcher. Ball cells are above HB, so undoing a
        // failed unification is the trail suffix made since here.
        Addr mark = tr_;
        Word ball_word = importTerm(ball);
        if (unify(ball_word, x_[1])) {
            metaCall(x_[2]); // run Recovery in the catcher's context
            return true;
        }
        unwindTrail(mark);
        // No match: rethrow to the next enclosing marker.
    }
}

void
Machine::raiseBall(const TermRef &ball)
{
    if (deliverBall(ball))
        return;
    throw MachineTrap(TrapKind::UnhandledException, writeTermQuoted(ball));
}

// ------------------------------------------------------------- run loop

RunStatus
Machine::run()
{
    armGovernor();
    for (;;) {
        try {
            return runLoop();
        } catch (const MachineTrap &trap) {
            // Governor exhaustion with an enclosing catch/3 becomes a
            // catchable resource_error ball; anything else (or no
            // catcher) surfaces as RunStatus::Trapped, as before. (A
            // slice stop is not thrown: takeCycleStop returns it.)
            if (convertResourceTrap(trap))
                continue;
            return recordTrap(trap);
        }
    }
}

RunStatus
Machine::runLoop()
{
#ifdef KCM_THREADED_DISPATCH
    if (config_.fastDispatch)
        return runFast();
#endif
    while (true) {
        if (stopCycles_ && cycles_ >= stopCycles_) [[unlikely]] {
            if (stopKind_ != StopKind::Limit)
                return takeCycleStop();
            return RunStatus::CycleLimit;
        }
        step();
        if (solutionReady_) {
            solutionReady_ = false;
            return RunStatus::SolutionFound;
        }
        if (haltFailed_)
            return RunStatus::Failed;
        if (halted_)
            return RunStatus::Halted;
    }
}

RunStatus
Machine::nextSolution()
{
    armGovernor();
    halted_ = false;
    stepStartCycles_ = cycles_;
    bool backtracked = false;
    for (;;) {
        try {
            if (!backtracked) {
                backtracked = true;
                fail();
                cycles_ += penalty_;
                penalty_ = 0;
            }
            return runLoop();
        } catch (const MachineTrap &trap) {
            if (convertResourceTrap(trap))
                continue;
            return recordTrap(trap);
        }
    }
}

RunStatus
Machine::resume()
{
    if (!trapped_)
        fatal("resume() without a pending trap");
    if (lastTrap_.kind != TrapKind::Abort)
        return RunStatus::Trapped; // not resumable; lastTrap() stands
    trapped_ = false;
    return run();
}

// ------------------------------------- trap delivery and the governor

RunStatus
Machine::recordTrap(const MachineTrap &trap)
{
    // Roll the cycle counter back to the last completed instruction
    // boundary: a trap aborts its instruction, so partial charges
    // (deref steps, unify sub-steps, firmware growth attempts) are
    // discarded and both dispatch cores report the identical count.
    // instructions_/inferences_ only advance at finishStep, so they
    // are already boundary-consistent.
    cycles_ = stepStartCycles_;
    penalty_ = 0;

    lastTrap_.kind = trap.kind();
    lastTrap_.message = trap.what();
    lastTrap_.faultAddr = trap.faultAddr();
    lastTrap_.pc = p_;
    lastTrap_.cycle = cycles_;
    lastTrap_.instructions = instructions_;
    lastTrap_.state = stateString();
    trapped_ = true;
    ++trapsTaken;
    return RunStatus::Trapped;
}

bool
Machine::convertResourceTrap(const MachineTrap &trap)
{
    if (!trapIsResource(trap.kind()) || !image_.catchFailEntry)
        return false;
    // Roll back the aborted instruction's partial charges exactly as
    // recordTrap would, then deliver resource_error(<kind>) to an
    // enclosing catch/3 marker, if any.
    cycles_ = stepStartCycles_;
    penalty_ = 0;
    TermRef ball = Term::makeStruct(
        "resource_error", {Term::makeAtom(trapKindName(trap.kind()))});
    try {
        if (!deliverBall(ball))
            return false;
    } catch (const MachineTrap &) {
        // A second trap while unwinding (e.g. the ball import crossing
        // an exhausted quota): surface the original condition.
        return false;
    }
    // Delivery ran between instructions (finishStep will not run for
    // it): account its memory penalties and advance P into the
    // recovery continuation set up by deliverBall.
    if (config_.timeMemory)
        cycles_ += penalty_;
    penalty_ = 0;
    p_ = nextP_;
    if (trap.kind() == TrapKind::Abort && stopKind_ == StopKind::Budget) {
        // The cycle budget is spent; waive it for the rest of this
        // query so the recovery goal (and backtracking after it) runs
        // bounded by maxCycles alone. load() re-arms the configured
        // budget.
        stopCycles_ = config_.maxCycles;
        stopKind_ = StopKind::Limit;
        budgetWaived_ = true;
    }
    return true;
}

void
Machine::armGovernor()
{
    uint64_t budget = config_.governor.cycleBudget;
    uint64_t max = config_.maxCycles;
    if (budget && !budgetWaived_ && (!max || budget <= max)) {
        stopCycles_ = budget;
        stopKind_ = StopKind::Budget;
    } else {
        stopCycles_ = max;
        stopKind_ = StopKind::Limit;
    }
    // A slice stop below the budget/limit preempts it; on a tie the
    // budget wins (the genuine, program-visible condition).
    if (sliceStop_ && (!stopCycles_ || sliceStop_ < stopCycles_)) {
        stopCycles_ = sliceStop_;
        stopKind_ = StopKind::Slice;
    }
    sliceExpired_ = false;
    faultsPending_ = faultCursor_ < config_.faultPlan.actions.size();
}

void
Machine::applyQuotas()
{
    const ResourceGovernor &gov = config_.governor;
    const DataLayout &layout = mem_->layout();
    ZoneChecker &checker = mem_->zoneChecker();
    // Under a byte budget every zone needs a growth boundary: a zone
    // with no explicit quota starts at one growth step and is grown by
    // firmware on demand, with the aggregate footprint checked at each
    // growth (growStackZone).
    uint64_t default_words =
        gov.memoryBudgetBytes ? gov.growthStepWords : 0;
    auto quota = [&](Zone zone, Addr start, Addr end, uint64_t words) {
        if (!words)
            words = default_words;
        if (!words)
            return;
        Addr span = static_cast<Addr>(
            std::min<uint64_t>(words, end - start));
        checker.setQuota(zone, start + span);
    };
    quota(Zone::Global, layout.globalStart, layout.globalEnd,
          gov.globalQuotaWords);
    quota(Zone::Local, layout.localStart, layout.localEnd,
          gov.localQuotaWords);
    quota(Zone::Control, layout.controlStart, layout.controlEnd,
          gov.controlQuotaWords);
    quota(Zone::TrailZ, layout.trailStart, layout.trailEnd,
          gov.trailQuotaWords);
}

uint64_t
Machine::residentZoneBytes() const
{
    // The governed footprint: words between each data zone's start and
    // its current soft limit. Zones without a quota (not growable)
    // count their full span — they are committed address space either
    // way.
    const ZoneChecker &checker = mem_->zoneChecker();
    uint64_t words = 0;
    for (Zone zone : {Zone::Global, Zone::Local, Zone::Control,
                      Zone::TrailZ}) {
        const ZoneInfo &zi = checker.info(zone);
        Addr limit = zi.growable ? zi.softLimit : zi.end;
        words += limit - zi.start;
    }
    return words * sizeof(Word);
}

bool
Machine::growStackZone(Zone zone)
{
    const ResourceGovernor &gov = config_.governor;
    if (!gov.growStacks)
        return false;
    ZoneChecker &checker = mem_->zoneChecker();
    const ZoneInfo &zi = checker.info(zone);
    if (!zi.growable)
        return false;
    Addr ceiling = 0;
    if (gov.zoneCeilingWords) {
        Addr span = static_cast<Addr>(std::min<uint64_t>(
            gov.zoneCeilingWords, zi.end - zi.start));
        ceiling = zi.start + span;
    }
    if (gov.memoryBudgetBytes) {
        // Aggregate resident-byte ceiling, checked at the growth
        // boundary: a step that would push the summed zone footprint
        // past the budget is refused as a resource condition of its
        // own, catchable as resource_error(memory).
        uint64_t resident = residentZoneBytes();
        uint64_t step = gov.growthStepWords * sizeof(Word);
        if (resident + step > gov.memoryBudgetBytes)
            throw MachineTrap(
                TrapKind::MemoryBudget,
                cat("memory budget exhausted (", resident,
                    " resident + ", step, " growth > budget ",
                    gov.memoryBudgetBytes, " bytes)"));
    }
    if (!checker.growSoftLimit(zone,
                               static_cast<Addr>(gov.growthStepWords),
                               ceiling))
        return false;
    // The firmware's trap service cost (§3.2.3): charged to the
    // simulated clock identically by both dispatch cores, since both
    // route every data write through this path.
    cycles_ += gov.stackGrowCycles;
    ++stackZoneGrowths;
    return true;
}

void
Machine::applyDueFaults()
{
    const auto &actions = config_.faultPlan.actions;
    while (faultCursor_ < actions.size() &&
           cycles_ >= actions[faultCursor_].cycle) {
        const FaultAction &action = actions[faultCursor_++];
        switch (action.kind) {
          case FaultKind::InjectPageFault:
            mem_->mmu().injectPageFault();
            break;
          case FaultKind::TightenZone: {
            const ZoneInfo &zi =
                mem_->zoneChecker().info(action.zone);
            mem_->zoneChecker().setLimits(action.zone, zi.start,
                                          action.limit);
            break;
          }
          case FaultKind::CorruptWord:
            mem_->pokeData(action.addr, Word(action.raw));
            break;
        }
    }
    faultsPending_ = faultCursor_ < actions.size();
}

RunStatus
Machine::takeCycleStop()
{
    // Taken between instructions: nothing to roll back, and p_ is
    // the next instruction — resume() continues exactly here.
    stepStartCycles_ = cycles_;
    if (stopKind_ == StopKind::Budget)
        throw MachineTrap(TrapKind::Abort,
                          cat("cycle budget exhausted (", cycles_,
                              " cycles >= budget ", stopCycles_, ")"));
    // A slice stop is host machinery (watchdogs, deadlines, interrupt
    // polls) whose callers read only trapped() and sliceExpired(): no
    // message or register dump is formatted and nothing is thrown. Not
    // counting it in trapsTaken keeps that counter identical between a
    // sliced and an unsliced run of the same query.
    penalty_ = 0;
    sliceExpired_ = true;
    trapped_ = true;
    lastTrap_.kind = TrapKind::Abort;
    lastTrap_.message.clear();
    lastTrap_.faultAddr = 0;
    lastTrap_.pc = p_;
    lastTrap_.cycle = cycles_;
    lastTrap_.instructions = instructions_;
    lastTrap_.state.clear();
    return RunStatus::Trapped;
}

std::vector<Solution>
Machine::solutions(size_t max, const HostPoll &poll)
{
    auto armSlice = [&] {
        const uint64_t slice = poll.nextSlice ? poll.nextSlice() : 0;
        sliceStop_ = slice ? cycles_ + slice : 0;
    };
    std::vector<Solution> out;
    armSlice();
    RunStatus status = run();
    for (;;) {
        if (status == RunStatus::SolutionFound) {
            out.push_back(solution_);
            if (out.size() >= max)
                break;
            status = nextSolution(); // same window: no re-arm
        } else if (status == RunStatus::Trapped && sliceExpired_ &&
                   !(poll.stop && poll.stop())) {
            armSlice();
            status = resume();
        } else {
            break;
        }
    }
    sliceStop_ = 0;
    return out;
}

void
Machine::attachImage(size_t first, size_t end)
{
    // Predecode the image for the fast core. decodeInstr is a pure
    // function of the word, so an entry whose word the new image keeps
    // is kept too: a pooled machine restoring the templates of one
    // program re-decodes only the words that differ. An empty image
    // (the pristine reset between a pooled machine's queries) sets the
    // predecode aside rather than dropping it, and the next image takes
    // it back, so a compile miss re-decodes only what differs from the
    // machine's last image; while it is aside, decoded_ is empty like
    // the image. The grown tail is decoded word by word, never
    // default-filled and compared, since a zero code word does not
    // decode to DecodedInstr{}. The oracle keeps decoded_ empty so
    // every fetch takes the decode-per-step path.
    if (config_.fastDispatch) {
        const std::vector<uint64_t> &words = image_.words;
        if (words.empty()) {
            if (!decoded_.empty())
                setAsideDecoded_.swap(decoded_);
        } else if (decoded_.empty()) {
            // Decoded from the image before the empty one, which the
            // caller's range does not describe.
            decoded_.swap(setAsideDecoded_);
            first = 0;
            end = SIZE_MAX;
        }
        if (decoded_.size() > words.size())
            decoded_.resize(words.size());
        for (size_t i = first, kept = std::min(end, decoded_.size());
             i < kept; ++i)
            if (decoded_[i].raw != words[i])
                decoded_[i] = decodeInstr(words[i]);
        decoded_.reserve(words.size());
        for (size_t i = decoded_.size(); i < words.size(); ++i)
            decoded_.push_back(decodeInstr(words[i]));
    }
    if (config_.profile) {
        profiler_.attach(image_);
        profiler_.reset();
    }
}

void
Machine::step()
{
    const DecodedInstr &instr = fetchDecoded();
    execInstr(instr);
    finishStep(instr);
}

std::string
Machine::recentTrace(size_t max_entries) const
{
    std::ostringstream os;
    size_t count = std::min(max_entries, traceSize);
    for (size_t i = 0; i < count; ++i) {
        size_t idx = (traceHead_ + traceSize - count + i) % traceSize;
        const TraceEntry &entry = trace_[idx];
        if (entry.raw == 0 && entry.p == 0)
            continue;
        std::vector<uint64_t> one{entry.raw};
        os << "0x" << std::hex << entry.p << std::dec << ":\t"
           << disasmOne(one, 0) << "\n";
    }
    return os.str();
}

std::string
Machine::stateString() const
{
    std::ostringstream os;
    os << std::hex << "P=0x" << p_ << " CP=0x" << cpCont_ << " E=0x" << e_
       << " LT=0x" << lt_ << " LB=0x" << lb_ << " B=0x" << b_ << " CT=0x"
       << ct_ << " B0=0x" << b0_ << " H=0x" << h_ << " HB=0x" << hb_
       << " TR=0x" << tr_ << std::dec << " shallow=" << shallowFlag_
       << " cpFlag=" << cpFlag_;
    return os.str();
}

void
Machine::hostWrite(const std::string &text)
{
    if (config_.captureOutput)
        hostOutput_ += text;
    else
        fputs(text.c_str(), stdout);
}

void
Machine::collectSolution()
{
    ExportVars vars;
    solution_.bindings.clear();
    for (const auto &[name, slot] : image_.querySolutionSlots) {
        Word w = mem_->peekData(e_ + 2 + slot);
        solution_.bindings.emplace_back(name, exportTerm(w, vars));
    }
    solutionReady_ = true;
}

TermRef
Machine::exportTerm(Word w)
{
    ExportVars vars;
    return exportTerm(w, vars);
}

TermRef
Machine::exportTerm(Word w, ExportVars &vars, int depth)
{
    if (depth > 4000)
        return Term::makeAtom("...");

    // Untimed dereference through the debug interface.
    while (w.isRef()) {
        Word v = mem_->peekData(w.addr());
        if (v.raw() == w.raw()) {
            TermRef &var = vars[w.addr()];
            if (!var)
                var = Term::makeVar(cat("_G", w.addr()));
            return var;
        }
        w = v;
    }

    switch (w.tag()) {
      case Tag::Nil:
        return Term::makeAtom(AtomTable::instance().nil);
      case Tag::Atom:
        return Term::makeAtom(w.atom());
      case Tag::Int:
        return Term::makeInt(w.intValue());
      case Tag::Float:
        return Term::makeFloat(w.floatValue());
      case Tag::List: {
        TermRef head =
            exportTerm(mem_->peekData(w.addr()), vars, depth + 1);
        TermRef tail =
            exportTerm(mem_->peekData(w.addr() + 1), vars, depth + 1);
        return Term::makeCons(head, tail);
      }
      case Tag::Struct: {
        Word f = mem_->peekData(w.addr());
        std::vector<TermRef> args;
        for (uint32_t i = 1; i <= f.functorArity(); ++i)
            args.push_back(exportTerm(mem_->peekData(w.addr() + i), vars,
                                      depth + 1));
        return Term::makeStruct(f.functorName(), std::move(args));
      }
      default:
        return Term::makeAtom(cat("<", tagName(w.tag()), ">"));
    }
}

} // namespace kcm
