#include "baseline/interp.hh"

#include <pthread.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <unordered_map>

#include "base/logging.hh"
#include "compiler/builtin_defs.hh"
#include "prolog/writer.hh"

namespace kcm::baseline
{

namespace
{

/** Dereference a cell through its binding chain. */
Cell *
deref(Cell *c)
{
    while (c->kind == Cell::Kind::Var && c->ref)
        c = c->ref;
    return c;
}

/** A thrown Prolog ball. The payload is an exported copy taken at
 *  throw time (ISO: throw/1 copies its argument), so it survives the
 *  trail unwinding that happens while the exception propagates. */
struct PrologThrow
{
    TermRef ball;
};

/** halt/0: abandon the search, unwinding every solver frame. */
struct PrologHalt
{
};

} // namespace

std::string
InterpSolution::toString() const
{
    return writeAnswer(bindings);
}

struct Interpreter::Impl
{
    // --- storage ---

    std::deque<Cell> arena;
    std::vector<Cell *> trail;
    OperatorTable ops;

    struct StoredClause
    {
        TermRef head;
        TermRef body; ///< null for facts
    };
    std::map<Functor, std::vector<StoredClause>> database;

    /** Dynamic (assert/retract) predicates live here, not in
     *  `database`, sharing index structure and update semantics with
     *  the machine cores. */
    std::shared_ptr<db::ClauseStore> dynDb =
        std::make_shared<db::ClauseStore>();

    uint64_t inferences = 0;
    std::string output;

    /** Arena-byte ceiling (0 = unlimited), the interpreter's mirror
     *  of ResourceGovernor::memoryBudgetBytes: crossing it throws a
     *  catchable resource_error(memory) ball from the allocation
     *  point. Once tripped the budget is waived for the rest of the
     *  query (the arena never shrinks, so the catch/3 recovery goal
     *  must still be able to allocate — the machine analog frees
     *  memory by unwinding instead). */
    uint64_t memoryBudgetBytes = 0;
    bool memBudgetTripped = false;
    /** Monotone id per call-like region (predicate invocation,
     *  disjunction, negation); used to scope cuts. */
    uint64_t nextCallId = 1;
    /** Id of the region whose alternatives a fired cut prunes
     *  (UINT64_MAX = no cut pending). */
    uint64_t cutBarrier = UINT64_MAX;
    size_t maxSolutions = 1;
    std::vector<InterpSolution> solutions;
    std::vector<std::pair<std::string, Cell *>> queryVars;

    // --- cell building ---

    Cell *
    newCell()
    {
        if (memoryBudgetBytes && !memBudgetTripped &&
            arena.size() * sizeof(Cell) >= memoryBudgetBytes) {
            memBudgetTripped = true;
            throw PrologThrow{Term::makeStruct(
                "resource_error", {Term::makeAtom("memory")})};
        }
        arena.emplace_back();
        return &arena.back();
    }

    Cell *
    newVar()
    {
        Cell *c = newCell();
        c->kind = Cell::Kind::Var;
        return c;
    }

    /** Instantiate a source term with a per-activation variable map. */
    Cell *
    instantiate(const TermRef &t,
                std::unordered_map<const Term *, Cell *> &vars)
    {
        switch (t->kind()) {
          case TermKind::Var: {
            auto it = vars.find(t.get());
            if (it != vars.end())
                return it->second;
            Cell *v = newVar();
            vars.emplace(t.get(), v);
            return v;
          }
          case TermKind::Atom: {
            Cell *c = newCell();
            c->kind = Cell::Kind::Atom;
            c->functor = t->atom();
            return c;
          }
          case TermKind::Int: {
            Cell *c = newCell();
            c->kind = Cell::Kind::Int;
            c->intValue = t->intValue();
            return c;
          }
          case TermKind::Float: {
            Cell *c = newCell();
            c->kind = Cell::Kind::Float;
            c->floatValue = t->floatValue();
            return c;
          }
          case TermKind::Struct: {
            Cell *c = newCell();
            c->kind = Cell::Kind::Struct;
            c->functor = t->functorName();
            for (const auto &arg : t->args())
                c->args.push_back(instantiate(arg, vars));
            return c;
          }
        }
        panic("instantiate: unreachable");
    }

    /** Convert a runtime cell back into a source term. */
    TermRef
    exportCell(Cell *c, std::unordered_map<Cell *, TermRef> &vars,
               int depth = 0)
    {
        if (depth > 4000)
            return Term::makeAtom("...");
        c = deref(c);
        switch (c->kind) {
          case Cell::Kind::Var: {
            auto it = vars.find(c);
            if (it != vars.end())
                return it->second;
            // Distinct cells get distinct names: the clause store
            // canonicalizes variables by name on insert, so an
            // asserted p(X, Y) must not export as p(_B, _B).
            TermRef v = Term::makeVar("_B" + std::to_string(vars.size()));
            vars.emplace(c, v);
            return v;
          }
          case Cell::Kind::Atom:
            return Term::makeAtom(c->functor);
          case Cell::Kind::Int:
            return Term::makeInt(c->intValue);
          case Cell::Kind::Float:
            return Term::makeFloat(c->floatValue);
          case Cell::Kind::Struct: {
            std::vector<TermRef> args;
            for (Cell *arg : c->args)
                args.push_back(exportCell(arg, vars, depth + 1));
            return Term::makeStruct(c->functor, std::move(args));
          }
        }
        panic("exportCell: unreachable");
    }

    // --- unification ---

    void
    bindVar(Cell *var, Cell *value)
    {
        var->ref = value;
        trail.push_back(var);
    }

    size_t trailMark() const { return trail.size(); }

    void
    undoTrail(size_t mark)
    {
        while (trail.size() > mark) {
            trail.back()->ref = nullptr;
            trail.pop_back();
        }
    }

    bool
    unify(Cell *a, Cell *b)
    {
        a = deref(a);
        b = deref(b);
        if (a == b)
            return true;
        if (a->kind == Cell::Kind::Var) {
            bindVar(a, b);
            return true;
        }
        if (b->kind == Cell::Kind::Var) {
            bindVar(b, a);
            return true;
        }
        if (a->kind != b->kind)
            return false;
        switch (a->kind) {
          case Cell::Kind::Atom:
            return a->functor == b->functor;
          case Cell::Kind::Int:
            return a->intValue == b->intValue;
          case Cell::Kind::Float:
            return a->floatValue == b->floatValue;
          case Cell::Kind::Struct:
            if (a->functor != b->functor ||
                a->args.size() != b->args.size()) {
                return false;
            }
            for (size_t i = 0; i < a->args.size(); ++i) {
                if (!unify(a->args[i], b->args[i]))
                    return false;
            }
            return true;
          default:
            return false;
        }
    }

    // --- arithmetic ---

    bool
    evalArith(Cell *c, double &out, bool &is_float)
    {
        c = deref(c);
        switch (c->kind) {
          case Cell::Kind::Int:
            out = double(c->intValue);
            return true;
          case Cell::Kind::Float:
            out = c->floatValue;
            is_float = true;
            return true;
          case Cell::Kind::Struct:
            break;
          default:
            return false;
        }
        const std::string &name = atomText(c->functor);
        if (c->args.size() == 1) {
            double a;
            if (!evalArith(c->args[0], a, is_float))
                return false;
            if (name == "-") { out = -a; return true; }
            if (name == "+") { out = a; return true; }
            if (name == "abs") { out = std::fabs(a); return true; }
            return false;
        }
        if (c->args.size() == 2) {
            double a;
            double b;
            if (!evalArith(c->args[0], a, is_float) ||
                !evalArith(c->args[1], b, is_float)) {
                return false;
            }
            if (name == "+") { out = a + b; return true; }
            if (name == "-") { out = a - b; return true; }
            if (name == "*") { out = a * b; return true; }
            if (name == "//" || (name == "/" && !is_float)) {
                if (int64_t(b) == 0)
                    return false;
                out = double(int64_t(a) / int64_t(b));
                return true;
            }
            if (name == "/") {
                if (b == 0)
                    return false;
                out = a / b;
                return true;
            }
            if (name == "mod") {
                if (int64_t(b) == 0)
                    return false;
                out = double(int64_t(a) % int64_t(b));
                return true;
            }
            if (name == "min") { out = std::min(a, b); return true; }
            if (name == "max") { out = std::max(a, b); return true; }
            return false;
        }
        return false;
    }

    Cell *
    arithCell(double v, bool is_float)
    {
        Cell *c = newCell();
        if (is_float) {
            c->kind = Cell::Kind::Float;
            c->floatValue = v;
        } else {
            c->kind = Cell::Kind::Int;
            c->intValue = int64_t(v);
        }
        return c;
    }

    // --- structural comparison ---

    int
    compareCells(Cell *a, Cell *b)
    {
        a = deref(a);
        b = deref(b);
        auto klass = [](Cell *c) {
            switch (c->kind) {
              case Cell::Kind::Var: return 0;
              case Cell::Kind::Int:
              case Cell::Kind::Float: return 1;
              case Cell::Kind::Atom: return 2;
              default: return 3;
            }
        };
        int ka = klass(a);
        int kb = klass(b);
        if (ka != kb)
            return ka < kb ? -1 : 1;
        switch (ka) {
          case 0:
            return a == b ? 0 : (a < b ? -1 : 1);
          case 1: {
            double va = a->kind == Cell::Kind::Int ? double(a->intValue)
                                                   : a->floatValue;
            double vb = b->kind == Cell::Kind::Int ? double(b->intValue)
                                                   : b->floatValue;
            return va == vb ? 0 : (va < vb ? -1 : 1);
          }
          case 2: {
            int c = atomText(a->functor).compare(atomText(b->functor));
            return c < 0 ? -1 : c > 0 ? 1 : 0;
          }
          default: {
            if (a->args.size() != b->args.size())
                return a->args.size() < b->args.size() ? -1 : 1;
            int c = atomText(a->functor).compare(atomText(b->functor));
            if (c)
                return c < 0 ? -1 : 1;
            for (size_t i = 0; i < a->args.size(); ++i) {
                int r = compareCells(a->args[i], b->args[i]);
                if (r)
                    return r;
            }
            return 0;
          }
        }
    }

    // --- dynamic clause database (src/db) ---

    /** First-argument index key a dereferenced cell selects,
     *  mirroring the machine's argKeyOf word for word (integers
     *  narrowed to the machine's 32-bit int word, floats keyed on the
     *  32-bit float pattern) so both engines touch the same index
     *  nodes. */
    db::ArgKey
    argKeyOfCell(Cell *c)
    {
        db::ArgKey k;
        switch (c->kind) {
          case Cell::Kind::Var:
            break;
          case Cell::Kind::Int:
            k.kind = db::ArgKey::Kind::Int;
            k.a = static_cast<uint64_t>(static_cast<int64_t>(
                static_cast<int32_t>(c->intValue)));
            break;
          case Cell::Kind::Float: {
            float f = static_cast<float>(c->floatValue);
            uint32_t bits;
            std::memcpy(&bits, &f, sizeof bits);
            k.kind = db::ArgKey::Kind::Float;
            k.a = bits;
            break;
          }
          case Cell::Kind::Atom:
            k.kind = db::ArgKey::Kind::Atom;
            k.a = c->functor;
            break;
          case Cell::Kind::Struct:
            k.kind = db::ArgKey::Kind::Functor;
            k.a = c->functor;
            k.b = c->args.size();
            break;
        }
        return k;
    }

    /** True when assert/retract on @p f must raise
     *  permission_error(modify, static_procedure, _): consulted
     *  static predicates, escape builtins, and the control constructs
     *  this solver realizes inline (the compiler realizes the same
     *  set as a static support library). */
    bool
    isStaticProcedure(const Functor &f) const
    {
        if (database.count(f))
            return true;
        if (findBuiltin(f).has_value())
            return true;
        const std::string &name = atomText(f.name);
        if (f.arity == 2 && (name == "," || name == ";" || name == "->"))
            return true;
        if (f.arity == 1 && name == "\\+")
            return true;
        return false;
    }

    [[noreturn]] void
    throwStaticProcedure(const Functor &f)
    {
        throw PrologThrow{Term::makeStruct(
            "permission_error",
            {Term::makeAtom("modify"), Term::makeAtom("static_procedure"),
             Term::makeStruct("/", {Term::makeAtom(f.name),
                                    Term::makeInt(f.arity)})})};
    }

    /** asserta/1, assertz/1, assert/1: validate like the machine's
     *  execAssert (identical error balls), then insert. */
    void
    assertCell(Cell *goal_arg, bool at_front)
    {
        Cell *c = deref(goal_arg);
        if (c->kind == Cell::Kind::Var)
            throw PrologThrow{Term::makeAtom("instantiation_error")};
        std::unordered_map<Cell *, TermRef> vars;
        TermRef term = exportCell(c, vars);
        TermRef head = term;
        TermRef body = nullptr;
        if (term->isStruct() && term->arity() == 2 &&
            atomText(term->functorName()) == ":-") {
            head = term->arg(0);
            body = term->arg(1);
        }
        if (head->isVar())
            throw PrologThrow{Term::makeAtom("instantiation_error")};
        if (!head->isAtom() && !head->isStruct()) {
            throw PrologThrow{Term::makeStruct(
                "type_error", {Term::makeAtom("callable"), head})};
        }
        Functor f = head->functor();
        if (f.arity > db::maxDynamicArity) {
            throw PrologThrow{Term::makeStruct(
                "representation_error", {Term::makeAtom("max_arity")})};
        }
        if (isStaticProcedure(f))
            throwStaticProcedure(f);
        dynDb->assertClause(f, head, body, at_front);
    }

    /**
     * retract/1: semidet, like the machine — the first clause whose
     * head and body unify with the pattern is erased and the bindings
     * stand; no choice point is left behind (a deliberate deviation
     * from ISO re-satisfaction, shared by both engines; DESIGN.md).
     */
    bool
    retractCell(Cell *goal_arg)
    {
        Cell *c = deref(goal_arg);
        if (c->kind == Cell::Kind::Var)
            throw PrologThrow{Term::makeAtom("instantiation_error")};
        Cell *head = c;
        Cell *body = trueCell(); // bodyless pattern matches facts and
                                 // true-bodied clauses
        if (c->kind == Cell::Kind::Struct && c->args.size() == 2 &&
            atomText(c->functor) == ":-") {
            head = deref(c->args[0]);
            body = c->args[1];
        }
        if (head->kind == Cell::Kind::Var)
            throw PrologThrow{Term::makeAtom("instantiation_error")};
        if (head->kind != Cell::Kind::Atom &&
            head->kind != Cell::Kind::Struct) {
            std::unordered_map<Cell *, TermRef> vars;
            throw PrologThrow{Term::makeStruct(
                "type_error",
                {Term::makeAtom("callable"), exportCell(head, vars)})};
        }
        Functor f{head->functor, uint32_t(head->args.size())};
        if (isStaticProcedure(f))
            throwStaticProcedure(f);
        if (!dynDb->isKnown(f))
            return false;
        uint64_t gen = dynDb->generation();
        db::ArgKey key =
            f.arity ? argKeyOfCell(deref(head->args[0])) : db::ArgKey{};
        int64_t cursor = 0;
        bool have_cursor = false;
        for (;;) {
            db::ClauseStore::LookupResult res =
                have_cursor ? dynDb->next(f, key, gen, cursor)
                            : dynDb->first(f, key, gen);
            if (!res.clause)
                return false;
            cursor = res.clause->seq;
            have_cursor = true;
            size_t mark = trailMark();
            std::unordered_map<const Term *, Cell *> vars;
            Cell *cand_head = instantiate(res.clause->head, vars);
            Cell *cand_body = res.clause->body
                                  ? instantiate(res.clause->body, vars)
                                  : trueCell();
            bool ok = unify(head, cand_head) && unify(body, cand_body);
            if (ok) {
                dynDb->eraseClause(f, res.clause->seq);
                return true;
            }
            undoTrail(mark);
        }
    }

    Cell *
    trueCell()
    {
        Cell *c = newCell();
        c->kind = Cell::Kind::Atom;
        c->functor = internAtom("true");
        return c;
    }

    // --- the solver ---

    /** Continuation: returns true to stop the whole search. */
    using Cont = std::function<bool()>;

    /**
     * After a region (call id @p my_id) finished exploring one
     * alternative, decide whether a fired cut prunes the remaining
     * ones. Returns true if the loop must stop.
     */
    bool
    cutPrunes(uint64_t my_id)
    {
        if (cutBarrier == UINT64_MAX)
            return false;
        if (cutBarrier == my_id) {
            cutBarrier = UINT64_MAX; // consumed at its own region
            return true;
        }
        return cutBarrier < my_id; // keep propagating outwards
    }

    /**
     * Solve @p goal then continue with @p k.
     * @param cut_id the call id of the enclosing clause's predicate
     *        invocation — the region a '!' in this goal prunes.
     * @return true to stop the whole search (enough solutions).
     */
    bool
    solve(Cell *goal, uint64_t cut_id, const Cont &k)
    {
        goal = deref(goal);

        // ISO call errors, mirroring the machine's metaCall.
        if (goal->kind == Cell::Kind::Var)
            throw PrologThrow{Term::makeAtom("instantiation_error")};
        if (goal->kind != Cell::Kind::Atom &&
            goal->kind != Cell::Kind::Struct) {
            std::unordered_map<Cell *, TermRef> vars;
            throw PrologThrow{Term::makeStruct(
                "type_error",
                {Term::makeAtom("callable"), exportCell(goal, vars)})};
        }

        const std::string &name = atomText(goal->functor);
        size_t arity = goal->args.size();
        auto arg = [&](size_t i) { return goal->args[i]; };

        ++inferences;

        // Control constructs.
        if (name == "true" && arity == 0)
            return k();
        if ((name == "fail" || name == "false") && arity == 0)
            return false;
        if (name == "!" && arity == 0) {
            if (k())
                return true;
            // Backtracking into the cut prunes everything up to the
            // enclosing clause's invocation.
            cutBarrier = std::min(cutBarrier, cut_id);
            return false;
        }
        if (name == "," && arity == 2) {
            --inferences; // conjunctions are not goals
            return solve(arg(0), cut_id, [&]() {
                return solve(arg(1), cut_id, k);
            });
        }
        if (name == ";" && arity == 2) {
            --inferences;
            Cell *lhs = deref(arg(0));
            uint64_t my_id = nextCallId++;
            if (lhs->kind == Cell::Kind::Struct &&
                atomText(lhs->functor) == "->" && lhs->args.size() == 2) {
                // If-then-else: commit to the first solution of the
                // condition.
                size_t mark = trailMark();
                bool cond_ok = false;
                solve(lhs->args[0], my_id, [&]() {
                    cond_ok = true;
                    return true; // keep bindings, stop the search
                });
                if (cond_ok)
                    return solve(lhs->args[1], my_id, k);
                undoTrail(mark);
                return solve(arg(1), my_id, k);
            }
            // Note: like the KCM compiler (which realizes control
            // constructs as auxiliary predicates), a cut inside a
            // disjunction is local to the disjunction.
            size_t mark = trailMark();
            bool stop = solve(arg(0), my_id, k);
            if (stop)
                return true;
            if (cutPrunes(my_id))
                return false;
            undoTrail(mark);
            return solve(arg(1), my_id, k);
        }
        if (name == "->" && arity == 2) {
            --inferences;
            size_t mark = trailMark();
            uint64_t my_id = nextCallId++;
            bool cond_ok = false;
            solve(arg(0), my_id, [&]() {
                cond_ok = true;
                return true;
            });
            if (cond_ok)
                return solve(arg(1), my_id, k);
            undoTrail(mark);
            return false;
        }
        if (name == "\\+" && arity == 1) {
            size_t mark = trailMark();
            uint64_t my_id = nextCallId++;
            bool found = false;
            solve(arg(0), my_id, [&]() {
                found = true;
                return true;
            });
            undoTrail(mark);
            return found ? false : k();
        }
        if (name == "call" && arity == 1) {
            uint64_t my_id = nextCallId++;
            return solve(arg(0), my_id, k);
        }
        if (name == "throw" && arity == 1) {
            Cell *ball = deref(arg(0));
            if (ball->kind == Cell::Kind::Var)
                throw PrologThrow{Term::makeAtom("instantiation_error")};
            std::unordered_map<Cell *, TermRef> vars;
            throw PrologThrow{exportCell(ball, vars)};
        }
        if (name == "catch" && arity == 3) {
            size_t mark = trailMark();
            uint64_t my_id = nextCallId++;
            try {
                return solve(arg(0), my_id, k);
            } catch (const PrologThrow &thrown) {
                // Undo the Goal's bindings (the machine does this with
                // its trail-driven unwind), then offer the ball to the
                // catcher.
                undoTrail(mark);
                std::unordered_map<const Term *, Cell *> vars;
                Cell *ball = instantiate(thrown.ball, vars);
                size_t ball_mark = trailMark();
                if (!unify(ball, arg(1))) {
                    undoTrail(ball_mark);
                    throw; // no match: rethrow to the enclosing catch/3
                }
                return solve(arg(2), my_id, k);
            }
        }
        if (name == "halt" && arity == 0)
            throw PrologHalt{};

        // Builtins.
        if (name == "=" && arity == 2) {
            size_t mark = trailMark();
            if (unify(arg(0), arg(1))) {
                if (k())
                    return true;
            }
            undoTrail(mark);
            return false;
        }
        if (name == "is" && arity == 2) {
            double v;
            bool is_float = false;
            if (!evalArith(arg(1), v, is_float))
                return false;
            size_t mark = trailMark();
            if (unify(arg(0), arithCell(v, is_float)) && k())
                return true;
            undoTrail(mark);
            return false;
        }
        {
            static const std::map<std::string, int> cmps = {
                {"<", 0}, {">", 1}, {"=<", 2},
                {">=", 3}, {"=:=", 4}, {"=\\=", 5}};
            auto it = cmps.find(name);
            if (it != cmps.end() && arity == 2) {
                double a;
                double b;
                bool fa = false;
                bool fb = false;
                if (!evalArith(arg(0), a, fa) || !evalArith(arg(1), b, fb))
                    return false;
                bool ok = false;
                switch (it->second) {
                  case 0: ok = a < b; break;
                  case 1: ok = a > b; break;
                  case 2: ok = a <= b; break;
                  case 3: ok = a >= b; break;
                  case 4: ok = a == b; break;
                  case 5: ok = a != b; break;
                }
                return ok ? k() : false;
            }
        }
        if (name == "==" && arity == 2)
            return compareCells(arg(0), arg(1)) == 0 ? k() : false;
        if (name == "\\==" && arity == 2)
            return compareCells(arg(0), arg(1)) != 0 ? k() : false;
        if (name == "@<" && arity == 2)
            return compareCells(arg(0), arg(1)) < 0 ? k() : false;
        if (name == "@>" && arity == 2)
            return compareCells(arg(0), arg(1)) > 0 ? k() : false;
        if (name == "@=<" && arity == 2)
            return compareCells(arg(0), arg(1)) <= 0 ? k() : false;
        if (name == "@>=" && arity == 2)
            return compareCells(arg(0), arg(1)) >= 0 ? k() : false;
        if (name == "var" && arity == 1)
            return deref(arg(0))->kind == Cell::Kind::Var ? k() : false;
        if (name == "nonvar" && arity == 1)
            return deref(arg(0))->kind != Cell::Kind::Var ? k() : false;
        if (name == "atom" && arity == 1)
            return deref(arg(0))->kind == Cell::Kind::Atom ? k() : false;
        if (name == "integer" && arity == 1)
            return deref(arg(0))->kind == Cell::Kind::Int ? k() : false;
        if (name == "float" && arity == 1)
            return deref(arg(0))->kind == Cell::Kind::Float ? k() : false;
        if (name == "number" && arity == 1) {
            Cell *c = deref(arg(0));
            return (c->kind == Cell::Kind::Int ||
                    c->kind == Cell::Kind::Float)
                       ? k()
                       : false;
        }
        if (name == "atomic" && arity == 1) {
            Cell *c = deref(arg(0));
            return (c->kind != Cell::Kind::Var &&
                    c->kind != Cell::Kind::Struct)
                       ? k()
                       : false;
        }
        if (name == "compound" && arity == 1)
            return deref(arg(0))->kind == Cell::Kind::Struct ? k() : false;
        if ((name == "write" || name == "writeq" || name == "print") &&
            arity == 1) {
            std::unordered_map<Cell *, TermRef> vars;
            WriteOptions options;
            options.quoted = name == "writeq";
            output += writeTerm(exportCell(arg(0), vars), ops, options);
            return k();
        }
        if (name == "nl" && arity == 0) {
            output += "\n";
            return k();
        }
        if (name == "functor" && arity == 3) {
            Cell *t = deref(arg(0));
            if (t->kind != Cell::Kind::Var) {
                Cell *nm = newCell();
                Cell *ar = newCell();
                ar->kind = Cell::Kind::Int;
                if (t->kind == Cell::Kind::Struct) {
                    nm->kind = Cell::Kind::Atom;
                    nm->functor = t->functor;
                    ar->intValue = int64_t(t->args.size());
                } else {
                    *nm = *t;
                    ar->intValue = 0;
                }
                size_t mark = trailMark();
                if (unify(arg(1), nm) && unify(arg(2), ar) && k())
                    return true;
                undoTrail(mark);
                return false;
            }
            Cell *nm = deref(arg(1));
            Cell *ar = deref(arg(2));
            if (ar->kind != Cell::Kind::Int)
                return false;
            Cell *built;
            if (ar->intValue == 0) {
                built = nm;
            } else {
                if (nm->kind != Cell::Kind::Atom)
                    return false;
                built = newCell();
                built->kind = Cell::Kind::Struct;
                built->functor = nm->functor;
                for (int64_t i = 0; i < ar->intValue; ++i)
                    built->args.push_back(newVar());
            }
            size_t mark = trailMark();
            if (unify(t, built) && k())
                return true;
            undoTrail(mark);
            return false;
        }
        if ((name == "asserta" || name == "assertz" || name == "assert") &&
            arity == 1) {
            assertCell(arg(0), name == "asserta");
            return k();
        }
        if (name == "retract" && arity == 1) {
            size_t mark = trailMark();
            if (retractCell(arg(0))) {
                if (k())
                    return true;
                // Semidet: the bindings are undone on backtracking
                // but the erasure stands (a side effect).
                undoTrail(mark);
            }
            return false;
        }
        if (name == "arg" && arity == 3) {
            Cell *n = deref(arg(0));
            Cell *t = deref(arg(1));
            if (n->kind != Cell::Kind::Int ||
                t->kind != Cell::Kind::Struct) {
                return false;
            }
            if (n->intValue < 1 ||
                size_t(n->intValue) > t->args.size()) {
                return false;
            }
            size_t mark = trailMark();
            if (unify(arg(2), t->args[size_t(n->intValue) - 1]) && k())
                return true;
            undoTrail(mark);
            return false;
        }

        // User predicates.
        Functor f{goal->functor, uint32_t(arity)};
        auto it = database.find(f);
        if (it == database.end()) {
            if (dynDb->isKnown(f))
                return solveDynamic(goal, f, k);
            warn("baseline: undefined predicate ", name, "/", arity);
            return false;
        }

        uint64_t my_id = nextCallId++;
        for (const auto &clause : it->second) {
            size_t mark = trailMark();
            std::unordered_map<const Term *, Cell *> vars;
            Cell *head = instantiate(clause.head, vars);
            bool heads_match = true;
            if (goal->kind == Cell::Kind::Struct) {
                for (size_t i = 0; i < arity && heads_match; ++i)
                    heads_match = unify(arg(i), head->args[i]);
            }
            if (heads_match) {
                bool stop;
                if (clause.body) {
                    Cell *body = instantiate(clause.body, vars);
                    stop = solve(body, my_id, k);
                } else {
                    stop = k();
                }
                if (stop)
                    return true;
            }
            undoTrail(mark);
            if (cutPrunes(my_id))
                return false;
        }
        return false;
    }

    /**
     * Solve a dynamic-predicate goal against the clause store under
     * the ISO logical update view: the generation captured here fixes
     * the visible clause set for the whole iteration, so asserts and
     * retracts performed by the clause bodies (or by backtracked-into
     * siblings) do not disturb it.
     */
    bool
    solveDynamic(Cell *goal, const Functor &f, const Cont &k)
    {
        uint64_t my_id = nextCallId++;
        uint64_t gen = dynDb->generation();
        db::ArgKey key =
            f.arity ? argKeyOfCell(deref(goal->args[0])) : db::ArgKey{};
        int64_t cursor = 0;
        bool have_cursor = false;
        for (;;) {
            db::ClauseStore::LookupResult res =
                have_cursor ? dynDb->next(f, key, gen, cursor)
                            : dynDb->first(f, key, gen);
            if (!res.clause)
                return false;
            cursor = res.clause->seq;
            have_cursor = true;
            size_t mark = trailMark();
            std::unordered_map<const Term *, Cell *> vars;
            Cell *head = instantiate(res.clause->head, vars);
            bool heads_match = true;
            for (size_t i = 0; i < f.arity && heads_match; ++i)
                heads_match = unify(goal->args[i], head->args[i]);
            if (heads_match) {
                bool stop;
                if (res.clause->body) {
                    Cell *body = instantiate(res.clause->body, vars);
                    stop = solve(body, my_id, k);
                } else {
                    stop = k();
                }
                if (stop)
                    return true;
            }
            undoTrail(mark);
            if (cutPrunes(my_id))
                return false;
        }
    }
};

Interpreter::Interpreter() : impl_(std::make_unique<Impl>()) {}

Interpreter::~Interpreter() = default;

namespace
{

/** Collect F/N functors from a dynamic/1 specification: one
 *  indicator, a comma chain, or a list (mirrors the compiler's
 *  normalize pass). */
void
collectDynamicSpec(const TermRef &spec, std::vector<Functor> &out)
{
    TermRef t = spec;
    if (!t)
        return;
    if (t->isStruct() && t->arity() == 2) {
        const std::string &name = atomText(t->functorName());
        if (name == ",") {
            collectDynamicSpec(t->arg(0), out);
            collectDynamicSpec(t->arg(1), out);
            return;
        }
        if (name == ".") {
            collectDynamicSpec(t->arg(0), out);
            collectDynamicSpec(t->arg(1), out);
            return;
        }
        if (name == "/" && t->arg(0)->isAtom() && t->arg(1)->isInt()) {
            out.push_back(Functor{t->arg(0)->atom(),
                                  uint32_t(t->arg(1)->intValue())});
            return;
        }
    }
}

} // namespace

void
Interpreter::consult(const std::string &source)
{
    Parser parser(source, impl_->ops);
    ReadClause read;
    std::vector<TermRef> terms;
    while (parser.readClause(read))
        terms.push_back(std::move(read.term));

    // First pass: dynamic/1 declarations, so clauses of a dynamic
    // predicate route to the store regardless of their position
    // relative to the directive (mirrors the compiler's two-pass
    // normalize).
    for (const TermRef &term : terms) {
        if (term->isStruct() && term->arity() == 1 &&
            (atomText(term->functorName()) == ":-" ||
             atomText(term->functorName()) == "?-")) {
            const TermRef &dir = term->arg(0);
            if (dir->isStruct() && dir->arity() == 1 &&
                atomText(dir->functorName()) == "dynamic") {
                std::vector<Functor> specs;
                collectDynamicSpec(dir->arg(0), specs);
                for (const Functor &f : specs)
                    impl_->dynDb->declareDynamic(f);
            }
        }
    }

    for (const TermRef &term : terms) {
        if (term->isStruct() && term->arity() == 1 &&
            (atomText(term->functorName()) == ":-" ||
             atomText(term->functorName()) == "?-")) {
            continue; // directives: op/3 handled by the reader
        }
        Impl::StoredClause clause;
        if (term->isStruct() && term->arity() == 2 &&
            atomText(term->functorName()) == ":-") {
            clause.head = term->arg(0);
            clause.body = term->arg(1);
        } else {
            clause.head = term;
        }
        Functor f = clause.head->functor();
        if (impl_->dynDb->isKnown(f)) {
            // Source clauses of dynamic predicates seed the store in
            // source order, exactly like the machine's image
            // `dynamicInit` section.
            impl_->dynDb->assertClause(f, clause.head, clause.body,
                                       false);
            continue;
        }
        impl_->database[f].push_back(clause);
    }
}

void
Interpreter::attachDynamicDb(std::shared_ptr<db::ClauseStore> store)
{
    impl_->dynDb = std::move(store);
}

void
Interpreter::setMemoryBudgetBytes(uint64_t bytes)
{
    impl_->memoryBudgetBytes = bytes;
}

const std::shared_ptr<db::ClauseStore> &
Interpreter::dynamicDb() const
{
    return impl_->dynDb;
}

namespace
{

/**
 * Run @p body to completion on a thread of its own with a 1 GiB stack,
 * then rethrow whatever it threw. solve() recurses on the host stack
 * once per inference, so a deep goal overflows a default thread stack;
 * the large stack is mapped lazily, so only the pages a query touches
 * cost memory.
 */
void
runOnLargeStack(const std::function<void()> &body)
{
    struct Task
    {
        const std::function<void()> *body;
        std::exception_ptr error;
    } task{&body, nullptr};
    auto thread_main = [](void *arg) -> void * {
        auto *t = static_cast<Task *>(arg);
        try {
            (*t->body)();
        } catch (...) {
            t->error = std::current_exception();
        }
        return nullptr;
    };
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    pthread_attr_setstacksize(&attr, size_t(1) << 30);
    pthread_t tid;
    const int rc = pthread_create(&tid, &attr, thread_main, &task);
    pthread_attr_destroy(&attr);
    if (rc != 0)
        fatal("baseline: cannot spawn the query thread: ", strerror(rc));
    pthread_join(tid, nullptr);
    if (task.error)
        std::rethrow_exception(task.error);
}

} // namespace

InterpResult
Interpreter::query(const std::string &goal, size_t max_solutions)
{
    InterpResult result;
    runOnLargeStack([&] { result = queryOnThisStack(goal, max_solutions); });
    return result;
}

InterpResult
Interpreter::queryOnThisStack(const std::string &goal,
                              size_t max_solutions)
{
    Parser parser(goal + " .", impl_->ops);
    ReadClause read;
    if (!parser.readClause(read))
        fatal("baseline: empty query");

    impl_->inferences = 0;
    impl_->output.clear();
    impl_->solutions.clear();
    impl_->maxSolutions = max_solutions;
    impl_->memBudgetTripped = false;

    std::unordered_map<const Term *, Cell *> vars;
    Cell *body = impl_->instantiate(read.term, vars);

    std::vector<std::pair<std::string, Cell *>> named;
    for (const auto &[name, var] : read.varNames)
        named.emplace_back(name, vars.at(var.get()));

    auto start = std::chrono::steady_clock::now();
    impl_->cutBarrier = UINT64_MAX;
    uint64_t top_id = impl_->nextCallId++;
    bool halted = false;
    std::string error;
    try {
        impl_->solve(body, top_id, [&]() {
            InterpSolution solution;
            std::unordered_map<Cell *, TermRef> export_vars;
            for (const auto &[name, cell] : named) {
                solution.bindings.emplace_back(
                    name, impl_->exportCell(cell, export_vars));
            }
            impl_->solutions.push_back(std::move(solution));
            return impl_->solutions.size() >= impl_->maxSolutions;
        });
    } catch (const PrologThrow &thrown) {
        error = "unhandled_exception(" + writeTermQuoted(thrown.ball) + ")";
    } catch (const PrologHalt &) {
        halted = true;
    }
    auto end = std::chrono::steady_clock::now();

    InterpResult result;
    result.success = !impl_->solutions.empty();
    result.halted = halted;
    result.error = error;
    result.solutions = std::move(impl_->solutions);
    result.output = impl_->output;
    result.inferences = impl_->inferences;
    result.seconds = std::chrono::duration<double>(end - start).count();
    return result;
}

} // namespace kcm::baseline
