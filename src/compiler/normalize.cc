#include "compiler/normalize.hh"

#include <set>

#include "base/logging.hh"
#include "prolog/writer.hh"

namespace kcm
{

namespace
{

// Fixed names are resolved once. Operators were all interned by the
// first OperatorTable; every other name is resolved where it was
// always first interned, so no atom id moves.

bool
isControlStruct(const TermRef &t, AtomId name, uint32_t arity)
{
    return t->isStruct() && t->arity() == arity && t->functorName() == name;
}

AtomId
negationAtom()
{
    static const AtomId id = internAtom("\\+");
    return id;
}

class Normalizer
{
  public:
    explicit Normalizer(NormProgram &program) : program_(program) {}

    /** Flatten @p body into @p goals, spawning auxiliaries. */
    void
    flatten(const TermRef &body, std::vector<TermRef> &goals)
    {
        const AtomTable &atoms = AtomTable::instance();
        if (isControlStruct(body, atoms.comma, 2)) {
            flatten(body->arg(0), goals);
            flatten(body->arg(1), goals);
            return;
        }
        if (isControlStruct(body, atoms.semicolon, 2) ||
            isControlStruct(body, atoms.arrow, 2) ||
            isControlStruct(body, negationAtom(), 1)) {
            goals.push_back(makeAuxiliary(body));
            return;
        }
        if (body->isStruct() && body->arity() == 3) {
            static const AtomId catch_atom = internAtom("catch");
            if (body->functorName() == catch_atom) {
                // catch/3 meta-calls its Goal and Recovery at run time;
                // wrap them in auxiliary predicates so control
                // constructs compile and cuts stay local to the
                // protected goal (ISO).
                goals.push_back(Term::makeStruct(
                    catch_atom, {wrapMetaArg(body->arg(0)), body->arg(1),
                                 wrapMetaArg(body->arg(2))}));
                return;
            }
        }
        if (body->isVar()) {
            // Meta-call of a variable: route through call/1.
            static const AtomId call_atom = internAtom("call");
            goals.push_back(Term::makeStruct(call_atom, {body}));
            return;
        }
        if (!body->isAtom() && !body->isStruct()) {
            fatal("normalize: goal is not callable: ", writeTerm(body));
        }
        goals.push_back(body);
    }

    /**
     * Wrap a catch/3 Goal or Recovery argument: callable arguments
     * become a call to a fresh auxiliary predicate (one clause, the
     * argument as body). Variables and non-callables pass through and
     * are dealt with by the runtime meta-call (instantiation_error /
     * type_error(callable, _)).
     */
    TermRef
    wrapMetaArg(const TermRef &goal)
    {
        if (!goal->isAtom() && !goal->isStruct())
            return goal;
        std::vector<TermRef> vars;
        collectVars(goal, vars);
        AtomId name_atom = freshAuxName();
        TermRef call_goal = vars.empty()
                                ? Term::makeAtom(name_atom)
                                : Term::makeStruct(name_atom, vars);
        Functor f{name_atom, static_cast<uint32_t>(vars.size())};
        program_.auxiliaries.push_back(f);
        NormClause clause;
        clause.head = call_goal;
        flatten(goal, clause.goals);
        program_.add(f, std::move(clause));
        return call_goal;
    }

    /**
     * Replace a control construct with a call to a fresh predicate
     * whose clauses implement it. The auxiliary's arguments are the
     * distinct variables of the construct (they connect it to the
     * enclosing clause).
     */
    TermRef
    makeAuxiliary(const TermRef &construct)
    {
        std::vector<TermRef> vars;
        collectVars(construct, vars);
        AtomId name_atom = freshAuxName();
        TermRef call_goal = vars.empty()
                                ? Term::makeAtom(name_atom)
                                : Term::makeStruct(name_atom, vars);
        Functor f{name_atom, static_cast<uint32_t>(vars.size())};
        program_.auxiliaries.push_back(f);

        auto add_clause = [&](const TermRef &body) {
            NormClause clause;
            clause.head = call_goal;
            flatten(body, clause.goals);
            program_.add(f, std::move(clause));
        };

        const AtomTable &atoms = AtomTable::instance();
        TermRef cut = Term::makeAtom(atoms.cutAtom);
        TermRef fail_atom = Term::makeAtom(atoms.failAtom);
        TermRef true_atom = Term::makeAtom(atoms.trueAtom);
        const AtomId comma = atoms.comma;

        if (isControlStruct(construct, negationAtom(), 1)) {
            // aux :- G, !, fail.   aux.
            add_clause(Term::makeStruct(
                comma, {construct->arg(0),
                        Term::makeStruct(comma, {cut, fail_atom})}));
            add_clause(true_atom);
            return call_goal;
        }

        if (isControlStruct(construct, atoms.arrow, 2)) {
            // (C -> T): aux :- C, !, T.  (fails if C fails)
            add_clause(Term::makeStruct(
                comma, {construct->arg(0),
                        Term::makeStruct(comma, {cut, construct->arg(1)})}));
            return call_goal;
        }

        // Disjunction, possibly an if-then-else.
        const TermRef &lhs = construct->arg(0);
        const TermRef &rhs = construct->arg(1);
        if (isControlStruct(lhs, atoms.arrow, 2)) {
            // (C -> T ; E)
            add_clause(Term::makeStruct(
                comma, {lhs->arg(0),
                        Term::makeStruct(comma, {cut, lhs->arg(1)})}));
            add_clause(rhs);
        } else {
            add_clause(lhs);
            add_clause(rhs);
        }
        return call_goal;
    }

  private:
    /**
     * A fresh auxiliary predicate's name. Numbering is per compilation
     * unit: the n-th auxiliary of a NormProgram is `$aux<n>`, so every
     * compile of the same text reuses the same atoms and emits the
     * same image, whatever the process compiled before — and
     * concurrent compiles share no counter.
     */
    AtomId
    freshAuxName() const
    {
        return internAtom(cat("$aux", program_.auxiliaries.size()));
    }

    NormProgram &program_;
};

} // namespace

void
NormProgram::add(const Functor &f, NormClause clause)
{
    auto it = preds.find(f);
    if (it == preds.end()) {
        order.push_back(f);
        preds[f].push_back(std::move(clause));
    } else {
        it->second.push_back(std::move(clause));
    }
}

namespace
{

/** Parse one dynamic/1 spec: F/N, a ','-chain of specs, or a list of
 *  specs. Appends the functors to @p out. */
void
collectDynamicSpec(const TermRef &spec, std::vector<Functor> &out)
{
    static const AtomId slash = internAtom("/");
    AtomId comma = AtomTable::instance().comma;
    if (spec->isStruct() && spec->arity() == 2 &&
        spec->functorName() == comma) {
        collectDynamicSpec(spec->arg(0), out);
        collectDynamicSpec(spec->arg(1), out);
        return;
    }
    if (spec->isCons()) {
        TermRef t = spec;
        while (t->isCons()) {
            collectDynamicSpec(t->arg(0), out);
            t = t->arg(1);
        }
        if (!t->isNil())
            fatal("dynamic/1: improper predicate indicator list");
        return;
    }
    if (spec->isStruct() && spec->arity() == 2 &&
        spec->functorName() == slash && spec->arg(0)->isAtom() &&
        spec->arg(1)->isInt() && spec->arg(1)->intValue() >= 0 &&
        spec->arg(1)->intValue() <= 0xFF) {
        out.push_back(Functor{spec->arg(0)->atom(),
                              static_cast<uint32_t>(spec->arg(1)->intValue())});
        return;
    }
    fatal("dynamic/1: bad predicate indicator: ", writeTerm(spec));
}

bool
isDynamicDirective(const TermRef &goal)
{
    if (!goal->isStruct() || goal->arity() != 1)
        return false;
    static const AtomId dynamic_atom = internAtom("dynamic");
    return goal->functorName() == dynamic_atom;
}

} // namespace

void
normalizeProgram(const std::vector<ReadClause> &clauses, NormProgram &out)
{
    Normalizer normalizer(out);
    AtomId neck = AtomTable::instance().neck;
    static const AtomId query_neck = internAtom("?-");

    // Pass 1: collect every dynamic/1 declaration, so the directive
    // is honoured wherever it appears relative to the clauses.
    std::set<Functor> dynamic_set(out.dynamicDecls.begin(),
                                  out.dynamicDecls.end());
    for (const auto &read : clauses) {
        const TermRef &term = read.term;
        if (term->isStruct() && term->arity() == 1 &&
            (term->functorName() == neck ||
             term->functorName() == query_neck) &&
            isDynamicDirective(term->arg(0))) {
            std::vector<Functor> decls;
            collectDynamicSpec(term->arg(0)->arg(0), decls);
            for (const Functor &f : decls) {
                if (dynamic_set.insert(f).second)
                    out.dynamicDecls.push_back(f);
            }
        }
    }

    for (const auto &read : clauses) {
        const TermRef &term = read.term;

        // Directives.
        if (term->isStruct() && term->arity() == 1 &&
            (term->functorName() == neck ||
             term->functorName() == query_neck)) {
            const TermRef &goal = term->arg(0);
            bool is_op = false;
            if (goal->isStruct() && goal->arity() == 3) {
                static const AtomId op_atom = internAtom("op");
                is_op = goal->functorName() == op_atom;
            }
            if (!is_op && !isDynamicDirective(goal)) {
                warn("ignoring directive: ", writeTerm(term));
            }
            continue;
        }

        // Clauses of dynamic predicates skip static compilation; the
        // loader asserts them into the clause store instead.
        {
            TermRef head = term;
            if (term->isStruct() && term->arity() == 2 &&
                term->functorName() == neck)
                head = term->arg(0);
            if ((head->isAtom() || head->isStruct()) &&
                dynamic_set.count(head->functor())) {
                out.dynamicClauses.emplace_back(head->functor(), term);
                continue;
            }
        }

        NormClause clause;
        if (term->isStruct() && term->arity() == 2 &&
            term->functorName() == neck) {
            clause.head = term->arg(0);
            normalizer.flatten(term->arg(1), clause.goals);
        } else {
            clause.head = term;
        }

        if (!clause.head->isAtom() && !clause.head->isStruct())
            fatal("normalize: bad clause head: ", writeTerm(clause.head));

        Functor f = clause.head->functor();
        out.add(f, std::move(clause));
    }
}

std::vector<TermRef>
normalizeBody(const TermRef &body, NormProgram &program)
{
    Normalizer normalizer(program);
    std::vector<TermRef> goals;
    normalizer.flatten(body, goals);
    return goals;
}

} // namespace kcm
