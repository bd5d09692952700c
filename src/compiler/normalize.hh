/**
 * @file
 * Clause normalization.
 *
 * Turns read clauses into a predicate-indexed program of flat clauses
 * (head + list of body goals). Control constructs that the KCM
 * instruction set does not execute directly — disjunction, if-then-
 * else, negation-as-failure — are compiled into fresh auxiliary
 * predicates, exactly as a WAM compiler front end does.
 */

#ifndef KCM_COMPILER_NORMALIZE_HH
#define KCM_COMPILER_NORMALIZE_HH

#include <map>
#include <string>
#include <vector>

#include "prolog/parser.hh"
#include "prolog/term.hh"

namespace kcm
{

/** One flat clause: head plus a flattened conjunction of goals. */
struct NormClause
{
    TermRef head;
    std::vector<TermRef> goals;
};

/** A normalized program: clauses grouped by predicate. */
struct NormProgram
{
    /** Predicates in first-definition order. */
    std::vector<Functor> order;
    std::map<Functor, std::vector<NormClause>> preds;
    /** Functors of auxiliary predicates generated during
     *  normalization (they are implementation details), in creation
     *  order: the n-th is named `$aux<n>`, so names are unique within
     *  one program and identical across compiles of the same text. */
    std::vector<Functor> auxiliaries;

    /** Predicates declared `:- dynamic(F/N)`, declaration order.
     *  Their clauses are excluded from static compilation and land in
     *  @ref dynamicClauses instead. */
    std::vector<Functor> dynamicDecls;

    /** Source clauses of dynamic predicates (original clause term,
     *  source order) for the loader to assert into the clause store. */
    std::vector<std::pair<Functor, TermRef>> dynamicClauses;

    /** Add a clause, registering the predicate on first sight. */
    void add(const Functor &f, NormClause clause);
};

/**
 * Normalize source clauses into @p out. Directives (":- G") other
 * than op/3 (already handled by the reader) are ignored with a
 * warning.
 */
void normalizeProgram(const std::vector<ReadClause> &clauses,
                      NormProgram &out);

/** Normalize a single goal term (a query body) into flat goals,
 *  adding any needed auxiliary predicates to @p program. */
std::vector<TermRef> normalizeBody(const TermRef &body,
                                   NormProgram &program);

} // namespace kcm

#endif // KCM_COMPILER_NORMALIZE_HH
