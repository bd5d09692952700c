#include "kcm/stdlib.hh"

#include <memory>
#include <mutex>

#include "base/logging.hh"
#include "prolog/writer.hh"

namespace kcm
{

const std::string &
standardLibrarySource()
{
    static const std::string source = R"PL(
% ---- list predicates ----
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).

member(X, [X|_]).
member(X, [_|T]) :- member(X, T).

memberchk(X, [X|_]) :- !.
memberchk(X, [_|T]) :- memberchk(X, T).

length(L, N) :- length_(L, 0, N).
length_([], N, N).
length_([_|T], A, N) :- A1 is A + 1, length_(T, A1, N).

reverse(L, R) :- reverse_(L, [], R).
reverse_([], A, A).
reverse_([H|T], A, R) :- reverse_(T, [H|A], R).

last([X], X) :- !.
last([_|T], X) :- last(T, X).

nth1(1, [X|_], X) :- !.
nth1(N, [_|T], X) :- N > 1, M is N - 1, nth1(M, T, X).

select(X, [X|T], T).
select(X, [H|T], [H|R]) :- select(X, T, R).

delete([], _, []).
delete([X|T], X, R) :- !, delete(T, X, R).
delete([H|T], X, [H|R]) :- delete(T, X, R).

sum_list([], 0).
sum_list([H|T], S) :- sum_list(T, S1), S is S1 + H.

max_list([X], X) :- !.
max_list([H|T], M) :- max_list(T, M1), (H >= M1 -> M = H ; M = M1).

min_list([X], X) :- !.
min_list([H|T], M) :- min_list(T, M1), (H =< M1 -> M = H ; M = M1).

msort_(L, S) :- msort_quick(L, S, []).
msort_quick([X|L], R, R0) :-
    msort_part(L, X, L1, L2),
    msort_quick(L2, R1, R0),
    msort_quick(L1, R, [X|R1]).
msort_quick([], R, R).
msort_part([X|L], Y, [X|L1], L2) :- X =< Y, !, msort_part(L, Y, L1, L2).
msort_part([X|L], Y, L1, [X|L2]) :- msort_part(L, Y, L1, L2).
msort_part([], _, [], []).

% ---- arithmetic helpers ----
between(L, H, L) :- L =< H.
between(L, H, X) :- L < H, L1 is L + 1, between(L1, H, X).

succ_(X, Y) :- Y is X + 1.
plus_(A, B, C) :- C is A + B.

% ---- control ----
once(G) :- call(G), !.
ignore(G) :- call(G), !.
ignore(_).

not(G) :- \+ G.

forall_fail(G) :- call(G), fail.
forall_fail(_).
)PL";
    return source;
}

const std::vector<ReadClause> &
standardLibraryClauses()
{
    static const std::vector<ReadClause> clauses = [] {
        OperatorTable ops;
        std::vector<ReadClause> read =
            Parser(standardLibrarySource(), ops).readAll();
        for (const ReadClause &clause : read) {
            const TermRef &term = clause.term;
            if (term->isStruct() && term->arity() == 1 &&
                (term->functorName() == AtomTable::instance().neck ||
                 term->functorName() == internAtom("?-")) &&
                term->arg(0)->isStruct() && term->arg(0)->arity() == 3 &&
                term->arg(0)->functorName() == internAtom("op"))
                panic("standard library: ", writeTerm(term),
                      " would not reach the sources compiled after the "
                      "shared parse");
        }
        return read;
    }();
    return clauses;
}

const LibraryUnit &
standardLibraryUnit(const CompilerOptions &options)
{
    static std::once_flag built[2][2];
    static std::unique_ptr<LibraryUnit> units[2][2];
    const int arith = options.integerArithmetic;
    const int indexing = options.indexing;
    std::call_once(built[arith][indexing], [&] {
        units[arith][indexing] =
            std::make_unique<LibraryUnit>(standardLibraryClauses(), options);
    });
    return *units[arith][indexing];
}

} // namespace kcm
