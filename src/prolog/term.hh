/**
 * @file
 * Source-level Prolog terms.
 *
 * This is the representation used by the reader and the compiler; the
 * simulated machine has its own tagged-word heap representation. Terms
 * are immutable trees shared via TermRef; variables are identity-based
 * nodes (two occurrences of the same source variable share one node).
 */

#ifndef KCM_PROLOG_TERM_HH
#define KCM_PROLOG_TERM_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "prolog/atom_table.hh"

namespace kcm
{

class Term;
using TermRef = std::shared_ptr<Term>;

/** The kinds of source-level terms. */
enum class TermKind
{
    Var,
    Atom,
    Int,
    Float,
    Struct,
};

/**
 * An immutable Prolog term node.
 *
 * Lists are ordinary './2' structures terminated by the atom '[]',
 * exactly as they are in the machine representation.
 */
class Term
{
  public:
    /** Build a fresh, unbound variable node. @p name keys it where
     *  variables are matched by name (importTerm, the clause store);
     *  the writer numbers variables by identity. */
    static TermRef makeVar(std::string_view name);
    static TermRef makeAtom(AtomId atom);
    static TermRef makeAtom(const std::string &text);
    static TermRef makeInt(int64_t value);
    static TermRef makeFloat(double value);
    static TermRef makeStruct(AtomId name, std::vector<TermRef> args);
    static TermRef makeStruct(const std::string &name,
                              std::vector<TermRef> args);
    /** Build name(arg) and name(first, second), with no argument
     *  vector. */
    static TermRef makeStruct(AtomId name, TermRef arg);
    static TermRef makeStruct(AtomId name, TermRef first, TermRef second);
    /** Build './'(head, tail). */
    static TermRef makeCons(TermRef head, TermRef tail);
    /** Build a proper list of @p items (optionally ending in @p tail). */
    static TermRef makeList(const std::vector<TermRef> &items,
                            TermRef tail = nullptr);

    TermKind kind() const { return _kind; }
    bool isVar() const { return _kind == TermKind::Var; }
    bool isAtom() const { return _kind == TermKind::Atom; }
    bool isInt() const { return _kind == TermKind::Int; }
    bool isFloat() const { return _kind == TermKind::Float; }
    bool isStruct() const { return _kind == TermKind::Struct; }
    bool isNumber() const { return isInt() || isFloat(); }
    bool isAtomic() const { return isAtom() || isNumber(); }

    /** True for './2' structures and for '[]'. */
    bool isList() const;
    bool isCons() const;
    bool isNil() const;
    /** True if the term is an atom equal to @p id. */
    bool isAtomNamed(AtomId id) const { return isAtom() && _atom == id; }

    // Accessors; panic on kind mismatch.
    AtomId atom() const;
    int64_t intValue() const;
    double floatValue() const;
    AtomId functorName() const;
    uint32_t arity() const;
    std::span<const TermRef> args() const;
    const TermRef &arg(uint32_t i) const;

    /** Functor of an atom (arity 0) or structure. */
    Functor functor() const;

    /** Variable accessor. */
    const std::string &varName() const;

    /** Structural equality; variables compare by identity. */
    static bool equal(const TermRef &a, const TermRef &b);

  private:
    struct Private
    {
        explicit Private() = default;
    };

    static TermRef makePair(AtomId name, uint32_t arity, TermRef first,
                            TermRef second);

  public:
    /** For std::make_shared only (one allocation for the node and its
     *  count): build terms with the make functions above. */
    explicit Term(Private) : _int(0) {}
    ~Term();
    Term(const Term &) = delete;
    Term &operator=(const Term &) = delete;

  private:
    TermKind _kind = TermKind::Atom;
    AtomId _atom = 0;   // Atom / Struct functor name
    uint32_t _arity = 0; // Struct
    /** What the kind holds: one member is live. A structure of arity 1
     *  or 2 holds its arguments in place (the second null at arity 1),
     *  so it is one allocation. */
    union
    {
        int64_t _int;
        double _float;
        TermRef _pair[2];
        std::vector<TermRef> _args; // arity 3 or more
        std::string _varName;
    };
};

/** Collect the distinct variables of @p t in first-occurrence order. */
void collectVars(const TermRef &t, std::vector<TermRef> &out);

/** Number of distinct variables in @p t. */
size_t countVars(const TermRef &t);

} // namespace kcm

#endif // KCM_PROLOG_TERM_HH
