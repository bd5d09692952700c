/**
 * @file
 * Interned atom and functor names.
 *
 * Every symbol that flows through the system — atom constants, functor
 * names, predicate names — is interned once and referred to by a dense
 * 32-bit AtomId. The id doubles as the value part of an ATOM-tagged
 * KCM data word, so interning is shared between the front end and the
 * simulated machine (the paper's host and KCM share symbol tables the
 * same way, §2.1).
 */

#ifndef KCM_PROLOG_ATOM_TABLE_HH
#define KCM_PROLOG_ATOM_TABLE_HH

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace kcm
{

using AtomId = uint32_t;

/** A predicate / structure identifier: name plus arity. */
struct Functor
{
    AtomId name = 0;
    uint32_t arity = 0;

    bool
    operator==(const Functor &other) const
    {
        return name == other.name && arity == other.arity;
    }

    bool
    operator<(const Functor &other) const
    {
        if (name != other.name)
            return name < other.name;
        return arity < other.arity;
    }
};

struct FunctorHash
{
    size_t
    operator()(const Functor &f) const
    {
        return std::hash<uint64_t>()((uint64_t(f.name) << 32) | f.arity);
    }
};

/**
 * Global intern table mapping atom text to dense ids and back.
 *
 * A process-wide singleton is used so that terms, compiled code and
 * machine words can exchange AtomIds freely. The table is thread-safe
 * (machines running concurrently in the benchmark harness intern
 * atoms at runtime), but note that ids depend on interning ORDER:
 * anything whose output embeds ids in data structures — switch-table
 * layouts, most visibly — must still compile on one thread if
 * determinism is required.
 */
class AtomTable
{
  public:
    /** The process-wide table. */
    static AtomTable &instance();

    /** Intern @p text, returning its stable id. */
    AtomId intern(std::string_view text);

    /** Reverse lookup. The reference stays valid forever (atoms are
     *  never removed and the deque never relocates elements). */
    const std::string &text(AtomId id) const;

    /** Number of interned atoms. */
    size_t size() const;

    // Pre-interned atoms used throughout the system.
    AtomId nil;      ///< []
    AtomId dot;      ///< '.' (list cons functor)
    AtomId comma;    ///< ','
    AtomId neck;     ///< ':-'
    AtomId curly;    ///< '{}'
    AtomId trueAtom; ///< true
    AtomId failAtom; ///< fail
    AtomId cutAtom;  ///< !
    AtomId semicolon; ///< ';'
    AtomId arrow;    ///< '->'
    AtomId minus;    ///< '-'
    AtomId plus;     ///< '+'
    AtomId emptyBlock; ///< '{}'/1 wrapper functor name (same atom as curly)

    AtomTable();

  private:
    mutable std::shared_mutex mutex_;
    /** Keys view texts_. */
    std::unordered_map<std::string_view, AtomId> ids_;
    /** Deque, not vector: growth must not move existing strings,
     *  since text() hands out long-lived references. */
    std::deque<std::string> texts_;
};

/** Shorthand: intern @p text in the global table. */
AtomId internAtom(std::string_view text);

/** Shorthand: text of @p id from the global table. */
const std::string &atomText(AtomId id);

/** Like atomText, but renders unknown ids as "atom#N" instead of
 *  panicking (for disassembling arbitrary bit patterns). */
std::string atomTextSafe(AtomId id);

} // namespace kcm

#endif // KCM_PROLOG_ATOM_TABLE_HH
