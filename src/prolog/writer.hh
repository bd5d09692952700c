/**
 * @file
 * Term output: canonical and operator-aware printing.
 *
 * A variable prints as `_N`, N its first-occurrence ordinal among the
 * distinct variables (told apart by identity) of one written unit: one
 * call below. Printed text is thus a function of the term alone.
 */

#ifndef KCM_PROLOG_WRITER_HH
#define KCM_PROLOG_WRITER_HH

#include <string>
#include <utility>
#include <vector>

#include "prolog/operators.hh"
#include "prolog/term.hh"

namespace kcm
{

struct WriteOptions
{
    bool quoted = false;      ///< quote atoms that need it (writeq)
    bool ignoreOps = false;   ///< canonical functional notation
    int maxDepth = 0;         ///< 0 = unlimited
};

/** Render @p t using the operator table @p ops. */
std::string writeTerm(const TermRef &t, const OperatorTable &ops,
                      const WriteOptions &options = {});

/** Render with a default operator table and default options. */
std::string writeTerm(const TermRef &t);

/** Render in writeq style (quoted) with a default operator table. */
std::string writeTermQuoted(const TermRef &t);

/** Render one answer, "Name = Term, ..." or "true", as one unit: a
 *  variable shared by two bindings prints as one `_N`. */
std::string
writeAnswer(const std::vector<std::pair<std::string, TermRef>> &bindings);

} // namespace kcm

#endif // KCM_PROLOG_WRITER_HH
