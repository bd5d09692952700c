/**
 * @file
 * Prolog operator table.
 *
 * Carries the standard (Edinburgh) operator set used by the reader and
 * the writer. User programs can extend it via op/3 directives.
 */

#ifndef KCM_PROLOG_OPERATORS_HH
#define KCM_PROLOG_OPERATORS_HH

#include <optional>
#include <string>
#include <vector>

#include "prolog/atom_table.hh"

namespace kcm
{

/** Operator fixity classes. */
enum class OpType
{
    XFX,
    XFY,
    YFX,
    FY,
    FX,
    XF,
    YF,
};

struct OpDef
{
    int priority = 0;
    OpType type = OpType::XFX;
};

/** True for prefix fixities. */
inline bool
isPrefixOp(OpType t)
{
    return t == OpType::FY || t == OpType::FX;
}

/** True for infix fixities. */
inline bool
isInfixOp(OpType t)
{
    return t == OpType::XFX || t == OpType::XFY || t == OpType::YFX;
}

/** True for postfix fixities. */
inline bool
isPostfixOp(OpType t)
{
    return t == OpType::XF || t == OpType::YF;
}

/**
 * Mutable operator table, preloaded with the standard operators.
 */
class OperatorTable
{
  public:
    OperatorTable();

    /** Define (or redefine) an operator; priority 0 removes it. */
    void define(int priority, OpType type, AtomId name);

    /** Lookup the prefix definition of @p name, if any. */
    std::optional<OpDef> prefix(AtomId name) const;
    /** Lookup the infix definition of @p name, if any. */
    std::optional<OpDef> infix(AtomId name) const;
    /** Lookup the postfix definition of @p name, if any. */
    std::optional<OpDef> postfix(AtomId name) const;

    /** True if @p name has any operator definition. */
    bool isOperator(AtomId name) const;

    /** Parse "xfx" etc. into an OpType. */
    static std::optional<OpType> parseType(const std::string &text);

  private:
    /** One name's definitions by fixity class (prefix, infix,
     *  postfix); priority 0 where it has none. */
    struct Entry
    {
        AtomId name = 0;
        OpDef defs[3];
    };

    static void define(std::vector<Entry> &entries, int priority,
                       OpType type, AtomId name);
    std::optional<OpDef> lookup(AtomId name, int fixity) const;

    /** Sorted by name. A flat vector: every compile copies the
     *  standard table in one allocation, and a read looks each name up
     *  once. */
    std::vector<Entry> entries_;
};

} // namespace kcm

#endif // KCM_PROLOG_OPERATORS_HH
