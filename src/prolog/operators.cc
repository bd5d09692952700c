#include "prolog/operators.hh"

#include <array>
#include <iterator>

#include "base/logging.hh"

namespace kcm
{

OperatorTable::OperatorTable()
{
    struct Std
    {
        int priority;
        OpType type;
        const char *name;
    };
    static const Std standard[] = {
        {1200, OpType::XFX, ":-"},
        {1200, OpType::XFX, "-->"},
        {1200, OpType::FX, ":-"},
        {1200, OpType::FX, "?-"},
        {1100, OpType::XFY, ";"},
        {1050, OpType::XFY, "->"},
        {1000, OpType::XFY, ","},
        {900, OpType::FY, "\\+"},
        {700, OpType::XFX, "="},
        {700, OpType::XFX, "\\="},
        {700, OpType::XFX, "=="},
        {700, OpType::XFX, "\\=="},
        {700, OpType::XFX, "@<"},
        {700, OpType::XFX, "@>"},
        {700, OpType::XFX, "@=<"},
        {700, OpType::XFX, "@>="},
        {700, OpType::XFX, "=.."},
        {700, OpType::XFX, "is"},
        {700, OpType::XFX, "=:="},
        {700, OpType::XFX, "=\\="},
        {700, OpType::XFX, "<"},
        {700, OpType::XFX, ">"},
        {700, OpType::XFX, "=<"},
        {700, OpType::XFX, ">="},
        {500, OpType::YFX, "+"},
        {500, OpType::YFX, "-"},
        {500, OpType::YFX, "/\\"},
        {500, OpType::YFX, "\\/"},
        {500, OpType::YFX, "xor"},
        {400, OpType::YFX, "*"},
        {400, OpType::YFX, "/"},
        {400, OpType::YFX, "//"},
        {400, OpType::YFX, "mod"},
        {400, OpType::YFX, "rem"},
        {400, OpType::YFX, "<<"},
        {400, OpType::YFX, ">>"},
        {200, OpType::XFX, "**"},
        {200, OpType::XFY, "^"},
        {200, OpType::FY, "-"},
        {200, OpType::FY, "+"},
        {200, OpType::FY, "\\"},
        {100, OpType::YFX, "."},
        {1, OpType::FX, "$"},
    };
    // The first table interns the names, in this order; later tables
    // reuse the ids.
    static const auto names = [] {
        std::array<AtomId, std::size(standard)> ids{};
        for (size_t i = 0; i < ids.size(); ++i)
            ids[i] = internAtom(standard[i].name);
        return ids;
    }();
    for (size_t i = 0; i < names.size(); ++i)
        define(standard[i].priority, standard[i].type, names[i]);
}

void
OperatorTable::define(int priority, OpType type, AtomId name)
{
    auto *table = isPrefixOp(type) ? &prefix_
                : isInfixOp(type) ? &infix_
                : &postfix_;
    if (priority == 0)
        table->erase(name);
    else
        (*table)[name] = OpDef{priority, type};
}

std::optional<OpDef>
OperatorTable::prefix(AtomId name) const
{
    auto it = prefix_.find(name);
    if (it == prefix_.end())
        return std::nullopt;
    return it->second;
}

std::optional<OpDef>
OperatorTable::infix(AtomId name) const
{
    auto it = infix_.find(name);
    if (it == infix_.end())
        return std::nullopt;
    return it->second;
}

std::optional<OpDef>
OperatorTable::postfix(AtomId name) const
{
    auto it = postfix_.find(name);
    if (it == postfix_.end())
        return std::nullopt;
    return it->second;
}

bool
OperatorTable::isOperator(AtomId name) const
{
    return prefix_.count(name) || infix_.count(name) || postfix_.count(name);
}

std::optional<OpType>
OperatorTable::parseType(const std::string &text)
{
    if (text == "xfx")
        return OpType::XFX;
    if (text == "xfy")
        return OpType::XFY;
    if (text == "yfx")
        return OpType::YFX;
    if (text == "fy")
        return OpType::FY;
    if (text == "fx")
        return OpType::FX;
    if (text == "xf")
        return OpType::XF;
    if (text == "yf")
        return OpType::YF;
    return std::nullopt;
}

} // namespace kcm
