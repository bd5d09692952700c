#include "prolog/operators.hh"

#include <algorithm>

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
    // copy its entries.
    static const std::vector<Entry> entries = [] {
        std::vector<Entry> out;
        for (const Std &op : standard)
            define(out, op.priority, op.type, internAtom(op.name));
        return out;
    }();
    entries_ = entries;
}

namespace
{

int
fixityOf(OpType type)
{
    return isPrefixOp(type) ? 0 : isInfixOp(type) ? 1 : 2;
}

} // namespace

void
OperatorTable::define(std::vector<Entry> &entries, int priority,
                      OpType type, AtomId name)
{
    auto it = std::lower_bound(
        entries.begin(), entries.end(), name,
        [](const Entry &e, AtomId n) { return e.name < n; });
    if (it == entries.end() || it->name != name)
        it = entries.insert(it, Entry{name, {}});
    it->defs[fixityOf(type)] = priority ? OpDef{priority, type} : OpDef{};
}

void
OperatorTable::define(int priority, OpType type, AtomId name)
{
    define(entries_, priority, type, name);
}

std::optional<OpDef>
OperatorTable::lookup(AtomId name, int fixity) const
{
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const Entry &e, AtomId n) { return e.name < n; });
    if (it == entries_.end() || it->name != name ||
        !it->defs[fixity].priority) {
        return std::nullopt;
    }
    return it->defs[fixity];
}

std::optional<OpDef>
OperatorTable::prefix(AtomId name) const
{
    return lookup(name, 0);
}

std::optional<OpDef>
OperatorTable::infix(AtomId name) const
{
    return lookup(name, 1);
}

std::optional<OpDef>
OperatorTable::postfix(AtomId name) const
{
    return lookup(name, 2);
}

bool
OperatorTable::isOperator(AtomId name) const
{
    return prefix(name) || infix(name) || postfix(name);
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
