#include "prolog/atom_table.hh"

#include <mutex>

#include "base/logging.hh"

namespace kcm
{

AtomTable::AtomTable()
{
    nil = intern("[]");
    dot = intern(".");
    comma = intern(",");
    neck = intern(":-");
    curly = intern("{}");
    trueAtom = intern("true");
    failAtom = intern("fail");
    cutAtom = intern("!");
    semicolon = intern(";");
    arrow = intern("->");
    minus = intern("-");
    plus = intern("+");
    emptyBlock = curly;
}

AtomTable &
AtomTable::instance()
{
    static AtomTable table;
    return table;
}

AtomId
AtomTable::intern(std::string_view text)
{
    {
        std::shared_lock lock(mutex_);
        auto it = ids_.find(text);
        if (it != ids_.end())
            return it->second;
    }
    std::unique_lock lock(mutex_);
    auto it = ids_.find(text); // raced with another interner?
    if (it != ids_.end())
        return it->second;
    AtomId id = static_cast<AtomId>(texts_.size());
    ids_.emplace(texts_.emplace_back(text), id);
    return id;
}

const std::string &
AtomTable::text(AtomId id) const
{
    std::shared_lock lock(mutex_);
    if (id >= texts_.size())
        panic("atom id out of range: ", id);
    return texts_[id];
}

size_t
AtomTable::size() const
{
    std::shared_lock lock(mutex_);
    return texts_.size();
}

AtomId
internAtom(std::string_view text)
{
    return AtomTable::instance().intern(text);
}

const std::string &
atomText(AtomId id)
{
    return AtomTable::instance().text(id);
}

std::string
atomTextSafe(AtomId id)
{
    if (id >= AtomTable::instance().size())
        return "atom#" + std::to_string(id);
    return AtomTable::instance().text(id);
}

} // namespace kcm
