#include "prolog/term.hh"

#include <unordered_set>

#include "base/logging.hh"

namespace kcm
{

Term::~Term()
{
    if (_kind == TermKind::Var) {
        std::destroy_at(&_varName);
    } else if (_kind == TermKind::Struct) {
        if (_arity <= 2)
            std::destroy(std::begin(_pair), std::end(_pair));
        else
            std::destroy_at(&_args);
    }
}

TermRef
Term::makeVar(std::string_view name)
{
    auto t = std::make_shared<Term>(Private{});
    std::construct_at(&t->_varName, name);
    t->_kind = TermKind::Var;
    return t;
}

TermRef
Term::makeAtom(AtomId atom)
{
    auto t = std::make_shared<Term>(Private{});
    t->_kind = TermKind::Atom;
    t->_atom = atom;
    return t;
}

TermRef
Term::makeAtom(const std::string &text)
{
    return makeAtom(internAtom(text));
}

TermRef
Term::makeInt(int64_t value)
{
    auto t = std::make_shared<Term>(Private{});
    t->_kind = TermKind::Int;
    t->_int = value;
    return t;
}

TermRef
Term::makeFloat(double value)
{
    auto t = std::make_shared<Term>(Private{});
    t->_kind = TermKind::Float;
    t->_float = value;
    return t;
}

TermRef
Term::makeStruct(AtomId name, std::vector<TermRef> args)
{
    if (args.empty())
        return makeAtom(name);
    if (args.size() <= 2) {
        return makePair(name, uint32_t(args.size()), std::move(args[0]),
                        args.size() == 2 ? std::move(args[1]) : nullptr);
    }
    auto t = std::make_shared<Term>(Private{});
    t->_arity = static_cast<uint32_t>(args.size());
    std::construct_at(&t->_args, std::move(args));
    t->_kind = TermKind::Struct;
    t->_atom = name;
    return t;
}

TermRef
Term::makeStruct(AtomId name, TermRef arg)
{
    return makePair(name, 1, std::move(arg), nullptr);
}

TermRef
Term::makeStruct(AtomId name, TermRef first, TermRef second)
{
    return makePair(name, 2, std::move(first), std::move(second));
}

TermRef
Term::makePair(AtomId name, uint32_t arity, TermRef first, TermRef second)
{
    auto t = std::make_shared<Term>(Private{});
    t->_arity = arity;
    std::construct_at(&t->_pair[0], std::move(first));
    std::construct_at(&t->_pair[1], std::move(second));
    t->_kind = TermKind::Struct;
    t->_atom = name;
    return t;
}

TermRef
Term::makeStruct(const std::string &name, std::vector<TermRef> args)
{
    return makeStruct(internAtom(name), std::move(args));
}

TermRef
Term::makeCons(TermRef head, TermRef tail)
{
    return makeStruct(AtomTable::instance().dot, std::move(head),
                      std::move(tail));
}

TermRef
Term::makeList(const std::vector<TermRef> &items, TermRef tail)
{
    TermRef list = tail ? tail : makeAtom(AtomTable::instance().nil);
    for (auto it = items.rbegin(); it != items.rend(); ++it)
        list = makeCons(*it, list);
    return list;
}

bool
Term::isCons() const
{
    return _kind == TermKind::Struct && _atom == AtomTable::instance().dot &&
           _arity == 2;
}

bool
Term::isNil() const
{
    return _kind == TermKind::Atom && _atom == AtomTable::instance().nil;
}

bool
Term::isList() const
{
    return isCons() || isNil();
}

AtomId
Term::atom() const
{
    if (_kind != TermKind::Atom)
        panic("Term::atom on non-atom");
    return _atom;
}

int64_t
Term::intValue() const
{
    if (_kind != TermKind::Int)
        panic("Term::intValue on non-int");
    return _int;
}

double
Term::floatValue() const
{
    if (_kind != TermKind::Float)
        panic("Term::floatValue on non-float");
    return _float;
}

AtomId
Term::functorName() const
{
    if (_kind != TermKind::Struct && _kind != TermKind::Atom)
        panic("Term::functorName on non-callable");
    return _atom;
}

uint32_t
Term::arity() const
{
    return _arity;
}

std::span<const TermRef>
Term::args() const
{
    if (_kind != TermKind::Struct)
        return {};
    if (_arity <= 2)
        return {_pair, _arity};
    return _args;
}

const TermRef &
Term::arg(uint32_t i) const
{
    if (i >= _arity)
        panic("Term::arg index ", i, " out of range");
    return args()[i];
}

Functor
Term::functor() const
{
    return Functor{functorName(), arity()};
}

const std::string &
Term::varName() const
{
    if (_kind != TermKind::Var)
        panic("Term::varName on non-var");
    return _varName;
}

bool
Term::equal(const TermRef &a, const TermRef &b)
{
    if (a.get() == b.get())
        return true;
    if (a->kind() != b->kind())
        return false;
    switch (a->kind()) {
      case TermKind::Var:
        return false; // distinct nodes: different variables
      case TermKind::Atom:
        return a->atom() == b->atom();
      case TermKind::Int:
        return a->intValue() == b->intValue();
      case TermKind::Float:
        return a->floatValue() == b->floatValue();
      case TermKind::Struct: {
        if (a->functorName() != b->functorName() ||
            a->arity() != b->arity()) {
            return false;
        }
        for (uint32_t i = 0; i < a->arity(); ++i) {
            if (!equal(a->arg(i), b->arg(i)))
                return false;
        }
        return true;
      }
    }
    return false;
}

namespace
{

void
collectVarsImpl(const TermRef &t, std::vector<TermRef> &out,
                std::unordered_set<const Term *> &seen)
{
    if (t->isVar()) {
        if (seen.insert(t.get()).second)
            out.push_back(t);
        return;
    }
    if (t->isStruct()) {
        for (const auto &arg : t->args())
            collectVarsImpl(arg, out, seen);
    }
}

} // namespace

void
collectVars(const TermRef &t, std::vector<TermRef> &out)
{
    std::unordered_set<const Term *> seen;
    collectVarsImpl(t, out, seen);
}

size_t
countVars(const TermRef &t)
{
    std::vector<TermRef> vars;
    collectVars(t, vars);
    return vars.size();
}

} // namespace kcm
