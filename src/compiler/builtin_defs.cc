#include "compiler/builtin_defs.hh"

#include <atomic>
#include <memory>

#include "base/logging.hh"

namespace kcm
{

const std::vector<BuiltinDef> &
builtinTable()
{
    static const std::vector<BuiltinDef> table = {
        {"write", 1, BuiltinId::Write, 10},
        {"writeq", 1, BuiltinId::Writeq, 10},
        {"nl", 0, BuiltinId::Nl, 4},
        {"halt", 0, BuiltinId::Halt, 1},
        {"var", 1, BuiltinId::Var, 1},
        {"nonvar", 1, BuiltinId::NonVar, 1},
        {"atom", 1, BuiltinId::AtomP, 1},
        {"atomic", 1, BuiltinId::AtomicP, 1},
        {"integer", 1, BuiltinId::IntegerP, 1},
        {"float", 1, BuiltinId::FloatP, 1},
        {"number", 1, BuiltinId::NumberP, 1},
        {"compound", 1, BuiltinId::CompoundP, 1},
        {"functor", 3, BuiltinId::FunctorB, 6},
        {"arg", 3, BuiltinId::ArgB, 4},
        {"=..", 2, BuiltinId::Univ, 10},
        {"==", 2, BuiltinId::StructEq, 4},
        {"\\==", 2, BuiltinId::StructNe, 4},
        {"compare", 3, BuiltinId::CompareB, 6},
        {"@<", 2, BuiltinId::TermLt, 4},
        {"@>", 2, BuiltinId::TermGt, 4},
        {"@=<", 2, BuiltinId::TermLe, 4},
        {"@>=", 2, BuiltinId::TermGe, 4},
        {"is", 2, BuiltinId::IsGeneric, 8},
        {"<", 2, BuiltinId::CmpGenericLt, 6},
        {">", 2, BuiltinId::CmpGenericGt, 6},
        {"=<", 2, BuiltinId::CmpGenericLe, 6},
        {">=", 2, BuiltinId::CmpGenericGe, 6},
        {"=:=", 2, BuiltinId::CmpGenericEq, 6},
        {"=\\=", 2, BuiltinId::CmpGenericNe, 6},
        {"call", 1, BuiltinId::CallGoal, 4},
        {"$collect_solution", 0, BuiltinId::CollectSolution, 1},
        {"name", 2, BuiltinId::NameB, 10},
        {"atom_length", 2, BuiltinId::AtomLength, 4},
        {"tab", 1, BuiltinId::TabB, 4},
        {"write_canonical", 1, BuiltinId::WriteCanonical, 10},
        {"catch", 3, BuiltinId::CatchB, 4},
        {"throw", 1, BuiltinId::ThrowB, 4},
        {"$catch_fail", 0, BuiltinId::CatchFail, 1},
        {"asserta", 1, BuiltinId::AssertA, 10},
        {"assertz", 1, BuiltinId::AssertZ, 10},
        {"assert", 1, BuiltinId::AssertZ, 10},
        {"retract", 1, BuiltinId::Retract, 10},
        {"$dynamic_call", 0, BuiltinId::DynamicCall, 4},
        {"$dynamic_retry", 0, BuiltinId::DynamicRetry, 2},
    };
    return table;
}

std::optional<BuiltinDef>
findBuiltin(const Functor &f)
{
    // Each name is interned when a search first reaches it, as it
    // always was, and remembered. 0 ("[]", the first atom) marks an
    // entry not reached yet; racing searches store the same id.
    const std::vector<BuiltinDef> &table = builtinTable();
    static const std::unique_ptr<std::atomic<AtomId>[]> names =
        std::make_unique<std::atomic<AtomId>[]>(table.size());
    for (size_t i = 0; i < table.size(); ++i) {
        AtomId name = names[i].load(std::memory_order_relaxed);
        if (name == 0) {
            name = internAtom(table[i].name);
            names[i].store(name, std::memory_order_relaxed);
        }
        if (name == f.name && table[i].arity == f.arity)
            return table[i];
    }
    return std::nullopt;
}

const BuiltinDef &
builtinById(BuiltinId id)
{
    for (const auto &def : builtinTable()) {
        if (def.id == id)
            return def;
    }
    panic("unknown builtin id ", static_cast<uint32_t>(id));
}

} // namespace kcm
