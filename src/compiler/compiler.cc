#include "compiler/compiler.hh"

#include <algorithm>
#include <array>
#include <functional>
#include <set>

#include "base/logging.hh"
#include "compiler/builtin_defs.hh"
#include "prolog/writer.hh"

namespace kcm
{

namespace
{

/**
 * Add the predicate @p goal calls to @p called, unless the goal
 * compiles inline: true, fail, false, !, =/2, and under integer
 * arithmetic is/2 and the comparisons.
 */
void
noteCalledGoal(const TermRef &goal, bool integer_arithmetic,
               std::set<Functor> &called)
{
    if (goal->isAtom()) {
        AtomTable &atoms = AtomTable::instance();
        AtomId a = goal->atom();
        if (a == atoms.trueAtom || a == atoms.failAtom ||
            a == atoms.cutAtom)
            return;
        static const AtomId false_atom = internAtom("false");
        if (a == false_atom)
            return;
        called.insert(Functor{a, 0});
        return;
    }
    if (goal->arity() == 2) {
        // Operators: the first OperatorTable interned them all.
        static const AtomId unify = internAtom("=");
        static const std::array<AtomId, 7> arith = {
            internAtom("is"),  internAtom("<"),   internAtom(">"),
            internAtom("=<"),  internAtom(">="),  internAtom("=:="),
            internAtom("=\\=")};
        AtomId name = goal->functorName();
        if (name == unify)
            return;
        if (integer_arithmetic &&
            std::find(arith.begin(), arith.end(), name) != arith.end())
            return;
    }
    called.insert(goal->functor());
}

} // namespace

LibraryUnit::LibraryUnit(const std::vector<ReadClause> &source,
                         const CompilerOptions &options_in)
    : options(options_in), clauses(&source)
{
    NormProgram program;
    normalizeProgram(source, program);
    auxiliaries = program.auxiliaries;
    std::set<Functor> aux_set(auxiliaries.begin(), auxiliaries.end());
    for (const Functor &functor : program.order) {
        if (!aux_set.count(functor))
            defines.insert(functor);
        for (const auto &clause : program.preds.at(functor)) {
            for (const auto &goal : clause.goals)
                noteCalledGoal(goal, options.integerArithmetic, calls);
        }
    }
    for (const Functor &functor : program.order)
        calls.erase(functor);

    CodegenOptions cg_options;
    cg_options.integerArithmetic = options.integerArithmetic;
    ClauseCompiler codegen(code, cg_options);
    IndexingOptions ix_options;
    ix_options.enabled = options.indexing;
    failLabel = code.newLabel();
    for (const Functor &functor : program.order) {
        PredicateInfo info =
            emitPredicate(code, codegen, functor, program.preds.at(functor),
                          ix_options, failLabel);
        info.fromLibrary = true;
        predicates.push_back(info);
    }
}

Compiler::Compiler(const CompilerOptions &options) : options_(options) {}

void
Compiler::addSource(const std::string &source,
                    std::vector<ReadClause> &clauses)
{
    Parser parser(source, ops_);
    ReadClause clause;
    while (parser.readClause(clause))
        clauses.push_back(std::move(clause));
}

void
Compiler::addProgram(const std::string &source)
{
    addSource(source, programClauses_);
}

void
Compiler::addLibrary(const std::string &source)
{
    unlinkLibraryUnit();
    addSource(source, libraryClauses_);
}

void
Compiler::addLibrary(const LibraryUnit &unit)
{
    if (unit.options.integerArithmetic != options_.integerArithmetic ||
        unit.options.indexing != options_.indexing)
        panic("addLibrary: the unit was built under other code options");
    if (libraryUnit_ || !libraryClauses_.empty()) {
        unlinkLibraryUnit();
        libraryClauses_.insert(libraryClauses_.end(), unit.clauses->begin(),
                               unit.clauses->end());
    } else {
        libraryUnit_ = &unit;
    }
}

void
Compiler::unlinkLibraryUnit()
{
    if (!libraryUnit_)
        return;
    libraryClauses_.insert(libraryClauses_.end(),
                           libraryUnit_->clauses->begin(),
                           libraryUnit_->clauses->end());
    libraryUnit_ = nullptr;
}

void
Compiler::setQuery(const std::string &source)
{
    querySource_ = source;
}

CodeImage
Compiler::compile()
{
    // --- Normalize program and library clauses ---

    NormProgram program;
    std::map<Functor, bool> is_library;

    auto normalize_group = [&](const std::vector<ReadClause> &group,
                               bool library) {
        size_t order_before = program.order.size();
        normalizeProgram(group, program);
        for (size_t i = order_before; i < program.order.size(); ++i) {
            if (!is_library.count(program.order[i]))
                is_library[program.order[i]] = library;
        }
    };
    normalize_group(programClauses_, false);
    const size_t program_end = program.order.size();

    // The library unit links after the program's predicates, its i-th
    // auxiliary renamed `$aux<P+i>` after the program's P: the names a
    // whole-program compile gives it. A program that defines, or
    // declares dynamic, a functor the unit defines under those names
    // would merge with the library's clauses: compile them instead.
    const LibraryUnit *unit = libraryUnit_;
    std::vector<Functor> linked_aux;
    if (unit) {
        for (size_t i = 0; i < unit->auxiliaries.size(); ++i) {
            linked_aux.push_back(Functor{
                internAtom(cat("$aux", program.auxiliaries.size() + i)),
                unit->auxiliaries[i].arity});
        }
    }
    auto unit_defines = [&](const Functor &functor) {
        return unit &&
               (unit->defines.count(functor) ||
                std::find(linked_aux.begin(), linked_aux.end(), functor) !=
                    linked_aux.end());
    };
    if (unit &&
        (std::any_of(program.order.begin(), program.order.end(),
                     unit_defines) ||
         std::any_of(program.dynamicDecls.begin(),
                     program.dynamicDecls.end(), unit_defines))) {
        normalize_group(*unit->clauses, true);
        unit = nullptr;
    }
    if (unit) {
        // Reserve the linked names: later auxiliaries number past them.
        program.auxiliaries.insert(program.auxiliaries.end(),
                                   linked_aux.begin(), linked_aux.end());
    }
    linkedLibrary_ = unit != nullptr;
    normalize_group(libraryClauses_, true);

    // In Table 2 mode the I/O predicates are unit clauses costing
    // exactly one call/return sequence (§4.2).
    if (options_.ioAsUnitClauses) {
        const char *unit_io =
            "write(_). writeq(_). nl. tab(_). write_canonical(_).";
        Parser parser(unit_io, ops_);
        size_t order_before = program.order.size();
        normalizeProgram(parser.readAll(), program);
        for (size_t i = order_before; i < program.order.size(); ++i)
            is_library[program.order[i]] = true;
    }

    // --- Parse and normalize the query ---

    std::vector<TermRef> query_goals;
    std::vector<std::pair<std::string, TermRef>> query_var_names;
    if (!querySource_.empty()) {
        std::string text = querySource_;
        Parser parser(text + " .", ops_);
        ReadClause read;
        if (!parser.readClause(read))
            fatal("empty query");
        TermRef body = read.term;
        static const AtomId query_neck = internAtom("?-");
        if (body->isStruct() && body->arity() == 1 &&
            (body->functorName() == query_neck ||
             body->functorName() == AtomTable::instance().neck)) {
            body = body->arg(0);
        }
        size_t order_before = program.order.size();
        query_goals = normalizeBody(body, program);
        for (size_t i = order_before; i < program.order.size(); ++i)
            is_library[program.order[i]] = true;
        query_var_names = read.varNames;
    }

    // --- Determine referenced-but-undefined predicates ---

    CodegenOptions cg_options;
    cg_options.integerArithmetic = options_.integerArithmetic;

    // The unit's calls stand for its clauses' goals.
    std::set<Functor> called;
    if (unit)
        called = unit->calls;
    auto note_goal = [&](const TermRef &goal) {
        noteCalledGoal(goal, options_.integerArithmetic, called);
    };
    for (const auto &[functor, clauses] : program.preds) {
        for (const auto &clause : clauses) {
            for (const auto &goal : clause.goals)
                note_goal(goal);
        }
    }
    for (const auto &goal : query_goals)
        note_goal(goal);

    // Dynamic clause bodies run through the runtime meta-call, which
    // resolves builtins through the image's escape stubs — note their
    // leaf goals so the stubs exist. (Goals first constructed at run
    // time resolve against the same stub set; see DESIGN.md.)
    {
        AtomId comma = AtomTable::instance().comma;
        std::function<void(const TermRef &)> note_dynamic_body =
            [&](const TermRef &goal) {
                if (goal->isStruct() && goal->arity() == 2 &&
                    goal->functorName() == comma) {
                    note_dynamic_body(goal->arg(0));
                    note_dynamic_body(goal->arg(1));
                    return;
                }
                if (goal->isAtom() || goal->isStruct())
                    note_goal(goal);
            };
        AtomId neck_atom = AtomTable::instance().neck;
        for (const auto &[functor, term] : program.dynamicClauses) {
            if (term->isStruct() && term->arity() == 2 &&
                term->functorName() == neck_atom)
                note_dynamic_body(term->arg(1));
        }
    }

    // Does this image need the dynamic-dispatch machinery (retry stub
    // + per-predicate trap stubs)? Only then does any of it get
    // emitted, so purely static programs stay bit-identical.
    std::set<Functor> dynamic_preds(program.dynamicDecls.begin(),
                                    program.dynamicDecls.end());
    bool wants_dynamic = !dynamic_preds.empty();
    for (const auto &functor : called) {
        if (program.preds.count(functor) || dynamic_preds.count(functor) ||
            unit_defines(functor))
            continue;
        auto builtin = findBuiltin(functor);
        if (!builtin) {
            wants_dynamic = true; // undefined → dynamic-capable stub
        } else if (builtin->id == BuiltinId::AssertA ||
                   builtin->id == BuiltinId::AssertZ ||
                   builtin->id == BuiltinId::Retract) {
            wants_dynamic = true; // runtime asserts need the retry stub
        }
    }

    // Dynamic clause bodies run through the meta-call, which resolves
    // control constructs as ordinary predicates — compile the support
    // library for them. Gated on wants_dynamic so purely static images
    // stay bit-identical. (A cut inside these is local to the
    // construct, like call/1; see DESIGN.md.)
    if (wants_dynamic) {
        const char *dyn_support =
            "','(G1, G2) :- call(G1), call(G2). "
            "';'(G1, G2) :- call(G1) ; call(G2). "
            "'->'(C, T) :- call(C) -> call(T). "
            "'\\\\+'(G) :- \\+ call(G).";
        Parser parser(dyn_support, ops_);
        size_t order_before = program.order.size();
        normalizeProgram(parser.readAll(), program);
        for (size_t i = order_before; i < program.order.size(); ++i) {
            const Functor &functor = program.order[i];
            is_library[functor] = true;
            // The support clauses were added after the called-set
            // scan: note their goals so call/1's stub gets emitted.
            for (const auto &clause : program.preds.at(functor))
                for (const auto &goal : clause.goals)
                    note_goal(goal);
        }
    }

    // --- Emit ---

    Assembler assembler;
    ClauseCompiler codegen(assembler, cg_options);
    CodeImage image;

    // Shared stubs first.
    Addr halt_fail = assembler.emit(
        Instr::makeValue(Opcode::Halt, 1)); // halt: query failed
    Label fail_label = assembler.newLabel();
    assembler.bind(fail_label);
    Addr fail_stub = assembler.emit(Instr::make(Opcode::FailOp));

    // Catch-marker alternative: backtracking into a catch/3 barrier
    // lands here; the escape pops the marker and keeps failing.
    Addr catch_fail = assembler.emit(Instr::makeValue(
        Opcode::Escape, static_cast<uint32_t>(BuiltinId::CatchFail), 0));

    image.haltFailEntry = halt_fail;
    image.failEntry = fail_stub;
    image.catchFailEntry = catch_fail;

    // Shared dynamic-retry stub: the alternative address of every
    // dynamic-dispatch choice point. Only emitted when the image uses
    // dynamic dispatch at all.
    if (wants_dynamic) {
        image.dynRetryEntry = assembler.emit(Instr::makeValue(
            Opcode::Escape, static_cast<uint32_t>(BuiltinId::DynamicRetry),
            0));
        assembler.emit(Instr::make(Opcode::Proceed));
    }

    // Indexed-dispatch stub of one dynamic-capable predicate: trap
    // into the clause store, fall through to Proceed for facts.
    auto emit_dyn_stub = [&](const Functor &functor, bool from_library) {
        PredicateInfo info;
        info.functor = functor;
        info.fromLibrary = from_library;
        info.entry = assembler.here();
        size_t instr_before = assembler.instructionCount();
        Addr escape_addr = assembler.emit(Instr::makeValue(
            Opcode::Escape, static_cast<uint32_t>(BuiltinId::DynamicCall),
            static_cast<Reg>(functor.arity)));
        assembler.emit(Instr::make(Opcode::Proceed));
        image.dynStubs[escape_addr] = functor;
        image.dynamicDecls.insert(functor);
        info.instructions = assembler.instructionCount() - instr_before;
        info.words = info.instructions;
        image.predicates[functor] = info;
    };
    for (const auto &functor : program.dynamicDecls)
        emit_dyn_stub(functor, false);

    // Escape stubs for referenced builtins not defined as predicates.
    // Referenced-but-undefined predicates get a dynamic-dispatch stub
    // instead of a plain FailOp: a call still fails while the store
    // has no matching clauses, but assert/1 (or --db-facts) can give
    // the predicate clauses at run time.
    for (const auto &functor : called) {
        if (program.preds.count(functor) ||
            image.predicates.count(functor) || unit_defines(functor)) {
            continue;
        }
        auto builtin = findBuiltin(functor);
        if (!builtin) {
            warn("predicate ", atomText(functor.name), "/", functor.arity,
                 " is undefined; calls to it fail");
            emit_dyn_stub(functor, true);
            continue;
        }
        PredicateInfo info;
        info.functor = functor;
        info.fromLibrary = true;
        info.entry = assembler.here();
        size_t instr_before = assembler.instructionCount();
        assembler.emit(Instr::makeValue(
            Opcode::Escape, static_cast<uint32_t>(builtin->id),
            static_cast<Reg>(functor.arity)));
        assembler.emit(Instr::make(Opcode::Proceed));
        info.instructions = assembler.instructionCount() - instr_before;
        info.words = info.instructions;
        image.predicates[functor] = info;
    }

    // User and library predicates; a linked unit sits after the
    // program's, where a whole-program compile emits its clauses.
    IndexingOptions ix_options;
    ix_options.enabled = options_.indexing;
    auto emit_predicates = [&](size_t from, size_t to) {
        for (size_t i = from; i < to; ++i) {
            const Functor &functor = program.order[i];
            PredicateInfo info =
                emitPredicate(assembler, codegen, functor,
                              program.preds.at(functor), ix_options,
                              fail_label);
            auto lib_it = is_library.find(functor);
            info.fromLibrary = lib_it != is_library.end() && lib_it->second;
            image.predicates[functor] = info;
        }
    };
    emit_predicates(0, program_end);
    if (unit) {
        auto rename = [&](const Functor &functor) {
            for (size_t i = 0; i < unit->auxiliaries.size(); ++i) {
                if (unit->auxiliaries[i] == functor)
                    return linked_aux[i];
            }
            return functor;
        };
        Addr at = assembler.append(unit->code, unit->failLabel, fail_label,
                                   rename);
        for (PredicateInfo info : unit->predicates) {
            info.functor = rename(info.functor);
            info.entry = info.entry - unit->code.base() + at;
            image.predicates[info.functor] = info;
        }
    }
    emit_predicates(program_end, program.order.size());

    // Query.
    if (!query_goals.empty()) {
        image.queryEntry = assembler.here();
        std::vector<TermRef> var_order;
        codegen.compileQuery(query_goals, var_order);
        for (size_t slot = 0; slot < var_order.size(); ++slot) {
            for (const auto &[name, var] : query_var_names) {
                if (var.get() == var_order[slot].get()) {
                    image.querySolutionSlots.emplace_back(
                        name, static_cast<int>(slot));
                }
            }
        }
    }

    // --- Link ---

    auto fixups = assembler.predFixups();
    assembler.finalize(image);
    for (const auto &fixup : fixups) {
        auto it = image.predicates.find(fixup.callee);
        Addr target;
        if (it == image.predicates.end()) {
            warn("unresolved predicate ", atomText(fixup.callee.name), "/",
                 fixup.callee.arity);
            target = image.failEntry;
        } else {
            target = it->second.entry;
        }
        if (fixup.isTableWord) {
            image.words[fixup.index] = Word::makeCodePtr(target).raw();
        } else {
            image.words[fixup.index] =
                Instr(image.words[fixup.index]).withValue(target).raw();
        }
    }

    // Canonical text of the dynamic predicates' source clauses; the
    // loader asserts these into the clause store after download, in
    // this (assertz) order.
    if (!program.dynamicClauses.empty()) {
        WriteOptions canonical;
        canonical.quoted = true;
        canonical.ignoreOps = true;
        for (const auto &[functor, term] : program.dynamicClauses) {
            (void)functor;
            image.dynamicInit.push_back(writeTerm(term, ops_, canonical));
        }
    }

    return image;
}

} // namespace kcm
