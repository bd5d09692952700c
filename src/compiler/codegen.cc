#include "compiler/codegen.hh"

#include <array>

#include "base/logging.hh"
#include "compiler/builtin_defs.hh"
#include "prolog/writer.hh"

namespace kcm
{

namespace
{

/** A compound term: a structure or a cons cell. */
bool
isCompound(const TermRef &t)
{
    return t->isStruct();
}

/** The constant Word of an atomic term. */
Word
constantWord(const TermRef &t)
{
    switch (t->kind()) {
      case TermKind::Atom:
        return t->isNil() ? Word::makeNil() : Word::makeAtom(t->atom());
      case TermKind::Int:
        return Word::makeInt(static_cast<int32_t>(t->intValue()));
      case TermKind::Float:
        return Word::makeFloat(static_cast<float>(t->floatValue()));
      default:
        panic("constantWord: not atomic");
    }
}

bool
isArithOp(const TermRef &t, AtomId name, uint32_t arity)
{
    return t->isStruct() && t->arity() == arity && t->functorName() == name;
}

// The operators below were all interned by the first OperatorTable, so
// resolving them once moves no atom id.

/** The inline comparisons of integer mode and their opcodes. */
struct Comparison
{
    AtomId name;
    Opcode op;
};

const std::array<Comparison, 6> &
comparisons()
{
    static const std::array<Comparison, 6> table = {{
        {internAtom("<"), Opcode::CmpLt},
        {internAtom(">"), Opcode::CmpGt},
        {internAtom("=<"), Opcode::CmpLe},
        {internAtom(">="), Opcode::CmpGe},
        {internAtom("=:="), Opcode::CmpEq},
        {internAtom("=\\="), Opcode::CmpNe},
    }};
    return table;
}

} // namespace

// ------------------------------------------------------------- analysis

ClauseCompiler::GoalClass
ClauseCompiler::classify(const TermRef &goal) const
{
    if (goal->isAtom()) {
        AtomTable &atoms = AtomTable::instance();
        if (goal->atom() == atoms.trueAtom)
            return GoalClass::True;
        if (goal->atom() == atoms.failAtom)
            return GoalClass::Fail;
        static const AtomId false_atom = internAtom("false");
        if (goal->atom() == false_atom)
            return GoalClass::Fail;
        if (goal->atom() == atoms.cutAtom)
            return GoalClass::Cut;
        return GoalClass::Call;
    }
    if (goal->isStruct() && goal->arity() == 2) {
        static const AtomId unify = internAtom("=");
        static const AtomId is = internAtom("is");
        AtomId name = goal->functorName();
        if (name == unify)
            return GoalClass::Unify;
        if (options_.integerArithmetic) {
            if (name == is)
                return GoalClass::Is;
            for (const Comparison &cmp : comparisons()) {
                if (name == cmp.name)
                    return GoalClass::Compare;
            }
        }
    }
    return GoalClass::Call;
}

ClauseCompiler::VarInfo &
ClauseCompiler::info(const TermRef &var)
{
    auto it = vars_.find(var.get());
    if (it == vars_.end())
        panic("unknown variable in codegen");
    return it->second;
}

void
ClauseCompiler::noteVars(const TermRef &t, int chunk, int goal_index)
{
    if (t->isVar()) {
        auto [it, fresh] = vars_.emplace(t.get(), VarInfo{});
        VarInfo &vi = it->second;
        if (fresh) {
            vi.firstChunk = chunk;
            varOrder_.push_back(t);
        }
        vi.lastChunk = chunk;
        ++vi.occurrences;
        if (goal_index >= 0)
            vi.lastGoal = goal_index;
        return;
    }
    if (t->isStruct()) {
        for (const auto &arg : t->args())
            noteVars(arg, chunk, goal_index);
    }
}

void
ClauseCompiler::analyze(const NormClause &clause, bool force_all_perm)
{
    vars_.clear();
    varOrder_.clear();
    permCount_ = 0;
    cutLevelY_ = -1;
    firstCallGoal_ = -1;

    // Chunk 0 is the head plus everything up to and including the
    // first Call-class goal; each later Call goal closes a chunk.
    int chunk = 0;
    if (clause.head)
        noteVars(clause.head, 0, -1);

    bool has_deep_cut = false;
    for (size_t i = 0; i < clause.goals.size(); ++i) {
        const TermRef &goal = clause.goals[i];
        GoalClass klass = classify(goal);
        noteVars(goal, chunk, static_cast<int>(i));
        if (klass == GoalClass::Cut && firstCallGoal_ >= 0)
            has_deep_cut = true;
        if (klass == GoalClass::Call) {
            if (firstCallGoal_ < 0)
                firstCallGoal_ = static_cast<int>(i);
            ++chunk;
        }
    }

    for (const auto &var : varOrder_) {
        VarInfo &vi = vars_[var.get()];
        vi.perm = force_all_perm || vi.firstChunk != vi.lastChunk;
        if (vi.perm)
            vi.y = permCount_++;
    }
    if (has_deep_cut)
        cutLevelY_ = permCount_++;
}

// -------------------------------------------------------- reg management

Reg
ClauseCompiler::newTemp()
{
    if (!freeTemps_.empty()) {
        Reg r = freeTemps_.back();
        freeTemps_.pop_back();
        return r;
    }
    if (nextTemp_ >= numXRegs) {
        fatal("clause needs more than ", numXRegs,
              " temporary registers");
    }
    return static_cast<Reg>(nextTemp_++);
}

void
ClauseCompiler::releaseTemp(Reg r)
{
    if (r >= tempBase_)
        freeTemps_.push_back(r);
}

bool
ClauseCompiler::hasHome(const TermRef &var) const
{
    auto it = vars_.find(var.get());
    if (it == vars_.end())
        return false;
    return it->second.argHome >= 0 || it->second.x >= 0;
}

Reg
ClauseCompiler::homeReg(const TermRef &var)
{
    VarInfo &vi = info(var);
    if (vi.argHome >= 0)
        return static_cast<Reg>(vi.argHome);
    if (vi.x >= 0)
        return static_cast<Reg>(vi.x);
    panic("variable has no register home");
}

void
ClauseCompiler::emitMove(Reg from, Reg to)
{
    asm_.emit(Instr::makeRegs(Opcode::Move2, from, from, to, to));
}

void
ClauseCompiler::markLast()
{
    asm_.markLast();
}

// ------------------------------------------------------------------ head

void
ClauseCompiler::compileHead(const TermRef &head)
{
    inHead_ = true;
    if (!head->isAtom()) {
        for (uint32_t i = 0; i < head->arity(); ++i)
            compileHeadArg(head->arg(i), static_cast<Reg>(i));
    }
    inHead_ = false;
}

void
ClauseCompiler::compileHeadArg(const TermRef &t, Reg areg)
{
    switch (t->kind()) {
      case TermKind::Var: {
        VarInfo &vi = info(t);
        if (vi.argHome < 0 && vi.x < 0 && !vi.yValid) {
            // First occurrence: the value simply lives in the argument
            // register; no instruction needed.
            vi.argHome = areg;
        } else {
            asm_.emit(Instr::makeRegs(Opcode::GetValueX, homeReg(t), areg));
        }
        return;
      }
      case TermKind::Atom:
        if (t->isNil()) {
            asm_.emit(Instr::makeRegs(Opcode::GetNil, 0, areg));
        } else {
            asm_.emit(Instr::makeConstant(Opcode::GetConstant,
                                          constantWord(t), 0, areg));
        }
        return;
      case TermKind::Int:
      case TermKind::Float:
        asm_.emit(Instr::makeConstant(Opcode::GetConstant, constantWord(t),
                                      0, areg));
        return;
      case TermKind::Struct:
        break;
    }

    if (t->isCons()) {
        asm_.emit(Instr::makeRegs(Opcode::GetList, 0, areg));
        compileUnifyArgs(t->args(), /*is_cons=*/true);
    } else {
        Word f = Word::makeFunctor(t->functorName(), t->arity());
        asm_.emit(Instr::makeConstant(Opcode::GetStructure, f, 0, areg));
        compileUnifyArgs(t->args(), /*is_cons=*/false);
    }
}

void
ClauseCompiler::compileUnifyArgs(std::span<const TermRef> args,
                                 bool is_cons)
{
    // Breadth-first: unify this level, queueing nested structures into
    // fresh temporaries to be decomposed afterwards. Cons levels are
    // compiled as unify_list chains: a statically-known list cell then
    // costs two instructions (§4.1).
    struct Pending
    {
        Reg reg;
        TermRef term;
    };
    std::vector<Pending> queue;

    auto unify_child = [&](const TermRef &child) {
        if (child->isVar() && info(child).occurrences == 1 &&
            !info(child).perm) {
            asm_.emit(Instr::makeRegs(Opcode::UnifyVoid, 1));
            return;
        }
        if (isCompound(child)) {
            Reg t = newTemp();
            asm_.emit(Instr::makeRegs(Opcode::UnifyVariableX, t));
            queue.push_back({t, child});
            return;
        }
        emitUnifyChild(child);
    };

    auto unify_cons_level = [&](std::span<const TermRef> level) {
        // level = {head, tail} of a cons cell; chain through tails.
        TermRef head = level[0];
        TermRef tail = level[1];
        while (true) {
            unify_child(head);
            if (tail->isCons()) {
                asm_.emit(Instr::makeRegs(Opcode::UnifyList, 0));
                head = tail->arg(0);
                tail = tail->arg(1);
                continue;
            }
            if (tail->isNil()) {
                asm_.emit(Instr::makeRegs(Opcode::UnifyNil, 0));
            } else {
                unify_child(tail);
            }
            return;
        }
    };

    auto unify_level = [&](std::span<const TermRef> level,
                           bool level_is_cons) {
        if (level_is_cons) {
            unify_cons_level(level);
            return;
        }
        size_t i = 0;
        while (i < level.size()) {
            const TermRef &child = level[i];
            if (child->isVar() && info(child).occurrences == 1 &&
                !info(child).perm) {
                // Coalesce consecutive anonymous children.
                unsigned count = 0;
                while (i < level.size() && level[i]->isVar() &&
                       info(level[i]).occurrences == 1 &&
                       !info(level[i]).perm) {
                    ++count;
                    ++i;
                }
                asm_.emit(Instr::makeRegs(Opcode::UnifyVoid,
                                          static_cast<Reg>(count)));
                continue;
            }
            unify_child(child);
            ++i;
        }
    };

    unify_level(args, is_cons);
    size_t next = 0;
    while (next < queue.size()) {
        Pending p = queue[next++];
        if (p.term->isCons()) {
            asm_.emit(Instr::makeRegs(Opcode::GetList, 0, p.reg));
        } else {
            Word f = Word::makeFunctor(p.term->functorName(),
                                       p.term->arity());
            asm_.emit(
                Instr::makeConstant(Opcode::GetStructure, f, 0, p.reg));
        }
        // The holder register has been consumed (it set S); recycle it
        // so long list patterns need O(1) temporaries.
        releaseTemp(p.reg);
        unify_level(p.term->args(), p.term->isCons());
    }
}

void
ClauseCompiler::emitUnifyChild(const TermRef &child)
{
    switch (child->kind()) {
      case TermKind::Var: {
        VarInfo &vi = info(child);
        bool fresh = vi.argHome < 0 && vi.x < 0 && !vi.yValid;
        if (fresh) {
            if (vi.perm && inHead_) {
                // No environment yet: capture into a temporary; the
                // move to the Y slot happens right after allocate.
                Reg t = newTemp();
                asm_.emit(Instr::makeRegs(Opcode::UnifyVariableX, t));
                vi.x = t;
                vi.heapSafe = true;
            } else if (vi.perm) {
                asm_.emit(Instr::makeRegs(Opcode::UnifyVariableY,
                                          static_cast<Reg>(vi.y)));
                vi.yValid = true;
                vi.heapSafe = true;
            } else {
                Reg t = newTemp();
                asm_.emit(Instr::makeRegs(Opcode::UnifyVariableX, t));
                vi.x = t;
                vi.heapSafe = true;
            }
            return;
        }
        // Repeat occurrence.
        if (vi.perm && vi.yValid) {
            asm_.emit(Instr::makeRegs(vi.heapSafe
                                          ? Opcode::UnifyValueY
                                          : Opcode::UnifyLocalValueY,
                                      static_cast<Reg>(vi.y)));
        } else {
            asm_.emit(Instr::makeRegs(vi.heapSafe
                                          ? Opcode::UnifyValueX
                                          : Opcode::UnifyLocalValueX,
                                      homeReg(child)));
        }
        return;
      }
      case TermKind::Atom:
        if (child->isNil()) {
            asm_.emit(Instr::makeRegs(Opcode::UnifyNil, 0));
        } else {
            asm_.emit(Instr::makeConstant(Opcode::UnifyConstant,
                                          constantWord(child)));
        }
        return;
      case TermKind::Int:
      case TermKind::Float:
        asm_.emit(Instr::makeConstant(Opcode::UnifyConstant,
                                      constantWord(child)));
        return;
      case TermKind::Struct:
        panic("emitUnifyChild: compounds handled by caller");
    }
}

// ------------------------------------------------------------------ body

void
ClauseCompiler::compileClause(const NormClause &clause,
                              const ClauseContext &ctx)
{
    analyze(clause, false);
    arity_ = ctx.arity;

    tempBase_ = arity_;
    for (const auto &goal : clause.goals) {
        if (classify(goal) == GoalClass::Call)
            tempBase_ = std::max(tempBase_, goal->arity());
    }
    nextTemp_ = tempBase_;
    freeTemps_.clear();

    compileHead(clause.head);

    // Guard: a prefix of inline tests and cuts that may run before the
    // neck (they never touch the argument registers).
    size_t guard_end = 0;
    while (guard_end < clause.goals.size()) {
        const TermRef &goal = clause.goals[guard_end];
        GoalClass klass = classify(goal);
        if (!guardSafe(goal, klass))
            break;
        switch (klass) {
          case GoalClass::Cut:
            asm_.emit(Instr::make(Opcode::Cut));
            break;
          case GoalClass::Compare:
            compileCompareGoal(goal);
            break;
          case GoalClass::Is:
            compileIsGoal(goal);
            break;
          default:
            panic("unexpected guard goal");
        }
        ++guard_end;
    }

    if (ctx.hasAlternatives)
        asm_.emit(Instr::make(Opcode::Neck));

    NormClause rest;
    rest.head = clause.head;
    rest.goals.assign(clause.goals.begin() +
                          static_cast<long>(guard_end),
                      clause.goals.end());
    // Re-number goal indices consumed by the guard: analysis indices
    // still refer to the original list; compileBody only needs the
    // remaining goals and per-variable state already tracks homes.
    compileBody(rest, false);
}

void
ClauseCompiler::compileQuery(const std::vector<TermRef> &goals,
                             std::vector<TermRef> &var_order)
{
    NormClause clause;
    static const AtomId query_atom = internAtom("$query");
    clause.head = Term::makeAtom(query_atom);
    clause.goals = goals;
    analyze(clause, true);
    arity_ = 0;

    tempBase_ = 0;
    for (const auto &goal : goals) {
        if (classify(goal) == GoalClass::Call)
            tempBase_ = std::max(tempBase_, goal->arity());
    }
    nextTemp_ = tempBase_;
    freeTemps_.clear();

    var_order = varOrder_;
    compileBody(clause, true);
}

bool
ClauseCompiler::guardSafe(const TermRef &goal, GoalClass klass) const
{
    auto vars_have_homes = [&](const TermRef &t) {
        std::vector<TermRef> vs;
        collectVars(t, vs);
        for (const auto &v : vs) {
            if (!hasHome(v))
                return false;
        }
        return true;
    };

    switch (klass) {
      case GoalClass::Cut:
        return true;
      case GoalClass::Compare:
        return vars_have_homes(goal);
      case GoalClass::Is: {
        // Safe when the target is a fresh temporary and the expression
        // reads only registers: pure register computation.
        const TermRef &target = goal->arg(0);
        if (!target->isVar())
            return false;
        auto it = vars_.find(target.get());
        if (it == vars_.end())
            return false;
        const VarInfo &vi = it->second;
        bool fresh = vi.argHome < 0 && vi.x < 0 && !vi.yValid && !vi.perm;
        return fresh && vars_have_homes(goal->arg(1));
      }
      default:
        return false;
    }
}

void
ClauseCompiler::compileBody(const NormClause &clause, bool query_mode)
{
    const std::vector<TermRef> &goals = clause.goals;

    // Which goals are calls, and does the body end with one?
    int call_count = 0;
    int last_call_index = -1;
    for (size_t i = 0; i < goals.size(); ++i) {
        if (classify(goals[i]) == GoalClass::Call) {
            ++call_count;
            last_call_index = static_cast<int>(i);
        }
    }
    bool ends_with_call = !goals.empty() &&
                          last_call_index ==
                              static_cast<int>(goals.size()) - 1;
    bool lco = ends_with_call && !query_mode;

    bool needs_env =
        query_mode || permCount_ > 0 || cutLevelY_ >= 0 ||
        (call_count > 0 && !(call_count == 1 && lco));

    if (needs_env) {
        // permCount_ already includes the cut-level slot if present.
        asm_.emit(Instr::makeRegs(Opcode::Allocate,
                                  static_cast<Reg>(permCount_)));
        // Move permanent variables captured in the head into their Y
        // slots.
        for (const auto &var : varOrder_) {
            VarInfo &vi = vars_[var.get()];
            if (vi.perm && !vi.yValid && (vi.argHome >= 0 || vi.x >= 0)) {
                asm_.emit(Instr::makeRegs(Opcode::GetVariableY,
                                          static_cast<Reg>(vi.y),
                                          homeReg(var)));
                vi.yValid = true;
                vi.argHome = -1;
                vi.x = -1;
            }
        }
        if (cutLevelY_ >= 0) {
            asm_.emit(Instr::makeRegs(Opcode::GetLevel,
                                      static_cast<Reg>(cutLevelY_)));
        }
    }

    bool call_seen = false;
    bool ended_with_execute = false;

    for (size_t i = 0; i < goals.size(); ++i) {
        const TermRef &goal = goals[i];
        GoalClass klass = classify(goal);
        bool is_last = lco && static_cast<int>(i) == last_call_index;

        switch (klass) {
          case GoalClass::True:
            asm_.emit(Instr::make(Opcode::Noop));
            markLast();
            break;
          case GoalClass::Fail:
            asm_.emit(Instr::make(Opcode::FailOp));
            markLast();
            break;
          case GoalClass::Cut:
            if (call_seen) {
                if (cutLevelY_ < 0)
                    panic("deep cut without saved level");
                asm_.emit(Instr::makeRegs(Opcode::CutY,
                                          static_cast<Reg>(cutLevelY_)));
            } else {
                asm_.emit(Instr::make(Opcode::Cut));
            }
            break;
          case GoalClass::Unify:
            compileUnifyGoal(goal);
            break;
          case GoalClass::Is:
            compileIsGoal(goal);
            break;
          case GoalClass::Compare:
            compileCompareGoal(goal);
            break;
          case GoalClass::Call: {
            bool deallocate_before = is_last && needs_env;
            putGoalArgs(goal, is_last);
            if (deallocate_before)
                asm_.emit(Instr::make(Opcode::Deallocate));
            Functor f = goal->functor();
            Instr instr = Instr::makeValue(is_last ? Opcode::Execute
                                                   : Opcode::Call,
                                           0, static_cast<Reg>(f.arity));
            asm_.emitCall(instr.withMark(), f);
            if (is_last) {
                ended_with_execute = true;
            } else {
                call_seen = true;
                // Temporaries do not survive a call; the temp pool is
                // reusable in the next chunk.
                for (const auto &var : varOrder_) {
                    VarInfo &vi = vars_[var.get()];
                    vi.argHome = -1;
                    vi.x = -1;
                }
                nextTemp_ = tempBase_;
                freeTemps_.clear();
            }
            break;
          }
        }
    }

    if (ended_with_execute)
        return;

    if (query_mode) {
        asm_.emit(Instr::makeValue(
            Opcode::Escape,
            static_cast<uint32_t>(BuiltinId::CollectSolution), 0));
        asm_.emit(Instr::make(Opcode::Halt));
        return;
    }

    if (needs_env)
        asm_.emit(Instr::make(Opcode::Deallocate));
    asm_.emit(Instr::make(Opcode::Proceed));
}

// ------------------------------------------------------------- call args

void
ClauseCompiler::resolveConflicts(const TermRef &goal)
{
    uint32_t m = goal->arity();

    // Does @p var occur in goal args (k > j), or nested in arg j?
    auto occurs_in = [&](const TermRef &var, const TermRef &t,
                         bool top_level, auto &&self) -> bool {
        if (t->isVar())
            return t.get() == var.get() && !top_level;
        if (t->isStruct()) {
            for (const auto &arg : t->args()) {
                if (arg->isVar() ? arg.get() == var.get()
                                 : self(var, arg, false, self)) {
                    return true;
                }
            }
        }
        return false;
    };

    for (uint32_t j = 0; j < m; ++j) {
        for (const auto &var : varOrder_) {
            VarInfo &vi = vars_[var.get()];
            if (vi.argHome != static_cast<int>(j))
                continue;
            bool conflict = false;
            // Nested in arg j?
            if (occurs_in(var, goal->arg(j), true, occurs_in))
                conflict = true;
            // Anywhere in later args?
            for (uint32_t k = j + 1; k < m && !conflict; ++k) {
                const TermRef &a = goal->arg(k);
                if (a->isVar() ? a.get() == var.get()
                               : occurs_in(var, a, false, occurs_in)) {
                    conflict = true;
                }
            }
            if (conflict) {
                Reg t = newTemp();
                emitMove(static_cast<Reg>(j), t);
                vi.argHome = -1;
                vi.x = t;
            }
        }
    }
}

void
ClauseCompiler::putGoalArgs(const TermRef &goal, bool is_last_call)
{
    if (goal->isAtom())
        return;
    resolveConflicts(goal);
    int goal_index = -1;
    // Last-occurrence bookkeeping uses lastGoal recorded in analysis;
    // we find the index by checking identity below via lastGoal of
    // each variable (put args only need "is this the final goal that
    // mentions the variable", handled in putArg via is_last_call).
    for (uint32_t j = 0; j < goal->arity(); ++j)
        putArg(goal->arg(j), static_cast<Reg>(j), is_last_call, goal_index);
}

void
ClauseCompiler::putArg(const TermRef &t, Reg areg, bool is_last_call,
                       int goal_index)
{
    (void)goal_index;
    switch (t->kind()) {
      case TermKind::Var: {
        VarInfo &vi = info(t);
        bool fresh = vi.argHome < 0 && vi.x < 0 && !vi.yValid;
        if (fresh) {
            if (vi.perm) {
                asm_.emit(Instr::makeRegs(Opcode::PutVariableY,
                                          static_cast<Reg>(vi.y), areg));
                vi.yValid = true;
                vi.unsafe = true;
            } else {
                Reg x = newTemp();
                asm_.emit(Instr::makeRegs(Opcode::PutVariableX, x, areg));
                vi.x = x;
                vi.heapSafe = true;
            }
            return;
        }
        if (vi.perm && vi.yValid) {
            if (is_last_call && vi.unsafe) {
                asm_.emit(Instr::makeRegs(Opcode::PutUnsafeValue,
                                          static_cast<Reg>(vi.y), areg));
                vi.unsafe = false;
                vi.heapSafe = true;
            } else {
                asm_.emit(Instr::makeRegs(Opcode::PutValueY,
                                          static_cast<Reg>(vi.y), areg));
            }
            return;
        }
        Reg home = homeReg(t);
        if (home != areg)
            asm_.emit(Instr::makeRegs(Opcode::PutValueX, home, areg));
        return;
      }
      case TermKind::Atom:
        if (t->isNil()) {
            asm_.emit(Instr::makeRegs(Opcode::PutNil, 0, areg));
        } else {
            asm_.emit(Instr::makeConstant(Opcode::PutConstant,
                                          constantWord(t), 0, areg));
        }
        return;
      case TermKind::Int:
      case TermKind::Float:
        asm_.emit(Instr::makeConstant(Opcode::PutConstant, constantWord(t),
                                      0, areg));
        return;
      case TermKind::Struct:
        buildCompound(t, areg);
        return;
    }
}

void
ClauseCompiler::buildCompound(const TermRef &t, Reg target)
{
    // Lists whose elements are all atomic or variables compile to a
    // unify_list chain: two instructions per statically-known cell
    // (§4.1), with no holder temporaries.
    if (t->isCons()) {
        bool chainable = true;
        {
            TermRef node = t;
            while (node->isCons()) {
                if (isCompound(node->arg(0))) {
                    chainable = false;
                    break;
                }
                node = node->arg(1);
            }
            if (chainable && isCompound(node))
                chainable = false;
        }
        if (chainable) {
            asm_.emit(Instr::makeRegs(Opcode::PutList, 0, target));
            TermRef head = t->arg(0);
            TermRef tail = t->arg(1);
            while (true) {
                emitUnifyChild(head);
                if (tail->isCons()) {
                    asm_.emit(Instr::makeRegs(Opcode::UnifyList, 0));
                    head = tail->arg(0);
                    tail = tail->arg(1);
                    continue;
                }
                if (tail->isNil())
                    asm_.emit(Instr::makeRegs(Opcode::UnifyNil, 0));
                else
                    emitUnifyChild(tail);
                return;
            }
        }
    }

    // Long list chains are built tail-first with O(1) temporaries
    // (naive recursion would need one holder per element).
    if (t->isCons()) {
        std::vector<TermRef> items;
        TermRef node = t;
        while (node->isCons()) {
            items.push_back(node->arg(0));
            node = node->arg(1);
        }
        const TermRef tail = node;

        // Register holding the list built so far (-1: tail is nil or
        // an atomic/variable handled inline per cell).
        int prev = -1;
        bool tail_is_nil = tail->isNil();
        if (!tail_is_nil && !items.empty()) {
            if (!(tail->isVar() || tail->isAtomic()))
                prev = termToReg(tail);
        }

        for (size_t i = items.size(); i-- > 0;) {
            const TermRef &item = items[i];
            int item_reg = -1;
            if (isCompound(item)) {
                Reg r = newTemp();
                buildCompound(item, r);
                item_reg = r;
            }
            Reg cur = i == 0 ? target : newTemp();
            asm_.emit(Instr::makeRegs(Opcode::PutList, 0, cur));
            if (item_reg >= 0) {
                asm_.emit(Instr::makeRegs(Opcode::UnifyValueX,
                                          static_cast<Reg>(item_reg)));
                releaseTemp(static_cast<Reg>(item_reg));
            } else {
                emitUnifyChild(item);
            }
            // The cell's tail.
            if (prev >= 0) {
                asm_.emit(Instr::makeRegs(Opcode::UnifyValueX,
                                          static_cast<Reg>(prev)));
                releaseTemp(static_cast<Reg>(prev));
            } else if (i + 1 < items.size()) {
                panic("list chain lost its link register");
            } else if (tail_is_nil) {
                asm_.emit(Instr::makeRegs(Opcode::UnifyNil, 0));
            } else {
                emitUnifyChild(tail);
            }
            prev = cur;
        }
        return;
    }

    // Build nested compounds bottom-up into temporaries first.
    std::vector<int> child_regs(t->arity(), -1);
    for (uint32_t i = 0; i < t->arity(); ++i) {
        if (isCompound(t->arg(i))) {
            Reg r = newTemp();
            buildCompound(t->arg(i), r);
            child_regs[i] = r;
        }
    }

    if (t->isCons()) {
        asm_.emit(Instr::makeRegs(Opcode::PutList, 0, target));
    } else {
        Word f = Word::makeFunctor(t->functorName(), t->arity());
        asm_.emit(Instr::makeConstant(Opcode::PutStructure, f, 0, target));
    }

    size_t i = 0;
    while (i < t->arity()) {
        if (child_regs[i] >= 0) {
            asm_.emit(Instr::makeRegs(Opcode::UnifyValueX,
                                      static_cast<Reg>(child_regs[i])));
            releaseTemp(static_cast<Reg>(child_regs[i]));
            ++i;
            continue;
        }
        const TermRef &child = t->arg(i);
        if (child->isVar() && info(child).occurrences == 1 &&
            !info(child).perm) {
            unsigned count = 0;
            while (i < t->arity() && child_regs[i] < 0 &&
                   t->arg(i)->isVar() &&
                   info(t->arg(i)).occurrences == 1 &&
                   !info(t->arg(i)).perm) {
                ++count;
                ++i;
            }
            asm_.emit(Instr::makeRegs(Opcode::UnifyVoid,
                                      static_cast<Reg>(count)));
            continue;
        }
        emitUnifyChild(child);
        ++i;
    }
}

Reg
ClauseCompiler::termToReg(const TermRef &t)
{
    switch (t->kind()) {
      case TermKind::Var: {
        VarInfo &vi = info(t);
        if (vi.argHome >= 0 || vi.x >= 0)
            return homeReg(t);
        if (vi.yValid) {
            // Load Y into a temp via put_value_y (target is a plain
            // register).
            Reg x = newTemp();
            asm_.emit(Instr::makeRegs(Opcode::PutValueY,
                                      static_cast<Reg>(vi.y), x));
            vi.x = x;
            return x;
        }
        // Fresh variable.
        if (vi.perm) {
            Reg x = newTemp();
            asm_.emit(Instr::makeRegs(Opcode::PutVariableY,
                                      static_cast<Reg>(vi.y), x));
            vi.yValid = true;
            vi.unsafe = true;
            vi.x = x;
            return x;
        }
        Reg x = newTemp();
        asm_.emit(Instr::makeRegs(Opcode::PutVariableX, x, x));
        vi.x = x;
        vi.heapSafe = true;
        return x;
      }
      case TermKind::Atom:
      case TermKind::Int:
      case TermKind::Float: {
        Reg x = newTemp();
        asm_.emit(
            Instr::makeConstant(Opcode::LoadImm, constantWord(t), x));
        return x;
      }
      case TermKind::Struct: {
        Reg x = newTemp();
        buildCompound(t, x);
        return x;
      }
    }
    panic("termToReg: unreachable");
}

// ----------------------------------------------------------- inline goals

void
ClauseCompiler::compileUnifyGoal(const TermRef &goal)
{
    const TermRef &lhs = goal->arg(0);
    const TermRef &rhs = goal->arg(1);

    // X = <term> with X fresh: just build the term into X's home.
    auto fresh_var = [&](const TermRef &t) {
        if (!t->isVar())
            return false;
        VarInfo &vi = info(t);
        return vi.argHome < 0 && vi.x < 0 && !vi.yValid && !vi.perm;
    };

    if (fresh_var(lhs)) {
        Reg r = termToReg(rhs);
        VarInfo &vi = info(lhs);
        vi.x = r;
        asm_.emit(Instr::make(Opcode::Noop));
        markLast();
        return;
    }
    if (fresh_var(rhs)) {
        Reg r = termToReg(lhs);
        VarInfo &vi = info(rhs);
        vi.x = r;
        asm_.emit(Instr::make(Opcode::Noop));
        markLast();
        return;
    }

    Reg ra = termToReg(lhs);
    Reg rb = termToReg(rhs);
    asm_.emit(Instr::makeRegs(Opcode::GetValueX, ra, rb));
    markLast();
}

Reg
ClauseCompiler::evalArith(const TermRef &expr)
{
    if (expr->isAtomic()) {
        // Numbers evaluate to themselves; atoms are loaded as-is and
        // make the consuming ALU operation fail at run time (an atom
        // is not a number).
        Reg x = newTemp();
        asm_.emit(
            Instr::makeConstant(Opcode::LoadImm, constantWord(expr), x));
        return x;
    }
    if (expr->isVar())
        return termToReg(expr);

    const AtomTable &atoms = AtomTable::instance();
    if (isArithOp(expr, atoms.minus, 1)) {
        Reg a = evalArith(expr->arg(0));
        Reg d = newTemp();
        asm_.emit(Instr::makeRegs(Opcode::NativeNeg, a, 0, d));
        return d;
    }
    if (isArithOp(expr, atoms.plus, 1))
        return evalArith(expr->arg(0));

    struct BinOp
    {
        AtomId name;
        Opcode op;
    };
    static const BinOp ops[] = {
        {atoms.plus, Opcode::NativeAdd},
        {atoms.minus, Opcode::NativeSub},
        {internAtom("*"), Opcode::NativeMul},
        {internAtom("//"), Opcode::NativeDiv},
        {internAtom("/"), Opcode::NativeDiv},
        {internAtom("mod"), Opcode::NativeMod},
    };
    for (const auto &bin : ops) {
        if (isArithOp(expr, bin.name, 2)) {
            Reg a = evalArith(expr->arg(0));
            Reg b = evalArith(expr->arg(1));
            Reg d = newTemp();
            asm_.emit(Instr::makeRegs(bin.op, a, b, d));
            return d;
        }
    }
    // An expression the native mode cannot evaluate (unknown functor):
    // the goal fails when reached, like any other type error.
    warn("arithmetic expression not supported in integer mode: ",
         writeTerm(expr), " (compiled as failure)");
    asm_.emit(Instr::make(Opcode::FailOp));
    Reg x = newTemp();
    asm_.emit(Instr::makeConstant(Opcode::LoadImm, Word::makeInt(0), x));
    return x;
}

void
ClauseCompiler::compileIsGoal(const TermRef &goal)
{
    const TermRef &target = goal->arg(0);
    size_t before = asm_.wordCount();
    Reg r = evalArith(goal->arg(1));
    if (asm_.wordCount() == before) {
        // "X is Y": the expression is already in a register; emit a
        // move so the goal exists as a countable instruction.
        Reg x = newTemp();
        emitMove(r, x);
        r = x;
    }
    markLast(); // the inference is counted on the final arith op

    if (target->isVar()) {
        VarInfo &vi = info(target);
        bool fresh = vi.argHome < 0 && vi.x < 0 && !vi.yValid;
        if (fresh && !vi.perm) {
            vi.x = r;
            return;
        }
        if (fresh && vi.perm) {
            asm_.emit(Instr::makeRegs(Opcode::GetVariableY,
                                      static_cast<Reg>(vi.y), r));
            vi.yValid = true;
            return;
        }
        if (vi.perm && vi.yValid) {
            asm_.emit(Instr::makeRegs(Opcode::GetValueY,
                                      static_cast<Reg>(vi.y), r));
            return;
        }
        asm_.emit(Instr::makeRegs(Opcode::GetValueX, homeReg(target), r));
        return;
    }
    // Non-var target: unify the result with the constant/compound.
    Reg rt = termToReg(target);
    asm_.emit(Instr::makeRegs(Opcode::GetValueX, rt, r));
}

void
ClauseCompiler::compileCompareGoal(const TermRef &goal)
{
    Reg a = evalArith(goal->arg(0));
    Reg b = evalArith(goal->arg(1));
    for (const Comparison &cmp : comparisons()) {
        if (goal->functorName() == cmp.name) {
            asm_.emit(Instr::makeRegs(cmp.op, a, b));
            markLast();
            return;
        }
    }
    panic("compileCompareGoal: not a comparison");
}

} // namespace kcm
