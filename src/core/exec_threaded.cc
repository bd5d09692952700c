/**
 * @file
 * The token-threaded run loop over the predecoded image.
 *
 * Each dispatch token indexes a computed-goto label table and every
 * handler tail re-dispatches directly (classic token threading, as in
 * B-Prolog's TOAM emulator loop). The per-step work is fetchDecoded()
 * + the shared opcode handler + finishStep() — the exact sequence the
 * oracle step() performs — so cycles, instruction counts and cache
 * statistics cannot diverge between the paths. Toolchains without
 * computed goto (and -DKCM_FORCE_SWITCH_DISPATCH builds) compile none
 * of this: runLoop() drives step() over the same predecoded image.
 */

#include "core/exec_ops.hh"

#include "core/machine.hh"

#ifdef KCM_THREADED_DISPATCH

namespace kcm
{

// The label table below is written in Opcode declaration order;
// anchor a few positions so a reordered enum fails to compile
// instead of dispatching the wrong handler.
static_assert(static_cast<int>(Opcode::FailOp) == 8);
static_assert(static_cast<int>(Opcode::SwitchOnTerm) == 19);
static_assert(static_cast<int>(Opcode::GetVariableX) == 22);
static_assert(static_cast<int>(Opcode::PutVariableX) == 30);
static_assert(static_cast<int>(Opcode::UnifyVariableX) == 39);
static_assert(static_cast<int>(Opcode::NativeAdd) == 49);
static_assert(static_cast<int>(Opcode::Escape) == 61);
static_assert(static_cast<int>(Opcode::SwapTV) == 66);
static_assert(static_cast<int>(Opcode::NumOpcodes) == 67);

RunStatus
Machine::runFast()
{
    // One table entry per opcode plus the invalid-word token; grouped
    // opcodes (indexing, unify class, arithmetic) share a label and
    // re-dispatch inside their microcode unit, exactly as the oracle
    // switch does.
    static const void *const table[numOpcodeTokens] = {
        &&l_halt, &&l_noop, &&l_jump, &&l_call, &&l_execute,
        &&l_proceed, &&l_allocate, &&l_deallocate, &&l_fail,
        // choice points / indexing
        &&l_index, &&l_index, &&l_index, &&l_index, &&l_index,
        &&l_index, &&l_index, &&l_index, &&l_index, &&l_index,
        &&l_index, &&l_index, &&l_index,
        // get
        &&l_get_variable_x, &&l_get_variable_y, &&l_get_value_x,
        &&l_get_value_y, &&l_get_constant, &&l_get_constant,
        &&l_get_list, &&l_get_structure,
        // put
        &&l_put_variable_x, &&l_put_variable_y, &&l_put_value_x,
        &&l_put_value_y, &&l_put_unsafe_value, &&l_put_constant,
        &&l_put_nil, &&l_put_list, &&l_put_structure,
        // unify class
        &&l_unify, &&l_unify, &&l_unify, &&l_unify, &&l_unify,
        &&l_unify, &&l_unify, &&l_unify, &&l_unify, &&l_unify,
        // arithmetic + comparisons
        &&l_arith, &&l_arith, &&l_arith, &&l_arith, &&l_arith,
        &&l_arith, &&l_arith, &&l_arith, &&l_arith, &&l_arith,
        &&l_arith, &&l_arith,
        &&l_escape,
        // data movement
        &&l_move2, &&l_load, &&l_store, &&l_load_imm, &&l_swap_tv,
        // invalid-word token
        &&l_bad,
    };

    const DecodedInstr *d;

    // Per-step prologue: cycle-stop check (maxCycles, the governor's
    // budget or a host slice: l_cycle_stop), then fetch + dispatch.
#define KCM_DISPATCH()                                                  \
    do {                                                                \
        if (stopCycles_ && cycles_ >= stopCycles_) [[unlikely]]         \
            goto l_cycle_stop;                                          \
        d = &fetchDecoded();                                            \
        goto *table[d->op];                                             \
    } while (0)

    // Per-step epilogue: accounting, stop-flag test (the run() exit
    // order: solution, halt-failed, halted), then the next step.
#define KCM_NEXT()                                                      \
    do {                                                                \
        finishStep(*d);                                                 \
        if (solutionReady_ || haltFailed_ || halted_) [[unlikely]]      \
            goto l_stopped;                                             \
        KCM_DISPATCH();                                                 \
    } while (0)

    KCM_DISPATCH();

  l_halt:             opHalt(*d);           KCM_NEXT();
  l_noop:                                   KCM_NEXT();
  l_jump:             opJump(*d);           KCM_NEXT();
  l_call:             opCall(*d);           KCM_NEXT();
  l_execute:          opExecute(*d);        KCM_NEXT();
  l_proceed:          opProceed(*d);        KCM_NEXT();
  l_allocate:         opAllocate(*d);       KCM_NEXT();
  l_deallocate:       opDeallocate(*d);     KCM_NEXT();
  l_fail:             fail();               KCM_NEXT();
  l_index:            execIndex(*d);        KCM_NEXT();
  l_get_variable_x:   opGetVariableX(*d);   KCM_NEXT();
  l_get_variable_y:   opGetVariableY(*d);   KCM_NEXT();
  l_get_value_x:      opGetValueX(*d);      KCM_NEXT();
  l_get_value_y:      opGetValueY(*d);      KCM_NEXT();
  l_get_constant:     opGetConstant(*d);    KCM_NEXT();
  l_get_list:         opGetList(*d);        KCM_NEXT();
  l_get_structure:    opGetStructure(*d);   KCM_NEXT();
  l_put_variable_x:   opPutVariableX(*d);   KCM_NEXT();
  l_put_variable_y:   opPutVariableY(*d);   KCM_NEXT();
  l_put_value_x:      opPutValueX(*d);      KCM_NEXT();
  l_put_value_y:      opPutValueY(*d);      KCM_NEXT();
  l_put_unsafe_value: opPutUnsafeValue(*d); KCM_NEXT();
  l_put_constant:     opPutConstant(*d);    KCM_NEXT();
  l_put_nil:          opPutNil(*d);         KCM_NEXT();
  l_put_list:         opPutList(*d);        KCM_NEXT();
  l_put_structure:    opPutStructure(*d);   KCM_NEXT();
  l_unify:            execUnifyClass(*d);   KCM_NEXT();
  l_arith:            execArith(*d);        KCM_NEXT();
  l_escape:           execEscape(*d);       KCM_NEXT();
  l_move2:            opMove2(*d);          KCM_NEXT();
  l_load:             opLoad(*d);           KCM_NEXT();
  l_store:            opStore(*d);          KCM_NEXT();
  l_load_imm:         opLoadImm(*d);        KCM_NEXT();
  l_swap_tv:          opSwapTV(*d);         KCM_NEXT();
  l_bad:              opBadInstruction(*d); // noreturn

#undef KCM_DISPATCH
#undef KCM_NEXT

  l_cycle_stop:
    if (stopKind_ != StopKind::Limit)
        return takeCycleStop();
    return RunStatus::CycleLimit;

  l_stopped:
    if (solutionReady_) {
        solutionReady_ = false;
        return RunStatus::SolutionFound;
    }
    if (haltFailed_)
        return RunStatus::Failed;
    return RunStatus::Halted;
}

} // namespace kcm

#endif // KCM_THREADED_DISPATCH
