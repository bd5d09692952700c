/**
 * @file
 * Per-opcode instruction handlers over the predecoded form.
 *
 * Each handler is the body of one (former) execInstr switch case,
 * shared verbatim between the oracle dispatcher (exec_instr.cc,
 * switch) and the token-threaded core (exec_threaded.cc, computed
 * goto). Keeping a single definition of every opcode's semantics is
 * what guarantees the two dispatch paths stay cycle-for-cycle
 * identical. Opcode groups with their own microcode units keep their
 * grouped handlers (execIndex, execUnifyClass, execArith,
 * execEscape).
 */

#ifndef KCM_CORE_EXEC_OPS_HH
#define KCM_CORE_EXEC_OPS_HH

#include <algorithm>

#include "base/logging.hh"
#include "core/machine.hh"

namespace kcm
{

namespace exec_detail
{

/** Env slot address of Y register @p y under environment @p e. */
constexpr Addr
yAddr(Addr e, Reg y)
{
    return e + 2 + y;
}

/** Out-of-line trap formatting: the hot handlers carry only the
 *  test and a call; the message string is built when (and only
 *  when) the trap actually fires. */
[[noreturn, gnu::cold, gnu::noinline]] inline void
trapDeallocCorruptCE(Addr e, Word ce)
{
    throw MachineTrap(TrapKind::ZoneViolation,
                      cat("DEALLOC corrupt CE at E=0x", std::hex, e,
                          " ce=", ce.toString()));
}

[[noreturn, gnu::cold, gnu::noinline]] inline void
trapBadInstruction(Addr p)
{
    throw MachineTrap(TrapKind::BadInstruction,
                      cat("undecodable opcode at 0x", std::hex, p));
}

} // namespace exec_detail

// ------------------------------------------------------------ control

inline void
Machine::opHalt(const DecodedInstr &instr)
{
    if (instr.value == 0)
        halted_ = true;
    else
        haltFailed_ = true;
}

inline void
Machine::opJump(const DecodedInstr &instr)
{
    nextP_ = instr.value;
}

inline void
Machine::opCall(const DecodedInstr &instr)
{
    doCall(instr.value, false);
}

inline void
Machine::opExecute(const DecodedInstr &instr)
{
    doCall(instr.value, true);
}

inline void
Machine::opProceed(const DecodedInstr &)
{
    nextP_ = cpCont_;
}

inline void
Machine::opAllocate(const DecodedInstr &instr)
{
    // The new environment goes above both the current local top
    // and the region protected by the current choice point (after
    // a deallocate, LT may sit below frames that backtracking will
    // revive — the split-stack analogue of the WAM's
    // E := max(E, B) rule).
    Addr new_e = std::max(lt_, lb_);
    writeData(Word::makeDataPtr(Zone::Local, new_e),
              Word::makeDataPtr(Zone::Local, e_));
    writeData(Word::makeDataPtr(Zone::Local, new_e + 1),
              Word::makeCodePtr(cpCont_));
    e_ = new_e;
    lt_ = new_e + 2 + instr.r1;
    noteEnvSize(new_e, instr.r1); // GC debug info (host side)
    ++cycles_; // two stack writes
    ++envAllocs;
}

inline void
Machine::opDeallocate(const DecodedInstr &)
{
    cpCont_ = readData(Word::makeDataPtr(Zone::Local, e_ + 1)).addr();
    Addr old_e = e_;
    Word ce = readData(Word::makeDataPtr(Zone::Local, e_));
    if (ce.zone() != Zone::Local) [[unlikely]]
        exec_detail::trapDeallocCorruptCE(e_, ce);
    e_ = ce.addr();
    lt_ = old_e;
    ++cycles_; // two stack reads
}

// ------------------------------------------------------------ get/put

inline void
Machine::opGetVariableX(const DecodedInstr &instr)
{
    x_[instr.r1] = x_[instr.r2];
    if (!config_.dualPortRegisterFile)
        ++cycles_;
}

inline void
Machine::opGetVariableY(const DecodedInstr &instr)
{
    writeData(Word::makeDataPtr(Zone::Local,
                                exec_detail::yAddr(e_, instr.r1)),
              x_[instr.r2]);
}

inline void
Machine::opGetValueX(const DecodedInstr &instr)
{
    if (!unify(x_[instr.r1], x_[instr.r2]))
        fail();
}

inline void
Machine::opGetValueY(const DecodedInstr &instr)
{
    Word y = readData(Word::makeDataPtr(Zone::Local,
                                        exec_detail::yAddr(e_, instr.r1)));
    if (!unify(y, x_[instr.r2]))
        fail();
}

inline void
Machine::opGetConstant(const DecodedInstr &instr)
{
    Word want = instr.opcode() == Opcode::GetNil ? Word::makeNil()
                                                 : instr.constant;
    Word w = deref(x_[instr.r2]);
    if (w.isRef()) {
        bind(w, want);
    } else if (w.tag() != want.tag() || w.value() != want.value()) {
        fail();
    }
}

inline void
Machine::opGetList(const DecodedInstr &instr)
{
    Word w = deref(x_[instr.r2]);
    if (w.isRef()) {
        bind(w, Word::makeList(Zone::Global, h_));
        writeMode_ = true;
    } else if (w.isList()) {
        s_ = w.addr();
        writeMode_ = false;
    } else {
        fail();
    }
}

inline void
Machine::opGetStructure(const DecodedInstr &instr)
{
    Word f = instr.constant;
    Word w = deref(x_[instr.r2]);
    if (w.isRef()) {
        bind(w, Word::makeStruct(Zone::Global, h_));
        pushHeapCell(f);
        writeMode_ = true;
    } else if (w.isStruct()) {
        Word actual = readData(Word::makeDataPtr(w.zone(), w.addr()));
        ++cycles_;
        if (actual.raw() != f.raw()) {
            fail();
            return;
        }
        s_ = w.addr() + 1;
        writeMode_ = false;
    } else {
        fail();
    }
}

inline void
Machine::opPutVariableX(const DecodedInstr &instr)
{
    Word v = newHeapVar();
    x_[instr.r1] = v;
    x_[instr.r2] = v;
}

inline void
Machine::opPutVariableY(const DecodedInstr &instr)
{
    Addr a = exec_detail::yAddr(e_, instr.r1);
    Word v = Word::makeRef(Zone::Local, a);
    writeData(v, v);
    x_[instr.r2] = v;
}

inline void
Machine::opPutValueX(const DecodedInstr &instr)
{
    x_[instr.r2] = x_[instr.r1];
    if (!config_.dualPortRegisterFile)
        ++cycles_;
}

inline void
Machine::opPutValueY(const DecodedInstr &instr)
{
    x_[instr.r2] = readData(Word::makeDataPtr(
        Zone::Local, exec_detail::yAddr(e_, instr.r1)));
}

inline void
Machine::opPutUnsafeValue(const DecodedInstr &instr)
{
    Word w = deref(readData(Word::makeDataPtr(
        Zone::Local, exec_detail::yAddr(e_, instr.r1))));
    if (w.isRef() && w.zone() == Zone::Local && w.addr() >= e_) {
        // Unbound variable in the environment being discarded:
        // globalize it.
        x_[instr.r2] = globalize(w);
    } else {
        x_[instr.r2] = w;
    }
}

inline void
Machine::opPutConstant(const DecodedInstr &instr)
{
    x_[instr.r2] = instr.constant;
}

inline void
Machine::opPutNil(const DecodedInstr &instr)
{
    x_[instr.r2] = Word::makeNil();
}

inline void
Machine::opPutList(const DecodedInstr &instr)
{
    x_[instr.r2] = Word::makeList(Zone::Global, h_);
    writeMode_ = true;
}

inline void
Machine::opPutStructure(const DecodedInstr &instr)
{
    x_[instr.r2] = Word::makeStruct(Zone::Global, h_);
    pushHeapCell(instr.constant);
    writeMode_ = true;
}

// ------------------------------------------------------ data movement

inline void
Machine::opMove2(const DecodedInstr &instr)
{
    x_[instr.r3] = x_[instr.r1];
    x_[instr.r4] = x_[instr.r2];
    if (!config_.dualPortRegisterFile)
        ++cycles_; // two moves need two file cycles
}

inline void
Machine::opLoadImm(const DecodedInstr &instr)
{
    x_[instr.r1] = instr.constant;
}

inline void
Machine::opSwapTV(const DecodedInstr &instr)
{
    x_[instr.r3] = x_[instr.r1].swapped();
}

inline void
Machine::opLoad(const DecodedInstr &instr)
{
    // Xr3 := mem[Xr1 + offset]; Xr2 := Xr1 + offset (§3.1.2).
    // Pointers materialized by load_imm carry no zone (the
    // instruction format has no zone field); re-derive it from
    // the layout, as the assembler's address calculator does.
    Word base = x_[instr.r1];
    Addr a = base.addr() + instr.offset;
    Zone zone = base.zone() == Zone::None ? zoneOf(a) : base.zone();
    Word addr_word = Word::make(base.tag(), zone, a);
    x_[instr.r2] = addr_word;
    x_[instr.r3] = readData(addr_word);
}

inline void
Machine::opStore(const DecodedInstr &instr)
{
    Word base = x_[instr.r1];
    Addr a = base.addr() + instr.offset;
    Zone zone = base.zone() == Zone::None ? zoneOf(a) : base.zone();
    Word addr_word = Word::make(base.tag(), zone, a);
    x_[instr.r2] = addr_word;
    writeData(addr_word, x_[instr.r3]);
}

inline void
Machine::opBadInstruction(const DecodedInstr &)
{
    exec_detail::trapBadInstruction(p_);
}

} // namespace kcm

#endif // KCM_CORE_EXEC_OPS_HH
