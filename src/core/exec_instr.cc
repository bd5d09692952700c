/**
 * @file
 * Instruction semantics: the microcoded execution unit. Dispatch on
 * the combination of operand types is modelled after the MWAC
 * (§3.1.4): type analysis costs no extra test cycles.
 *
 * execInstr is the switch-dispatch (oracle) entry point; the bodies
 * of the simple opcodes live in exec_ops.hh so the token-threaded
 * core (exec_threaded.cc) executes the very same code.
 */

#include "core/exec_ops.hh"

#include "base/logging.hh"
#include "core/machine.hh"
#include "isa/disasm.hh"

namespace kcm
{

using exec_detail::yAddr;

void
Machine::execInstr(const DecodedInstr &instr)
{
    switch (instr.opcode()) {
      // ------------------------------------------------------ control
      case Opcode::Halt:       opHalt(instr); break;
      case Opcode::Noop:       break;
      case Opcode::Jump:       opJump(instr); break;
      case Opcode::Call:       opCall(instr); break;
      case Opcode::Execute:    opExecute(instr); break;
      case Opcode::Proceed:    opProceed(instr); break;
      case Opcode::Allocate:   opAllocate(instr); break;
      case Opcode::Deallocate: opDeallocate(instr); break;
      case Opcode::FailOp:     fail(); break;

      // ------------------------------------- choice points / indexing
      case Opcode::TryMeElse:
      case Opcode::RetryMeElse:
      case Opcode::TrustMe:
      case Opcode::Try:
      case Opcode::Retry:
      case Opcode::Trust:
      case Opcode::Neck:
      case Opcode::Cut:
      case Opcode::GetLevel:
      case Opcode::CutY:
      case Opcode::SwitchOnTerm:
      case Opcode::SwitchOnConstant:
      case Opcode::SwitchOnStructure:
        execIndex(instr);
        break;

      // ------------------------------------------------------ get/put
      case Opcode::GetVariableX:   opGetVariableX(instr); break;
      case Opcode::GetVariableY:   opGetVariableY(instr); break;
      case Opcode::GetValueX:      opGetValueX(instr); break;
      case Opcode::GetValueY:      opGetValueY(instr); break;
      case Opcode::GetConstant:
      case Opcode::GetNil:         opGetConstant(instr); break;
      case Opcode::GetList:        opGetList(instr); break;
      case Opcode::GetStructure:   opGetStructure(instr); break;
      case Opcode::PutVariableX:   opPutVariableX(instr); break;
      case Opcode::PutVariableY:   opPutVariableY(instr); break;
      case Opcode::PutValueX:      opPutValueX(instr); break;
      case Opcode::PutValueY:      opPutValueY(instr); break;
      case Opcode::PutUnsafeValue: opPutUnsafeValue(instr); break;
      case Opcode::PutConstant:    opPutConstant(instr); break;
      case Opcode::PutNil:         opPutNil(instr); break;
      case Opcode::PutList:        opPutList(instr); break;
      case Opcode::PutStructure:   opPutStructure(instr); break;

      // -------------------------------------------------------- unify
      case Opcode::UnifyVariableX:
      case Opcode::UnifyVariableY:
      case Opcode::UnifyValueX:
      case Opcode::UnifyValueY:
      case Opcode::UnifyLocalValueX:
      case Opcode::UnifyLocalValueY:
      case Opcode::UnifyConstant:
      case Opcode::UnifyNil:
      case Opcode::UnifyList:
      case Opcode::UnifyVoid:
        execUnifyClass(instr);
        break;

      // -------------------------------------------------- arithmetic
      case Opcode::NativeAdd:
      case Opcode::NativeSub:
      case Opcode::NativeMul:
      case Opcode::NativeDiv:
      case Opcode::NativeMod:
      case Opcode::NativeNeg:
      case Opcode::CmpLt:
      case Opcode::CmpGt:
      case Opcode::CmpLe:
      case Opcode::CmpGe:
      case Opcode::CmpEq:
      case Opcode::CmpNe:
        execArith(instr);
        break;

      case Opcode::Escape:
        execEscape(instr);
        break;

      // ---------------------------------------------- data movement
      case Opcode::Move2:   opMove2(instr); break;
      case Opcode::LoadImm: opLoadImm(instr); break;
      case Opcode::SwapTV:  opSwapTV(instr); break;
      case Opcode::Load:    opLoad(instr); break;
      case Opcode::Store:   opStore(instr); break;

      default:
        opBadInstruction(instr);
    }
}

void
Machine::execUnifyClass(const DecodedInstr &instr)
{
    // The read/write mode flag is taken into account at decode time
    // (§2.5): no test cycles.
    switch (instr.opcode()) {
      case Opcode::UnifyVariableX:
        if (writeMode_) {
            x_[instr.r1] = newHeapVar();
        } else {
            x_[instr.r1] = nextSubterm();
        }
        break;
      case Opcode::UnifyVariableY: {
        Word v = writeMode_ ? newHeapVar() : nextSubterm();
        writeData(Word::makeDataPtr(Zone::Local, yAddr(e_, instr.r1)), v);
        ++cycles_;
        break;
      }
      case Opcode::UnifyValueX:
      case Opcode::UnifyLocalValueX: {
        if (writeMode_) {
            Word w = deref(x_[instr.r1]);
            if (w.isRef() && w.zone() == Zone::Local) {
                // Keep the global stack free of local references: the
                // new heap variable is this argument's own cell.
                w = globalize(w);
            } else {
                pushHeapCell(w);
            }
            x_[instr.r1] = w;
        } else {
            if (!unify(x_[instr.r1], nextSubterm()))
                fail();
        }
        break;
      }
      case Opcode::UnifyValueY:
      case Opcode::UnifyLocalValueY: {
        Word y = readData(
            Word::makeDataPtr(Zone::Local, yAddr(e_, instr.r1)));
        ++cycles_;
        if (writeMode_) {
            Word w = deref(y);
            if (w.isRef() && w.zone() == Zone::Local)
                globalize(w); // pushes the argument's cell
            else
                pushHeapCell(w);
        } else {
            if (!unify(y, nextSubterm()))
                fail();
        }
        break;
      }
      case Opcode::UnifyConstant:
      case Opcode::UnifyNil: {
        Word want = instr.opcode() == Opcode::UnifyNil ? Word::makeNil()
                                                       : instr.constant;
        if (writeMode_) {
            pushHeapCell(want);
        } else {
            Word w = deref(nextSubterm());
            if (w.isRef()) {
                bind(w, want);
            } else if (w.tag() != want.tag() ||
                       w.value() != want.value()) {
                fail();
            }
        }
        break;
      }
      case Opcode::UnifyList: {
        // Statically-known list chains cost two instructions per cell
        // (§4.1): this instruction continues the chain.
        if (writeMode_) {
            // The next cons pair starts right after this cell.
            pushHeapCell(Word::makeList(Zone::Global, h_ + 1));
        } else {
            Word w = deref(nextSubterm());
            if (w.isRef()) {
                bind(w, Word::makeList(Zone::Global, h_));
                writeMode_ = true;
            } else if (w.isList()) {
                s_ = w.addr();
            } else {
                fail();
            }
        }
        break;
      }
      case Opcode::UnifyVoid: {
        unsigned n = instr.r1;
        if (writeMode_) {
            for (unsigned i = 0; i < n; ++i)
                newHeapVar();
            cycles_ += n > 0 ? n - 1 : 0;
        } else {
            s_ += n;
        }
        break;
      }
      default:
        panic("execUnifyClass: bad opcode");
    }
}

Word
Machine::nextSubterm()
{
    Word w = readData(Word::makeDataPtr(Zone::Global, s_));
    ++s_;
    return w;
}

void
Machine::execArith(const DecodedInstr &instr)
{
    Word a = deref(x_[instr.r1]);
    bool is_cmp = false;
    Word b;
    switch (instr.opcode()) {
      case Opcode::NativeNeg:
        b = Word::makeInt(0);
        break;
      default:
        b = deref(x_[instr.r2]);
        break;
    }

    auto numeric = [](Word w) { return w.isInt() || w.isFloat(); };
    if (!numeric(a) || !numeric(b)) {
        fail();
        return;
    }

    bool use_float = a.isFloat() || b.isFloat();
    Word result;
    bool cond = false;

    if (use_float) {
        float fa = a.isFloat() ? a.floatValue() : float(a.intValue());
        float fb = b.isFloat() ? b.floatValue() : float(b.intValue());
        // FPU latencies (§3.1.1; §4.2 notes floating multiply/divide
        // beat the integer path).
        switch (instr.opcode()) {
          case Opcode::NativeAdd:
          case Opcode::NativeSub:
            cycles_ += 2; // 3 total
            break;
          case Opcode::NativeMul:
            cycles_ += 3; // 4 total
            break;
          case Opcode::NativeDiv:
            cycles_ += 6; // 7 total
            break;
          default:
            break;
        }
        switch (instr.opcode()) {
          case Opcode::NativeAdd: result = Word::makeFloat(fa + fb); break;
          case Opcode::NativeSub: result = Word::makeFloat(fa - fb); break;
          case Opcode::NativeMul: result = Word::makeFloat(fa * fb); break;
          case Opcode::NativeDiv:
            if (fb == 0) {
                fail();
                return;
            }
            result = Word::makeFloat(fa / fb);
            break;
          case Opcode::NativeMod:
            fail();
            return;
          case Opcode::NativeNeg: result = Word::makeFloat(-fa); break;
          case Opcode::CmpLt: is_cmp = true; cond = fa < fb; break;
          case Opcode::CmpGt: is_cmp = true; cond = fa > fb; break;
          case Opcode::CmpLe: is_cmp = true; cond = fa <= fb; break;
          case Opcode::CmpGe: is_cmp = true; cond = fa >= fb; break;
          case Opcode::CmpEq: is_cmp = true; cond = fa == fb; break;
          case Opcode::CmpNe: is_cmp = true; cond = fa != fb; break;
          default: panic("execArith: bad opcode");
        }
    } else {
        int64_t ia = a.intValue();
        int64_t ib = b.intValue();
        int64_t r = 0;
        // Integer multiply and divide are the multi-cycle exceptions
        // of §3.1.1 (sequential shift-add/subtract microcode).
        switch (instr.opcode()) {
          case Opcode::NativeMul:
            cycles_ += 5; // 6 total
            break;
          case Opcode::NativeDiv:
          case Opcode::NativeMod:
            cycles_ += 11; // 12 total
            break;
          default:
            break;
        }
        switch (instr.opcode()) {
          case Opcode::NativeAdd: r = ia + ib; break;
          case Opcode::NativeSub: r = ia - ib; break;
          case Opcode::NativeMul: r = ia * ib; break;
          case Opcode::NativeDiv:
            if (ib == 0) {
                fail();
                return;
            }
            r = ia / ib;
            break;
          case Opcode::NativeMod:
            if (ib == 0) {
                fail();
                return;
            }
            r = ia % ib;
            break;
          case Opcode::NativeNeg: r = -ia; break;
          case Opcode::CmpLt: is_cmp = true; cond = ia < ib; break;
          case Opcode::CmpGt: is_cmp = true; cond = ia > ib; break;
          case Opcode::CmpLe: is_cmp = true; cond = ia <= ib; break;
          case Opcode::CmpGe: is_cmp = true; cond = ia >= ib; break;
          case Opcode::CmpEq: is_cmp = true; cond = ia == ib; break;
          case Opcode::CmpNe: is_cmp = true; cond = ia != ib; break;
          default: panic("execArith: bad opcode");
        }
        result = Word::makeInt(static_cast<int32_t>(r));
    }

    if (is_cmp) {
        prefetch_.onConditional(!cond);
        if (!cond) {
            cycles_ += 3; // taken conditional branch (§3.1.3)
            fail();
        }
        return;
    }
    x_[instr.r3] = result;
}

} // namespace kcm
