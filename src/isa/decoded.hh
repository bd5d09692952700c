/**
 * @file
 * The predecoded instruction form used by the host-fast execution
 * core.
 *
 * A raw 64-bit code word is decoded once — opcode validated into a
 * dense dispatch token, operand fields extracted, the Format B
 * constant materialized, and the opcode's base cycle cost copied in —
 * so the execution loop never touches the encoding again. The machine
 * translates the whole linked image into a flat vector of these after
 * load(); the decode-per-step oracle path builds one on the fly per
 * fetch. Both paths execute the same handler code over this struct,
 * which is what makes them cycle-for-cycle identical by construction.
 *
 * Predecoding is purely a host-side representation change: the
 * simulated machine still fetches every word through the code cache
 * and prefetch pipeline, so cache statistics and miss penalties are
 * unaffected.
 */

#ifndef KCM_ISA_DECODED_HH
#define KCM_ISA_DECODED_HH

#include "isa/instr.hh"
#include "isa/opcodes.hh"
#include "isa/word.hh"

namespace kcm
{

/** A fully decoded instruction word. */
struct DecodedInstr
{
    uint64_t raw = 0;  ///< original code word (trace / disassembly)
    Word constant;     ///< the Format B tagged constant, prebuilt
    uint32_t value = 0;
    int16_t offset = 0;
    /** Dense opcode token, the dispatch index of both cores: the
     *  opcode if valid, otherwise numOpcodeTokens - 1 (the
     *  bad-instruction handler). */
    uint8_t op = 0;
    uint8_t r1 = 0, r2 = 0, r3 = 0, r4 = 0;
    uint8_t baseCycles = 0;
    bool inferenceMark = false;

    Opcode opcode() const { return Opcode(op); }
};

/** Dispatch table size: every opcode plus the invalid-word token. */
constexpr unsigned numOpcodeTokens =
    static_cast<unsigned>(Opcode::NumOpcodes) + 1;
constexpr uint8_t invalidOpcodeToken =
    static_cast<uint8_t>(Opcode::NumOpcodes);

/** Decode one raw code word. Never traps: words that are not valid
 *  instructions (switch tables, data) get the invalid token and only
 *  fault if control actually reaches them. */
inline DecodedInstr
decodeInstr(uint64_t raw)
{
    Instr in(raw);
    DecodedInstr d;
    d.raw = raw;
    uint8_t op = static_cast<uint8_t>((raw >> 56) & 0xFF);
    if (op < static_cast<uint8_t>(Opcode::NumOpcodes)) {
        d.op = op;
        d.baseCycles =
            static_cast<uint8_t>(opcodeInfo(Opcode(op)).baseCycles);
    } else {
        d.op = invalidOpcodeToken;
        d.baseCycles = 0;
    }
    d.constant = in.constant();
    d.value = in.value();
    d.offset = in.offset();
    d.r1 = in.r1();
    d.r2 = in.r2();
    d.r3 = in.r3();
    d.r4 = in.r4();
    d.inferenceMark = in.inferenceMark();
    return d;
}

} // namespace kcm

#endif // KCM_ISA_DECODED_HH
