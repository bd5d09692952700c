#include "compiler/assembler.hh"

#include "base/logging.hh"

namespace kcm
{

Addr
Assembler::emit(Instr instr)
{
    Addr at = here();
    words_.push_back(instr.raw());
    ++instructionCount_;
    return at;
}

Addr
Assembler::emitWord(Word word)
{
    Addr at = here();
    words_.push_back(word.raw());
    return at;
}

void
Assembler::markLast()
{
    if (words_.empty())
        panic("markLast: nothing emitted");
    words_.back() = Instr(words_.back()).withMark().raw();
}

Label
Assembler::newLabel()
{
    labelAddrs_.push_back(0);
    return static_cast<Label>(labelAddrs_.size() - 1);
}

void
Assembler::bind(Label label)
{
    if (label >= labelAddrs_.size())
        panic("bind: unknown label");
    if (labelAddrs_[label] != 0)
        panic("bind: label bound twice");
    labelAddrs_[label] = here();
}

Addr
Assembler::emitWithLabel(Instr instr, Label label)
{
    size_t index = words_.size();
    Addr at = emit(instr);
    labelFixups_.push_back({index, label, false});
    return at;
}

Addr
Assembler::emitLabelWord(Label label)
{
    size_t index = words_.size();
    Addr at = emitWord(Word::makeCodePtr(0));
    labelFixups_.push_back({index, label, true});
    return at;
}

Addr
Assembler::emitCall(Instr instr, Functor callee)
{
    size_t index = words_.size();
    Addr at = emit(instr);
    predFixups_.push_back({index, callee, false});
    return at;
}

Addr
Assembler::emitCalleeWord(Functor callee)
{
    size_t index = words_.size();
    Addr at = emitWord(Word::makeCodePtr(0));
    predFixups_.push_back({index, callee, true});
    return at;
}

void
Assembler::patchValue(size_t index, uint32_t value, bool is_table_word)
{
    if (is_table_word) {
        words_[index] = Word::makeCodePtr(value).raw();
    } else {
        words_[index] = Instr(words_[index]).withValue(value).raw();
    }
}

void
Assembler::finalize(CodeImage &image)
{
    for (const auto &fixup : labelFixups_) {
        Addr target = labelAddrs_[fixup.label];
        if (target == 0)
            panic("finalize: unbound label ", fixup.label);
        patchValue(fixup.index, target, fixup.isTableWord);
    }
    labelFixups_.clear();
    image.base = base_;
    image.words = std::move(words_);
}

Addr
Assembler::append(const Assembler &unit, Label unit_fail, Label fail,
                  const std::function<Functor(const Functor &)> &rename)
{
    Addr at = here();
    size_t offset = words_.size();
    Addr fail_addr = labelAddrs_.at(fail);
    if (fail_addr == 0)
        panic("append: fail label unbound");
    words_.insert(words_.end(), unit.words_.begin(), unit.words_.end());
    instructionCount_ += unit.instructionCount_;
    for (const auto &fixup : unit.labelFixups_) {
        Addr target = fail_addr;
        if (fixup.label != unit_fail) {
            target = unit.labelAddrs_[fixup.label];
            if (target == 0)
                panic("append: unbound label ", fixup.label);
            target = target - unit.base_ + at;
        }
        patchValue(offset + fixup.index, target, fixup.isTableWord);
    }
    for (const auto &fixup : unit.predFixups_) {
        predFixups_.push_back(
            {offset + fixup.index, rename(fixup.callee), fixup.isTableWord});
    }
    return at;
}

} // namespace kcm
