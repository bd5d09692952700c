#include "compiler/indexing.hh"

#include <map>

#include "base/logging.hh"

namespace kcm
{

namespace
{

/** The four switch_on_term dispatch classes. */
enum class KeyClass
{
    Variable,
    Constant,
    ListKey,
    StructKey,
};

struct ClauseKey
{
    KeyClass klass = KeyClass::Variable;
    Word key; ///< constant word or functor word
};

ClauseKey
firstArgKey(const NormClause &clause)
{
    ClauseKey out;
    if (!clause.head->isStruct()) {
        out.klass = KeyClass::Variable; // arity 0: no indexing
        return out;
    }
    const TermRef &arg = clause.head->arg(0);
    switch (arg->kind()) {
      case TermKind::Var:
        out.klass = KeyClass::Variable;
        break;
      case TermKind::Atom:
        out.klass = KeyClass::Constant;
        out.key = arg->isNil() ? Word::makeNil()
                               : Word::makeAtom(arg->atom());
        break;
      case TermKind::Int:
        out.klass = KeyClass::Constant;
        out.key = Word::makeInt(static_cast<int32_t>(arg->intValue()));
        break;
      case TermKind::Float:
        out.klass = KeyClass::Constant;
        out.key = Word::makeFloat(static_cast<float>(arg->floatValue()));
        break;
      case TermKind::Struct:
        if (arg->isCons()) {
            out.klass = KeyClass::ListKey;
        } else {
            out.klass = KeyClass::StructKey;
            out.key = Word::makeFunctor(arg->functorName(), arg->arity());
        }
        break;
    }
    return out;
}

} // namespace

PredicateInfo
emitPredicate(Assembler &assembler, ClauseCompiler &codegen,
              const Functor &functor,
              const std::vector<NormClause> &clauses,
              const IndexingOptions &options, Label fail_label)
{
    PredicateInfo info;
    info.functor = functor;

    size_t instr_before = assembler.instructionCount();
    size_t words_before = assembler.wordCount();

    if (clauses.empty())
        panic("emitPredicate: no clauses");

    ClauseContext ctx;
    ctx.arity = functor.arity;
    ctx.hasAlternatives = clauses.size() > 1;

    if (clauses.size() == 1) {
        info.entry = assembler.here();
        codegen.compileClause(clauses[0], ctx);
        info.instructions = assembler.instructionCount() - instr_before;
        info.words = assembler.wordCount() - words_before;
        return info;
    }

    // Analyze first-argument keys.
    std::vector<ClauseKey> keys;
    keys.reserve(clauses.size());
    bool any_var_key = false;
    for (const auto &clause : clauses) {
        keys.push_back(firstArgKey(clause));
        if (keys.back().klass == KeyClass::Variable)
            any_var_key = true;
    }

    bool use_switch = options.enabled && functor.arity > 0;

    // Per-clause labels: Lhead[i] is the chain header (try/retry/
    // trust_me), Lbody[i] is the clause body (the indexed entry).
    std::vector<Label> body_labels(clauses.size());
    for (auto &label : body_labels)
        label = assembler.newLabel();
    Label chain_label = assembler.newLabel();

    // Bucket sets (indices in source order).
    auto bucket_of = [&](KeyClass klass) {
        std::vector<size_t> out;
        for (size_t i = 0; i < clauses.size(); ++i) {
            if (keys[i].klass == klass ||
                keys[i].klass == KeyClass::Variable) {
                out.push_back(i);
            }
        }
        return out;
    };

    std::vector<size_t> all_clauses(clauses.size());
    for (size_t i = 0; i < clauses.size(); ++i)
        all_clauses[i] = i;

    // Deferred try/retry/trust blocks: filled in after the chain.
    struct Block
    {
        Label label;
        std::vector<size_t> clauses;
    };
    std::vector<Block> blocks;

    // Resolve a bucket to a label: fail stub / single body / the full
    // chain / a dedicated block.
    auto bucket_label = [&](const std::vector<size_t> &bucket) -> Label {
        if (bucket.empty())
            return fail_label;
        if (bucket.size() == 1)
            return body_labels[bucket[0]];
        if (bucket == all_clauses)
            return chain_label;
        Label label = assembler.newLabel();
        blocks.push_back({label, bucket});
        return label;
    };

    if (use_switch) {
        // switch_on_term Lvar, Lconst, Llist, Lstruct (4 table words).
        assembler.emit(Instr::make(Opcode::SwitchOnTerm));
        assembler.emitLabelWord(chain_label);

        // Constant dispatch.
        std::map<uint64_t, std::vector<size_t>> const_buckets;
        std::vector<uint64_t> const_order;
        for (size_t i = 0; i < clauses.size(); ++i) {
            if (keys[i].klass == KeyClass::Constant) {
                if (!const_buckets.count(keys[i].key.raw()))
                    const_order.push_back(keys[i].key.raw());
                const_buckets[keys[i].key.raw()];
            }
        }
        for (uint64_t key : const_order) {
            for (size_t i = 0; i < clauses.size(); ++i) {
                if ((keys[i].klass == KeyClass::Constant &&
                     keys[i].key.raw() == key) ||
                    keys[i].klass == KeyClass::Variable) {
                    const_buckets[key].push_back(i);
                }
            }
        }

        Label const_label;
        if (const_order.empty()) {
            // No constant-keyed clause: constants see only var-keyed
            // clauses.
            const_label = bucket_label(bucket_of(KeyClass::Constant));
        } else {
            const_label = assembler.newLabel();
        }
        assembler.emitLabelWord(const_label);

        // List dispatch.
        assembler.emitLabelWord(bucket_label(bucket_of(KeyClass::ListKey)));

        // Structure dispatch.
        std::map<uint64_t, std::vector<size_t>> struct_buckets;
        std::vector<uint64_t> struct_order;
        for (size_t i = 0; i < clauses.size(); ++i) {
            if (keys[i].klass == KeyClass::StructKey) {
                if (!struct_buckets.count(keys[i].key.raw()))
                    struct_order.push_back(keys[i].key.raw());
                struct_buckets[keys[i].key.raw()];
            }
        }
        for (uint64_t key : struct_order) {
            for (size_t i = 0; i < clauses.size(); ++i) {
                if ((keys[i].klass == KeyClass::StructKey &&
                     keys[i].key.raw() == key) ||
                    keys[i].klass == KeyClass::Variable) {
                    struct_buckets[key].push_back(i);
                }
            }
        }

        Label struct_label;
        if (struct_order.empty()) {
            struct_label = bucket_label(bucket_of(KeyClass::StructKey));
        } else {
            struct_label = assembler.newLabel();
        }
        assembler.emitLabelWord(struct_label);

        // Emit the second-level switches now (before the chain so that
        // the entry block stays compact; labels make order free).
        if (!const_order.empty()) {
            assembler.bind(const_label);
            assembler.emit(Instr::makeValue(
                Opcode::SwitchOnConstant,
                static_cast<uint32_t>(const_order.size())));
            // Miss target: clauses with variable keys (or fail).
            // Encoded as the first table pair with a Ref-tagged key
            // would be ambiguous, so the miss target is the var-bucket
            // resolved at machine level: we append it as an extra pair
            // keyed by an impossible word (all ones).
            for (uint64_t key : const_order) {
                assembler.emitWord(Word(key));
                assembler.emitLabelWord(
                    bucket_label(const_buckets[key]));
            }
            // The machine uses the var bucket on a miss; store it in
            // the instruction's r-fields? Simpler: the machine falls
            // back to the switch_on_term var label on a miss is wrong
            // (it must not retry const clauses) — instead the machine
            // jumps to the address in the word following the table,
            // emitted here:
            std::vector<size_t> var_only;
            for (size_t i = 0; i < clauses.size(); ++i) {
                if (keys[i].klass == KeyClass::Variable)
                    var_only.push_back(i);
            }
            assembler.emitLabelWord(bucket_label(var_only));
        }
        if (!struct_order.empty()) {
            assembler.bind(struct_label);
            assembler.emit(Instr::makeValue(
                Opcode::SwitchOnStructure,
                static_cast<uint32_t>(struct_order.size())));
            for (uint64_t key : struct_order) {
                assembler.emitWord(Word(key));
                assembler.emitLabelWord(
                    bucket_label(struct_buckets[key]));
            }
            std::vector<size_t> var_only;
            for (size_t i = 0; i < clauses.size(); ++i) {
                if (keys[i].klass == KeyClass::Variable)
                    var_only.push_back(i);
            }
            assembler.emitLabelWord(bucket_label(var_only));
        }
        (void)any_var_key;
    }

    // The sequential chain.
    assembler.bind(chain_label);
    if (!use_switch)
        info.entry = assembler.here();
    else
        info.entry = assembler.base() + (words_before);

    for (size_t i = 0; i < clauses.size(); ++i) {
        if (i == 0) {
            Label next = assembler.newLabel();
            assembler.emitWithLabel(
                Instr::makeValue(Opcode::TryMeElse, 0,
                                 static_cast<Reg>(functor.arity)),
                next);
            assembler.bind(body_labels[i]);
            codegen.compileClause(clauses[i], ctx);
            assembler.bind(next);
        } else if (i + 1 < clauses.size()) {
            Label next = assembler.newLabel();
            assembler.emitWithLabel(
                Instr::makeValue(Opcode::RetryMeElse, 0), next);
            assembler.bind(body_labels[i]);
            codegen.compileClause(clauses[i], ctx);
            assembler.bind(next);
        } else {
            assembler.emit(Instr::make(Opcode::TrustMe));
            assembler.bind(body_labels[i]);
            codegen.compileClause(clauses[i], ctx);
        }
    }

    // Deferred try/retry/trust blocks.
    for (const auto &block : blocks) {
        assembler.bind(block.label);
        for (size_t k = 0; k < block.clauses.size(); ++k) {
            size_t ci = block.clauses[k];
            if (k == 0) {
                assembler.emitWithLabel(
                    Instr::makeValue(Opcode::Try, 0,
                                     static_cast<Reg>(functor.arity)),
                    body_labels[ci]);
            } else if (k + 1 < block.clauses.size()) {
                assembler.emitWithLabel(
                    Instr::makeValue(Opcode::Retry, 0), body_labels[ci]);
            } else {
                assembler.emitWithLabel(
                    Instr::makeValue(Opcode::Trust, 0), body_labels[ci]);
            }
        }
    }

    info.instructions = assembler.instructionCount() - instr_before;
    info.words = assembler.wordCount() - words_before;
    return info;
}

} // namespace kcm
