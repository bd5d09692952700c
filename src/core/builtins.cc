/**
 * @file
 * Escape builtins: the predicates served by the runtime library and
 * the host (Fig. 1 — the host acts as an I/O and service processor
 * for the back end).
 */

#include <algorithm>
#include <functional>

#include "base/logging.hh"
#include "core/machine.hh"
#include "prolog/writer.hh"

namespace kcm
{

namespace
{

/** Standard order class of a dereferenced word. */
int
orderClass(Word w)
{
    if (w.isRef())
        return 0;
    if (w.isNumber())
        return 1;
    if (w.isNil() || w.isAtom())
        return 2;
    return 3; // compound
}

} // namespace

void
Machine::execEscape(const DecodedInstr &instr)
{
    BuiltinId id = static_cast<BuiltinId>(instr.value);
    const BuiltinDef &def = builtinById(id);
    cycles_ += def.extraCycles;

    auto unify_or_fail = [&](Word a, Word b) {
        if (!unify(a, b))
            fail();
    };

    // Untimed recursive helpers used by the structural builtins. Their
    // cost is modelled by the flat extraCycles of the builtin.
    std::function<int(Word, Word)> compare_terms = [&](Word a,
                                                       Word b) -> int {
        Word da = deref(a);
        Word db = deref(b);
        int ca = orderClass(da);
        int cb = orderClass(db);
        if (ca != cb)
            return ca < cb ? -1 : 1;
        switch (ca) {
          case 0: // variables: by cell address
            if (da.addr() != db.addr())
                return da.addr() < db.addr() ? -1 : 1;
            return 0;
          case 1: { // numbers
            double va = da.isInt() ? da.intValue() : da.floatValue();
            double vb = db.isInt() ? db.intValue() : db.floatValue();
            if (va != vb)
                return va < vb ? -1 : 1;
            return 0;
          }
          case 2: { // atoms: alphabetical
            const std::string &ta =
                da.isNil() ? atomText(AtomTable::instance().nil)
                           : atomText(da.atom());
            const std::string &tb =
                db.isNil() ? atomText(AtomTable::instance().nil)
                           : atomText(db.atom());
            int c = ta.compare(tb);
            return c < 0 ? -1 : c > 0 ? 1 : 0;
          }
          default: { // compounds: arity, then name, then args
            AtomId na;
            AtomId nb;
            uint32_t aa;
            uint32_t ab;
            Addr base_a;
            Addr base_b;
            if (da.isList()) {
                na = AtomTable::instance().dot;
                aa = 2;
                base_a = da.addr() - 1; // args at base+1, base+2
            } else {
                Word f = readData(Word::makeDataPtr(da.zone(), da.addr()));
                na = f.functorName();
                aa = f.functorArity();
                base_a = da.addr();
            }
            if (db.isList()) {
                nb = AtomTable::instance().dot;
                ab = 2;
                base_b = db.addr() - 1;
            } else {
                Word f = readData(Word::makeDataPtr(db.zone(), db.addr()));
                nb = f.functorName();
                ab = f.functorArity();
                base_b = db.addr();
            }
            if (aa != ab)
                return aa < ab ? -1 : 1;
            if (na != nb)
                return atomText(na) < atomText(nb) ? -1 : 1;
            for (uint32_t i = 1; i <= aa; ++i) {
                Word ua = readData(
                    Word::makeDataPtr(da.zone(), base_a + i));
                Word ub = readData(
                    Word::makeDataPtr(db.zone(), base_b + i));
                int c = compare_terms(ua, ub);
                if (c)
                    return c;
            }
            return 0;
          }
        }
    };

    // Generic arithmetic evaluation over heap terms.
    std::function<bool(Word, double &, bool &)> eval_generic =
        [&](Word w, double &out, bool &is_float) -> bool {
        Word d = deref(w);
        if (d.isInt()) {
            out = d.intValue();
            return true;
        }
        if (d.isFloat()) {
            out = d.floatValue();
            is_float = true;
            return true;
        }
        if (!d.isStruct())
            return false;
        Word f = readData(Word::makeDataPtr(d.zone(), d.addr()));
        const std::string &name = atomText(f.functorName());
        uint32_t n = f.functorArity();
        auto arg = [&](uint32_t i) {
            return readData(Word::makeDataPtr(d.zone(), d.addr() + i));
        };
        if (n == 1) {
            double a;
            if (!eval_generic(arg(1), a, is_float))
                return false;
            if (name == "-") {
                out = -a;
                return true;
            }
            if (name == "+") {
                out = a;
                return true;
            }
            if (name == "abs") {
                out = a < 0 ? -a : a;
                return true;
            }
            return false;
        }
        if (n == 2) {
            double a;
            double b;
            if (!eval_generic(arg(1), a, is_float) ||
                !eval_generic(arg(2), b, is_float)) {
                return false;
            }
            if (name == "+") { out = a + b; return true; }
            if (name == "-") { out = a - b; return true; }
            if (name == "*") { out = a * b; return true; }
            if (name == "//" || name == "/") {
                if (b == 0)
                    return false;
                if (!is_float && name == "//") {
                    out = double(int64_t(a) / int64_t(b));
                    return true;
                }
                if (name == "/") {
                    if (is_float) {
                        out = a / b;
                        return true;
                    }
                    out = double(int64_t(a) / int64_t(b));
                    return true;
                }
                out = a / b;
                return true;
            }
            if (name == "mod") {
                if (int64_t(b) == 0)
                    return false;
                out = double(int64_t(a) % int64_t(b));
                return true;
            }
            if (name == "min") { out = std::min(a, b); return true; }
            if (name == "max") { out = std::max(a, b); return true; }
            return false;
        }
        return false;
    };

    auto arith_result_word = [&](double v, bool is_float) {
        if (is_float)
            return Word::makeFloat(static_cast<float>(v));
        return Word::makeInt(static_cast<int32_t>(v));
    };

    auto generic_compare = [&](auto cmp) {
        double a;
        double b;
        bool fa = false;
        bool fb = false;
        if (!eval_generic(x_[0], a, fa) || !eval_generic(x_[1], b, fb)) {
            fail();
            return;
        }
        if (!cmp(a, b))
            fail();
    };

    switch (id) {
      case BuiltinId::Write:
      case BuiltinId::Writeq:
      case BuiltinId::WriteCanonical: {
        TermRef t = exportTerm(x_[0]);
        WriteOptions options;
        options.quoted = id != BuiltinId::Write;
        options.ignoreOps = id == BuiltinId::WriteCanonical;
        static OperatorTable ops;
        hostWrite(writeTerm(t, ops, options));
        break;
      }
      case BuiltinId::Nl:
        hostWrite("\n");
        break;
      case BuiltinId::TabB: {
        Word w = deref(x_[0]);
        if (!w.isInt()) {
            fail();
            break;
        }
        hostWrite(std::string(static_cast<size_t>(
                                  std::max<int32_t>(0, w.intValue())),
                              ' '));
        break;
      }
      case BuiltinId::Halt:
        halted_ = true;
        break;

      case BuiltinId::Var:
        if (!deref(x_[0]).isRef())
            fail();
        break;
      case BuiltinId::NonVar:
        if (deref(x_[0]).isRef())
            fail();
        break;
      case BuiltinId::AtomP: {
        Word w = deref(x_[0]);
        if (!w.isAtom() && !w.isNil())
            fail();
        break;
      }
      case BuiltinId::AtomicP: {
        Word w = deref(x_[0]);
        if (!w.isAtomic())
            fail();
        break;
      }
      case BuiltinId::IntegerP:
        if (!deref(x_[0]).isInt())
            fail();
        break;
      case BuiltinId::FloatP:
        if (!deref(x_[0]).isFloat())
            fail();
        break;
      case BuiltinId::NumberP:
        if (!deref(x_[0]).isNumber())
            fail();
        break;
      case BuiltinId::CompoundP: {
        Word w = deref(x_[0]);
        if (!w.isList() && !w.isStruct())
            fail();
        break;
      }

      case BuiltinId::FunctorB: {
        Word t = deref(x_[0]);
        if (!t.isRef()) {
            Word name;
            Word arity;
            if (t.isList()) {
                name = Word::makeAtom(AtomTable::instance().dot);
                arity = Word::makeInt(2);
            } else if (t.isStruct()) {
                Word f = readData(Word::makeDataPtr(t.zone(), t.addr()));
                name = Word::makeAtom(f.functorName());
                arity = Word::makeInt(
                    static_cast<int32_t>(f.functorArity()));
            } else {
                name = t;
                arity = Word::makeInt(0);
            }
            if (!unify(x_[1], name) || !unify(x_[2], arity))
                fail();
            break;
        }
        // Construct: functor(T, name, arity) with T unbound.
        Word name = deref(x_[1]);
        Word arity = deref(x_[2]);
        if (!arity.isInt() || arity.intValue() < 0 ||
            (!name.isAtom() && !name.isNil() && !name.isNumber())) {
            fail();
            break;
        }
        int32_t n = arity.intValue();
        if (n == 0) {
            unify_or_fail(t, name);
            break;
        }
        if (!name.isAtom()) {
            fail();
            break;
        }
        Word built;
        if (name.atom() == AtomTable::instance().dot && n == 2) {
            built = Word::makeList(Zone::Global, h_);
            newHeapVar();
            newHeapVar();
        } else {
            built = Word::makeStruct(Zone::Global, h_);
            pushHeapCell(Word::makeFunctor(name.atom(),
                                           static_cast<uint32_t>(n)));
            for (int32_t i = 0; i < n; ++i)
                newHeapVar();
        }
        unify_or_fail(t, built);
        break;
      }

      case BuiltinId::ArgB: {
        Word n = deref(x_[0]);
        Word t = deref(x_[1]);
        if (!n.isInt()) {
            fail();
            break;
        }
        int32_t i = n.intValue();
        if (t.isList()) {
            if (i < 1 || i > 2) {
                fail();
                break;
            }
            Word cell = readData(
                Word::makeDataPtr(t.zone(), t.addr() + (i - 1)));
            unify_or_fail(x_[2], cell);
            break;
        }
        if (!t.isStruct()) {
            fail();
            break;
        }
        Word f = readData(Word::makeDataPtr(t.zone(), t.addr()));
        if (i < 1 || uint32_t(i) > f.functorArity()) {
            fail();
            break;
        }
        Word cell = readData(Word::makeDataPtr(t.zone(), t.addr() + i));
        unify_or_fail(x_[2], cell);
        break;
      }

      case BuiltinId::Univ: {
        Word t = deref(x_[0]);
        if (!t.isRef()) {
            // Decompose into a list.
            std::vector<Word> items;
            if (t.isList()) {
                items.push_back(
                    Word::makeAtom(AtomTable::instance().dot));
                items.push_back(
                    readData(Word::makeDataPtr(t.zone(), t.addr())));
                items.push_back(readData(
                    Word::makeDataPtr(t.zone(), t.addr() + 1)));
            } else if (t.isStruct()) {
                Word f = readData(Word::makeDataPtr(t.zone(), t.addr()));
                items.push_back(Word::makeAtom(f.functorName()));
                for (uint32_t i = 1; i <= f.functorArity(); ++i)
                    items.push_back(readData(
                        Word::makeDataPtr(t.zone(), t.addr() + i)));
            } else {
                items.push_back(t);
            }
            // Build the list back-to-front on the heap.
            Word list = Word::makeNil();
            for (auto it = items.rbegin(); it != items.rend(); ++it) {
                Addr cell = h_;
                pushHeapCell(*it);
                pushHeapCell(list);
                list = Word::makeList(Zone::Global, cell);
            }
            unify_or_fail(x_[1], list);
            break;
        }
        // Construct from a list.
        Word list = deref(x_[1]);
        std::vector<Word> items;
        while (list.isList()) {
            items.push_back(
                readData(Word::makeDataPtr(list.zone(), list.addr())));
            list = deref(readData(
                Word::makeDataPtr(list.zone(), list.addr() + 1)));
        }
        if (!list.isNil() || items.empty()) {
            fail();
            break;
        }
        Word head = deref(items[0]);
        if (items.size() == 1) {
            unify_or_fail(t, head);
            break;
        }
        if (!head.isAtom()) {
            fail();
            break;
        }
        uint32_t n = static_cast<uint32_t>(items.size() - 1);
        Word built;
        if (head.atom() == AtomTable::instance().dot && n == 2) {
            Addr cell = h_;
            pushHeapCell(items[1]);
            pushHeapCell(items[2]);
            built = Word::makeList(Zone::Global, cell);
        } else {
            Addr cell = h_;
            pushHeapCell(Word::makeFunctor(head.atom(), n));
            for (uint32_t i = 1; i <= n; ++i)
                pushHeapCell(items[i]);
            built = Word::makeStruct(Zone::Global, cell);
        }
        unify_or_fail(t, built);
        break;
      }

      case BuiltinId::StructEq:
        if (compare_terms(x_[0], x_[1]) != 0)
            fail();
        break;
      case BuiltinId::StructNe:
        if (compare_terms(x_[0], x_[1]) == 0)
            fail();
        break;
      case BuiltinId::TermLt:
        if (compare_terms(x_[0], x_[1]) >= 0)
            fail();
        break;
      case BuiltinId::TermGt:
        if (compare_terms(x_[0], x_[1]) <= 0)
            fail();
        break;
      case BuiltinId::TermLe:
        if (compare_terms(x_[0], x_[1]) > 0)
            fail();
        break;
      case BuiltinId::TermGe:
        if (compare_terms(x_[0], x_[1]) < 0)
            fail();
        break;
      case BuiltinId::CompareB: {
        int c = compare_terms(x_[1], x_[2]);
        Word order = Word::makeAtom(
            internAtom(c < 0 ? "<" : c > 0 ? ">" : "="));
        unify_or_fail(x_[0], order);
        break;
      }

      case BuiltinId::IsGeneric: {
        double v;
        bool is_float = false;
        if (!eval_generic(x_[1], v, is_float)) {
            fail();
            break;
        }
        unify_or_fail(x_[0], arith_result_word(v, is_float));
        break;
      }
      case BuiltinId::CmpGenericLt:
        generic_compare([](double a, double b) { return a < b; });
        break;
      case BuiltinId::CmpGenericGt:
        generic_compare([](double a, double b) { return a > b; });
        break;
      case BuiltinId::CmpGenericLe:
        generic_compare([](double a, double b) { return a <= b; });
        break;
      case BuiltinId::CmpGenericGe:
        generic_compare([](double a, double b) { return a >= b; });
        break;
      case BuiltinId::CmpGenericEq:
        generic_compare([](double a, double b) { return a == b; });
        break;
      case BuiltinId::CmpGenericNe:
        generic_compare([](double a, double b) { return a != b; });
        break;

      case BuiltinId::CallGoal:
        metaCall(x_[0]);
        break;

      case BuiltinId::CatchB:
        // catch/3 (X0=Goal, X1=Catcher, X2=Recovery): push a marker
        // choice point whose alternative is the transparent
        // $catch_fail stub; its saved argument block is the recorded
        // catcher frame (Catcher in the ball slot, Recovery beside
        // it), revived by throw/1 through the ordinary RAC restore.
        // Then meta-call the protected Goal.
        pushChoicePoint(image_.catchFailEntry, 3, h_, tr_, cpCont_);
        cpFlag_ = true;
        shallowFlag_ = false;
        metaCall(x_[0]);
        break;

      case BuiltinId::ThrowB: {
        Word ball = deref(x_[0]);
        if (ball.isRef()) {
            raiseBall(Term::makeAtom("instantiation_error"));
            break;
        }
        // ISO: the ball is a copy taken before any unwinding.
        raiseBall(exportTerm(ball));
        break;
      }

      case BuiltinId::CatchFail:
        // Backtracked into a catch/3 marker: the protected goal is
        // out of alternatives. Pop the barrier and keep failing —
        // catch/3 is transparent to backtracking.
        popChoicePoint();
        fail();
        break;

      case BuiltinId::CollectSolution:
        collectSolution();
        break;

      case BuiltinId::NameB: {
        Word w = deref(x_[0]);
        if (!w.isRef()) {
            std::string text;
            if (w.isAtom())
                text = atomText(w.atom());
            else if (w.isNil())
                text = "[]";
            else if (w.isInt())
                text = std::to_string(w.intValue());
            else {
                fail();
                break;
            }
            Word list = Word::makeNil();
            for (auto it = text.rbegin(); it != text.rend(); ++it) {
                Addr cell = h_;
                pushHeapCell(Word::makeInt(
                    static_cast<unsigned char>(*it)));
                pushHeapCell(list);
                list = Word::makeList(Zone::Global, cell);
            }
            unify_or_fail(x_[1], list);
            break;
        }
        // Construct the atom from a code list.
        Word list = deref(x_[1]);
        std::string text;
        while (list.isList()) {
            Word code = deref(
                readData(Word::makeDataPtr(list.zone(), list.addr())));
            if (!code.isInt()) {
                fail();
                return;
            }
            text += static_cast<char>(code.intValue());
            list = deref(readData(
                Word::makeDataPtr(list.zone(), list.addr() + 1)));
        }
        if (!list.isNil()) {
            fail();
            break;
        }
        unify_or_fail(w, Word::makeAtom(internAtom(text)));
        break;
      }

      case BuiltinId::DynamicCall: {
        // Indexed-dispatch stub of a dynamic predicate: the escape's
        // own address keys the functor (P still holds it here).
        auto it = image_.dynStubs.find(p_);
        if (it == image_.dynStubs.end())
            panic("DynamicCall escape at unregistered address ", p_);
        execDynamicCall(it->second);
        break;
      }
      case BuiltinId::DynamicRetry:
        execDynamicRetry();
        break;
      case BuiltinId::AssertA:
        execAssert(true);
        break;
      case BuiltinId::AssertZ:
        execAssert(false);
        break;
      case BuiltinId::Retract:
        execRetract();
        break;

      case BuiltinId::AtomLength: {
        Word w = deref(x_[0]);
        if (!w.isAtom() && !w.isNil()) {
            fail();
            break;
        }
        std::string text = w.isNil() ? "[]" : atomText(w.atom());
        unify_or_fail(x_[1], Word::makeInt(
                                 static_cast<int32_t>(text.size())));
        break;
      }

      default:
        panic("unimplemented builtin id ", instr.value);
    }
}

} // namespace kcm
