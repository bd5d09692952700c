/**
 * @file
 * Compiler unit tests: instruction streams for representative clauses,
 * indexing structure, LCO, environment handling, unsafe variables.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "compiler/builtin_defs.hh"
#include "compiler/compiler.hh"
#include "isa/disasm.hh"
#include "library_parse_check.hh"

using namespace kcm;

namespace
{

CodeImage
compileProgram(const std::string &program, const std::string &query = "",
               const CompilerOptions &options = {})
{
    Compiler compiler(options);
    compiler.addProgram(program);
    if (!query.empty())
        compiler.setQuery(query);
    return compiler.compile();
}

/** Disassembly of one predicate, one mnemonic+operands per line. */
std::string
predicateCode(const CodeImage &image, const std::string &name,
              uint32_t arity)
{
    const PredicateInfo *info = image.find({internAtom(name), arity});
    if (!info)
        return "<undefined>";
    return disasmRange(image.words, info->entry - image.base,
                       info->entry - image.base + info->words);
}

/** Count occurrences of a mnemonic in a disassembly. */
int
countOf(const std::string &listing, const std::string &mnemonic)
{
    int count = 0;
    size_t pos = 0;
    while ((pos = listing.find("\t" + mnemonic, pos)) !=
           std::string::npos) {
        // Require a word boundary after the mnemonic.
        char after = listing[pos + 1 + mnemonic.size()];
        if (after == ' ' || after == '\n')
            ++count;
        pos += mnemonic.size();
    }
    return count;
}

} // namespace

TEST(Compiler, FactIsJustHeadAndProceed)
{
    CodeImage image = compileProgram("p(a, 1).");
    std::string code = predicateCode(image, "p", 2);
    EXPECT_EQ(countOf(code, "get_constant"), 2);
    EXPECT_EQ(countOf(code, "proceed"), 1);
    EXPECT_EQ(countOf(code, "allocate"), 0);
    EXPECT_EQ(countOf(code, "neck"), 0) << "single clause: no neck";
}

TEST(Compiler, MultiClausePredicateGetsNeck)
{
    CodeImage image = compileProgram("p(a). p(b).");
    std::string code = predicateCode(image, "p", 1);
    EXPECT_EQ(countOf(code, "neck"), 2) << "one neck per clause";
    EXPECT_EQ(countOf(code, "try_me_else"), 1);
    EXPECT_EQ(countOf(code, "trust_me"), 1);
}

TEST(Compiler, ThreeClauseChain)
{
    CodeImage image = compileProgram("p(a). p(b). p(c).");
    std::string code = predicateCode(image, "p", 1);
    EXPECT_EQ(countOf(code, "try_me_else"), 1);
    EXPECT_EQ(countOf(code, "retry_me_else"), 1);
    EXPECT_EQ(countOf(code, "trust_me"), 1);
}

TEST(Compiler, SwitchOnTermEmittedForIndexablePredicate)
{
    CodeImage image = compileProgram(
        "app([], L, L).\n"
        "app([H|T], L, [H|R]) :- app(T, L, R).\n");
    std::string code = predicateCode(image, "app", 3);
    EXPECT_EQ(countOf(code, "switch_on_term"), 1);
    // [] is a constant key: a constant switch exists.
    EXPECT_EQ(countOf(code, "switch_on_constant"), 1);
}

TEST(Compiler, NoIndexingWhenDisabled)
{
    CompilerOptions options;
    options.indexing = false;
    CodeImage image = compileProgram(
        "app([], L, L).\n"
        "app([H|T], L, [H|R]) :- app(T, L, R).\n",
        "", options);
    std::string code = predicateCode(image, "app", 3);
    EXPECT_EQ(countOf(code, "switch_on_term"), 0);
}

TEST(Compiler, SwitchOnStructureForStructKeys)
{
    CodeImage image = compileProgram(
        "d(a+b, x). d(a*b, y). d(a-b, z). d(V, w) :- atom(V).");
    std::string code = predicateCode(image, "d", 2);
    EXPECT_EQ(countOf(code, "switch_on_structure"), 1);
}

TEST(Compiler, LastCallOptimization)
{
    CodeImage image = compileProgram("loop(X) :- loop(X).");
    std::string code = predicateCode(image, "loop", 1);
    EXPECT_EQ(countOf(code, "execute"), 1);
    EXPECT_EQ(countOf(code, "call"), 0);
    EXPECT_EQ(countOf(code, "allocate"), 0) << "tail call needs no env";
}

TEST(Compiler, EnvironmentForMultipleCalls)
{
    CodeImage image = compileProgram("p :- q, r.\nq.\nr.\n");
    std::string code = predicateCode(image, "p", 0);
    EXPECT_EQ(countOf(code, "allocate"), 1);
    EXPECT_EQ(countOf(code, "deallocate"), 1);
    EXPECT_EQ(countOf(code, "call"), 1) << "first goal via call";
    EXPECT_EQ(countOf(code, "execute"), 1) << "last goal via execute";
}

TEST(Compiler, PermanentVariableUsesYSlots)
{
    CodeImage image = compileProgram("p(X) :- q(X), r(X).\nq(_).\nr(_).\n");
    std::string code = predicateCode(image, "p", 1);
    // X is captured to a Y slot after allocate and read back for r.
    EXPECT_GE(countOf(code, "get_variable_y"), 1);
    EXPECT_GE(countOf(code, "put_value_y"), 1);
}

TEST(Compiler, UnsafeVariableGetsPutUnsafe)
{
    // Y first bound by put_variable_y in a body goal and passed to the
    // last call: the classic unsafe variable.
    CodeImage image =
        compileProgram("p :- q(X), r(X).\nq(_).\nr(_).\n");
    std::string code = predicateCode(image, "p", 0);
    EXPECT_EQ(countOf(code, "put_variable_y"), 1);
    EXPECT_EQ(countOf(code, "put_unsafe_value"), 1);
}

TEST(Compiler, HeadCapturedVariableIsSafe)
{
    CodeImage image = compileProgram("p(X) :- q(X), r(X).\nq(_).\nr(_).\n");
    std::string code = predicateCode(image, "p", 1);
    EXPECT_EQ(countOf(code, "put_unsafe_value"), 0);
}

TEST(Compiler, GuardComparisonBeforeNeck)
{
    CodeImage image = compileProgram(
        "max(X, Y, X) :- X >= Y.\n"
        "max(X, Y, Y) :- X < Y.\n");
    std::string code = predicateCode(image, "max", 3);
    // The comparison must appear before the neck in each clause.
    size_t cmp = code.find("cmp_ge");
    size_t neck = code.find("neck");
    ASSERT_NE(cmp, std::string::npos);
    ASSERT_NE(neck, std::string::npos);
    EXPECT_LT(cmp, neck) << "guard evaluates before the neck";
}

TEST(Compiler, CutInGuardUsesPlainCut)
{
    CodeImage image = compileProgram("f(0, zero) :- !.\nf(_, other).\n");
    std::string code = predicateCode(image, "f", 2);
    EXPECT_EQ(countOf(code, "cut"), 1);
    EXPECT_EQ(countOf(code, "cut_y"), 0);
    EXPECT_EQ(countOf(code, "get_level"), 0);
}

TEST(Compiler, DeepCutUsesGetLevel)
{
    CodeImage image =
        compileProgram("p(X) :- q(X), !, r(X).\nq(_).\nr(_).\n");
    std::string code = predicateCode(image, "p", 1);
    EXPECT_EQ(countOf(code, "get_level"), 1);
    EXPECT_EQ(countOf(code, "cut_y"), 1);
}

TEST(Compiler, InlineArithmetic)
{
    CodeImage image = compileProgram("double(X, Y) :- Y is X + X.");
    std::string code = predicateCode(image, "double", 2);
    EXPECT_EQ(countOf(code, "add"), 1);
    EXPECT_EQ(countOf(code, "escape"), 0);
}

TEST(Compiler, GenericArithmeticUsesEscape)
{
    CompilerOptions options;
    options.integerArithmetic = false;
    CodeImage image =
        compileProgram("double(X, Y) :- Y is X + X.", "", options);
    std::string code = predicateCode(image, "double", 2);
    EXPECT_EQ(countOf(code, "add"), 0);
    // is/2 becomes a call to the escape stub.
    EXPECT_EQ(countOf(code, "execute"), 1);
    const PredicateInfo *is_stub = image.find({internAtom("is"), 2});
    ASSERT_NE(is_stub, nullptr);
}

TEST(Compiler, StaticListCellsCostTwoInstructions)
{
    // §4.1: a statically known list cell costs two instructions
    // (unlike PLM's single cdr-coded one).
    CodeImage image5 = compileProgram("l([1,2,3,4,5]).");
    CodeImage image10 = compileProgram("l([1,2,3,4,5,6,7,8,9,10]).");
    const PredicateInfo *p5 = image5.find({internAtom("l"), 1});
    const PredicateInfo *p10 = image10.find({internAtom("l"), 1});
    EXPECT_EQ(p10->instructions - p5->instructions, 10u);
}

TEST(Compiler, SwitchTablesAreTheOnlyMultiWordInstructions)
{
    CodeImage image = compileProgram(
        "f(a). f(b). f(c).\n"
        "g([]). g([_|_]).\n");
    const PredicateInfo *f = image.find({internAtom("f"), 1});
    // 3 constants -> switch_on_term (4 words) + switch_on_constant
    // (2*3+1 words): instruction count < word count.
    EXPECT_GT(f->words, f->instructions);
}

TEST(Compiler, AnonymousVarsBecomeVoids)
{
    CodeImage image = compileProgram("f(g(_, _, _)).");
    std::string code = predicateCode(image, "f", 1);
    // Three consecutive anonymous vars coalesce into one unify_void.
    EXPECT_EQ(countOf(code, "unify_void"), 1);
}

TEST(Compiler, DisjunctionCreatesAuxPredicate)
{
    CodeImage image = compileProgram("p(X) :- (X = a ; X = b).");
    bool found_aux = false;
    for (const auto &[functor, info] : image.predicates) {
        if (atomText(functor.name).rfind("$aux", 0) == 0)
            found_aux = true;
    }
    EXPECT_TRUE(found_aux);
}

namespace
{

/** A program and goals whose control constructs all normalize into
 *  auxiliary predicates: disjunction, if-then-else, negation and both
 *  catch/3 meta-arguments. */
const char *auxProgram =
    "p(1). p(2). p(3).\n"
    "sign(X, S) :- (X > 0 -> S = pos ; X < 0 -> S = neg ; S = zero).\n"
    "np(X) :- \\+ p(X).\n"
    "alt(X) :- (p(X) ; X = 4).\n"
    "safe(X) :- catch((p(X), X > 1), _, (X = 0 ; true)).\n";

const char *auxGoals[] = {"sign(-2, S)", "np(5)", "alt(X)", "safe(X)",
                          "(p(X), X > 2 -> true ; X = none)"};

} // namespace

TEST(Compiler, RecompileIsByteIdentical)
{
    // Auxiliary names come from the compilation unit, not from the
    // process: compiling the same text twice must give the same
    // image, whatever was compiled in between.
    for (const char *goal : auxGoals) {
        std::string first =
            savedImageBytes(compileProgram(auxProgram, goal));
        compileProgram("q(X) :- (X = a ; X = b).", "q(X)");
        EXPECT_EQ(savedImageBytes(compileProgram(auxProgram, goal)), first)
            << goal;
    }
}

TEST(Compiler, RecompilesAddNoAtoms)
{
    // Atoms are never freed, so auxiliary names must be reused: after
    // the first compile of a program, more compiles of it must leave
    // the atom table as it was.
    for (const char *goal : auxGoals)
        compileProgram(auxProgram, goal);
    const size_t atoms = AtomTable::instance().size();
    for (int i = 0; i < 50; ++i) {
        for (const char *goal : auxGoals)
            compileProgram(auxProgram, goal);
    }
    EXPECT_EQ(AtomTable::instance().size(), atoms);
}

TEST(Compiler, QuerySolutionSlotsNamed)
{
    CodeImage image = compileProgram("p(1, 2).", "p(X, Y)");
    ASSERT_EQ(image.querySolutionSlots.size(), 2u);
    EXPECT_EQ(image.querySolutionSlots[0].first, "X");
    EXPECT_EQ(image.querySolutionSlots[1].first, "Y");
    EXPECT_NE(image.queryEntry, 0u);
}

TEST(Compiler, LibraryExcludedFromProgramSize)
{
    Compiler compiler;
    compiler.addProgram("p(a).");
    compiler.addLibrary("libpred(x). libpred(y).");
    CodeImage image = compiler.compile();
    size_t instr = 0;
    size_t words = 0;
    image.programSize(instr, words);
    // Only p/1's code counts.
    const PredicateInfo *p = image.find({internAtom("p"), 1});
    EXPECT_EQ(instr, p->instructions);
}

TEST(Compiler, UndefinedPredicateGetsDynamicStub)
{
    // An undefined predicate compiles to a dynamic-dispatch trap: a
    // call still fails while the clause store has no clauses for it,
    // but assert/1 (or --db-facts) can define it at run time.
    setLoggingEnabled(false);
    CodeImage image = compileProgram("p :- missing_thing.");
    setLoggingEnabled(true);
    const PredicateInfo *stub =
        image.find({internAtom("missing_thing"), 0});
    ASSERT_NE(stub, nullptr);
    Instr first(image.words[stub->entry - image.base]);
    EXPECT_EQ(first.opcode(), Opcode::Escape);
    EXPECT_EQ(first.value(),
              static_cast<uint32_t>(BuiltinId::DynamicCall));
    EXPECT_TRUE(image.isDynamic({internAtom("missing_thing"), 0}));
    EXPECT_NE(image.dynRetryEntry, 0u);
}

TEST(Compiler, StaticProgramEmitsNoDynamicMachinery)
{
    // No dynamic/1, no asserts, nothing undefined: the image must be
    // free of dynamic-dispatch machinery (bit-identical guarantee for
    // static programs).
    CodeImage image = compileProgram("p :- q.\nq.\n");
    EXPECT_EQ(image.dynRetryEntry, 0u);
    EXPECT_TRUE(image.dynStubs.empty());
    EXPECT_TRUE(image.dynamicDecls.empty());
    EXPECT_TRUE(image.dynamicInit.empty());
}

TEST(Compiler, DynamicDeclarationCompilesToStubAndInit)
{
    Compiler compiler;
    compiler.addProgram(":- dynamic(fact/2).\n"
                        "fact(a, 1).\n"
                        "fact(b, 2).\n"
                        "fact(X, f(X, _)).\n"
                        "use(X, Y) :- fact(X, Y).\n");
    CodeImage image = compiler.compile();
    Functor f{internAtom("fact"), 2};
    ASSERT_TRUE(image.isDynamic(f));
    const PredicateInfo *stub = image.find(f);
    ASSERT_NE(stub, nullptr);
    Instr first(image.words[stub->entry - image.base]);
    EXPECT_EQ(first.opcode(), Opcode::Escape);
    EXPECT_EQ(first.value(),
              static_cast<uint32_t>(BuiltinId::DynamicCall));
    // The clauses skipped static compilation and ride along as
    // canonical init text in source order, each numbering its own
    // variables: the text is a function of the program.
    ASSERT_EQ(image.dynamicInit.size(), 3u);
    EXPECT_EQ(image.dynamicInit[0], "fact(a,1)");
    EXPECT_EQ(image.dynamicInit[1], "fact(b,2)");
    EXPECT_EQ(image.dynamicInit[2], "fact(_0,f(_0,_1))");
    EXPECT_NE(image.dynRetryEntry, 0u);
}

TEST(Compiler, CallsAreMarkedAsInferences)
{
    CodeImage image = compileProgram("p :- q.\nq.\n");
    const PredicateInfo *p = image.find({internAtom("p"), 0});
    bool found_marked_execute = false;
    for (size_t i = 0; i < p->words; ++i) {
        Instr instr(image.words[p->entry - image.base + i]);
        if (instr.opcode() == Opcode::Execute && instr.inferenceMark())
            found_marked_execute = true;
    }
    EXPECT_TRUE(found_marked_execute);
}

TEST(Compiler, LinkedCallTargetsResolve)
{
    CodeImage image = compileProgram("p :- q.\nq.\n", "p");
    const PredicateInfo *p = image.find({internAtom("p"), 0});
    const PredicateInfo *q = image.find({internAtom("q"), 0});
    Instr execute(image.words[p->entry - image.base]);
    ASSERT_EQ(execute.opcode(), Opcode::Execute);
    EXPECT_EQ(execute.value(), q->entry);
}

TEST(Compiler, ConflictingArgumentRegistersGetMoved)
{
    // p(X, Y) :- q(Y, X): A0 and A1 swap; a register move must break
    // the cycle.
    CodeImage image = compileProgram("p(X, Y) :- q(Y, X).\nq(_, _).\n");
    std::string code = predicateCode(image, "p", 2);
    EXPECT_GE(countOf(code, "move2"), 1);
}

TEST(Compiler, IoAsUnitClausesMode)
{
    CompilerOptions options;
    options.ioAsUnitClauses = true;
    CodeImage image = compileProgram("p :- write(x), nl.", "", options);
    const PredicateInfo *w = image.find({internAtom("write"), 1});
    ASSERT_NE(w, nullptr);
    // The unit clause is a bare proceed: call/return = 5 cycles.
    Instr first(image.words[w->entry - image.base]);
    EXPECT_EQ(first.opcode(), Opcode::Proceed);
}
