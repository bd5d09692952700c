#include "kcm/kcm.hh"

#include <memory>
#include <set>

#include "base/logging.hh"
#include "db/clause_store.hh"
#include "kcm/stdlib.hh"
#include "prolog/parser.hh"
#include "prolog/writer.hh"

namespace kcm
{

KcmSystem::KcmSystem(const KcmOptions &options) : options_(options) {}

KcmSystem::~KcmSystem() = default;

void
KcmSystem::consult(const std::string &source)
{
    sources_.push_back(Source{source, false});
}

void
KcmSystem::consultStandardLibrary()
{
    // Parse now, as a consult of the text would; compileOnly() links
    // the unit.
    standardLibraryClauses();
    sources_.push_back(Source{{}, true});
}

std::vector<TermRef>
KcmSystem::parseFactFile(const std::string &source,
                         const std::string &origin)
{
    // Validate the whole file before anything is used, so a malformed
    // clause can never leave a partial preload behind.
    OperatorTable ops;
    // A raw lexer/parser error names only its line; re-throw with the
    // file so "--db-facts foo.pl" failures always read "foo.pl: <lexer
    // or parser diagnostic>". The Parser tokenizes the whole text when
    // it is built, so its construction raises every lexer error.
    auto named = [&](auto read) {
        try {
            return read();
        } catch (const FatalError &err) {
            std::string why = err.what();
            if (why.rfind("fatal: ", 0) == 0)
                why.erase(0, 7);
            fatal(origin, ": ", why);
        }
    };
    auto parser = named([&] { return std::make_unique<Parser>(source, ops); });
    ReadClause read;
    std::vector<TermRef> facts;
    size_t clause_no = 0;
    while (named([&] { return parser->readClause(read); })) {
        ++clause_no;
        const TermRef &term = read.term;
        auto reject = [&](const char *why) {
            fatal(origin, ": clause ", clause_no, " ", why, ": ",
                  writeTermQuoted(term));
        };
        if (term->isVar())
            reject("is unbound");
        if (term->isStruct() && term->arity() <= 2) {
            const std::string &name = atomText(term->functorName());
            if (name == ":-" || name == "?-")
                reject("is a rule or directive, not a fact");
        }
        if (!term->isAtom() && !term->isStruct())
            reject("is not a callable fact");
        Functor f = term->functor();
        if (f.arity > db::maxDynamicArity)
            reject("exceeds the dynamic-predicate arity limit");
        facts.push_back(term);
    }
    return facts;
}

std::string
KcmSystem::factDeclarations(const std::vector<TermRef> &facts)
{
    OperatorTable ops;
    WriteOptions canonical;
    canonical.quoted = true;
    canonical.ignoreOps = true;
    std::set<Functor> preds;
    for (const TermRef &fact : facts)
        preds.insert(fact->functor());
    std::string text;
    for (const Functor &f : preds) {
        text += ":- dynamic(" +
                writeTerm(Term::makeStruct(
                              "/", {Term::makeAtom(f.name),
                                    Term::makeInt(int64_t(f.arity))}),
                          ops, canonical) +
                ").\n";
    }
    return text;
}

std::string
KcmSystem::canonicalFacts(const std::vector<TermRef> &facts)
{
    OperatorTable ops;
    WriteOptions canonical;
    canonical.quoted = true;
    canonical.ignoreOps = true;
    std::string text = factDeclarations(facts);
    for (const TermRef &fact : facts)
        text += writeTerm(fact, ops, canonical) + ".\n";
    return text;
}

void
KcmSystem::preloadFacts(const std::string &source,
                        const std::string &origin)
{
    // Route the canonical text through consult(): the compiler
    // declares the predicates dynamic and carries the facts in the
    // image's dynamic-init section, so every query's machine — and any
    // baseline under differential test fed the same text — seeds an
    // identical store.
    consult(canonicalFacts(parseFactFile(source, origin)));
}

CodeImage
KcmSystem::compileOnly(const std::string &goal)
{
    Compiler compiler(options_.compiler);
    // Program texts first: a process's first compile builds the unit
    // below after the program's parse, where a whole-program compile
    // normalises the library, so builtins keep their relative atom ids,
    // which order the escape stubs. The order does not change the image.
    for (const Source &source : sources_) {
        if (!source.library)
            compiler.addProgram(source.text);
    }
    for (const Source &source : sources_) {
        if (source.library)
            compiler.addLibrary(standardLibraryUnit(options_.compiler));
    }
    if (!goal.empty())
        compiler.setQuery(goal);
    return compiler.compile();
}

QueryResult
KcmSystem::query(const std::string &goal, const std::function<bool()> &stop,
                 uint64_t slice_cycles)
{
    if (goal.empty())
        fatal("empty query");
    return run(compileOnly(goal), stop, slice_cycles);
}

QueryResult
KcmSystem::run(const CodeImage &image, const std::function<bool()> &stop,
               uint64_t slice_cycles)
{
    machine_ = std::make_unique<Machine>(options_.machine);
    machine_->load(image);

    HostPoll poll;
    if (stop) {
        poll.nextSlice = [slice_cycles] { return slice_cycles; };
        poll.stop = stop;
    }
    QueryResult result;
    result.solutions = machine_->solutions(
        options_.maxSolutions == 0 ? SIZE_MAX : options_.maxSolutions,
        poll);
    result.success = !result.solutions.empty();
    result.halted = machine_->halted();
    if (machine_->trapped() && machine_->sliceExpired()) {
        result.interrupted = true;
    } else if (machine_->trapped()) {
        result.trapped = true;
        result.trap = machine_->lastTrap();
        result.error = trapDiagnosis(result.trap);
    }
    result.output = machine_->output();
    result.cycles = machine_->cycles();
    result.instructions = machine_->instructions();
    result.inferences = machine_->inferences();
    result.seconds = machine_->seconds();
    result.klips = machine_->klips();
    result.residentBytes = machine_->residentZoneBytes();
    return result;
}

Machine &
KcmSystem::machine()
{
    if (!machine_)
        fatal("no query has been run yet");
    return *machine_;
}

} // namespace kcm
