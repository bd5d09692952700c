/**
 * @file
 * Prolog reader: operator-precedence parsing of clause terms.
 */

#ifndef KCM_PROLOG_PARSER_HH
#define KCM_PROLOG_PARSER_HH

#include <string>
#include <vector>

#include "prolog/lexer.hh"
#include "prolog/operators.hh"
#include "prolog/term.hh"

namespace kcm
{

/** One clause read from source, with its named variables. */
struct ReadClause
{
    TermRef term;
    /** Source variable name -> the shared Var node, in order. */
    std::vector<std::pair<std::string, TermRef>> varNames;
};

/**
 * Reads a sequence of clause terms from one source string.
 *
 * op/3 directives are applied to the operator table as they are read,
 * so they affect the parsing of subsequent clauses — and they are also
 * returned to the caller like any other term.
 *
 * A name is interned where the reader first needs its atom: an operand
 * or operator when it is read, a functor after its arguments. Atom ids
 * follow interning order, and escape stubs are laid out in atom-id
 * order, so this order is part of what a program compiles to.
 */
class Parser
{
  public:
    Parser(std::string source, OperatorTable &ops);
    // The tokens view the lexer's text.
    Parser(const Parser &) = delete;
    Parser &operator=(const Parser &) = delete;

    /** Read the next clause; returns false at end of input. */
    bool readClause(ReadClause &out);

    /** Read every clause in the input. */
    std::vector<ReadClause> readAll();

  private:
    /** What this read knows of one name (Token::name). */
    struct Name
    {
        AtomId atom = 0;
        bool interned = false;
        /** Whether the operator definitions below are current. */
        bool opsKnown = false;
        std::optional<OpDef> prefix;
        std::optional<OpDef> infix;
        std::optional<OpDef> postfix;
        /** The variable of this name in clause varClause. */
        TermRef var;
        uint64_t varClause = 0;
    };

    /** The atom of name token @p t, interned on first use. */
    AtomId atomOf(const Token &t);
    /** The atom and operator definitions of name token @p t. */
    const Name &operatorOf(const Token &t);

    TermRef parseTerm(int max_prec, int &prec_out);
    TermRef parsePrimary(int max_prec, int &prec_out);
    TermRef parseArgList(const Token &functor);
    TermRef parseList();
    TermRef parseCurly();
    TermRef variableNode(const Token &t);
    /** The structure @p name of the terms pushed since @p base,
     *  popped. */
    TermRef popStruct(AtomId name, size_t base);
    /** The list of the terms pushed since @p base ending in @p tail,
     *  popped. */
    TermRef popList(size_t base, TermRef tail);
    /** True if the upcoming token can begin a term. */
    bool tokenStartsTerm() const;

    const Token &peek(size_t ahead = 0) const;
    const Token &advance();
    void expectPunct(char p);
    [[noreturn]] void error(const std::string &msg) const;

    void maybeApplyOpDirective(const TermRef &clause);

    OperatorTable &ops_;
    Lexer lexer_;
    std::vector<Token> tokens_;
    size_t pos_ = 0;
    std::vector<Name> names_;
    /** Number of the clause being read (1 = the first). */
    uint64_t clause_ = 0;
    /** The variables of the clause being read, in order. */
    std::vector<std::pair<std::string, TermRef>> varNames_;
    /** Arguments and list items read but not yet built into their
     *  term: a term is built once its size is known. */
    std::vector<TermRef> terms_;
};

/** Convenience: parse a single term (no trailing '.') from text. */
TermRef parseTermText(const std::string &text, OperatorTable &ops);

/** Convenience: parse with a default operator table. */
TermRef parseTermText(const std::string &text);

/** Convenience: parse a whole program with a default operator table. */
std::vector<ReadClause> parseProgramText(const std::string &text);

} // namespace kcm

#endif // KCM_PROLOG_PARSER_HH
