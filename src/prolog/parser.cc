#include "prolog/parser.hh"

#include "base/logging.hh"

namespace kcm
{

Parser::Parser(std::string source, OperatorTable &ops)
    : ops_(ops), lexer_(std::move(source)), tokens_(lexer_.tokenize()),
      names_(lexer_.names().size())
{
}

AtomId
Parser::atomOf(const Token &t)
{
    Name &n = names_[t.name];
    if (!n.interned) {
        n.atom = internAtom(lexer_.names()[t.name]);
        n.interned = true;
    }
    return n.atom;
}

const Parser::Name &
Parser::operatorOf(const Token &t)
{
    AtomId atom = atomOf(t);
    Name &n = names_[t.name];
    if (!n.opsKnown) {
        n.prefix = ops_.prefix(atom);
        n.infix = ops_.infix(atom);
        n.postfix = ops_.postfix(atom);
        n.opsKnown = true;
    }
    return n;
}

const Token &
Parser::peek(size_t ahead) const
{
    size_t idx = pos_ + ahead;
    if (idx >= tokens_.size())
        idx = tokens_.size() - 1; // Eof token
    return tokens_[idx];
}

const Token &
Parser::advance()
{
    const Token &t = peek();
    if (pos_ < tokens_.size() - 1)
        ++pos_;
    return t;
}

void
Parser::expectPunct(char p)
{
    if (!peek().isPunct(p))
        error(cat("expected '", std::string(1, p), "'"));
    advance();
}

void
Parser::error(const std::string &msg) const
{
    fatal("parser: line ", peek().line, ": ", msg, " (at token '",
          peek().text, "')");
}

TermRef
Parser::popStruct(AtomId name, size_t base)
{
    TermRef t;
    switch (terms_.size() - base) {
      case 1:
        t = Term::makeStruct(name, std::move(terms_[base]));
        break;
      case 2:
        t = Term::makeStruct(name, std::move(terms_[base]),
                             std::move(terms_[base + 1]));
        break;
      default:
        t = Term::makeStruct(
            name, std::vector<TermRef>(
                      std::make_move_iterator(terms_.begin() + ptrdiff_t(base)),
                      std::make_move_iterator(terms_.end())));
    }
    terms_.resize(base);
    return t;
}

TermRef
Parser::popList(size_t base, TermRef tail)
{
    while (terms_.size() > base) {
        tail = Term::makeCons(std::move(terms_.back()), std::move(tail));
        terms_.pop_back();
    }
    return tail;
}

TermRef
Parser::variableNode(const Token &t)
{
    if (t.text == "_")
        return Term::makeVar("_");
    Name &n = names_[t.name];
    if (n.varClause != clause_) {
        n.var = Term::makeVar(t.text);
        n.varClause = clause_;
        varNames_.emplace_back(n.var->varName(), n.var);
    }
    return n.var;
}

bool
Parser::readClause(ReadClause &out)
{
    if (peek().kind == TokenKind::Eof)
        return false;
    ++clause_;
    varNames_.clear();
    terms_.clear(); // what a read that threw left behind
    int prec = 0;
    out.term = parseTerm(1200, prec);
    if (peek().kind != TokenKind::End)
        error("expected '.' at end of clause");
    advance();
    maybeApplyOpDirective(out.term);
    out.varNames.assign(std::make_move_iterator(varNames_.begin()),
                        std::make_move_iterator(varNames_.end()));
    return true;
}

std::vector<ReadClause>
Parser::readAll()
{
    std::vector<ReadClause> out;
    ReadClause clause;
    while (readClause(clause))
        out.push_back(std::move(clause));
    return out;
}

void
Parser::maybeApplyOpDirective(const TermRef &clause)
{
    if (!clause->isStruct() || clause->arity() != 1)
        return;
    const std::string &outer = atomText(clause->functorName());
    if (outer != ":-" && outer != "?-")
        return;
    const TermRef &goal = clause->arg(0);
    if (!goal->isStruct() || goal->arity() != 3 ||
        atomText(goal->functorName()) != "op") {
        return;
    }
    const TermRef &prio = goal->arg(0);
    const TermRef &type = goal->arg(1);
    const TermRef &name = goal->arg(2);
    if (!prio->isInt() || !type->isAtom())
        return;
    auto op_type = OperatorTable::parseType(atomText(type->atom()));
    if (!op_type)
        return;
    auto apply = [&](const TermRef &n) {
        if (n->isAtom()) {
            ops_.define(static_cast<int>(prio->intValue()), *op_type,
                        n->atom());
        }
    };
    if (name->isAtom()) {
        apply(name);
    } else {
        // A list of operator names.
        TermRef node = name;
        while (node->isCons()) {
            apply(node->arg(0));
            node = node->arg(1);
        }
    }
    for (Name &n : names_)
        n.opsKnown = false;
}

bool
Parser::tokenStartsTerm() const
{
    const Token &t = peek();
    switch (t.kind) {
      case TokenKind::Int:
      case TokenKind::Float:
      case TokenKind::Variable:
      case TokenKind::Atom:
      case TokenKind::String:
        return true;
      case TokenKind::Punct:
        return t.isPunct('(') || t.isPunct('[') || t.isPunct('{');
      default:
        return false;
    }
}

TermRef
Parser::parseTerm(int max_prec, int &prec_out)
{
    int left_prec = 0;
    TermRef left = parsePrimary(max_prec, left_prec);

    while (true) {
        // An operator: an atom, or the ',' and '|' punctuation that
        // read as ',' and ';'.
        const Token &t = peek();
        if (t.kind != TokenKind::Atom &&
            !(t.kind == TokenKind::Punct && t.name != Token::noName)) {
            break;
        }
        const Name &op = operatorOf(t);
        AtomId op_atom = op.atom;
        std::optional<OpDef> infix = op.infix;
        std::optional<OpDef> postfix = op.postfix;
        if (infix) {
            int p = infix->priority;
            int left_max = infix->type == OpType::YFX ? p : p - 1;
            int right_max = infix->type == OpType::XFY ? p : p - 1;
            if (p <= max_prec && left_prec <= left_max) {
                advance();
                int rp = 0;
                TermRef right = parseTerm(right_max, rp);
                left = Term::makeStruct(op_atom, std::move(left),
                                        std::move(right));
                left_prec = p;
                continue;
            }
        }
        if (postfix) {
            int p = postfix->priority;
            int left_max = postfix->type == OpType::YF ? p : p - 1;
            if (p <= max_prec && left_prec <= left_max) {
                advance();
                left = Term::makeStruct(op_atom, std::move(left));
                left_prec = p;
                continue;
            }
        }
        break;
    }
    prec_out = left_prec;
    return left;
}

TermRef
Parser::parsePrimary(int max_prec, int &prec_out)
{
    const Token &t = peek();
    prec_out = 0;

    switch (t.kind) {
      case TokenKind::Int:
        advance();
        return Term::makeInt(t.intValue);
      case TokenKind::Float:
        advance();
        return Term::makeFloat(t.floatValue);
      case TokenKind::Variable:
        advance();
        return variableNode(t);
      case TokenKind::String: {
        advance();
        size_t base = terms_.size();
        for (unsigned char c : t.text)
            terms_.push_back(Term::makeInt(c));
        return popList(base, Term::makeAtom(AtomTable::instance().nil));
      }
      case TokenKind::Punct:
        if (t.isPunct('(')) {
            advance();
            int p = 0;
            TermRef inner = parseTerm(1200, p);
            expectPunct(')');
            return inner;
        }
        if (t.isPunct('[')) {
            advance();
            return parseList();
        }
        if (t.isPunct('{')) {
            advance();
            return parseCurly();
        }
        error("unexpected punctuation");
      case TokenKind::Atom:
        advance();
        break;
      default:
        error("unexpected token");
    }

    // Atom cases: functor application, prefix operator, plain atom.

    // Functor application: '(' with no layout in between.
    if (peek().isPunct('(') && !peek().layoutBefore)
        return parseArgList(t);

    const Name &name = operatorOf(t);
    AtomId name_atom = name.atom;
    std::optional<OpDef> prefix = name.prefix;

    // Negative numeric literal: '-' immediately followed by a number
    // with no intervening layout (ISO reading; "- 1" is -(1)).
    if (t.text == "-" && !peek().layoutBefore &&
        (peek().kind == TokenKind::Int ||
         peek().kind == TokenKind::Float)) {
        const Token &num = advance();
        if (num.kind == TokenKind::Int)
            return Term::makeInt(-num.intValue);
        return Term::makeFloat(-num.floatValue);
    }

    if (prefix && prefix->priority <= max_prec && tokenStartsTerm()) {
        // Don't treat "op Infix ..." as prefix application when the
        // next atom is purely an infix operator (e.g. "- =" is odd
        // input anyway); the common case is fine.
        bool operand_is_bare_infix = false;
        if (peek().kind == TokenKind::Atom) {
            const Name &next = operatorOf(peek());
            if (next.infix && !next.prefix && !peek(1).isPunct('('))
                operand_is_bare_infix = true;
        }
        if (!operand_is_bare_infix) {
            int arg_max = prefix->type == OpType::FY ? prefix->priority
                                                     : prefix->priority - 1;
            int p = 0;
            TermRef operand = parseTerm(arg_max, p);
            prec_out = prefix->priority;
            return Term::makeStruct(name_atom, std::move(operand));
        }
    }

    // Plain atom (possibly an operator used as an operand).
    return Term::makeAtom(name_atom);
}

TermRef
Parser::parseArgList(const Token &functor)
{
    expectPunct('(');
    size_t base = terms_.size();
    while (true) {
        int p = 0;
        terms_.push_back(parseTerm(999, p));
        if (peek().isPunct(',')) {
            advance();
            continue;
        }
        break;
    }
    expectPunct(')');
    return popStruct(atomOf(functor), base);
}

TermRef
Parser::parseList()
{
    if (peek().isPunct(']')) {
        advance();
        return Term::makeAtom(AtomTable::instance().nil);
    }
    size_t base = terms_.size();
    TermRef tail;
    while (true) {
        int p = 0;
        terms_.push_back(parseTerm(999, p));
        if (peek().isPunct(',')) {
            advance();
            continue;
        }
        if (peek().isPunct('|')) {
            advance();
            int tp = 0;
            tail = parseTerm(999, tp);
        }
        break;
    }
    expectPunct(']');
    return popList(base, tail ? std::move(tail)
                              : Term::makeAtom(AtomTable::instance().nil));
}

TermRef
Parser::parseCurly()
{
    if (peek().isPunct('}')) {
        advance();
        return Term::makeAtom(AtomTable::instance().curly);
    }
    int p = 0;
    TermRef inner = parseTerm(1200, p);
    expectPunct('}');
    return Term::makeStruct(AtomTable::instance().curly, std::move(inner));
}

TermRef
parseTermText(const std::string &text, OperatorTable &ops)
{
    Parser parser(text + " .", ops);
    ReadClause clause;
    if (!parser.readClause(clause))
        fatal("parseTermText: empty input");
    return clause.term;
}

TermRef
parseTermText(const std::string &text)
{
    OperatorTable ops;
    return parseTermText(text, ops);
}

std::vector<ReadClause>
parseProgramText(const std::string &text)
{
    OperatorTable ops;
    Parser parser(text, ops);
    return parser.readAll();
}

} // namespace kcm
