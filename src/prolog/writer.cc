#include "prolog/writer.hh"

#include <sstream>
#include <unordered_map>

#include "base/logging.hh"
#include "prolog/lexer.hh"

namespace kcm
{

namespace
{

class Writer
{
  public:
    Writer(const OperatorTable &ops, const WriteOptions &options)
        : ops_(ops), options_(options)
    {
    }

    /** Append @p t; its variables keep the numbers earlier terms of
     *  this writer gave them. */
    Writer &
    term(const TermRef &t)
    {
        write(t, 1200, 0);
        return *this;
    }

    Writer &
    text(const std::string &s)
    {
        os_ << s;
        return *this;
    }

    std::string str() const { return os_.str(); }

  private:
    void
    writeAtomText(AtomId atom)
    {
        const std::string &text = atomText(atom);
        if (options_.quoted && atomNeedsQuotes(text)) {
            os_ << '\'';
            for (char c : text) {
                if (c == '\'' || c == '\\')
                    os_ << '\\';
                os_ << c;
            }
            os_ << '\'';
        } else {
            os_ << text;
        }
    }

    void
    write(const TermRef &t, int max_prec, int depth)
    {
        if (options_.maxDepth && depth > options_.maxDepth) {
            os_ << "...";
            return;
        }
        switch (t->kind()) {
          case TermKind::Var: {
            // Its first-occurrence ordinal in what this writer wrote.
            auto it = varNumbers_.emplace(t.get(), varNumbers_.size()).first;
            os_ << "_" << it->second;
            return;
          }
          case TermKind::Int:
            os_ << t->intValue();
            return;
          case TermKind::Float: {
            std::ostringstream fs;
            fs << t->floatValue();
            std::string s = fs.str();
            if (s.find('.') == std::string::npos &&
                s.find('e') == std::string::npos &&
                s.find("inf") == std::string::npos &&
                s.find("nan") == std::string::npos) {
                s += ".0";
            }
            os_ << s;
            return;
          }
          case TermKind::Atom:
            writeAtomText(t->atom());
            return;
          case TermKind::Struct:
            break;
        }

        // Lists.
        if (t->isCons() && !options_.ignoreOps) {
            os_ << '[';
            TermRef node = t;
            bool first = true;
            while (node->isCons()) {
                if (!first)
                    os_ << ',';
                write(node->arg(0), 999, depth + 1);
                first = false;
                node = node->arg(1);
            }
            if (!node->isNil()) {
                os_ << '|';
                write(node, 999, depth + 1);
            }
            os_ << ']';
            return;
        }

        // Curly braces.
        if (!options_.ignoreOps && t->arity() == 1 &&
            t->functorName() == AtomTable::instance().curly) {
            os_ << '{';
            write(t->arg(0), 1200, depth + 1);
            os_ << '}';
            return;
        }

        // Operators.
        if (!options_.ignoreOps) {
            if (t->arity() == 2) {
                auto infix = ops_.infix(t->functorName());
                if (infix) {
                    int p = infix->priority;
                    int lp = infix->type == OpType::YFX ? p : p - 1;
                    int rp = infix->type == OpType::XFY ? p : p - 1;
                    bool parens = p > max_prec;
                    if (parens)
                        os_ << '(';
                    write(t->arg(0), lp, depth + 1);
                    const std::string &name = atomText(t->functorName());
                    if (name == ",")
                        os_ << name;
                    else
                        os_ << ' ' << name << ' ';
                    write(t->arg(1), rp, depth + 1);
                    if (parens)
                        os_ << ')';
                    return;
                }
            }
            if (t->arity() == 1) {
                auto prefix = ops_.prefix(t->functorName());
                if (prefix) {
                    int p = prefix->priority;
                    int ap = prefix->type == OpType::FY ? p : p - 1;
                    bool parens = p > max_prec;
                    if (parens)
                        os_ << '(';
                    writeAtomText(t->functorName());
                    const std::string &name = atomText(t->functorName());
                    if (isalpha((unsigned char)name[0]) ||
                        name == "-" || name == "+" || name == ":-" ||
                        name == "?-" || name == "\\+") {
                        os_ << ' ';
                    }
                    write(t->arg(0), ap, depth + 1);
                    if (parens)
                        os_ << ')';
                    return;
                }
            }
        }

        // Plain functional notation.
        writeAtomText(t->functorName());
        os_ << '(';
        for (uint32_t i = 0; i < t->arity(); ++i) {
            if (i)
                os_ << ',';
            write(t->arg(i), 999, depth + 1);
        }
        os_ << ')';
    }

    const OperatorTable &ops_;
    const WriteOptions options_;
    std::ostringstream os_;
    std::unordered_map<const Term *, size_t> varNumbers_;
};

const OperatorTable &
defaultOps()
{
    static const OperatorTable ops;
    return ops;
}

} // namespace

std::string
writeTerm(const TermRef &t, const OperatorTable &ops,
          const WriteOptions &options)
{
    return Writer(ops, options).term(t).str();
}

std::string
writeTerm(const TermRef &t)
{
    return writeTerm(t, defaultOps(), WriteOptions{});
}

std::string
writeTermQuoted(const TermRef &t)
{
    WriteOptions options;
    options.quoted = true;
    return writeTerm(t, defaultOps(), options);
}

std::string
writeAnswer(const std::vector<std::pair<std::string, TermRef>> &bindings)
{
    if (bindings.empty())
        return "true";
    Writer writer(defaultOps(), WriteOptions{});
    for (size_t i = 0; i < bindings.size(); ++i)
        writer.text(i ? ", " : "")
            .text(bindings[i].first + " = ")
            .term(bindings[i].second);
    return writer.str();
}

} // namespace kcm
