#include "prolog/lexer.hh"

#include <algorithm>
#include <array>
#include <cstdlib>

#include "base/logging.hh"

namespace kcm
{

namespace
{

// Character classes of the "C" locale, one table lookup a character.
enum : uint8_t
{
    kLower = 1,
    kUpper = 2,
    kDigit = 4,
    kSymbol = 8, ///< +-*/\^<>=~:.?@#&$
    kSpace = 16,
    kUnderscore = 32,
    kAlnum = kLower | kUpper | kDigit | kUnderscore, ///< name characters
};

constexpr std::array<uint8_t, 256> kClasses = [] {
    std::array<uint8_t, 256> classes{};
    for (int c = 'a'; c <= 'z'; ++c)
        classes[c] = kLower;
    for (int c = 'A'; c <= 'Z'; ++c)
        classes[c] = kUpper;
    for (int c = '0'; c <= '9'; ++c)
        classes[c] = kDigit;
    for (unsigned char c : std::string_view("+-*/\\^<>=~:.?@#&$"))
        classes[c] = kSymbol;
    for (unsigned char c : std::string_view(" \t\n\v\f\r"))
        classes[c] = kSpace;
    classes['_'] = kUnderscore;
    return classes;
}();

/** The name number of ",", which the constructor gives first. */
constexpr uint32_t kCommaName = 0;

bool
is(char c, uint8_t classes)
{
    return kClasses[static_cast<unsigned char>(c)] & classes;
}

} // namespace

Lexer::Lexer(std::string source)
    : src_(std::move(source)), p_(src_.data()),
      end_(src_.data() + src_.size())
{
    // Every argument separator reads as ',': number it once, first.
    nameOf(",");
}

void
Lexer::error(const std::string &msg, int line) const
{
    fatal("lexer: line ", line, ": ", msg);
}

uint32_t
Lexer::nameOf(std::string_view text)
{
    auto slotOf = [this](std::string_view name) {
        // FNV-1a, then linear probing.
        uint32_t h = 2166136261u;
        for (char c : name)
            h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
        size_t mask = slots_.size() - 1;
        size_t i = h & mask;
        while (slots_[i] && names_[slots_[i] - 1] != name)
            i = (i + 1) & mask;
        return i;
    };
    if (2 * names_.size() + 2 > slots_.size()) {
        slots_.assign(std::max<size_t>(64, 2 * slots_.size()), 0);
        for (uint32_t n = 0; n < names_.size(); ++n)
            slots_[slotOf(names_[n])] = n + 1;
    }
    uint32_t &slot = slots_[slotOf(text)];
    if (!slot) {
        names_.push_back(text);
        slot = uint32_t(names_.size());
    }
    return slot - 1;
}

bool
Lexer::skipLayout()
{
    const char *start = p_;
    while (p_ < end_) {
        char c = *p_;
        if (is(c, kSpace)) {
            line_ += c == '\n';
            ++p_;
        } else if (c == '%') {
            while (p_ < end_ && *p_ != '\n')
                ++p_;
        } else if (c == '/' && peek(1) == '*') {
            const int opened = line_;
            p_ += 2;
            while (p_ < end_ && !(*p_ == '*' && peek(1) == '/'))
                line_ += *p_++ == '\n';
            if (p_ == end_)
                error("unterminated block comment", opened);
            p_ += 2;
        } else {
            break;
        }
    }
    return p_ != start;
}

std::vector<Token>
Lexer::tokenize()
{
    // Grown, not reserved from the text's size: freeing such a
    // reservation left the heap trimmed, and the machines sim_plm's
    // set-up builds after its compiles took 6x the page faults.
    std::vector<Token> out;
    do {
        out.push_back(next());
    } while (out.back().kind != TokenKind::Eof);
    return out;
}

Token
Lexer::next()
{
    Token t;
    t.layoutBefore = skipLayout() || p_ == src_.data();
    t.line = line_;
    if (p_ == end_)
        return t; // Eof

    const char *start = p_;
    char c = *p_;
    auto scan = [&](TokenKind kind, uint8_t classes) {
        while (is(*p_, classes)) // stops at the terminating NUL
            ++p_;
        t.kind = kind;
        t.text = std::string_view(start, size_t(p_ - start));
    };

    // Full stop: '.' followed by layout or EOF.
    if (c == '.') {
        char after = peek(1);
        if (after == '\0' || is(after, kSpace) || after == '%') {
            ++p_;
            t.kind = TokenKind::End;
            t.text = std::string_view(start, 1);
            return t;
        }
    }

    if (is(c, kDigit)) {
        lexNumber(t);
    } else if (is(c, kLower)) {
        scan(TokenKind::Atom, kAlnum);
        t.name = nameOf(t.text);
    } else if (is(c, kUpper) || c == '_') {
        scan(TokenKind::Variable, kAlnum);
        t.name = nameOf(t.text);
    } else if (c == '\'' || c == '"') {
        lexQuoted(t);
        if (c == '"') {
            t.kind = TokenKind::String;
        } else {
            t.kind = TokenKind::Atom;
            t.name = nameOf(t.text);
        }
    } else if (c == '(' || c == ')' || c == '[' || c == ']' || c == '{' ||
               c == '}' || c == ',' || c == '|') {
        ++p_;
        t.kind = TokenKind::Punct;
        t.text = std::string_view(start, 1);
        // ',' and '|' double as the operators ',' and ';'.
        if (c == ',')
            t.name = kCommaName;
        else if (c == '|')
            t.name = nameOf(";");
    } else if (c == '!' || c == ';') {
        ++p_;
        t.kind = TokenKind::Atom;
        t.text = std::string_view(start, 1);
        t.name = nameOf(t.text);
    } else if (is(c, kSymbol)) {
        scan(TokenKind::Atom, kSymbol);
        t.name = nameOf(t.text);
    } else {
        error(cat("unexpected character '", std::string(1, c), "'"));
    }
    return t;
}

void
Lexer::lexQuoted(Token &t)
{
    const char quote = *p_++;
    const char *start = p_;
    // Most quoted tokens are a plain slice of the source.
    while (p_ < end_ && *p_ != quote && *p_ != '\\')
        line_ += *p_++ == '\n';
    if (p_ < end_ && *p_ == quote && peek(1) != quote) {
        t.text = std::string_view(start, size_t(p_ - start));
        ++p_;
        return;
    }
    std::string &text = decoded_.emplace_front(start, p_);
    while (true) {
        if (p_ == end_)
            error("unterminated quoted token", t.line);
        char c = *p_++;
        line_ += c == '\n';
        if (c == quote) {
            if (p_ < end_ && *p_ == quote) {
                ++p_;
                text += quote;
                continue;
            }
            t.text = text;
            return;
        }
        if (c == '\\') {
            if (p_ == end_)
                error("unterminated escape", t.line);
            char e = *p_++;
            line_ += e == '\n';
            switch (e) {
              case 'n': text += '\n'; break;
              case 't': text += '\t'; break;
              case 'r': text += '\r'; break;
              case 'a': text += '\a'; break;
              case 'b': text += '\b'; break;
              case 'f': text += '\f'; break;
              case 'v': text += '\v'; break;
              case '\\': text += '\\'; break;
              case '\'': text += '\''; break;
              case '"': text += '"'; break;
              case '\n': break; // line continuation
              default:
                error(cat("unknown escape \\", std::string(1, e)));
            }
            continue;
        }
        text += c;
    }
}

void
Lexer::lexNumber(Token &t)
{
    const char *start = p_;
    t.kind = TokenKind::Int;
    // Consume the current character ('\0', unconsumed, past the end).
    auto get = [this] { return p_ < end_ ? *p_++ : '\0'; };
    auto digits = [this] {
        while (is(*p_, kDigit))
            ++p_;
    };

    // 0'c (character code), 0x / 0o / 0b radix forms.
    if (*p_ == '0' && peek(1) == '\'') {
        p_ += 2;
        char c = get();
        line_ += c == '\n';
        if (c == '\\') {
            char e = get();
            line_ += e == '\n';
            switch (e) {
              case 'n': c = '\n'; break;
              case 't': c = '\t'; break;
              case 'r': c = '\r'; break;
              case '\\': c = '\\'; break;
              case '\'': c = '\''; break;
              default: error("unknown character escape in 0' literal");
            }
        }
        t.intValue = static_cast<unsigned char>(c);
    } else if (*p_ == '0' &&
               (peek(1) == 'x' || peek(1) == 'o' || peek(1) == 'b')) {
        int radix = peek(1) == 'x' ? 16 : peek(1) == 'o' ? 8 : 2;
        p_ += 2;
        const char *first = p_;
        while (is(*p_, kLower | kUpper | kDigit))
            ++p_;
        if (p_ == first)
            error("missing digits after radix prefix");
        // strtoll stops where the digits of the radix do, inside the
        // alphanumeric run.
        t.intValue = std::strtoll(first, nullptr, radix);
    } else {
        digits();
        // Float: digits '.' digits with optional exponent, or digits
        // with an exponent.
        bool fraction = *p_ == '.' && is(peek(1), kDigit);
        bool exponent =
            !fraction && (*p_ == 'e' || *p_ == 'E') &&
            (is(peek(1), kDigit) ||
             ((peek(1) == '+' || peek(1) == '-') && is(peek(2), kDigit)));
        if (fraction) {
            ++p_;
            digits();
            exponent = *p_ == 'e' || *p_ == 'E';
        }
        if (exponent) {
            ++p_;
            if (*p_ == '+' || *p_ == '-')
                ++p_;
            digits();
        }
        // The source is NUL-terminated, and strtoll/strtod read no
        // further than the run just scanned.
        if (fraction || exponent) {
            t.kind = TokenKind::Float;
            t.floatValue = std::strtod(start, nullptr);
        } else {
            t.intValue = std::strtoll(start, nullptr, 10);
        }
    }
}

bool
atomNeedsQuotes(std::string_view text)
{
    if (text.empty())
        return true;
    if (text == "[]" || text == "{}" || text == "!" || text == ";")
        return false;
    // ',' and '.' conflict with argument separators / the full stop.
    if (text == "," || text == ".")
        return true;
    uint8_t in = is(text[0], kLower) ? kAlnum
               : is(text[0], kSymbol) ? kSymbol
                                      : 0;
    if (!in)
        return true;
    for (char c : text) {
        if (!is(c, in))
            return true;
    }
    return false;
}

} // namespace kcm
