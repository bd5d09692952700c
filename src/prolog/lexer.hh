/**
 * @file
 * Prolog tokenizer.
 *
 * Produces the standard Prolog token stream: names (atoms), variables,
 * numbers, strings, punctuation, and the clause-terminating full stop.
 * Layout (whitespace/comments) is consumed but the "no layout before"
 * property of a token is preserved, which the reader needs to tell
 * functor application f( from an operator followed by a parenthesis.
 */

#ifndef KCM_PROLOG_LEXER_HH
#define KCM_PROLOG_LEXER_HH

#include <cstdint>
#include <forward_list>
#include <string>
#include <string_view>
#include <vector>

namespace kcm
{

enum class TokenKind
{
    Atom,     ///< unquoted / quoted / symbolic name
    Variable, ///< uppercase or _ initial
    Int,
    Float,
    String,   ///< "..." — expands to a code list in the reader
    Punct,    ///< one of ( ) [ ] { } , |
    End,      ///< the clause-terminating '. '
    Eof,
};

/**
 * One token. It owns no string: its text views the Lexer's copy of the
 * source (or, for a quoted token with escapes, the Lexer's decoded
 * copy), so a token lives no longer than the Lexer that made it.
 */
struct Token
{
    static constexpr uint32_t noName = UINT32_MAX;

    TokenKind kind = TokenKind::Eof;
    bool layoutBefore = true; ///< whitespace or comment preceded this token
    int line = 0;
    /** Atom, Variable, and the ',' and '|' that read as the infix
     *  operators ',' and ';': the number of that name within this
     *  read, equal for equal texts (see Lexer::names). */
    uint32_t name = noName;
    std::string_view text; ///< name / variable / punct / string body
    int64_t intValue = 0;  ///< Int
    double floatValue = 0; ///< Float

    bool
    isPunct(char c) const
    {
        return kind == TokenKind::Punct && text[0] == c;
    }
};

/**
 * One-pass tokenizer over a complete source string.
 *
 * Throws FatalError (via fatal()) on malformed input such as an
 * unterminated quoted atom, with the line number in the message.
 */
class Lexer
{
  public:
    explicit Lexer(std::string source);
    // Tokens view the source and the decoded texts this object holds.
    Lexer(const Lexer &) = delete;
    Lexer &operator=(const Lexer &) = delete;

    /** Tokenize the whole input (trailing Eof token included). */
    std::vector<Token> tokenize();

    /** The distinct names read so far, indexed by Token::name. */
    const std::vector<std::string_view> &names() const { return names_; }

  private:
    Token next();
    /** Consume whitespace and comments; returns true if any was seen. */
    bool skipLayout();
    void lexQuoted(Token &t);
    void lexNumber(Token &t);
    /** Number @p text within this read. */
    uint32_t nameOf(std::string_view text);

    /** The character @p ahead past the current one, '\0' past the end. */
    char peek(size_t ahead) const
    {
        return size_t(end_ - p_) > ahead ? p_[ahead] : '\0';
    }

    [[noreturn]] void error(const std::string &msg) const { error(msg, line_); }
    /** A token or comment left open names the line it opened on. */
    [[noreturn]] void error(const std::string &msg, int line) const;

    /** NUL-terminated, so the scanning loops stop at *end_ and
     *  strtoll/strtod can read a number in place. */
    const std::string src_;
    const char *p_;
    const char *end_;
    int line_ = 1;
    /** Texts of quoted tokens with escapes or doubled quotes. A list:
     *  growth does not move the strings tokens view. */
    std::forward_list<std::string> decoded_;
    std::vector<std::string_view> names_;
    /** Open-addressed index of names_: a name's number + 1, 0 for an
     *  empty slot; a power of two at least twice names_.size(). */
    std::vector<uint32_t> slots_;
};

/** True if @p text would need quotes to read back as an atom. */
bool atomNeedsQuotes(std::string_view text);

} // namespace kcm

#endif // KCM_PROLOG_LEXER_HH
