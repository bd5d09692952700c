/**
 * @file
 * Wire protocol helpers for the always-on query server: a minimal
 * JSON codec for the newline-delimited request/response framing, and
 * poll-based socket I/O with hard deadlines.
 *
 * The protocol deliberately uses flat JSON objects (scalar fields plus
 * arrays of scalars, e.g. the "answers" list); anything else — nested
 * objects, unterminated strings, binary garbage, oversized lines — is
 * rejected with a diagnostic instead of trusting the peer. The codec
 * is hardened the same way the snapshot container is: every parse is
 * bounds-checked, and a malformed frame can only ever produce a
 * "bad_request" reply, never undefined behaviour or a crash.
 *
 * The I/O helpers implement the connection-lifecycle half of the
 * server contract: reads and writes carry deadlines enforced with
 * poll(2) slices, a partial request line must complete within a
 * request deadline measured from its *first byte* (the slow-loris
 * bound, separate from the more generous idle timeout between
 * requests), and every path is cancellable so a draining server never
 * blocks on a dead or malicious peer.
 */

#ifndef KCM_SERVICE_WIRE_HH
#define KCM_SERVICE_WIRE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace kcm::service
{

/** One decoded JSON scalar (or array of scalars). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Int,
        Double,
        Str,
        Array, ///< array of scalar JsonValues
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    int64_t integer = 0;
    double real = 0;
    std::string str;
    std::vector<JsonValue> items;

    bool isString() const { return kind == Kind::Str; }
    bool isNumber() const
    {
        return kind == Kind::Int || kind == Kind::Double;
    }

    /** Numeric value as an integer (Double truncates). */
    int64_t
    asInt(int64_t fallback = 0) const
    {
        if (kind == Kind::Int)
            return integer;
        if (kind == Kind::Double)
            return int64_t(real);
        if (kind == Kind::Bool)
            return boolean ? 1 : 0;
        return fallback;
    }
};

/** A decoded flat JSON object. */
using JsonObject = std::map<std::string, JsonValue>;

/**
 * Parse one JSON object holding scalars and arrays of scalars.
 * Returns false with a diagnostic in @p error on malformed input
 * (including nested containers, which the protocol never uses).
 */
bool parseJsonObject(const std::string &text, JsonObject &out,
                     std::string &error);

/** Quote and escape @p s as a JSON string literal (with quotes). */
std::string jsonQuote(const std::string &s);

/**
 * Incremental builder for one flat JSON object on one line. Field
 * order is insertion order; the result never contains a newline, so
 * it frames cleanly in the newline-delimited protocol.
 */
class JsonWriter
{
  public:
    JsonWriter &field(const std::string &key, const std::string &value);
    JsonWriter &field(const std::string &key, const char *value);
    JsonWriter &field(const std::string &key, int64_t value);
    JsonWriter &field(const std::string &key, uint64_t value);
    JsonWriter &field(const std::string &key, bool value);
    JsonWriter &fieldRaw(const std::string &key, const std::string &raw);
    JsonWriter &fieldStrings(const std::string &key,
                             const std::vector<std::string> &values);

    /** The finished object, "{...}" (no trailing newline). */
    std::string str() const;

  private:
    void key(const std::string &k);
    std::string body_;
};

/** Why a deadline-bounded I/O call returned. */
enum class IoStatus
{
    Ok,        ///< line delivered / bytes fully written
    Timeout,   ///< deadline exceeded (reader: idle timeout)
    SlowLoris, ///< reader only: partial request outlived its deadline
    Oversize,  ///< reader only: line exceeded the frame cap
    Closed,    ///< orderly EOF (reader) / EPIPE-class close (writer)
    Cancelled, ///< the cancel callback asked to stop
    Error,     ///< errno-level failure; see message
};

const char *ioStatusName(IoStatus status);

/**
 * Write all @p size bytes with a hard deadline, surviving partial
 * writes and EINTR. @p cancel (optional) is polled between slices.
 */
IoStatus writeAllDeadline(int fd, const void *data, size_t size,
                          uint64_t deadline_ms,
                          const std::function<bool()> &cancel = {});

/**
 * Newline-delimited frame reader over a socket. Buffers carry-over
 * bytes between calls, enforces a frame-size cap, an idle timeout
 * (no pending partial line) and a per-request deadline measured from
 * the first byte of the current line — the slow-loris bound.
 */
class LineReader
{
  public:
    LineReader(int fd, size_t max_line_bytes);

    /**
     * Deliver the next complete line (without the '\n') into
     * @p line. @p idle_ms bounds the wait for a first byte;
     * @p request_ms bounds first byte → full line. @p cancel is
     * polled every slice so a draining server can stop reading.
     */
    IoStatus next(std::string &line, uint64_t idle_ms,
                  uint64_t request_ms,
                  const std::function<bool()> &cancel = {});

    /** Bytes of an incomplete line currently buffered. */
    size_t pendingBytes() const { return buffer_.size(); }

  private:
    int fd_;
    size_t maxLineBytes_;
    std::string buffer_;
    bool sawEof_ = false;
};

} // namespace kcm::service

#endif // KCM_SERVICE_WIRE_HH
