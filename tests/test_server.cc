/**
 * @file
 * The always-on query server, in process: wire codec hardening, warm
 * image-cache behaviour (hit/evict/corrupt), connection lifecycle
 * (bad frames, per-connection in-flight caps), and graceful drain
 * accounting. The network chaos harness (bench/server_chaos) covers
 * the same contract against a real daemon process; these tests pin
 * the pieces down deterministically and run in the tier-1 suite.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "baseline/interp.hh"
#include "core/machine.hh"
#include "core/snapshot.hh"
#include "kcm/kcm.hh"
#include "kcm/stdlib.hh"
#include "service/client.hh"
#include "service/image_cache.hh"
#include "service/server.hh"
#include "service/session.hh"
#include "service/wire.hh"

using namespace kcm;
using service::Client;
using service::ClientReply;
using service::IoStatus;

namespace
{

const char *testProgram =
    "sumto(0, 0).\n"
    "sumto(N, S) :- N > 0, M is N - 1, sumto(M, T), S is T + N.\n";

/** Deterministic multi-megacycle work: a query that stays in flight
 *  (in-flight cap, deadline and remembered-outcome tests). */
const char *slowProgram =
    "sumc(0, 0).\n"
    "sumc(N, S) :- N > 0, !, M is N - 1, sumc(M, T), S is T + N.\n"
    "itc(0, A, A).\n"
    "itc(N, A, S) :- N > 0, !, sumc(200, T), B is A + T, M is N - 1,\n"
    "                itc(M, B, S).\n"
    "loop :- loop.\n";

/** A running server on an ephemeral port plus a connected client. */
struct Harness
{
    std::unique_ptr<service::Server> server;
    Client client;

    explicit Harness(service::ServerOptions options = {})
    {
        options.consultStdlib = false; // fast template compiles
        server = std::make_unique<service::Server>(options);
        server->start();
        if (!client.connect("127.0.0.1", server->port(), 5'000))
            fatal("harness cannot connect: ", client.error());
    }
};

} // namespace

// ------------------------------------------------------------------ //
// Wire codec
// ------------------------------------------------------------------ //

TEST(Wire, ParsesFlatObjectsAndRejectsEverythingElse)
{
    service::JsonObject obj;
    std::string err;

    ASSERT_TRUE(service::parseJsonObject(
        R"({"op": "query", "n": 42, "x": -1.5, "ok": true,)"
        R"( "none": null, "answers": ["a", "b"]})",
        obj, err))
        << err;
    EXPECT_EQ(obj["op"].str, "query");
    EXPECT_EQ(obj["n"].asInt(), 42);
    EXPECT_TRUE(obj["ok"].boolean);
    ASSERT_EQ(obj["answers"].items.size(), 2u);
    EXPECT_EQ(obj["answers"].items[1].str, "b");

    const char *bad[] = {
        "",                                  // empty
        "[1, 2]",                            // not an object
        "{\"a\": 1",                         // truncated
        "{\"a\": {\"nested\": 1}}",          // nested object
        "{\"a\": [[1]]}",                    // nested array
        "{\"a\": 1} trailing",               // trailing bytes
        "{\"a\": \"unterminated",            // unterminated string
        "\x01\x02garbage",                   // binary junk
        "{\"dup\": 1, \"dup\": 1,}",         // trailing comma
    };
    for (const char *text : bad) {
        service::JsonObject out;
        EXPECT_FALSE(service::parseJsonObject(text, out, err))
            << "accepted: " << text;
        EXPECT_FALSE(err.empty());
    }
}

TEST(Wire, QuoteRoundTripsControlCharactersAndUnicodeEscapes)
{
    const std::string nasty = "a\"b\\c\nd\te\x01f";
    service::JsonObject obj;
    std::string err;
    ASSERT_TRUE(service::parseJsonObject(
        "{\"s\": " + service::jsonQuote(nasty) + "}", obj, err))
        << err;
    EXPECT_EQ(obj["s"].str, nasty);

    ASSERT_TRUE(service::parseJsonObject(
        R"({"s": "Aé 😀"})", obj, err))
        << err;
    EXPECT_EQ(obj["s"].str, "A\xc3\xa9 \xf0\x9f\x98\x80");
}

// ------------------------------------------------------------------ //
// Image cache
// ------------------------------------------------------------------ //

TEST(ImageCache, KeyCoversProgramGoalAndConfig)
{
    MachineConfig config;
    uint64_t base = service::imageCacheKey("p.", "g", config);
    EXPECT_NE(base, service::imageCacheKey("p2.", "g", config));
    EXPECT_NE(base, service::imageCacheKey("p.", "g2", config));
    MachineConfig oracle = config;
    oracle.fastDispatch = !config.fastDispatch;
    EXPECT_NE(base, service::imageCacheKey("p.", "g", oracle));
    // Field-boundary separation: moving a byte between program and
    // goal must change the key.
    EXPECT_NE(service::imageCacheKey("ab", "c", config),
              service::imageCacheKey("a", "bc", config));
}

TEST(ImageCache, EvictsLruUnderBudgetAndServesCorruptEntryForRestoreToRefuse)
{
    CodeImage image = [&] {
        KcmSystem host;
        host.consult(testProgram);
        return host.compileOnly("sumto(5, S)");
    }();
    Machine machine;
    machine.load(image);
    Snapshot snap = takeSnapshot(machine);
    const size_t snap_bytes = snap.bytes.size();

    // Budget for exactly two entries: inserting a third evicts the
    // least recently used.
    service::ImageCache cache(2 * snap_bytes + snap_bytes / 2);
    cache.insert(1, snap);
    cache.insert(2, snap);
    ASSERT_TRUE(cache.lookup(1)); // touch: 2 is now LRU
    cache.insert(3, snap);
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_FALSE(cache.lookup(2)) << "LRU entry should have evicted";
    EXPECT_TRUE(cache.lookup(3));
    EXPECT_EQ(cache.stats().evictions, 1u);

    // Corruption: lookup does not verify (restoreSnapshot does, once,
    // before it mutates anything), so the poisoned MRU entry is served
    // as a hit and the restore refuses it. The server then evicts and
    // recompiles; ChaosCorruptionHookForcesRecompileNeverAWrongAnswer
    // pins that path.
    ASSERT_EQ(cache.corruptOneForTesting(), 1u);
    service::ImageCacheStats before = cache.stats();
    std::shared_ptr<const Snapshot> hit = cache.lookup(3);
    ASSERT_TRUE(hit);
    EXPECT_EQ(cache.stats().hits, before.hits + 1);
    EXPECT_EQ(cache.stats().corruptEvictions, before.corruptEvictions);
    Machine target;
    EXPECT_THROW(restoreSnapshot(target, *hit), FatalError);
}

TEST(ImageCache, RememberedOutcomeCountsAgainstTheBudgetAndDiesWithItsEntry)
{
    CodeImage image = [&] {
        KcmSystem host;
        host.consult(testProgram);
        return host.compileOnly("sumto(5, S)");
    }();
    Machine machine;
    machine.load(image);
    const Snapshot snap = takeSnapshot(machine);
    const uint64_t snap_bytes = snap.bytes.size();
    auto outcome = [](size_t answers) {
        auto o = std::make_shared<service::RememberedOutcome>();
        o->completed = true;
        o->answers.assign(answers, std::string(100, 'x'));
        return std::shared_ptr<const service::RememberedOutcome>(o);
    };
    const auto small = outcome(1);
    const auto big = outcome(20);

    // Room for two templates and the small outcome.
    service::ImageCache cache(2 * snap_bytes + small->bytes());
    cache.insert(1, snap);
    cache.insert(2, snap);
    cache.remember(1, small);
    cache.remember(3, small); // no entry: nothing kept
    EXPECT_EQ(cache.stats().bytes, 2 * snap_bytes + small->bytes());
    EXPECT_EQ(cache.stats().evictions, 0u);
    std::shared_ptr<const service::RememberedOutcome> got;
    ASSERT_TRUE(cache.lookup(1, &got)); // 2 is now LRU
    EXPECT_EQ(got, small);

    // A bigger outcome replaces the small one and pushes the cache past
    // its budget: the LRU entry goes.
    cache.remember(1, big);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().bytes, snap_bytes + big->bytes());
    EXPECT_FALSE(cache.lookup(2));

    // Evicting an entry drops its outcome with it.
    cache.insert(2, snap); // 1, holding the big outcome, is LRU
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_EQ(cache.stats().bytes, snap_bytes);
    EXPECT_FALSE(cache.lookup(1));

    // insert() for the same key drops it.
    cache.remember(2, small);
    cache.insert(2, snap);
    ASSERT_TRUE(cache.lookup(2, &got));
    EXPECT_EQ(got, nullptr);
    EXPECT_EQ(cache.stats().bytes, snap_bytes);

    // So does the corruption hook: the next query of the shape must
    // restore the corrupt template for the checksum to refuse it.
    cache.remember(2, small);
    ASSERT_EQ(cache.corruptOneForTesting(), 1u);
    ASSERT_TRUE(cache.lookup(2, &got));
    EXPECT_EQ(got, nullptr);
    EXPECT_EQ(cache.stats().bytes, snap_bytes);

    // And evict() after a refused restore.
    cache.remember(2, small);
    EXPECT_TRUE(cache.evict(2));
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
}

// ------------------------------------------------------------------ //
// Session: the corrupt-template restore path
// ------------------------------------------------------------------ //

TEST(Session, CorruptWarmTemplateFailsClassifiedNotFatal)
{
    CodeImage image = [&] {
        KcmSystem host;
        host.consult(testProgram);
        return host.compileOnly("sumto(5, S)");
    }();
    service::SessionOptions options;
    Machine machine(options.machine);
    machine.load(image);
    Snapshot snap = takeSnapshot(machine);
    snap.bytes[snap.bytes.size() / 2] ^= 0x40;

    service::Session session(
        std::make_shared<const Snapshot>(std::move(snap)), options);
    service::QueryOutcome out = session.run();
    EXPECT_EQ(out.status, service::QueryStatus::Failed);
    EXPECT_EQ(out.failure.classification, "corrupt_image_template");
}

// ------------------------------------------------------------------ //
// Server: protocol, cache, lifecycle, drain
// ------------------------------------------------------------------ //

TEST(Server, WarmCacheHitMatchesColdMissBitIdentically)
{
    const char *goal = "sumto(50, S)";
    Harness cold_server;
    ClientReply cold = cold_server.client.query("q0", testProgram, goal, 1);
    ASSERT_EQ(cold.io, IoStatus::Ok) << cold.raw;
    ASSERT_EQ(cold.status(), "completed") << cold.raw;
    EXPECT_EQ(cold.str("cache"), "miss");

    // Take the template first, so that the hit restores it and runs:
    // no earlier run has left an outcome with it to replay.
    service::ServerOptions options;
    Harness h(options);
    std::string error;
    ASSERT_NE(h.server->compileTemplate(
                  service::imageCacheKey(testProgram, goal,
                                         options.session.machine),
                  testProgram, goal, error),
              nullptr)
        << error;
    ClientReply warm = h.client.query("q1", testProgram, goal, 1);
    ASSERT_EQ(warm.status(), "completed") << warm.raw;
    EXPECT_EQ(warm.str("cache"), "hit");
    ASSERT_EQ(warm.fields["answers"].items.size(), 1u);
    EXPECT_EQ(warm.fields["answers"].items[0].str,
              cold.fields["answers"].items[0].str);
    EXPECT_EQ(warm.num("cycles"), cold.num("cycles"))
        << "template restore must be invisible to simulated time";

    EXPECT_EQ(h.server->cacheStats().hits, 1u);
    EXPECT_EQ(h.server->cacheStats().misses, 0u);
    EXPECT_EQ(h.server->poolStats().completed, 1u);
    EXPECT_EQ(h.server->counters().outcomesReplayed, 0u);
}

TEST(Server, MalformedFramesGetBadRequestAndTheConnectionSurvives)
{
    Harness h;
    const char *frames[] = {
        "\x02\xff not json at all",
        "{\"op\": \"query\"",           // truncated
        "{\"op\": \"query\"}",          // missing program/goal
        "{\"op\": \"no_such_op\"}",
        "{\"op\": \"corrupt_cache\"}",  // chaos hook not enabled
        "{\"op\": \"query\", \"program\": \"p.\", \"goal\": \"g\","
        " \"max_solutions\": \"ten\"}", // wrong field type
    };
    for (const char *frame : frames) {
        ASSERT_EQ(h.client.sendLine(frame), IoStatus::Ok);
        ClientReply reply = h.client.readReply(10'000);
        ASSERT_EQ(reply.io, IoStatus::Ok) << frame;
        EXPECT_EQ(reply.status(), "bad_request") << reply.raw;
    }
    // The connection is still serviceable for a real query.
    ClientReply good =
        h.client.query("q", testProgram, "sumto(7, S)", 1);
    EXPECT_EQ(good.status(), "completed") << good.raw;
    EXPECT_EQ(h.server->counters().badRequests, 6u);
}

TEST(Server, CompileErrorsAreBadRequestsNotCrashes)
{
    Harness h;
    ClientReply reply = h.client.query(
        "q", ":- this is not ) valid prolog", "sumto(1, S)", 1);
    ASSERT_EQ(reply.io, IoStatus::Ok);
    EXPECT_EQ(reply.status(), "bad_request") << reply.raw;
    EXPECT_NE(reply.str("error").find("compile_error"),
              std::string::npos)
        << reply.raw;
    // And the server still answers afterwards.
    ClientReply good =
        h.client.query("q2", testProgram, "sumto(3, S)", 1);
    EXPECT_EQ(good.status(), "completed") << good.raw;
}

TEST(Server, PerConnectionInflightCapShedsWithRetryAfter)
{
    service::ServerOptions options;
    options.maxInflightPerConn = 1;
    options.workers = 1;
    Harness h(options);

    // First query occupies the one in-flight slot; firing a second
    // down the same connection before reading the first reply must
    // get the structured overload answer, with a retry hint. The first
    // runs for megacycles so that it is still in flight when the
    // server reads the second line, however fast its restore is.
    service::JsonWriter w;
    w.field("op", "query")
        .field("id", "a")
        .field("program", slowProgram)
        .field("goal", "itc(500, 0, S)")
        .field("max_solutions", uint64_t(1));
    ASSERT_EQ(h.client.sendLine(w.str()), IoStatus::Ok);
    service::JsonWriter w2;
    w2.field("op", "query")
        .field("id", "b")
        .field("program", testProgram)
        .field("goal", "sumto(3, S)")
        .field("max_solutions", uint64_t(1));
    ASSERT_EQ(h.client.sendLine(w2.str()), IoStatus::Ok);

    bool saw_overloaded = false, saw_completed = false;
    for (int i = 0; i < 2; ++i) {
        ClientReply reply = h.client.readReply(30'000);
        ASSERT_EQ(reply.io, IoStatus::Ok);
        if (reply.status() == "overloaded") {
            saw_overloaded = true;
            EXPECT_EQ(reply.str("id"), "b");
            EXPECT_GT(reply.num("retry_after_ms"), 0);
        } else {
            saw_completed = true;
            EXPECT_EQ(reply.status(), "completed") << reply.raw;
            EXPECT_EQ(reply.str("id"), "a");
        }
    }
    EXPECT_TRUE(saw_overloaded);
    EXPECT_TRUE(saw_completed);
    EXPECT_GE(h.server->counters().overloaded, 1u);
}

TEST(Server, ConnectionLimitRefusesWithRetryAfter)
{
    // Past maxConnections a new connection gets one "overloaded" line
    // with a retry hint and is closed; stats count the refusal, and
    // the admitted connection keeps its service.
    service::ServerOptions options;
    options.maxConnections = 1;
    Harness h(options);
    ASSERT_EQ(h.client.ping().status(), "pong"); // holds the one slot

    Client extra;
    ASSERT_TRUE(extra.connect("127.0.0.1", h.server->port(), 5'000));
    ClientReply refused = extra.readReply(10'000);
    ASSERT_EQ(refused.io, IoStatus::Ok);
    EXPECT_EQ(refused.status(), "overloaded") << refused.raw;
    EXPECT_EQ(refused.str("error"), "connection limit reached");
    EXPECT_GT(refused.num("retry_after_ms"), 0);

    ClientReply s = h.client.stats();
    ASSERT_EQ(s.status(), "ok") << s.raw;
    EXPECT_EQ(s.num("connections"), 1);
    EXPECT_EQ(s.num("connections_refused"), 1);
    EXPECT_EQ(h.server->counters().connectionsRefused, 1u);
}

TEST(Server, ChaosCorruptionHookForcesRecompileNeverAWrongAnswer)
{
    service::ServerOptions options;
    options.chaosHooks = true;
    Harness h(options);

    ClientReply first =
        h.client.query("q0", testProgram, "sumto(30, S)", 1);
    ASSERT_EQ(first.status(), "completed") << first.raw;
    const std::string want = first.fields["answers"].items[0].str;

    ASSERT_EQ(h.client.sendLine("{\"op\": \"corrupt_cache\"}"),
              IoStatus::Ok);
    ClientReply ack = h.client.readReply(10'000);
    ASSERT_EQ(ack.status(), "ok") << ack.raw;
    ASSERT_EQ(ack.num("corrupted"), 1);

    ClientReply after =
        h.client.query("q1", testProgram, "sumto(30, S)", 1);
    ASSERT_EQ(after.status(), "completed") << after.raw;
    EXPECT_EQ(after.str("cache"), "miss")
        << "corrupt entry must not be served as a hit";
    EXPECT_EQ(after.fields["answers"].items[0].str, want);
    // The one recovery path: the restore refuses the template, the
    // server evicts it, recompiles and resubmits the query once.
    EXPECT_EQ(h.server->cacheStats().corruptEvictions, 1u);
    EXPECT_EQ(h.server->counters().corruptRetries, 1u);
}

TEST(Server, DrainFinishesAcceptedQueriesAndRefusesNewOnes)
{
    service::ServerOptions options;
    options.workers = 2;
    Harness h(options);

    // Accept a query, then start draining while it is in flight.
    service::JsonWriter w;
    w.field("op", "query")
        .field("id", "inflight")
        .field("program", testProgram)
        .field("goal", "sumto(4000, S)")
        .field("max_solutions", uint64_t(1));
    ASSERT_EQ(h.client.sendLine(w.str()), IoStatus::Ok);

    // Drain only applies to *accepted* queries; wait until the server
    // has admitted this one so the invariant is actually exercised.
    for (int spin = 0; spin < 1000; ++spin) {
        if (h.server->counters().queriesAccepted >= 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(h.server->counters().queriesAccepted, 1u);

    h.server->requestDrain();

    // The accepted query's reply must still arrive, then the
    // connection closes (reads stop during drain).
    ClientReply reply = h.client.readReply(30'000);
    ASSERT_EQ(reply.io, IoStatus::Ok);
    EXPECT_EQ(reply.status(), "completed") << reply.raw;
    EXPECT_EQ(reply.str("id"), "inflight");

    h.server->waitDrained();
    service::ServerCounters c = h.server->counters();
    EXPECT_EQ(c.queriesAccepted, c.queriesReplied)
        << "drain lost an accepted query";
    EXPECT_EQ(c.queriesAccepted, 1u);

    // New connections are refused once draining.
    Client late;
    EXPECT_FALSE(late.connect("127.0.0.1", h.server->port(), 1'000));
}

TEST(Server, StatsOpReportsCountersOverTheWire)
{
    Harness h;
    ClientReply q = h.client.query("q", testProgram, "sumto(9, S)", 1);
    ASSERT_EQ(q.status(), "completed");
    ClientReply s = h.client.stats();
    ASSERT_EQ(s.status(), "ok") << s.raw;
    EXPECT_EQ(s.num("queries_accepted"), 1);
    EXPECT_EQ(s.num("queries_replied"), 1);
    EXPECT_EQ(s.num("cache_misses"), 1);
    EXPECT_GE(s.num("requests"), 2);
    ClientReply p = h.client.ping();
    EXPECT_EQ(p.status(), "pong");
}

// ------------------------------------------------------------------ //
// Self-defense: frame bounds, jitter, deadlines, memory, replays
// ------------------------------------------------------------------ //

namespace
{

/** The wall clock "deadline_abs_ms" is expressed in (ms since the
 *  system_clock epoch), mirroring the server's conversion point. */
uint64_t
wallNowMs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count());
}

/** Heap-hungry work for the memory-governance tests. */
const char *hungryProgram =
    "mklist(0, []).\n"
    "mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).\n";

} // namespace

TEST(Server, OversizeFramesAreClassifiedFrameTooLarge)
{
    // The per-connection buffered-byte bound: a frame past
    // maxLineBytes must be answered with a structured
    // "frame_too_large" — the reader never buffers unboundedly.
    service::ServerOptions options;
    options.maxLineBytes = 1024;
    Harness h(options);

    std::string huge(4096, 'x');
    ASSERT_EQ(h.client.sendLine(huge), IoStatus::Ok);
    ClientReply reply = h.client.readReply(10'000);
    ASSERT_EQ(reply.io, IoStatus::Ok);
    EXPECT_EQ(reply.status(), "bad_request") << reply.raw;
    EXPECT_EQ(reply.str("error"), "frame_too_large") << reply.raw;
    EXPECT_EQ(h.server->counters().frameTooLarge, 1u);
    EXPECT_EQ(h.server->counters().badRequests, 1u);

    // A fresh connection is fully serviceable afterwards.
    Client again;
    ASSERT_TRUE(again.connect("127.0.0.1", h.server->port(), 5'000));
    ClientReply good = again.query("q", testProgram, "sumto(5, S)", 1);
    EXPECT_EQ(good.status(), "completed") << good.raw;
}

TEST(Server, RetryAfterJitterIsDeterministicUnderTheSeed)
{
    // Every retry_after_ms hint carries +0..50% jitter from a seeded
    // generator: two servers with the same seed must emit the same
    // first hint, and the hint must stay inside [base, 1.5*base].
    //
    // The hint's base scales with queue depth, so the overload has to
    // happen against a deterministic queue: query "a" runs "loop"
    // under a 500 ms propagated deadline — dequeued and still running
    // when "b" arrives 200 ms later, leaving the queue itself empty.
    // The deadline is terminal (one attempt), so "a" then fails
    // deadline_exceeded.
    auto overload_hint = [](Client &client) {
        service::JsonWriter slow;
        slow.field("op", "query")
            .field("id", "a")
            .field("program", slowProgram)
            .field("goal", "loop")
            .field("max_solutions", uint64_t(1))
            .field("deadline_abs_ms", wallNowMs() + 500);
        EXPECT_EQ(client.sendLine(slow.str()), IoStatus::Ok);
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        service::JsonWriter quick;
        quick.field("op", "query")
            .field("id", "b")
            .field("program", testProgram)
            .field("goal", "sumto(3, S)")
            .field("max_solutions", uint64_t(1));
        EXPECT_EQ(client.sendLine(quick.str()), IoStatus::Ok);
        int64_t hint = -1;
        for (int i = 0; i < 2; ++i) {
            ClientReply reply = client.readReply(30'000);
            EXPECT_EQ(reply.io, IoStatus::Ok);
            if (reply.status() == "overloaded")
                hint = reply.num("retry_after_ms");
        }
        return hint;
    };

    service::ServerOptions options;
    options.maxInflightPerConn = 1;
    options.workers = 1;
    options.retryJitterSeed = 0xfeedfacecafebeefull;
    Harness first(options);
    Harness second(options);
    int64_t a = overload_hint(first.client);
    int64_t b = overload_hint(second.client);

    // Empty queue: base hint 25ms, jitter adds at most 12ms.
    ASSERT_GE(a, 25);
    ASSERT_LE(a, 37);
    EXPECT_EQ(a, b)
        << "same seed, same draw sequence, same hint";
}

TEST(Server, AbsoluteDeadlinePropagatesOverTheWire)
{
    Harness h;

    // Already expired at arrival: shed before execution, zero cycles.
    service::JsonWriter expired;
    expired.field("op", "query")
        .field("id", "late")
        .field("program", slowProgram)
        .field("goal", "itc(2000, 0, S)")
        .field("max_solutions", uint64_t(1))
        .field("deadline_abs_ms", wallNowMs() - 10'000);
    ASSERT_EQ(h.client.sendLine(expired.str()), IoStatus::Ok);
    ClientReply shed = h.client.readReply(30'000);
    ASSERT_EQ(shed.io, IoStatus::Ok);
    EXPECT_EQ(shed.status(), "failed") << shed.raw;
    EXPECT_EQ(shed.str("error"), "deadline_exceeded") << shed.raw;
    EXPECT_EQ(shed.num("cycles"), 0) << shed.raw;

    // Tight but live: the session must stop itself mid-run and
    // report the simulated cycles it burned.
    service::JsonWriter tight;
    tight.field("op", "query")
        .field("id", "tight")
        .field("program", slowProgram)
        .field("goal", "loop")
        .field("max_solutions", uint64_t(1))
        // Generous enough that the deadline cannot expire in transit
        // on a loaded host — the goal never terminates, so only the
        // propagated deadline can produce this reply.
        .field("deadline_abs_ms", wallNowMs() + 400);
    ASSERT_EQ(h.client.sendLine(tight.str()), IoStatus::Ok);
    ClientReply cut = h.client.readReply(30'000);
    ASSERT_EQ(cut.io, IoStatus::Ok);
    EXPECT_EQ(cut.status(), "failed") << cut.raw;
    EXPECT_EQ(cut.str("error"), "deadline_exceeded") << cut.raw;
    EXPECT_GT(cut.num("cycles"), 0) << cut.raw;
    EXPECT_EQ(cut.num("attempts"), 1) << "an absolute deadline is terminal";

    ClientReply s = h.client.stats();
    ASSERT_EQ(s.status(), "ok");
    EXPECT_GE(s.num("deadline_propagated_sheds"), 1);
}

TEST(Server, MemoryBudgetOverTheWireIsClassifiedAndCatchable)
{
    Harness h;

    service::JsonWriter hog;
    hog.field("op", "query")
        .field("id", "hog")
        .field("program", hungryProgram)
        .field("goal", "mklist(200000, L)")
        .field("max_solutions", uint64_t(1))
        .field("memory_budget_bytes", uint64_t(1) << 20);
    ASSERT_EQ(h.client.sendLine(hog.str()), IoStatus::Ok);
    ClientReply blown = h.client.readReply(60'000);
    ASSERT_EQ(blown.io, IoStatus::Ok);
    EXPECT_EQ(blown.status(), "failed") << blown.raw;
    EXPECT_EQ(blown.str("error"), "resource_error(memory)")
        << blown.raw;

    // The same ceiling is an ordinary catchable ball: a guarded
    // variant of the same work completes.
    service::JsonWriter guarded;
    guarded.field("op", "query")
        .field("id", "guarded")
        .field("program", hungryProgram)
        .field("goal", "catch(mklist(200000, _), resource_error(E), true)")
        .field("max_solutions", uint64_t(1))
        .field("memory_budget_bytes", uint64_t(1) << 20);
    ASSERT_EQ(h.client.sendLine(guarded.str()), IoStatus::Ok);
    ClientReply caught = h.client.readReply(60'000);
    ASSERT_EQ(caught.io, IoStatus::Ok);
    ASSERT_EQ(caught.status(), "completed") << caught.raw;
    ASSERT_EQ(caught.fields["answers"].items.size(), 1u);
    EXPECT_NE(caught.fields["answers"].items[0].str.find("E = memory"),
              std::string::npos)
        << caught.raw;

    ClientReply s = h.client.stats();
    ASSERT_EQ(s.status(), "ok");
    EXPECT_GE(s.num("mem_aborts"), 1);
}

TEST(Server, DeterministicFailureIsRememberedWithItsTemplate)
{
    // A trap or resource error is a function of the query shape: the
    // machine is deterministic. A shape that fails so runs once; a
    // later query of the same shape and solution cap gets the same
    // reply from the outcome kept with the template, without running.
    const char *goal = "mklist(200000, L)";
    auto hog = [&](Client &client, const std::string &id,
                   uint64_t max_solutions) {
        service::JsonWriter w;
        w.field("op", "query")
            .field("id", id)
            .field("program", hungryProgram)
            .field("goal", goal)
            .field("max_solutions", max_solutions)
            .field("memory_budget_bytes", uint64_t(1) << 20);
        EXPECT_EQ(client.sendLine(w.str()), IoStatus::Ok);
        ClientReply r = client.readReply(60'000);
        EXPECT_EQ(r.status(), "failed") << r.raw;
        EXPECT_EQ(r.str("error"), "resource_error(memory)") << r.raw;
        return r;
    };
    auto afterId = [](const ClientReply &r) {
        return r.raw.substr(r.raw.find("\"status\""));
    };

    service::ServerOptions options;
    {
        Harness h(options);
        // Take the template first, so that the run is a cache hit like
        // its replays and all three replies must match byte for byte.
        MachineConfig budgeted = options.session.machine;
        budgeted.governor.memoryBudgetBytes = uint64_t(1) << 20;
        std::string error;
        ASSERT_NE(h.server->compileTemplate(
                      service::imageCacheKey(hungryProgram, goal, budgeted),
                      hungryProgram, goal, error),
                  nullptr)
            << error;
        ClientReply run = hog(h.client, "h0", 1);
        ClientReply again = hog(h.client, "h1", 1);
        ClientReply third = hog(h.client, "h2", 1);
        EXPECT_EQ(run.str("cache"), "hit") << run.raw;
        EXPECT_EQ(afterId(again), afterId(run));
        EXPECT_EQ(afterId(third), afterId(run));
        EXPECT_EQ(again.fields.count("retry_after_ms"), 0u)
            << "a remembered failure is final";
        ClientReply s = h.client.stats();
        EXPECT_EQ(s.num("queries_accepted"), 1) << s.raw;
        EXPECT_EQ(s.num("queries_replied"), 1) << s.raw;
        EXPECT_EQ(s.num("outcomes_replayed"), 2) << s.raw;
        EXPECT_EQ(s.num("cache_hits"), 3) << s.raw;

        // Another solution cap is another question: it runs.
        hog(h.client, "all", 0);
        EXPECT_EQ(h.server->counters().queriesAccepted, 2u);

        // A deadline failure is never remembered: after six of them the
        // same shape without a deadline runs and completes.
        for (int i = 0; i < 6; ++i) {
            ClientReply r = h.client.query(cat("d", i), slowProgram,
                                           "itc(500, 0, S)", 1,
                                           /*deadline_ms=*/1);
            ASSERT_EQ(r.str("error"), "deadline_exceeded") << r.raw;
        }
        ClientReply done =
            h.client.query("done", slowProgram, "itc(500, 0, S)", 1);
        ASSERT_EQ(done.status(), "completed") << done.raw;
        EXPECT_EQ(done.fields["answers"].items[0].str, "S = 10050000");
        EXPECT_EQ(h.server->counters().queriesAccepted, 9u);
        EXPECT_EQ(h.server->counters().outcomesReplayed, 2u);

        // Nor is an interrupted run or a deadline shed at admission
        // (each under a cap of its own, as cap 1 now has a completed
        // run to replay): the same query, unhindered, runs.
        service::requestServiceInterrupt();
        ClientReply cut =
            h.client.query("i0", slowProgram, "itc(500, 0, S)", 2);
        service::clearServiceInterrupt();
        ASSERT_EQ(cut.str("error"), "interrupted") << cut.raw;
        service::JsonWriter late;
        late.field("op", "query")
            .field("id", "s0")
            .field("program", slowProgram)
            .field("goal", "itc(500, 0, S)")
            .field("max_solutions", uint64_t(3))
            .field("deadline_abs_ms", wallNowMs() - 10'000);
        ASSERT_EQ(h.client.sendLine(late.str()), IoStatus::Ok);
        ClientReply shed = h.client.readReply(30'000);
        ASSERT_EQ(shed.str("error"), "deadline_exceeded") << shed.raw;
        ASSERT_EQ(shed.num("cycles"), 0) << shed.raw;
        for (uint64_t cap : {2, 3}) {
            ClientReply r = h.client.query(cat("u", cap), slowProgram,
                                           "itc(500, 0, S)", cap);
            ASSERT_EQ(r.status(), "completed") << r.raw;
        }
        EXPECT_EQ(h.server->counters().queriesAccepted, 13u);
        EXPECT_EQ(h.server->counters().outcomesReplayed, 2u);
    }

    // The outcome lives and dies with its cache entry. A budget with
    // room for one template: another shape evicts the hog's entry, so
    // the hog runs again. A zero budget keeps nothing.
    for (uint64_t budget : {uint64_t(1), uint64_t(0)}) {
        options.cacheBudgetBytes = budget;
        Harness h(options);
        hog(h.client, "e0", 1);
        if (budget) {
            ClientReply other =
                h.client.query("other", testProgram, "sumto(5, S)", 1);
            ASSERT_EQ(other.status(), "completed") << other.raw;
        }
        hog(h.client, "e1", 1);
        EXPECT_EQ(h.server->counters().outcomesReplayed, 0u) << budget;
    }

    // A durable store's outcomes depend on its contents: never replay,
    // a failure or a completed run.
    std::string dir = "/tmp/kcm_replay_test_XXXXXX";
    ASSERT_NE(mkdtemp(dir.data()), nullptr);
    options.cacheBudgetBytes = 256ull << 20;
    options.dbJournalDir = dir + "/journal";
    {
        Harness h(options);
        for (int i = 0; i < 3; ++i)
            hog(h.client, cat("j", i), 1);
        for (int i = 0; i < 3; ++i) {
            ClientReply r =
                h.client.query(cat("c", i), testProgram, "sumto(5, S)", 1);
            ASSERT_EQ(r.status(), "completed") << r.raw;
            EXPECT_EQ(r.fields["answers"].items[0].str, "S = 15");
        }
        EXPECT_EQ(h.server->counters().queriesAccepted, 6u);
        EXPECT_EQ(h.server->counters().outcomesReplayed, 0u);
    }
    std::filesystem::remove_all(dir);
}

namespace
{

/** A reply's fields after "id" and before "cache", as sent: all of a
 *  completed or failed reply but its "id", "cache" and "wall_ms". */
std::string
runFields(const ClientReply &r)
{
    const size_t from = r.raw.find("\"status\"");
    return r.raw.substr(from, r.raw.rfind("\"cache\"") - from);
}

} // namespace

TEST(Server, RememberedOutcomeReplaysTheRunByteForByte)
{
    // A run is a function of the query shape and its solution cap: the
    // machine is deterministic. The first query of each shape runs;
    // the next two are answered from the outcome kept with its
    // template, equal to the run's reply but for "id", "cache" and
    // "wall_ms", without reaching the pool.
    const char *program = "s(a). s(b). s(c).\n"
                          "r(X, f(X, _)).\n"
                          "q(X, X).\n"
                          "t :- throw(oops).\n";
    struct Shape
    {
        const char *goal;
        uint64_t maxSolutions;
        const char *status;
        size_t answers;
        const char *output;
        const char *error;
        bool halted;
    };
    const Shape shapes[] = {
        {"s(X), write(X)", 0, "completed", 3, "abc", "", false},
        // The same goal under another cap is another question: it runs.
        {"s(X), write(X)", 2, "completed", 2, "ab", "", false},
        {"r(a, Y)", 1, "completed", 1, "", "", false},
        {"q(A, f(B)), write(B)", 1, "completed", 1, "_0", "", false},
        {"t", 1, "completed", 0, "", "unhandled_exception(oops)", false},
        {"s(d)", 1, "completed", 0, "", "", false},
        {"write(bye), halt", 1, "completed", 0, "bye", "", true},
    };

    std::vector<ClientReply> runs;
    {
        Harness h;
        for (const Shape &shape : shapes) {
            SCOPED_TRACE(shape.goal);
            const service::ServerCounters before = h.server->counters();
            std::vector<ClientReply> replies;
            for (int i = 0; i < 3; ++i)
                replies.push_back(h.client.query(cat("q", i), program,
                                                 shape.goal,
                                                 shape.maxSolutions));
            const ClientReply &run = replies[0];
            ASSERT_EQ(run.status(), shape.status) << run.raw;
            EXPECT_EQ(run.fields.at("answers").items.size(), shape.answers)
                << run.raw;
            EXPECT_EQ(run.str("output"), shape.output) << run.raw;
            EXPECT_EQ(run.str("error"), shape.error) << run.raw;
            EXPECT_EQ(run.fields.at("halted").boolean, shape.halted)
                << run.raw;
            for (int i = 1; i < 3; ++i) {
                EXPECT_EQ(runFields(replies[i]), runFields(run));
                EXPECT_EQ(replies[i].str("id"), cat("q", i));
                EXPECT_EQ(replies[i].str("cache"), "hit");
                EXPECT_EQ(replies[i].num("wall_ms", -1), 0);
            }
            const service::ServerCounters after = h.server->counters();
            EXPECT_EQ(after.queriesAccepted - before.queriesAccepted, 1u);
            EXPECT_EQ(after.outcomesReplayed - before.outcomesReplayed, 2u);
            runs.push_back(run);
        }
        EXPECT_EQ(h.server->counters().queriesReplied,
                  h.server->counters().queriesAccepted);
    }

    // With no cache, every query runs, and gives the remembered run's
    // reply byte for byte, whatever the process ran before it.
    service::ServerOptions uncached;
    uncached.cacheBudgetBytes = 0;
    Harness h(uncached);
    const char *unrelated[] = {"r(b, Y), r(Y, Z)", "q(f(A, B), C)",
                               "r(X, Y), write(Y)"};
    for (const char *goal : unrelated) {
        ClientReply r = h.client.query("u", program, goal, 2);
        ASSERT_EQ(r.status(), "completed") << r.raw;
    }
    for (size_t k = 0; k < std::size(shapes); ++k) {
        SCOPED_TRACE(shapes[k].goal);
        for (int i = 0; i < 3; ++i) {
            ClientReply r = h.client.query(cat("z", i), program,
                                           shapes[k].goal,
                                           shapes[k].maxSolutions);
            ASSERT_EQ(r.status(), shapes[k].status) << r.raw;
            EXPECT_EQ(runFields(r), runFields(runs[k]));
        }
    }
    EXPECT_EQ(h.server->counters().queriesAccepted,
              std::size(unrelated) + 3 * std::size(shapes));
    EXPECT_EQ(h.server->counters().outcomesReplayed, 0u);
}

TEST(Server, DbFactsTemplateEqualsAPreloadFactsCompile)
{
    // The server renders --db-facts once and consults that text on
    // every miss: its templates must equal, byte for byte, those of a
    // compile that preloads the file itself.
    const std::string facts = "edge(a, b).\n"
                              "edge(b, 'C d').\n"
                              "w(1, f(x, [y])).\n"
                              "flag.\n";
    const char *program = "path(X, Y) :- edge(X, Y).\n"
                          "path(X, Z) :- edge(X, Y), path(Y, Z).\n";
    service::ServerOptions options;
    options.dbFactsSource = facts;
    options.dbFactsOrigin = "facts.pl";
    service::Server server(options);
    for (const char *goal : {"path(a, Z)", "w(N, T)", "flag"}) {
        std::string error;
        auto tmpl = server.compileTemplate(
            service::imageCacheKey(program, goal, options.session.machine),
            program, goal, error);
        ASSERT_NE(tmpl, nullptr) << error;

        KcmSystem system;
        system.consultStandardLibrary();
        system.consult(program);
        system.preloadFacts(facts, "facts.pl");
        Machine machine(options.session.machine);
        machine.load(system.compileOnly(goal));
        EXPECT_EQ(tmpl->bytes, takeSnapshot(machine).bytes) << goal;
    }

    // The constructor validates the file: a rule in it is fatal, and
    // the diagnostic names the file. In durable mode the refusal comes
    // before the journal is opened, so nothing is created on disk.
    std::string scratch = "/tmp/kcm_db_facts_test_XXXXXX";
    ASSERT_NE(mkdtemp(scratch.data()), nullptr);
    const std::string journal = scratch + "/journal";
    options.dbFactsSource = "edge(a, b).\nrule :- edge(a, b).\n";
    for (bool durable : {false, true}) {
        options.dbJournalDir = durable ? journal : "";
        try {
            service::Server refused(options);
            ADD_FAILURE() << "a malformed fact file was accepted, durable "
                          << durable;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("facts.pl: clause 2"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_FALSE(std::filesystem::exists(journal)) << durable;
    }
    std::filesystem::remove_all(scratch);
}

TEST(Server, DurableDbFactsKeepAnonymousVariablesDistinct)
{
    // A durable daemon seeds its store from --db-facts: the two `_` of
    // the fact stay two variables there.
    std::string dir = "/tmp/kcm_anon_facts_test_XXXXXX";
    ASSERT_NE(mkdtemp(dir.data()), nullptr);
    service::ServerOptions options;
    options.dbFactsSource = "p(_, _).\n";
    options.dbFactsOrigin = "facts.pl";
    options.dbJournalDir = dir + "/journal";
    {
        Harness h(options);
        ClientReply ground = h.client.query("q0", testProgram, "p(a, b)", 1);
        ASSERT_EQ(ground.status(), "completed") << ground.raw;
        ASSERT_EQ(ground.fields["answers"].items.size(), 1u) << ground.raw;
        EXPECT_EQ(ground.fields["answers"].items[0].str, "true");
        ClientReply open = h.client.query("q1", testProgram, "p(X, Y)", 1);
        ASSERT_EQ(open.status(), "completed") << open.raw;
        ASSERT_EQ(open.fields["answers"].items.size(), 1u) << open.raw;
        EXPECT_EQ(open.fields["answers"].items[0].str, "X = _0, Y = _1");
    }
    std::filesystem::remove_all(dir);
}

TEST(Server, ConcurrentColdMissesShareLibraryAndPool)
{
    // Four connections miss the cache at once, each with 25 programs of
    // its own that use `;`, `->` and the standard library: the shared
    // library parse, the library unit's one-time build (when this test
    // is the first in its process to consult the library, as under
    // --gtest_filter) and every link of it, the compile-miss borrow and
    // return, and the per-unit auxiliary numbering all run on
    // concurrent threads.
    // Every answer must match the baseline interpreter, every cycle
    // count an in-process compile, and the idle stack must stay within
    // the worker count.
    service::ServerOptions options; // the standard library consulted
    options.workers = 4;
    service::Server server(options);
    server.start();

    constexpr int connections = 4;
    constexpr int programs = 25;
    constexpr size_t maxSolutions = 3;
    auto programFor = [](int c, int i) {
        return cat("cls(X, C) :- (X > ", 10 * c + i,
                   " -> C = big ; X < 0 -> C = neg ; C = small).\n",
                   "pick(L, X) :- member(X, L), \\+ X = ", i % 5, ".\n",
                   "go(N, C, Y, K) :- cls(N, C), pick([0,1,2,3,4], Y),\n",
                   "    (Y > 2 ; Y =:= 1), append([a], [Y], L),\n",
                   "    length(L, K).\n",
                   "tag(", c, ", ", i, ").\n");
    };
    auto goalFor = [](int c, int i) {
        return cat("go(", 4 * i - 30 + c, ", C, Y, K)");
    };

    std::vector<std::vector<ClientReply>> replies(connections);
    std::vector<std::thread> clients;
    for (int c = 0; c < connections; ++c) {
        clients.emplace_back([&, c] {
            Client client;
            if (!client.connect("127.0.0.1", server.port(), 5'000))
                return;
            for (int i = 0; i < programs; ++i)
                replies[c].push_back(client.query(
                    cat("c", c, "-", i), programFor(c, i), goalFor(c, i),
                    maxSolutions));
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (int c = 0; c < connections; ++c) {
        ASSERT_EQ(replies[c].size(), size_t(programs)) << "connection " << c;
        for (int i = 0; i < programs; ++i) {
            ClientReply &r = replies[c][i];
            const std::string program = programFor(c, i);
            const std::string goal = goalFor(c, i);
            ASSERT_EQ(r.status(), "completed") << r.raw;
            EXPECT_EQ(r.str("cache"), "miss") << r.raw;

            baseline::Interpreter interp;
            interp.consult(standardLibrarySource());
            interp.consult(program);
            baseline::InterpResult want = interp.query(goal, maxSolutions);
            std::vector<service::JsonValue> &answers =
                r.fields["answers"].items;
            ASSERT_EQ(answers.size(), want.solutions.size()) << r.raw;
            for (size_t k = 0; k < answers.size(); ++k)
                EXPECT_EQ(answers[k].str, want.solutions[k].toString())
                    << goal;

            KcmOptions in_process;
            in_process.maxSolutions = maxSolutions;
            KcmSystem system(in_process);
            system.consultStandardLibrary();
            system.consult(program);
            EXPECT_EQ(uint64_t(r.num("cycles")), system.query(goal).cycles)
                << goal;
        }
    }
    EXPECT_EQ(server.counters().compiles, uint64_t(connections * programs));
    EXPECT_LE(server.idleMachines(), size_t(options.workers));
}
