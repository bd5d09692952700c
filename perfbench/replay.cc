/**
 * @file
 * The traced run of the serve_* workloads: a sample of the workload's
 * generated requests replayed in-process through the public calls the
 * server makes, in the server's order —
 *
 *   parseJsonObject, imageCacheKey, ImageCache::lookup;
 *   on a miss KcmSystem::compileOnly, Machine::load, takeSnapshot,
 *   ImageCache::insert;
 *   validateSnapshot, Session::run; JsonWriter.
 *
 * Session::run bundles several layers, so after it the same template
 * is run again as sibling probes on an identical machine (and, for the
 * durable workload, an identical journaled store): restoreSnapshot,
 * takeSnapshot (checkpoint zero), Machine::run, JournaledStore::commit.
 * Session::run minus the probes is the session's self time.
 *
 * A second replayer runs the same requests without spans or probes,
 * interleaved request by request; the difference is the tracing
 * overhead.
 */

#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>

#include <unistd.h>

#include "base/logging.hh"
#include "core/machine.hh"
#include "core/snapshot.hh"
#include "db/journal.hh"
#include "kcm/kcm.hh"
#include "service/image_cache.hh"
#include "service/session.hh"
#include "service/wire.hh"
#include "workload.hh"

namespace perfbench
{
namespace
{

using namespace kcm;
using namespace kcm::service;

/** Requests replayed per workload (stream 0's first requests). */
size_t
sampleSize(ServeWorkload::Kind kind)
{
    return kind == ServeWorkload::Kind::Cold ? 24 : 48;
}

/** A journaled store seeded like kcm_serverd --db-facts on first boot. */
std::shared_ptr<db::JournaledStore>
seededStore(const std::string &dir, const std::vector<TermRef> &facts,
            const MachineConfig &config)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(
        std::filesystem::path(dir).parent_path());
    auto store = std::make_shared<db::JournaledStore>(
        dir, db::JournalOptions{}, config.dyndb);
    {
        std::lock_guard<std::mutex> lock(store->mutex());
        db::ClauseStore &cs = store->store();
        cs.beginTxn();
        for (const TermRef &fact : facts)
            cs.assertClause(fact->functor(), fact, nullptr,
                            /*at_front=*/false);
        store->commit(cs.txnOps());
        cs.commitTxn();
    }
    store->flush();
    return store;
}

/** What one replayer measured (reset after priming). */
struct Tally
{
    std::vector<double> requestMs; ///< per replayed request
    std::vector<double> sessionSelfMs;
    // Sibling-probe host time, summed.
    double restoreMs = 0;
    double takeMs = 0;
    double runMs = 0;
    double commitMs = 0;
    size_t commits = 0;
    SimSig sim; ///< probe machines, summed
    uint64_t templateBytes = 0;
};

class Replayer
{
  public:
    Replayer(const ServeWorkload &w, const std::string &dir, bool probes)
        : w_(w), cache_(w.cacheMb() << 20), probes_(probes)
    {
        session_.abortOnInterrupt = true; // as the server forces
        session_.maxSolutions = 1;
        if (w.kind != ServeWorkload::Kind::Durable)
            return;
        std::vector<TermRef> facts =
            KcmSystem::parseFactFile(w.facts, "db-facts");
        decls_ = KcmSystem::factDeclarations(facts);
        store_ = seededStore(dir + "/session", facts, config_);
        session_.durableDb = store_;
        if (probes_)
            probeStore_ = seededStore(dir + "/probe", facts, config_);
    }

    /** Replay one request; spans go to @p tracer. */
    void
    replay(const Request &r, uint64_t id, Tracer &tracer,
           const ShapeOracle &oracle, Report &report)
    {
        const std::string line = JsonWriter()
                                     .field("op", "query")
                                     .field("id", std::to_string(id))
                                     .field("program", r.program)
                                     .field("goal", r.goal)
                                     .field("max_solutions", uint64_t(1))
                                     .str();
        const uint64_t t0 = nowNs();
        const int64_t root = tracer.begin("request", id, -1);
        JsonObject request;
        std::string error;
        tracer.span("wire.decode", id,
                    [&] { parseJsonObject(line, request, error); });
        const std::string &program = request["program"].str;
        const std::string &goal = request["goal"].str;
        const uint64_t key = tracer.span("image_cache.key", id, [&] {
            return imageCacheKey(program, goal, config_);
        });
        std::shared_ptr<const Snapshot> tmpl = tracer.span(
            "image_cache.lookup", id, [&] { return cache_.lookup(key); });
        const bool hit = tmpl != nullptr;
        if (!hit) {
            CodeImage image = tracer.span("compiler.compile", id, [&] {
                KcmOptions options;
                options.machine = config_;
                KcmSystem system(options);
                system.consultStandardLibrary();
                system.consult(program);
                if (!decls_.empty())
                    system.consult(decls_);
                return system.compileOnly(goal);
            });
            auto machine = tracer.span("core.load", id, [&] {
                auto m = std::make_unique<Machine>(config_);
                m->load(image);
                return m;
            });
            Snapshot snap = tracer.span(
                "snapshot.take", id, [&] { return takeSnapshot(*machine); });
            tmpl = tracer.span("image_cache.insert", id, [&] {
                return cache_.insert(key, std::move(snap));
            });
        }
        if (!tracer.span("snapshot.validate", id,
                         [&] { return validateSnapshot(*tmpl); }))
            report.diverge("replay: a fresh template failed validation");
        int64_t session_span = -1;
        const uint64_t s0 = nowNs();
        QueryOutcome out = tracer.span("session.run", id, [&] {
            session_span = tracer.last();
            Session session(tmpl, session_);
            return session.run();
        });
        const double session_ms = double(nowNs() - s0) / 1e6;
        tracer.span("wire.encode", id, [&] {
            std::vector<std::string> answers;
            for (const Solution &s : out.solutions)
                answers.push_back(s.toString());
            JsonWriter reply;
            reply.field("id", std::to_string(id))
                .field("status", "completed")
                .field("success", out.success)
                .fieldStrings("answers", answers)
                .field("output", out.output)
                .field("halted", out.halted);
            if (out.dbCommitId)
                reply.field("db_ops", out.dbOps)
                    .field("db_commit", out.dbCommitId);
            reply.field("cycles", out.cycles)
                .field("instructions", out.instructions)
                .field("inferences", out.inferences)
                .field("cache", hit ? "hit" : "miss")
                .field("wall_ms", uint64_t(out.wallSeconds * 1000.0));
            return reply.str();
        });
        tracer.end(root);
        tally.requestMs.push_back(double(nowNs() - t0) / 1e6);

        if (out.status != QueryStatus::Completed) {
            ++report.failed;
            report.diverge("replay: " + r.goal + " did not complete: " +
                           out.failure.classification);
            return;
        }
        if (w_.kind != ServeWorkload::Kind::Durable) {
            std::string joined;
            for (const Solution &s : out.solutions)
                joined += s.toString() + ";";
            if (joined != oracle.answers[r.shape])
                report.diverge("replay: " + r.goal + " answers '" + joined +
                               "', baseline interpreter '" +
                               oracle.answers[r.shape] + "'");
        }
        if (probes_)
            probe(tmpl, out, id, session_span, session_ms, tracer, report);
    }

    Tally tally;

  private:
    /** Re-run the template as sibling probes of Session::run. */
    void
    probe(const std::shared_ptr<const Snapshot> &tmpl,
          const QueryOutcome &out, uint64_t id, int64_t parent,
          double session_ms, Tracer &tracer, Report &report)
    {
        auto timed = [&](const char *name, auto &&fn) {
            const int64_t span = tracer.begin(name, id, parent);
            const uint64_t t0 = nowNs();
            fn();
            const double ms = double(nowNs() - t0) / 1e6;
            tracer.end(span);
            return ms;
        };
        Machine m(config_);
        std::unique_lock<std::mutex> lock;
        double restore = timed("snapshot.restore", [&] {
            restoreSnapshot(m, *tmpl);
            m.reapplyQuotas();
        });
        double take = 0, commit = 0;
        if (probeStore_) {
            // Durable sessions run without checkpoints, inside a
            // transaction on the shared store.
            lock = std::unique_lock<std::mutex>(probeStore_->mutex());
            m.attachDynamicDb(probeStore_->storePtr());
            probeStore_->store().beginTxn();
        } else {
            take = timed("snapshot.take", [&] { (void)takeSnapshot(m); });
        }
        double run = timed("core.run", [&] { m.run(); });
        if (probeStore_) {
            db::ClauseStore &cs = probeStore_->store();
            if (!cs.txnOps().empty()) {
                commit = timed("db.commit", [&] {
                    probeStore_->commit(cs.txnOps());
                    cs.commitTxn();
                });
                ++tally.commits;
            } else {
                cs.commitTxn();
            }
        }
        tally.restoreMs += restore;
        tally.takeMs += take;
        tally.runMs += run;
        tally.commitMs += commit;
        tally.sessionSelfMs.push_back(session_ms - restore - take - run -
                                      commit);
        tally.templateBytes += tmpl->bytes.size();
        SimSig sig = signatureOf(m);
        tally.sim += sig;
        if (sig.cycles != out.cycles)
            report.diverge("replay: session reported " +
                           std::to_string(out.cycles) +
                           " cycles, the identical probe machine " +
                           std::to_string(sig.cycles));
    }

    const ServeWorkload &w_;
    MachineConfig config_; ///< the daemon's default machine
    SessionOptions session_;
    ImageCache cache_;
    bool probes_;
    std::string decls_;
    std::shared_ptr<db::JournaledStore> store_;
    std::shared_ptr<db::JournaledStore> probeStore_;
};

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

} // namespace

void
replayTraced(const Options &opt, const ServeWorkload &w,
             const ShapeOracle &oracle, double daemon_p50_ms,
             Report &report)
{
    const std::string dir =
        opt.workdir + "/replay-" + std::to_string(getpid());
    Tracer tracer(true), off(false);
    Replayer traced(w, dir + "/traced", /*probes=*/true);
    Replayer plain(w, dir + "/plain", /*probes=*/false);

    // Prime both caches (and both durable stores) as the daemon was.
    if (w.primes()) {
        for (size_t shape = 0; shape < w.goals.size(); ++shape) {
            Request r;
            r.program = w.program;
            r.goal = w.goals[shape];
            r.shape = shape;
            traced.replay(r, 0, off, oracle, report);
            plain.replay(r, 0, off, oracle, report);
        }
    }
    traced.tally = {};
    plain.tally = {};
    Rng rng(streamSeed(opt.seed, 0));
    const size_t n = sampleSize(w.kind);
    for (size_t i = 0; i < n; ++i) {
        Request r = w.next(rng, opt.seed, 0, i);
        plain.replay(r, i + 1, off, oracle, report);
        traced.replay(r, i + 1, tracer, oracle, report);
    }
    std::filesystem::remove_all(dir);

    const Tally &t = traced.tally;
    auto totals = tracer.totals();
    auto mean = [&](const char *span, double scale) {
        const SpanTotals &s = totals[span];
        return s.count ? s.totalMs * scale / double(s.count) : 0.0;
    };
    auto &m = report.metrics;
    m["wire.decode_us"] = mean("wire.decode", 1e3);
    m["wire.encode_us"] = mean("wire.encode", 1e3);
    m["image_cache.key_us"] = mean("image_cache.key", 1e3);
    m["image_cache.lookup_ms"] = mean("image_cache.lookup", 1);
    m["image_cache.insert_ms"] = mean("image_cache.insert", 1);
    m["compiler.compile_ms"] = mean("compiler.compile", 1);
    m["compiler.compiles"] = double(totals["compiler.compile"].count);
    m["core.load_ms"] = mean("core.load", 1);
    m["snapshot.take_ms"] = mean("snapshot.take", 1);
    m["snapshot.validate_ms"] = mean("snapshot.validate", 1);
    m["snapshot.restore_ms"] = mean("snapshot.restore", 1);
    m["snapshot.bytes"] = double(t.templateBytes) / double(n);
    m["session.run_ms"] = mean("session.run", 1);
    m["session.self_ms"] = sum(t.sessionSelfMs) / double(n);
    m["core.run_ms"] = t.runMs / double(n);
    m["core.host_ns_per_instr"] =
        t.sim.instructions ? t.runMs * 1e6 / double(t.sim.instructions) : 0;
    m["core.cycles"] = double(t.sim.cycles);
    m["core.instructions"] = double(t.sim.instructions);
    m["core.inferences"] = double(t.sim.inferences);
    m["mem.dcache_accesses"] = double(t.sim.dcacheAccesses);
    m["mem.dcache_hit_ratio"] =
        double(t.sim.dcacheHits) / double(t.sim.dcacheAccesses);
    m["mem.icache_accesses"] = double(t.sim.icacheAccesses);
    m["mem.icache_hit_ratio"] =
        double(t.sim.icacheHits) / double(t.sim.icacheAccesses);
    m["mem.memory_words"] = double(t.sim.memoryWords);
    m["db.commit_ms"] = t.commits ? t.commitMs / double(t.commits) : 0;
    const double traced_ms = sum(t.requestMs);
    const double plain_ms = sum(plain.tally.requestMs);
    m["trace.overhead_pct"] = 100.0 * (traced_ms - plain_ms) / plain_ms;
    m["trace.latency_share"] = median(t.requestMs) / daemon_p50_ms;
    m["trace.sample_requests"] = double(n);

    printf("traced replay of %zu requests (stream 0), mean per call: "
           "decode %.1f us, key %.1f us, lookup %.3f ms, compile %.3f ms "
           "(x%.0f), load %.3f ms, take %.3f ms, insert %.3f ms, "
           "validate %.3f ms, session %.3f ms = restore %.3f + "
           "checkpoint %.3f + run %.3f + commit %.3f + self %.3f, "
           "encode %.1f us\n",
           n, m["wire.decode_us"], m["image_cache.key_us"],
           m["image_cache.lookup_ms"], m["compiler.compile_ms"],
           m["compiler.compiles"], m["core.load_ms"], m["snapshot.take_ms"],
           m["image_cache.insert_ms"], m["snapshot.validate_ms"],
           m["session.run_ms"], t.restoreMs / double(n),
           t.takeMs / double(n), t.runMs / double(n),
           t.commitMs / double(n), m["session.self_ms"],
           m["wire.encode_us"]);
    printf("replayed request p50 %.3f ms traced vs daemon latency p50 "
           "%.3f ms (share %.3f); tracing overhead %.2f%% (%.1f ms "
           "traced vs %.1f ms untraced)\n",
           median(t.requestMs), daemon_p50_ms, m["trace.latency_share"],
           m["trace.overhead_pct"], traced_ms, plain_ms);
    tracer.printTotals();
    std::string spans =
        opt.workdir + "/spans-" + opt.workload + ".jsonl";
    if (!tracer.write(spans))
        fatal("cannot write ", spans);
}

} // namespace perfbench
