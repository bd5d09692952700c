/**
 * @file
 * serve_warm, serve_cold, serve_durable: the service stack driven
 * through a forked kcm_serverd with the repository's own
 * service::Client.
 *
 * Each workload is a closed loop over one connection: the caller waits
 * for each reply before sending the next request. With one request in
 * flight, the daemon's CPU clock across a request, plus the client
 * thread's, is the host CPU time that request cost — the figure the
 * end-to-end metrics report, as it does not swing with the load other
 * tenants put on a shared host the way the client's wall time does.
 * The daemon runs with default flags, except a small image-cache
 * budget for serve_cold and --db-journal/--db-facts for serve_durable.
 * The stats op is read before and after the window and the deltas give
 * the daemon-side per-layer counters.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>

#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/logging.hh"
#include "baseline/interp.hh"
#include "kcm/kcm.hh"
#include "service/client.hh"
#include "workload.hh"

namespace perfbench
{
namespace
{

using kcm::service::Client;
using kcm::service::ClientReply;

constexpr uint64_t replyTimeoutMs = 60'000;

/** Read one line from @p fd, waiting at most @p timeout_ms overall. */
std::string
readLine(int fd, int timeout_ms)
{
    std::string line;
    const uint64_t deadline = nowNs() + uint64_t(timeout_ms) * 1'000'000;
    for (;;) {
        uint64_t now = nowNs();
        if (now >= deadline)
            return line;
        pollfd p{fd, POLLIN, 0};
        int r = poll(&p, 1, int((deadline - now) / 1'000'000) + 1);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return line;
        char c;
        ssize_t n = read(fd, &c, 1);
        if (n <= 0 || c == '\n')
            return line;
        line += c;
    }
}

/** A forked kcm_serverd. The destructor kills and reaps a daemon that
 *  was not drained, and the child dies with this process. */
class Daemon
{
  public:
    Daemon(const std::string &path, const std::vector<std::string> &flags)
    {
        int fds[2];
        if (pipe(fds) < 0)
            kcm::fatal("pipe: ", strerror(errno));
        pid_ = fork();
        if (pid_ < 0)
            kcm::fatal("fork: ", strerror(errno));
        if (pid_ == 0) {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            dup2(fds[1], STDOUT_FILENO);
            ::close(fds[0]);
            ::close(fds[1]);
            std::vector<std::string> args = {path};
            args.insert(args.end(), flags.begin(), flags.end());
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            execv(path.c_str(), argv.data());
            _exit(127);
        }
        ::close(fds[1]);
        out_ = fds[0];
        std::string line = readLine(out_, 30'000);
        kcm::service::JsonObject obj;
        std::string err;
        if (!kcm::service::parseJsonObject(line, obj, err) ||
            !obj.count("listening"))
            kcm::fatal("kcm_serverd did not report a port (got '", line,
                       "')");
        port_ = uint16_t(obj["listening"].asInt());
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
        if (out_ >= 0)
            ::close(out_);
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    uint16_t port() const { return port_; }
    pid_t pid() const { return pid_; }

    /** SIGTERM drain; true when the daemon printed its drain line and
     *  exited 0 (accepted == replied). */
    bool
    drain()
    {
        kill(pid_, SIGTERM);
        std::string line = readLine(out_, 60'000);
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return line.find("\"drain\": true") != std::string::npos &&
               WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t pid_ = -1;
    int out_ = -1;
    uint16_t port_ = 0;
};

using Stats = std::map<std::string, int64_t>;

void
connectTo(Client &client, uint16_t port)
{
    if (!client.connect("127.0.0.1", port))
        kcm::fatal("cannot connect to kcm_serverd: ", client.error());
}

/** The daemon's stats op, over a connection of its own. */
Stats
readStats(uint16_t port)
{
    Client client;
    connectTo(client, port);
    ClientReply r = client.stats();
    if (r.status() != "ok")
        kcm::fatal("stats op failed: ", r.raw);
    Stats s;
    for (const auto &[key, value] : r.fields)
        if (value.isNumber())
            s[key] = value.asInt();
    return s;
}

std::string
joinAnswers(const ClientReply &r)
{
    std::string out;
    auto it = r.fields.find("answers");
    if (it == r.fields.end())
        return out;
    for (const auto &item : it->second.items)
        out += item.str + ";";
    return out;
}

/** What the client saw for one request. */
struct Sample
{
    double ms = 0;    ///< client wall time, send to full reply
    double cpuMs = 0; ///< daemon plus client CPU time over the same span
    bool completed = false;
    Request request;
    std::string answers;
    bool hit = false;
    int64_t wallMs = 0;
    uint64_t cycles = 0;
    uint64_t inferences = 0;
    uint64_t commit = 0;
};

/** Parse "V = 7;" (a durable read) into 7; -1 when malformed. */
int64_t
readValue(const std::string &answers)
{
    size_t eq = answers.find("= ");
    if (eq == std::string::npos)
        return -1;
    return strtoll(answers.c_str() + eq + 2, nullptr, 10);
}

struct Setup
{
    std::unique_ptr<Daemon> daemon;
    std::string journalDir;
    double seconds = 0;     ///< daemon plus client CPU time
    double wallSeconds = 0;
    std::vector<Sample> primed; ///< the priming replies
};

/** Spawn the daemon until it listens, then prime every shape. The
 *  daemon's CPU clock starts at the fork, so it covers start-up; the
 *  daemon inherits the calling thread's CPU. */
Setup
spawnAndPrime(const Options &opt, const ServeWorkload &w, int rep)
{
    Setup s;
    std::vector<std::string> flags = {"--cache-mb",
                                      std::to_string(w.cacheMb())};
    if (w.kind == ServeWorkload::Kind::Durable) {
        s.journalDir = opt.workdir + "/journal-" +
                       std::to_string(getpid()) + "-" + std::to_string(rep);
        std::filesystem::remove_all(s.journalDir);
        std::string facts = opt.workdir + "/durable-facts.pl";
        std::ofstream(facts) << w.facts;
        flags.insert(flags.end(),
                     {"--db-journal", s.journalDir, "--db-facts", facts});
    }
    const uint64_t t0 = nowNs(), c0 = threadCpuNs();
    s.daemon = std::make_unique<Daemon>(opt.serverd, flags);
    if (w.primes()) {
        Client client;
        connectTo(client, s.daemon->port());
        for (size_t shape = 0; shape < w.goals.size(); ++shape) {
            Sample p;
            p.request.program = w.program;
            p.request.goal = w.goals[shape];
            p.request.shape = shape;
            p.request.write = w.kind == ServeWorkload::Kind::Durable &&
                              shape < size_t(durableKeys);
            p.request.key = int(shape % durableKeys);
            ClientReply r = client.query("prime" + std::to_string(shape),
                                         w.program, w.goals[shape], 1, 0,
                                         replyTimeoutMs);
            p.completed = r.status() == "completed";
            p.answers = joinAnswers(r);
            p.commit = uint64_t(r.num("db_commit"));
            s.primed.push_back(p);
        }
    }
    s.seconds = double(threadCpuNs() - c0 +
                       ProcessCpu(s.daemon->pid()).ns()) /
                1e9;
    s.wallSeconds = double(nowNs() - t0) / 1e9;
    return s;
}

struct Loop
{
    std::vector<Sample> warmup;
    std::vector<Sample> measured;
    double windowS = 0;
    Stats before; ///< stats op at the start of the measured window
};

/** Requests sent before the client and the daemon move to the next
 *  CPU together. */
constexpr uint64_t requestsPerCpu = 8;

/**
 * The closed loop: one connection sending from the warm-up stream for
 * warmupSeconds, then, after the stats op, from the measured stream
 * (stream 0) until opt.seconds more have passed. The client thread and
 * every daemon thread share one CPU at a time and go round the CPUs.
 */
Loop
closedLoop(const Options &opt, const ServeWorkload &w, const Daemon &daemon,
           CpuRotation &rotation)
{
    Client client;
    connectTo(client, daemon.port());
    const ProcessCpu daemon_cpu(daemon.pid());
    Loop loop;
    auto stream = [&](unsigned id, double seconds, std::vector<Sample> &out) {
        Rng rng(streamSeed(opt.seed, id));
        const uint64_t until = nowNs() + uint64_t(seconds * 1e9);
        for (uint64_t n = 0; nowNs() < until; ++n) {
            if (n % requestsPerCpu == 0)
                rotation.hop(daemon.pid());
            Sample s;
            s.request = w.next(rng, opt.seed, id, n);
            const uint64_t d0 = daemon_cpu.ns(), c0 = threadCpuNs();
            const uint64_t t0 = nowNs();
            ClientReply r = client.query(
                "s" + std::to_string(id) + "-" + std::to_string(n),
                s.request.program, s.request.goal, 1, 0, replyTimeoutMs);
            const uint64_t t1 = nowNs();
            s.cpuMs = double(threadCpuNs() - c0 + daemon_cpu.ns() - d0) / 1e6;
            s.ms = double(t1 - t0) / 1e6;
            s.completed = r.io == kcm::service::IoStatus::Ok &&
                          r.status() == "completed";
            if (s.completed) {
                s.answers = joinAnswers(r);
                s.hit = r.str("cache") == "hit";
                s.wallMs = r.num("wall_ms");
                s.cycles = uint64_t(r.num("cycles"));
                s.inferences = uint64_t(r.num("inferences"));
                s.commit = uint64_t(r.num("db_commit"));
            }
            out.push_back(std::move(s));
            if (r.io != kcm::service::IoStatus::Ok)
                return false; // transport broken: the connection is done
        }
        return true;
    };
    if (stream(1, warmupSeconds, loop.warmup)) {
        loop.before = readStats(daemon.port());
        const uint64_t t0 = nowNs();
        stream(0, opt.seconds, loop.measured);
        loop.windowS = double(nowNs() - t0) / 1e9;
    }
    return loop;
}

/** Compile @p program + @p goal exactly as the daemon does (stdlib
 *  consulted first) and return the simulated cycles of one run. */
uint64_t
inProcessCycles(const std::string &program, const std::string &goal)
{
    kcm::KcmSystem system;
    system.consultStandardLibrary();
    system.consult(program);
    kcm::CodeImage image = system.compileOnly(goal);
    kcm::Machine machine;
    machine.load(image);
    machine.run();
    return machine.cycles();
}

/** Warm/cold gate: answers match the baseline interpreter, cycles an
 *  in-process run of the same image. */
void
checkAnswers(const ServeWorkload &w, const ShapeOracle &oracle,
             const std::vector<Sample> &replies, Report &report)
{
    for (const Sample &s : replies) {
        if (!s.completed)
            continue;
        size_t shape = s.request.shape;
        if (s.answers != oracle.answers[shape])
            report.diverge(s.request.goal + ": answers '" + s.answers +
                           "' but the baseline interpreter gives '" +
                           oracle.answers[shape] + "'");
        if (s.cycles != oracle.cycles[shape])
            report.diverge(s.request.goal + ": " + std::to_string(s.cycles) +
                           " cycles but the in-process run takes " +
                           std::to_string(oracle.cycles[shape]));
    }
    if (w.kind != ServeWorkload::Kind::Cold)
        return;
    // A cold request's image differs from its shape's by one unused
    // fact. Compile a few of them exactly, to show that fact does not
    // move the cycle count the check above relies on.
    for (size_t i = 0; i < replies.size() && i < 8; ++i) {
        const Sample &s = replies[i];
        if (!s.completed)
            continue;
        uint64_t exact = inProcessCycles(s.request.program, s.request.goal);
        if (exact != s.cycles)
            report.diverge(s.request.goal + " (cold, exact image): " +
                           std::to_string(s.cycles) +
                           " cycles but the in-process run takes " +
                           std::to_string(exact));
    }
}

/** Durable gates over every acked reply in the order sent, priming
 *  included: commit ids unique and increasing, no read beyond its key's
 *  final value, and the final counters summing to the acked bumps. */
void
checkDurable(const std::vector<Sample> &primed,
             const std::vector<Sample> &replies,
             const std::vector<int64_t> &final_values, Report &report)
{
    int64_t acked_bumps = 0;
    std::set<uint64_t> commits;
    uint64_t last = 0;
    auto checkStream = [&](const std::vector<Sample> &stream) {
        for (const Sample &s : stream) {
            if (!s.completed)
                continue;
            if (!s.request.write) {
                int64_t v = readValue(s.answers);
                int64_t final_v = final_values[size_t(s.request.key)];
                if (v < 0 || v > final_v)
                    report.diverge(s.request.goal + " read '" + s.answers +
                                   "' beyond the final value " +
                                   std::to_string(final_v));
                continue;
            }
            ++acked_bumps;
            if (s.commit == 0)
                report.diverge(s.request.goal + " acked without a db_commit");
            else if (!commits.insert(s.commit).second)
                report.diverge("db_commit " + std::to_string(s.commit) +
                               " acked twice");
            if (s.commit <= last)
                report.diverge("db_commit ids not increasing");
            last = s.commit;
        }
    };
    checkStream(primed);
    checkStream(replies);
    int64_t sum = 0;
    for (int64_t v : final_values)
        sum += v;
    if (sum != acked_bumps)
        report.diverge("final counters sum to " + std::to_string(sum) +
                       " but " + std::to_string(acked_bumps) +
                       " bump replies were acked");
}

} // namespace

ShapeOracle
buildOracle(const ServeWorkload &w)
{
    ShapeOracle oracle;
    if (w.kind == ServeWorkload::Kind::Durable)
        return oracle; // state-dependent answers: the durable gates
    for (const std::string &goal : w.goals)
        oracle.cycles.push_back(inProcessCycles(w.program, goal));
    kcm::baseline::Interpreter interp;
    interp.consult(w.program);
    for (const std::string &goal : w.goals) {
        kcm::baseline::InterpResult res = interp.query(goal, 1);
        std::string joined;
        for (const auto &s : res.solutions)
            joined += s.toString() + ";";
        oracle.answers.push_back(joined);
    }
    return oracle;
}

Report
runServe(const Options &opt)
{
    Report report;
    const ServeWorkload w(opt.workload);
    std::filesystem::create_directories(opt.workdir);

    // Set-up: spawn (and prime) repeatedly, each time on the next CPU;
    // setup_s is the fastest. Only the last daemon serves the measured
    // window.
    CpuRotation rotation;
    std::vector<double> setup_s, setup_wall_s;
    Setup setup;
    for (int rep = 0; rep == 0 || (!opt.trace && moreSetups(setup_s));
         ++rep) {
        rotation.hop();
        if (setup.daemon) {
            if (!setup.daemon->drain())
                report.diverge("set-up daemon did not drain cleanly");
            std::filesystem::remove_all(setup.journalDir);
        }
        setup = spawnAndPrime(opt, w, rep);
        setup_s.push_back(setup.seconds);
        setup_wall_s.push_back(setup.wallSeconds);
    }
    for (const Sample &p : setup.primed)
        if (!p.completed)
            report.diverge("priming " + p.request.goal + " failed");

    const ShapeOracle oracle = buildOracle(w);

    const uint16_t port = setup.daemon->port();
    Loop loop = closedLoop(opt, w, *setup.daemon, rotation);
    Stats &before = loop.before;
    const std::vector<Sample> &replies = loop.measured;
    const double window_s = loop.windowS;
    Stats after = readStats(port);
    const double rss_mb = peakRssMb(long(setup.daemon->pid()));

    std::vector<int64_t> final_values;
    if (w.kind == ServeWorkload::Kind::Durable) {
        Client control;
        connectTo(control, port);
        for (int k = 0; k < durableKeys; ++k) {
            ClientReply r = control.query(
                "final" + std::to_string(k), w.program,
                w.goals[size_t(durableKeys + k)], 1, 0, replyTimeoutMs);
            final_values.push_back(r.status() == "completed"
                                       ? readValue(joinAnswers(r))
                                       : -1);
        }
    }
    if (!setup.daemon->drain())
        report.diverge("daemon did not drain cleanly (accepted != replied)");
    if (!setup.journalDir.empty())
        std::filesystem::remove_all(setup.journalDir);

    // Gates, all outside the measured window, over every reply in the
    // order sent (warm-up first).
    std::vector<Sample> all = loop.warmup;
    all.insert(all.end(), replies.begin(), replies.end());
    if (w.kind == ServeWorkload::Kind::Durable)
        checkDurable(setup.primed, all, final_values, report);
    else
        checkAnswers(w, oracle, all, report);

    // A request that did not complete counts as missing every
    // percentile. The end-to-end figures take the fastest request of
    // each class: a goal, or for the durable workload writes and reads,
    // whose keys cost the same.
    std::vector<double> lat, cpu, reads, writes, wall, outside;
    BestTimes best;
    uint64_t completed = 0, cycles = 0, inferences = 0, hits = 0;
    for (const Sample &s : replies) {
        ++report.attempted;
        if (!s.completed) {
            ++report.failed;
            lat.push_back(double(replyTimeoutMs));
            cpu.push_back(double(replyTimeoutMs));
            continue;
        }
        ++completed;
        lat.push_back(s.ms);
        cpu.push_back(s.cpuMs);
        best.add(w.kind == ServeWorkload::Kind::Durable ? size_t(s.request.write)
                                                        : s.request.shape,
                 s.cpuMs, s.cycles);
        (s.request.write ? writes : reads).push_back(s.ms);
        wall.push_back(double(s.wallMs));
        outside.push_back(s.ms - double(s.wallMs));
        cycles += s.cycles;
        inferences += s.inferences;
        hits += s.hit;
    }
    const Timing cpu_t(cpu), wall_t(lat);
    const double best_ms = best.perRequestMs();
    printf("%s: %llu attempted, %llu failed in %.2fs on one connection, "
           "%zu CPUs in turn; fastest request per class, mean over "
           "classes: %.3f ms CPU (at least %zu requests per class); every "
           "request: CPU p50 %.3f ms, p99 %.3f ms (%zu samples beyond "
           "p99), client wall p50 %.3f ms, p99 %.3f ms, %.2f replies/s; "
           "set-up median %.4f CPU-s, fastest %.4f (of %zu), wall median "
           "%.4f s\n",
           opt.workload.c_str(), (unsigned long long)report.attempted,
           (unsigned long long)report.failed, window_s, rotation.cpus(),
           best_ms, best.fewestSamples(), cpu_t.p50Ms, cpu_t.p99Ms,
           cpu_t.beyondP99, wall_t.p50Ms, wall_t.p99Ms,
           double(completed) / window_s, median(setup_s),
           *std::min_element(setup_s.begin(), setup_s.end()), setup_s.size(),
           median(setup_wall_s));

    auto delta = [&](const char *key) {
        return double(after[key] - before[key]);
    };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    auto &m = report.metrics;
    if (!opt.trace) {
        m["setup_s"] = *std::min_element(setup_s.begin(), setup_s.end());
        m["cpu_ms_per_request"] = best_ms;
        m["sim_mcyc_per_cpu_s"] = best.mcycPerCpuS();
        m["sim_klips"] = ratio(double(inferences),
                               double(cycles) * kcm::cycleSeconds) /
                         1e3;
        m["peak_rss_mb"] = rss_mb;
        return report;
    }

    m["cpu.p50_ms"] = cpu_t.p50Ms;
    m["cpu.p99_ms"] = cpu_t.p99Ms;
    m["wall.latency_p50_ms"] = wall_t.p50Ms;
    m["wall.latency_p99_ms"] = wall_t.p99Ms;
    m["wall.throughput_qps"] = double(completed) / window_s;
    const double lookups = delta("cache_hits") + delta("cache_misses");
    const double pool_done = delta("pool_completed");
    const double commits = delta("journal_commits");
    m["image_cache.lookups"] = lookups;
    m["image_cache.hit_ratio"] = ratio(delta("cache_hits"), lookups);
    m["image_cache.evictions"] = delta("cache_evictions");
    m["server.compiles"] = delta("compiles");
    m["server.compile_ms_per_miss"] =
        ratio(delta("compile_micros") / 1e3, delta("compiles"));
    m["session.completed"] = pool_done;
    m["session.checkpoints_per_query"] =
        ratio(delta("pool_checkpoints"), pool_done);
    m["supervisor.hedges"] = delta("hedges");
    m["supervisor.hedge_waste"] =
        ratio(delta("hedges") - delta("hedge_wins"), pool_done);
    m["supervisor.shed"] = delta("pool_shed");
    m["server.overloaded"] = delta("overloaded");
    m["breaker.fast_fails"] = delta("breaker_fast_fails");
    m["db.commits"] = commits;
    m["db.journal_bytes_per_commit"] = ratio(delta("journal_bytes"), commits);
    m["db.journal_snapshots"] = delta("journal_snapshots");
    m["db.ops_per_commit"] = ratio(delta("journal_ops"), commits);
    m["db.read_p50_ms"] = w.kind == ServeWorkload::Kind::Durable
                              ? median(reads)
                              : 0.0;
    m["db.write_p50_ms"] = median(writes);
    m["server.wall_ms_p50"] = median(wall);
    m["server.outside_ms"] = median(outside);
    m["server.reply_hit_ratio"] = ratio(double(hits), double(completed));
    m["serve.attempted"] = double(report.attempted);
    m["serve.failed_frac"] =
        ratio(double(report.failed), double(report.attempted));
    printf("daemon stats deltas: cache %.0f hits / %.0f lookups "
           "(evictions %.0f), %.0f compiles at %.2f ms each, %.0f "
           "checkpoints over %.0f completed, hedges %.0f (wins %.0f), "
           "shed %.0f, overloaded %.0f, breaker fast-fails %.0f, "
           "journal %.0f commits / %.0f bytes / %.0f snapshots\n",
           delta("cache_hits"), lookups, delta("cache_evictions"),
           delta("compiles"), m["server.compile_ms_per_miss"],
           delta("pool_checkpoints"), pool_done, delta("hedges"),
           delta("hedge_wins"), delta("pool_shed"), delta("overloaded"),
           delta("breaker_fast_fails"), commits, delta("journal_bytes"),
           delta("journal_snapshots"));
    printf("replies: %llu completed, %llu cache hits; wall_ms p50 %.0f; "
           "client minus wall_ms p50 %.3f ms\n",
           (unsigned long long)completed, (unsigned long long)hits,
           m["server.wall_ms_p50"], m["server.outside_ms"]);

    replayTraced(opt, w, oracle, wall_t.p50Ms, report);
    return report;
}

} // namespace perfbench
