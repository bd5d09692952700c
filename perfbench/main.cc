/**
 * @file
 * kcm_perfbench: the repository benchmark's measuring program.
 *
 *   kcm_perfbench --workload W --seed N --seconds S --trace 0|1
 *                    --serverd PATH --workdir DIR [--commit ID]
 *
 * Workloads (see BENCHMARK.json for why each exists):
 *   sim_plm        the 14 PLM programs (Table 3 form) on warmed
 *                  in-process machines, round-robin in seeded order
 *   serve_warm     forked kcm_serverd, 8 primed query shapes
 *   serve_cold     forked kcm_serverd, every program text unique
 *   serve_durable  forked kcm_serverd --db-journal, 50% journaled writes
 *
 * With --trace 0 the last stdout line carries the end-to-end metrics;
 * with --trace 1 it carries the per-layer metrics of a separate traced
 * run. Lines before it are a human-readable report and the run record
 * (seed, nproc, commit, build flags). Exit status: 0 = measured and
 * every correctness gate held; 1 = a gate diverged (the result line
 * says "correct": false); 2 = usage, build or harness error.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include "base/logging.hh"
#include "bench.hh"

using namespace perfbench;

namespace
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

// The end-to-end metrics every workload reports with tracing off. Host
// time is CPU time, taken from each request class's fastest run (see
// BestTimes): on a shared host wall time, and the percentiles of every
// request, swing with the neighbours' load by more than any bound a
// regression check could use. Those figures are per-layer, under cpu.*
// and wall.*.
const MetricSpec endToEnd[] = {
    {"setup_s", "s"},
    {"cpu_ms_per_request", "ms"},
    {"sim_mcyc_per_cpu_s", "Mcycles/cpu-s"},
    {"sim_klips", "KLIPS"},
    {"peak_rss_mb", "MB"},
};

// The per-layer metrics of the traced run. A layer a workload bypasses
// reports 0. Every ratio sits next to the count it is taken over.
const MetricSpec perLayer[] = {
    {"cpu.p50_ms", "ms"},
    {"cpu.p99_ms", "ms"},
    {"wall.latency_p50_ms", "ms"},
    {"wall.latency_p99_ms", "ms"},
    {"wall.throughput_qps", "replies/s"},
    {"core.load_ms", "ms"},
    {"core.run_ms", "ms"},
    {"core.host_ns_per_instr", "ns"},
    {"core.cycles", "count"},
    {"core.instructions", "count"},
    {"core.inferences", "count"},
    {"mem.dcache_hit_ratio", "ratio"},
    {"mem.dcache_accesses", "count"},
    {"mem.icache_hit_ratio", "ratio"},
    {"mem.icache_accesses", "count"},
    {"mem.memory_words", "count"},
    {"fidelity.klips_err_pct", "%"},
    {"compiler.compile_ms", "ms"},
    {"compiler.compiles", "count"},
    {"server.compile_ms_per_miss", "ms"},
    {"server.compiles", "count"},
    {"snapshot.restore_ms", "ms"},
    {"snapshot.take_ms", "ms"},
    {"snapshot.validate_ms", "ms"},
    {"snapshot.bytes", "bytes"},
    {"image_cache.key_us", "us"},
    {"image_cache.lookup_ms", "ms"},
    {"image_cache.insert_ms", "ms"},
    {"image_cache.hit_ratio", "ratio"},
    {"image_cache.lookups", "count"},
    {"image_cache.evictions", "count"},
    {"session.run_ms", "ms"},
    {"session.self_ms", "ms"},
    {"session.checkpoints_per_query", "ratio"},
    {"session.completed", "count"},
    {"server.outside_ms", "ms"},
    {"server.wall_ms_p50", "ms"},
    {"server.reply_hit_ratio", "ratio"},
    {"server.overloaded", "count"},
    {"supervisor.hedge_waste", "ratio"},
    {"supervisor.hedges", "count"},
    {"supervisor.shed", "count"},
    {"breaker.fast_fails", "count"},
    {"wire.decode_us", "us"},
    {"wire.encode_us", "us"},
    {"db.commit_ms", "ms"},
    {"db.commits", "count"},
    {"db.journal_bytes_per_commit", "bytes"},
    {"db.journal_snapshots", "count"},
    {"db.ops_per_commit", "ratio"},
    {"db.read_p50_ms", "ms"},
    {"db.write_p50_ms", "ms"},
    {"serve.failed_frac", "ratio"},
    {"serve.attempted", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.latency_share", "ratio"},
    {"trace.sample_requests", "count"},
};

[[noreturn]] void
usage(const char *why)
{
    fprintf(stderr,
            "kcm_perfbench: %s\nusage: kcm_perfbench --workload "
            "sim_plm|serve_warm|serve_cold|serve_durable --seed N "
            "--seconds S --trace 0|1 --serverd PATH --workdir DIR "
            "[--commit ID]\n",
            why);
    exit(2);
}

bool
optimisedBuild()
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return true;
#else
    return false;
#endif
}

} // namespace

int
main(int argc, char **argv)
try {
    kcm::setLoggingEnabled(false);
    Options opt;
    std::string commit = "unknown";
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        std::string value = argv[++i];
        if (arg == "--workload")
            opt.workload = value;
        else if (arg == "--seed")
            opt.seed = strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = strtod(value.c_str(), nullptr);
        else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
            have_trace = true;
        } else if (arg == "--serverd")
            opt.serverd = value;
        else if (arg == "--workdir")
            opt.workdir = value;
        else if (arg == "--commit")
            commit = value;
        else
            usage(("unknown option " + arg).c_str());
    }
    if (!have_trace || opt.workdir.empty() ||
        !(opt.seconds > 0 && opt.seconds <= 600))
        usage("--trace, --workdir and --seconds in (0, 600] are required");
    if (!optimisedBuild())
        usage("refusing to report numbers from an unoptimised build "
              "(needs __OPTIMIZE__ and NDEBUG)");

    long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    printf("run_record {\"workload\": \"%s\", \"seed\": %llu, "
           "\"seconds\": %g, \"trace\": %d, \"nproc\": %ld, "
           "\"commit\": \"%s\", \"optimised\": true}\n",
           opt.workload.c_str(), (unsigned long long)opt.seed,
           opt.seconds, opt.trace ? 1 : 0, nproc, commit.c_str());
    fflush(stdout);

    Report report;
    if (opt.workload == "sim_plm")
        report = runSimPlm(opt);
    else if (opt.workload == "serve_warm" || opt.workload == "serve_cold" ||
             opt.workload == "serve_durable")
        report = runServe(opt);
    else
        usage(("unknown workload '" + opt.workload + "'").c_str());

    for (const std::string &d : report.divergences)
        printf("DIVERGENCE: %s\n", d.c_str());

    std::string metrics;
    auto emit = [&](const MetricSpec &m, double value) {
        if (!std::isfinite(value)) {
            fprintf(stderr, "kcm_perfbench: metric %s is not finite\n",
                    m.name);
            exit(2);
        }
        char buf[256];
        snprintf(buf, sizeof buf,
                 "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 metrics.empty() ? "" : ", ", m.name, value, m.unit);
        metrics += buf;
    };
    if (opt.trace) {
        for (const MetricSpec &m : perLayer) {
            auto it = report.metrics.find(m.name);
            emit(m, it == report.metrics.end() ? 0.0 : it->second);
        }
    } else {
        for (const MetricSpec &m : endToEnd) {
            auto it = report.metrics.find(m.name);
            if (it == report.metrics.end()) {
                fprintf(stderr, "kcm_perfbench: %s did not measure %s\n",
                        opt.workload.c_str(), m.name);
                return 2;
            }
            emit(m, it->second);
        }
    }
    if (report.attempted == 0) {
        fprintf(stderr, "kcm_perfbench: nothing was attempted\n");
        return 2;
    }
    printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
           "\"metrics\": {%s}}\n",
           report.correct() ? "true" : "false",
           (unsigned long long)report.attempted,
           (unsigned long long)report.failed, metrics.c_str());
    fflush(stdout);
    return report.correct() ? 0 : 1;
} catch (const std::exception &e) {
    fprintf(stderr, "kcm_perfbench: %s\n", e.what());
    return 2;
}
