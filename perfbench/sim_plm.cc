/**
 * @file
 * sim_plm: the simulation stack (core, mem) driven in-process.
 *
 * Set-up compiles the 14 PLM programs in their Table 3 form and gives
 * each one cold-cache run on its own machine. The measured window then
 * repeats the paper's warm protocol — load(image, cold_caches=false),
 * resetMeasurement(), run() — round-robin over the programs in a
 * seeded order, moving round the CPUs; each program's fastest run is
 * what the end-to-end figures take. Compiler, snapshot, service and db
 * are bypassed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include <unistd.h>

#include "base/logging.hh"
#include "bench.hh"
#include "bench_support/harness.hh"
#include "bench_support/paper_data.hh"
#include "bench_support/plm_suite.hh"
#include "core/machine.hh"

namespace perfbench
{
namespace
{

using kcm::Machine;


struct Program
{
    const kcm::PlmBenchmark *bench = nullptr;
    kcm::PreparedBenchmark prep;
    std::unique_ptr<Machine> machine; ///< warmed by the set-up run
    SimSig reference;                 ///< fast-core warm run
};

/** The measured-run protocol on an already-warmed machine. */
kcm::RunStatus
warmRun(Machine &m, const kcm::CodeImage &image)
{
    m.load(image, /*cold_caches=*/false);
    m.resetMeasurement();
    return m.run();
}

/** Compile the suite and give every program one cold-cache run. */
std::vector<Program>
setUp(Tracer &tracer)
{
    std::vector<Program> programs;
    for (const kcm::PlmBenchmark &bench : kcm::plmSuite()) {
        Program p;
        p.bench = &bench;
        p.prep = tracer.span("compiler.compile", 0, [&] {
            return kcm::preparePlmBenchmark(bench, /*pure=*/true);
        });
        p.machine = std::make_unique<Machine>(p.prep.machine);
        p.machine->load(p.prep.image);
        if (p.machine->run() != kcm::RunStatus::SolutionFound)
            kcm::fatal("sim_plm: ", bench.name, " has no solution");
        programs.push_back(std::move(p));
    }
    return programs;
}

/**
 * Correctness gate, outside every timed region: a fresh fast-core
 * machine and a fresh oracle-core machine must agree bit-for-bit on
 * the warm run. The fast result becomes the reference every timed
 * repetition is held to.
 */
void
checkCores(std::vector<Program> &programs, Report &report)
{
    for (Program &p : programs) {
        auto warmSig = [&](bool fast) {
            kcm::MachineConfig config = p.prep.machine;
            config.fastDispatch = fast;
            Machine m(config);
            m.load(p.prep.image);
            m.run();
            if (warmRun(m, p.prep.image) != kcm::RunStatus::SolutionFound)
                report.diverge(p.bench->name + ": warm run has no solution");
            return signatureOf(m);
        };
        p.reference = warmSig(true);
        if (!(warmSig(false) == p.reference))
            report.diverge(p.bench->name +
                           ": fast and oracle cores disagree");
    }
}

/** Host time and work of one measured pass. */
struct Pass
{
    size_t runs = 0;
    std::vector<double> cpuMs;  ///< per run: load + reset + run
    std::vector<double> wallMs; ///< per run, the same span in wall time
    double loadMs = 0;          ///< traced only
    double runMs = 0;           ///< traced only
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    double seconds = 0; ///< wall time of the pass
    size_t rounds = 0;
};

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

/** Rounds (about 2 ms each) run on one CPU before the next. */
constexpr size_t roundsPerCpu = 50;

/**
 * Whole rounds, each a fresh seeded permutation of the suite, until
 * @p seconds have passed (or @p rounds more are done when nonzero),
 * appended to @p pass. Every run is held to its reference signature.
 * With @p rotation the pass moves to the next CPU every roundsPerCpu
 * rounds; @p best collects each program's fastest run.
 */
void
measure(std::vector<Program> &programs, Rng &rng, double seconds,
        size_t rounds, Tracer &tracer, Report &report, Pass &pass,
        CpuRotation *rotation = nullptr, BestTimes *best = nullptr)
{
    std::vector<size_t> order(programs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const uint64_t start = nowNs();
    const uint64_t deadline = start + uint64_t(seconds * 1e9);
    const size_t until = pass.rounds + rounds;
    while (rounds ? pass.rounds < until : nowNs() < deadline) {
        if (rotation && pass.rounds % roundsPerCpu == 0)
            rotation->hop();
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        for (size_t idx : order) {
            Program &p = programs[idx];
            Machine &m = *p.machine;
            const uint64_t request = pass.runs;
            const uint64_t c0 = threadCpuNs();
            const uint64_t t0 = nowNs();
            kcm::RunStatus status;
            if (tracer.enabled()) {
                uint64_t t1 = 0;
                tracer.span("core.load", request, [&] {
                    m.load(p.prep.image, /*cold_caches=*/false);
                    m.resetMeasurement();
                });
                t1 = nowNs();
                status = tracer.span("core.run", request,
                                     [&] { return m.run(); });
                uint64_t t2 = nowNs();
                pass.loadMs += double(t1 - t0) / 1e6;
                pass.runMs += double(t2 - t1) / 1e6;
            } else {
                status = warmRun(m, p.prep.image);
            }
            pass.wallMs.push_back(double(nowNs() - t0) / 1e6);
            pass.cpuMs.push_back(double(threadCpuNs() - c0) / 1e6);

            ++pass.runs;
            ++report.attempted;
            SimSig sig = signatureOf(m);
            pass.cycles += sig.cycles;
            if (best)
                best->add(idx, pass.cpuMs.back(), sig.cycles);
            pass.instructions += sig.instructions;
            if (status != kcm::RunStatus::SolutionFound) {
                ++report.failed;
                report.diverge(p.bench->name + ": run has no solution");
            } else if (!(sig == p.reference)) {
                report.diverge(p.bench->name +
                               ": repetition differs from the checked "
                               "reference run");
            }
        }
        ++pass.rounds;
    }
    pass.seconds += double(nowNs() - start) / 1e9;
}

/** Print each program's simulated figures beside the paper's KCM
 *  column; returns the mean absolute KLIPS error in percent. */
double
printFidelity(const std::vector<Program> &programs)
{
    printf("%-10s %12s %10s %9s | %10s %9s %8s\n", "program", "cycles",
           "sim ms", "sim KLIPS", "paper ms", "paper KL", "err %");
    double sum_err = 0;
    int rows = 0;
    for (const Program &p : programs) {
        const SimSig &r = p.reference;
        double sim_s = double(r.cycles) * kcm::cycleSeconds;
        double klips = double(r.inferences) / sim_s / 1e3;
        const kcm::Table3Row *row = nullptr;
        for (const kcm::Table3Row &t : kcm::paperTable3())
            if (t.program == p.bench->name)
                row = &t;
        if (!row) {
            printf("%-10s %12llu %10.3f %9.0f | %10s %9s %8s\n",
                   p.bench->name.c_str(), (unsigned long long)r.cycles,
                   sim_s * 1e3, klips, "-", "-", "-");
            continue;
        }
        double err = 100.0 * (klips - row->kcmKlipsPaper) /
                     double(row->kcmKlipsPaper);
        sum_err += std::fabs(err);
        ++rows;
        printf("%-10s %12llu %10.3f %9.0f | %10.3f %9d %+8.1f\n",
               p.bench->name.c_str(), (unsigned long long)r.cycles,
               sim_s * 1e3, klips, row->kcmMsPaper, row->kcmKlipsPaper,
               err);
    }
    double mean_err = rows ? sum_err / rows : 0;
    printf("fidelity.klips_err_pct %.2f (mean |error| over %d programs "
           "against the paper's Table 3 KCM column)\n",
           mean_err, rows);
    return mean_err;
}

} // namespace

Report
runSimPlm(const Options &opt)
{
    Report report;
    Tracer off(false);
    Tracer tracer(opt.trace);

    // Set-up repeats, each time on the next CPU; setup_s is the fastest.
    CpuRotation rotation;
    std::vector<Program> programs;
    std::vector<double> setup_s;
    for (int rep = 0; rep == 0 || (!opt.trace && moreSetups(setup_s));
         ++rep) {
        rotation.hop();
        programs.clear();
        const uint64_t c0 = threadCpuNs();
        programs = setUp(opt.trace ? tracer : off);
        setup_s.push_back(double(threadCpuNs() - c0) / 1e9);
    }
    checkCores(programs, report);

    SimSig round;
    for (const Program &p : programs)
        round += p.reference;
    // Deterministic: a whole round of reference runs, simulated time.
    const double sim_klips = double(round.inferences) /
                             (double(round.cycles) * kcm::cycleSeconds) /
                             1e3;
    const double klips_err = printFidelity(programs);

    Rng rng(opt.seed);
    {
        // Warm-up rounds are held to the references but not counted.
        Report warmup;
        Pass pass;
        measure(programs, rng, warmupSeconds, 0, off, warmup, pass);
        for (const std::string &d : warmup.divergences)
            report.diverge(d);
    }
    auto &m = report.metrics;
    if (!opt.trace) {
        Pass pass;
        BestTimes best;
        measure(programs, rng, opt.seconds, 0, off, report, pass, &rotation,
                &best);
        const Timing cpu(pass.cpuMs);
        const double best_ms = best.perRequestMs();
        m["setup_s"] = *std::min_element(setup_s.begin(), setup_s.end());
        m["cpu_ms_per_request"] = best_ms;
        m["sim_mcyc_per_cpu_s"] = best.mcycPerCpuS();
        m["sim_klips"] = sim_klips;
        m["peak_rss_mb"] = peakRssMb(long(getpid()));
        printf("sim_plm: %zu runs in %zu rounds over %.2fs on %zu CPUs in "
               "turn; fastest run per program, mean over programs: %.4f "
               "ms CPU (at least %zu runs per program), %.2f Mcycles per "
               "CPU-second; every run: CPU p50 %.4f ms, p99 %.4f ms, %.0f "
               "runs per CPU-second, %.0f per second; set-up median %.4f "
               "CPU-s, fastest %.4f (of %zu); %.1f KLIPS simulated\n",
               pass.runs, pass.rounds, pass.seconds, rotation.cpus(), best_ms,
               best.fewestSamples(), m["sim_mcyc_per_cpu_s"], cpu.p50Ms,
               cpu.p99Ms, double(cpu.count) / cpu.totalS,
               double(pass.runs) / pass.seconds, median(setup_s),
               *std::min_element(setup_s.begin(), setup_s.end()),
               setup_s.size(), sim_klips);
        return report;
    }

    // Traced run: rounds with spans around load and run alternate with
    // untraced rounds; the difference is the tracing overhead.
    Pass traced, plain;
    const uint64_t deadline = nowNs() + uint64_t(opt.seconds * 1e9);
    while (nowNs() < deadline) {
        measure(programs, rng, 0, 1, tracer, report, traced);
        measure(programs, rng, 0, 1, off, report, plain);
    }
    const double traced_ms = sum(traced.wallMs), plain_ms = sum(plain.wallMs);
    const double reps = double(traced.runs);
    auto totals = tracer.totals();

    const Timing wall(plain.wallMs), cpu(plain.cpuMs);
    m["cpu.p50_ms"] = cpu.p50Ms;
    m["cpu.p99_ms"] = cpu.p99Ms;
    m["wall.latency_p50_ms"] = wall.p50Ms;
    m["wall.latency_p99_ms"] = wall.p99Ms;
    m["wall.throughput_qps"] = double(wall.count) / wall.totalS;

    m["core.load_ms"] = traced.loadMs / reps;
    m["core.run_ms"] = traced.runMs / reps;
    m["core.host_ns_per_instr"] =
        traced.runMs * 1e6 / double(traced.instructions);
    m["core.cycles"] = double(round.cycles);
    m["core.instructions"] = double(round.instructions);
    m["core.inferences"] = double(round.inferences);
    m["mem.dcache_hit_ratio"] =
        double(round.dcacheHits) / double(round.dcacheAccesses);
    m["mem.dcache_accesses"] = double(round.dcacheAccesses);
    m["mem.icache_hit_ratio"] =
        double(round.icacheHits) / double(round.icacheAccesses);
    m["mem.icache_accesses"] = double(round.icacheAccesses);
    m["mem.memory_words"] = double(round.memoryWords);
    m["fidelity.klips_err_pct"] = klips_err;
    const SpanTotals &compile = totals["compiler.compile"];
    m["compiler.compiles"] = double(compile.count);
    m["compiler.compile_ms"] = compile.totalMs / double(compile.count);
    m["trace.overhead_pct"] = 100.0 * (traced_ms - plain_ms) / plain_ms;
    m["trace.latency_share"] =
        (traced.loadMs + traced.runMs) / traced_ms;
    m["trace.sample_requests"] = reps;

    printf("per round (simulated, deterministic): %llu cycles, %llu "
           "instructions, %llu inferences; dcache %.6f of %llu accesses, "
           "icache %.6f of %llu accesses\n",
           (unsigned long long)round.cycles,
           (unsigned long long)round.instructions,
           (unsigned long long)round.inferences,
           m["mem.dcache_hit_ratio"],
           (unsigned long long)round.dcacheAccesses,
           m["mem.icache_hit_ratio"],
           (unsigned long long)round.icacheAccesses);
    printf("host: load %.4f ms + run %.4f ms per run over %.0f traced "
           "runs; %.2f ns per instruction; tracing overhead %.2f%%\n",
           m["core.load_ms"], m["core.run_ms"], reps,
           m["core.host_ns_per_instr"], m["trace.overhead_pct"]);
    tracer.printTotals();
    std::string spans = opt.workdir + "/spans-sim_plm.jsonl";
    if (!tracer.write(spans))
        kcm::fatal("cannot write ", spans);
    return report;
}

} // namespace perfbench
