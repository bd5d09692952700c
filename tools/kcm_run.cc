/**
 * @file
 * kcm_run — command-line driver for the KCM system.
 *
 * Usage:
 *   kcm_run [options] [file.pl ...] -q 'goal'
 *
 * Options:
 *   -q GOAL        query to run (required)
 *   -n N           collect up to N solutions (default 1; 0 = all)
 *   -e TEXT        consult program text given inline
 *   --stats        dump machine statistics after the run
 *   --profile      print the macrocode/Prolog-level monitor report
 *   --disasm       print the disassembled code image and exit
 *   --save FILE    save the compiled image and exit
 *   --load FILE    run a previously saved image (no sources needed)
 *   --no-shallow   run in standard-WAM mode (immediate choice points)
 *   --generic      generic arithmetic (no native integer mode)
 *   --max-cycles N abort after N simulated cycles
 *   --fast         predecoded threaded execution core (the default)
 *   --oracle       decode-per-step execution core (the differential
 *                  reference; simulated results are identical)
 *   --db-facts FILE  preload FILE (plain facts only) into the dynamic
 *                  clause store; the facts' predicates are implicitly
 *                  declared dynamic. A malformed clause — bad syntax,
 *                  a rule, a non-callable term, an over-arity head —
 *                  aborts before anything is loaded, with a
 *                  diagnostic naming the file and clause.
 *   --deadline-ms N  wall-clock deadline for the query, counted from its
 *                  start; past it the run stops at the next slice
 *                  boundary, prints the solutions found so far and
 *                  "error: deadline_exceeded."
 *
 * SIGINT/SIGTERM stop the run at the next instruction-boundary slice:
 * solutions found so far are still printed (with a trailing
 * "% interrupted" marker) before the process exits.
 *
 * Exit codes: 0 = solutions found, 1 = clean "no", 2 = query failed
 * (trap, resource exhaustion, blown deadline, usage error, or a
 * missing/unreadable program or --db-facts file — always a one-line
 * diagnostic, never an uncaught exception), 3 = reserved,
 * 4 = interrupted by SIGINT/SIGTERM (partial solutions flushed).
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "base/logging.hh"
#include "compiler/image_io.hh"
#include "isa/disasm.hh"
#include "kcm/kcm.hh"
#include "service/session.hh"

namespace
{

void
onSignal(int)
{
    // Only an atomic store — async-signal-safe. The run's stop
    // callback polls it at slice boundaries.
    kcm::service::requestServiceInterrupt();
}

void
installSignalHandlers()
{
    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        kcm::fatal("cannot open ", path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** One consulted source, in command-line order: a file path (read
 *  inside main's try block, so a missing file is a one-line
 *  diagnostic + exit 2, not an uncaught exception) or inline -e
 *  text. */
struct SourceArg
{
    std::string value;
    bool isFile = false;
};

[[noreturn]] void
usage()
{
    fprintf(stderr,
            "usage: kcm_run [options] [file.pl ...] -q 'goal'\n"
            "  -q GOAL   -n N   -e TEXT   --stats   --profile\n"
            "  --disasm  --no-shallow  --generic  --max-cycles N\n"
            "  --fast    --oracle\n"
            "  --db-facts FILE  preload a fact file into the dynamic\n"
            "                   clause store (facts only; a malformed\n"
            "                   clause aborts with a diagnostic)\n"
            "  --deadline-ms N  wall-clock deadline for the query\n"
            "exit codes: 0 = solutions found, 1 = clean 'no',\n"
            "  2 = failed (trap, resources, deadline, usage),\n"
            "  3 = reserved,\n"
            "  4 = interrupted (partial solutions flushed)\n");
    exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    kcm::KcmOptions options;
    std::string query;
    bool want_stats = false;
    bool want_profile = false;
    bool want_disasm = false;
    std::string save_path;
    std::string load_path;
    std::vector<SourceArg> source_args;
    std::vector<std::string> fact_files;
    uint64_t deadline_ms = 0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (arg == "-q") {
            query = next();
        } else if (arg == "-n") {
            long n = atol(next().c_str());
            options.maxSolutions = n <= 0 ? SIZE_MAX : size_t(n);
        } else if (arg == "-e") {
            source_args.push_back({next(), false});
        } else if (arg == "--stats") {
            want_stats = true;
        } else if (arg == "--profile") {
            want_profile = true;
            options.machine.profile = true;
        } else if (arg == "--disasm") {
            want_disasm = true;
        } else if (arg == "--save") {
            save_path = next();
        } else if (arg == "--load") {
            load_path = next();
        } else if (arg == "--no-shallow") {
            options.machine.shallowBacktracking = false;
        } else if (arg == "--generic") {
            options.compiler.integerArithmetic = false;
        } else if (arg == "--db-facts") {
            fact_files.push_back(next());
        } else if (arg == "--max-cycles") {
            options.machine.maxCycles = strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--deadline-ms") {
            deadline_ms = strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--fast") {
            options.machine.fastDispatch = true;
        } else if (arg == "--oracle") {
            options.machine.fastDispatch = false;
        } else if (arg == "-h" || arg == "--help") {
            usage();
        } else if (!arg.empty() && arg[0] == '-') {
            fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage();
        } else {
            source_args.push_back({arg, true});
        }
    }
    if (query.empty() && load_path.empty())
        usage();

    options.machine.captureOutput = false; // stream I/O to stdout
    installSignalHandlers();

    try {
        // Read consulted files here, inside the try: a missing or
        // unreadable file is a one-line "kcm_run: fatal: cannot open
        // ..." + exit 2, never an uncaught exception.
        std::vector<std::string> sources;
        sources.reserve(source_args.size());
        for (const SourceArg &sa : source_args)
            sources.push_back(sa.isFile ? readFile(sa.value) : sa.value);

        // A saved image runs exactly as a freshly compiled one.
        kcm::KcmSystem system(options);
        kcm::CodeImage image;
        if (!load_path.empty()) {
            image = kcm::loadImageFile(load_path);
        } else {
            for (const auto &source : sources)
                system.consult(source);
            for (const auto &path : fact_files)
                system.preloadFacts(readFile(path), path);
            image = system.compileOnly(query);
            if (!save_path.empty()) {
                kcm::saveImageFile(image, save_path);
                fprintf(stderr, "image saved to %s\n", save_path.c_str());
                return 0;
            }
            if (want_disasm) {
                printf("%s", kcm::disasmRange(image.words, 0,
                                              image.words.size())
                                 .c_str());
                return 0;
            }
        }

        // The poll stops the run on a signal or once the deadline has
        // passed, and records which of the two it was.
        using Clock = std::chrono::steady_clock;
        const Clock::time_point deadline =
            Clock::now() + std::chrono::milliseconds(deadline_ms);
        bool timed_out = false;
        kcm::QueryResult result = system.run(image, [&] {
            if (kcm::service::serviceInterruptRequested())
                return true;
            timed_out = deadline_ms && Clock::now() >= deadline;
            return timed_out;
        });
        if (result.interrupted && !timed_out) {
            // Partial solutions first, so a long all-solutions run
            // killed from the shell still yields everything found.
            for (const auto &solution : result.solutions)
                printf("%s ;\n", solution.toString().c_str());
            printf("%% interrupted.\n");
            fflush(stdout);
            return 4;
        }
        const bool failed = result.trapped || timed_out;
        if (failed) {
            for (const auto &solution : result.solutions)
                printf("%s ;\n", solution.toString().c_str());
            printf("error: %s.\n", timed_out ? "deadline_exceeded"
                                              : result.error.c_str());
        } else if (!result.success) {
            printf("no.\n");
        } else {
            for (const auto &solution : result.solutions)
                printf("%s ;\n", solution.toString().c_str());
            printf("yes.\n");
        }
        fprintf(stderr,
                "[%llu inferences, %llu cycles = %.3f ms simulated, "
                "%.0f Klips]\n",
                (unsigned long long)result.inferences,
                (unsigned long long)result.cycles, result.seconds * 1e3,
                result.klips);

        if (want_stats) {
            std::ostringstream os;
            system.machine().stats().dump(os);
            fputs(os.str().c_str(), stderr);
        }
        if (want_profile)
            fputs(system.machine().profiler().report().c_str(), stderr);
        if (failed)
            return 2;
        return result.success ? 0 : 1;
    } catch (const std::exception &e) {
        fprintf(stderr, "kcm_run: %s\n", e.what());
        return 2;
    }
}
