/**
 * @file
 * Forked-daemon helpers for the harnesses that drive a real
 * kcm_serverd: locate a sibling tool binary, fork/exec it with its
 * stdout on a pipe, and read the `{"listening": port}` line it prints
 * once it accepts connections.
 */

#ifndef KCM_BENCH_SUPPORT_DAEMON_HH
#define KCM_BENCH_SUPPORT_DAEMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace kcm
{

/**
 * A forked daemon: its pid, its stdout pipe and its port. The owner
 * reaps it: stop() signals it and waits, and a daemon that goes out of
 * scope unreaped is SIGKILLed and reaped, so no early return leaves
 * one running. Move-only.
 */
struct Daemon
{
    pid_t pid = -1;
    int outFd = -1; ///< daemon stdout (port line, final drain line)
    uint16_t port = 0;

    Daemon() = default;
    Daemon(Daemon &&other) noexcept;
    Daemon &operator=(Daemon &&other) noexcept;
    ~Daemon();

    /** Send @p signal and wait for the exit; the wait status. The
     *  daemon is reaped; its stdout stays open for the drain line. */
    int stop(int signal);

    /** Whether the daemon has exited (reaping it if so); never
     *  blocks. */
    bool exited();

    void closeFd();

  private:
    bool reaped_ = false;
};

/**
 * Path of a tool binary: @p override_path if non-empty, else the
 * environment variable @p env_var if set, else @p sibling in the
 * build tree's tools/ directory next to this binary's directory
 * (build/bench/x → build/tools/@p sibling).
 */
std::string toolPath(const std::string &override_path, const char *env_var,
                     const char *sibling);

/** Read one '\n'-terminated line from @p fd (blocking, short reads). */
std::string readLineFd(int fd);

/**
 * Fork and exec @p argv (argv[0] is the binary path) with stdout on a
 * pipe, then block until the daemon reports its port. With
 * @p quiet_stderr the child's stderr goes to /dev/null. Fatal if the
 * first stdout line is not a `{"listening": port}` object.
 */
Daemon spawnDaemon(std::vector<std::string> argv, bool quiet_stderr);

/** Deterministic tiny PRNG step (no global state, stable across
 *  runs). */
uint32_t mix(uint32_t x);

} // namespace kcm

#endif // KCM_BENCH_SUPPORT_DAEMON_HH
