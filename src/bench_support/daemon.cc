#include "bench_support/daemon.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <utility>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/logging.hh"
#include "service/wire.hh"

namespace kcm
{

Daemon::Daemon(Daemon &&other) noexcept
{
    *this = std::move(other);
}

Daemon &
Daemon::operator=(Daemon &&other) noexcept
{
    if (this != &other) {
        stop(SIGKILL);
        closeFd();
        pid = std::exchange(other.pid, -1);
        outFd = std::exchange(other.outFd, -1);
        port = other.port;
        reaped_ = other.reaped_;
    }
    return *this;
}

Daemon::~Daemon()
{
    stop(SIGKILL);
    closeFd();
}

int
Daemon::stop(int signal)
{
    int status = 0;
    if (pid <= 0 || reaped_)
        return status;
    kill(pid, signal);
    waitpid(pid, &status, 0);
    reaped_ = true;
    return status;
}

bool
Daemon::exited()
{
    int status = 0;
    if (pid > 0 && !reaped_ && waitpid(pid, &status, WNOHANG) == 0)
        return false;
    reaped_ = true;
    return true;
}

void
Daemon::closeFd()
{
    if (outFd >= 0) {
        ::close(outFd);
        outFd = -1;
    }
}

std::string
toolPath(const std::string &override_path, const char *env_var,
         const char *sibling)
{
    if (!override_path.empty())
        return override_path;
    if (const char *env = std::getenv(env_var))
        return env;
    char exe[4096];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (n <= 0)
        return sibling;
    exe[n] = '\0';
    std::string dir(exe);
    size_t slash = dir.rfind('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    return dir + "/../tools/" + sibling;
}

std::string
readLineFd(int fd)
{
    std::string line;
    char c;
    while (read(fd, &c, 1) == 1) {
        if (c == '\n')
            break;
        line += c;
    }
    return line;
}

Daemon
spawnDaemon(std::vector<std::string> argv, bool quiet_stderr)
{
    int pipefd[2];
    if (pipe(pipefd) < 0)
        fatal("pipe(): ", strerror(errno));

    pid_t pid = fork();
    if (pid < 0)
        fatal("fork(): ", strerror(errno));
    if (pid == 0) {
        // Child: stdout → pipe, exec the daemon.
        dup2(pipefd[1], STDOUT_FILENO);
        ::close(pipefd[0]);
        ::close(pipefd[1]);
        if (quiet_stderr) {
            int null = ::open("/dev/null", O_WRONLY);
            if (null >= 0) {
                dup2(null, STDERR_FILENO);
                ::close(null);
            }
        }
        std::vector<char *> args;
        for (std::string &a : argv)
            args.push_back(a.data());
        args.push_back(nullptr);
        execv(args[0], args.data());
        fprintf(stderr, "exec %s: %s\n", args[0], strerror(errno));
        _exit(127);
    }
    ::close(pipefd[1]);

    Daemon d;
    d.pid = pid;
    d.outFd = pipefd[0];
    std::string line = readLineFd(d.outFd);
    service::JsonObject obj;
    std::string err;
    if (!service::parseJsonObject(line, obj, err) ||
        obj.find("listening") == obj.end())
        fatal("daemon did not report a port (got '", line, "')");
    d.port = uint16_t(obj["listening"].asInt());
    return d;
}

uint32_t
mix(uint32_t x)
{
    x ^= x >> 16;
    x *= 0x7feb352d;
    x ^= x >> 15;
    x *= 0x846ca68b;
    x ^= x >> 16;
    return x;
}

} // namespace kcm
