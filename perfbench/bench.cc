#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sched.h>
#include <time.h>

#include "core/machine.hh"

namespace perfbench
{

double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    size_t rank = size_t(std::ceil(q * double(sorted.size())));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return percentile(values, 0.5);
}

Timing::Timing(std::vector<double> ms) : count(ms.size())
{
    std::sort(ms.begin(), ms.end());
    p50Ms = percentile(ms, 0.50);
    p99Ms = percentile(ms, 0.99);
    for (double x : ms)
        totalS += x / 1e3;
    beyondP99 = count - size_t(std::ceil(0.99 * double(count)));
}

uint64_t
threadCpuNs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return uint64_t(ts.tv_sec) * 1'000'000'000ull + uint64_t(ts.tv_nsec);
}

CpuRotation::CpuRotation()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus_.push_back(c);
}

void
CpuRotation::hop(long pid)
{
    if (cpus_.size() < 2)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
    if (pid <= 0)
        return;
    const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(tasks, ec))
        sched_setaffinity(pid_t(std::stol(entry.path().filename())),
                          sizeof one, &one); // a thread may have exited
}

void
BestTimes::add(size_t cls, double cpu_ms, uint64_t cycles)
{
    if (cls >= classes_.size())
        classes_.resize(cls + 1);
    Class &c = classes_[cls];
    c.bestMs = std::min(c.bestMs, cpu_ms);
    ++c.count;
    c.cycles += double(cycles);
}

double
BestTimes::perRequestMs() const
{
    double sum = 0, n = 0;
    for (const Class &c : classes_) {
        if (c.count) {
            sum += c.bestMs;
            ++n;
        }
    }
    return n ? sum / n : 0;
}

double
BestTimes::mcycPerCpuS() const
{
    double cycles = 0, ms = 0;
    for (const Class &c : classes_) {
        if (c.count) {
            cycles += c.cycles / double(c.count);
            ms += c.bestMs;
        }
    }
    return ms > 0 ? cycles / ms / 1e3 : 0;
}

size_t
BestTimes::fewestSamples() const
{
    size_t fewest = SIZE_MAX;
    for (const Class &c : classes_)
        if (c.count)
            fewest = std::min(fewest, c.count);
    return fewest == SIZE_MAX ? 0 : fewest;
}

ProcessCpu::ProcessCpu(long pid)
{
    if (clock_getcpuclockid(pid_t(pid), &clock_) != 0)
        throw std::runtime_error("no CPU clock for process " +
                                 std::to_string(pid));
}

uint64_t
ProcessCpu::ns() const
{
    timespec ts;
    if (clock_gettime(clock_, &ts) != 0)
        throw std::runtime_error("cannot read a process CPU clock");
    return uint64_t(ts.tv_sec) * 1'000'000'000ull + uint64_t(ts.tv_nsec);
}

double
peakRssMb(long pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0;
}

SimSig &
SimSig::operator+=(const SimSig &o)
{
    cycles += o.cycles;
    instructions += o.instructions;
    inferences += o.inferences;
    dcacheHits += o.dcacheHits;
    dcacheAccesses += o.dcacheAccesses;
    icacheHits += o.icacheHits;
    icacheAccesses += o.icacheAccesses;
    memoryWords += o.memoryWords;
    return *this;
}

SimSig
signatureOf(kcm::Machine &m)
{
    kcm::DataCache &d = m.mem().dataCache();
    kcm::CodeCache &c = m.mem().codeCache();
    SimSig s;
    s.cycles = m.cycles();
    s.instructions = m.instructions();
    s.inferences = m.inferences();
    s.dcacheHits = d.readHits.value() + d.writeHits.value();
    s.dcacheAccesses = d.totalAccesses();
    s.icacheHits = c.readHits.value();
    s.icacheAccesses = c.readHits.value() + c.readMisses.value();
    s.memoryWords = m.mem().memory().readWords.value() +
                    m.mem().memory().writtenWords.value();
    return s;
}

int64_t
Tracer::begin(const char *name, uint64_t request, int64_t parent)
{
    if (!enabled_)
        return -1;
    if (parent == kStackParent)
        parent = stack_.empty() ? -1 : stack_.back();
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    spans_.push_back(s);
    int64_t id = int64_t(spans_.size()) - 1;
    stack_.push_back(id);
    spans_.back().startNs = nowNs();
    return id;
}

void
Tracer::end(int64_t id)
{
    if (!enabled_ || id < 0)
        return;
    spans_[size_t(id)].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    // Child time counts against a parent only where the child lies
    // inside the parent's interval; the sibling probes that split
    // Session::run run after it and are accounted by the caller.
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent < 0)
            continue;
        const Span &p = spans_[size_t(s.parent)];
        if (s.startNs >= p.startNs && s.endNs <= p.endNs)
            covered[size_t(s.parent)] += double(s.endNs - s.startNs) / 1e6;
    }
    std::map<std::string, SpanTotals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        double ms = double(s.endNs - s.startNs) / 1e6;
        SpanTotals &t = out[s.name];
        ++t.count;
        t.totalMs += ms;
        t.selfMs += ms - covered[i];
    }
    return out;
}

void
Tracer::printTotals() const
{
    printf("%-20s %8s %12s %12s\n", "span", "count", "total ms",
           "self ms");
    for (const auto &[name, t] : totals())
        printf("%-20s %8llu %12.3f %12.3f\n", name.c_str(),
               (unsigned long long)t.count, t.totalMs, t.selfMs);
}

bool
Tracer::write(const std::string &path) const
{
    FILE *f = fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        fprintf(f,
                "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                "\"end_ns\": %llu, \"parent\": %lld, \"request\": %llu}\n",
                i, s.name, (unsigned long long)s.startNs,
                (unsigned long long)s.endNs, (long long)s.parent,
                (unsigned long long)s.request);
    }
    return fclose(f) == 0;
}

} // namespace perfbench
