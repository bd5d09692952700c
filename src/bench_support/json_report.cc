#include "bench_support/json_report.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "service/wire.hh"

namespace kcm
{

namespace
{

std::string
jsonDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

std::string
benchRunsJson(const std::string &label, const std::vector<BenchRun> &runs,
              unsigned jobs, double host_wall_seconds)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"label\": " << service::jsonQuote(label) << ",\n";
    os << "  \"jobs\": " << jobs << ",\n";
    os << "  \"hostWallSeconds\": " << jsonDouble(host_wall_seconds)
       << ",\n";
    os << "  \"benchmarks\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        const BenchRun &r = runs[i];
        os << "    {";
        os << "\"name\": " << service::jsonQuote(r.name) << ", ";
        os << "\"success\": " << (r.success ? "true" : "false") << ", ";
        if (!r.failure.empty()) {
            os << "\"failure\": " << service::jsonQuote(r.failure) << ", ";
            os << "\"trapped\": " << (r.trapped ? "true" : "false")
               << ", ";
            os << "\"timedOut\": " << (r.timedOut ? "true" : "false")
               << ", ";
        }
        os << "\"cycles\": " << r.cycles << ", ";
        os << "\"instructions\": " << r.instructions << ", ";
        os << "\"inferences\": " << r.inferences << ", ";
        os << "\"simMs\": " << jsonDouble(r.ms) << ", ";
        os << "\"klips\": " << jsonDouble(r.klips) << ", ";
        os << "\"dcacheHitRatio\": " << jsonDouble(r.dcacheHitRatio)
           << ", ";
        os << "\"icacheHitRatio\": " << jsonDouble(r.icacheHitRatio)
           << ", ";
        os << "\"hostSeconds\": " << jsonDouble(r.hostSeconds) << ", ";
        os << "\"simCyclesPerHostSecond\": "
           << jsonDouble(r.simCyclesPerHostSecond);
        os << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

std::string
benchOutputPath(const std::string &filename)
{
    if (filename.find('/') != std::string::npos)
        return filename; // explicit path: the caller decided
    const char *dir = std::getenv("KCM_BENCH_DIR");
    if (!dir || !*dir)
        return filename;
    std::string path = dir;
    if (path.back() != '/')
        path += '/';
    return path + filename;
}

void
writeBenchJson(const std::string &path, const std::string &label,
               const std::vector<BenchRun> &runs, unsigned jobs,
               double host_wall_seconds)
{
    std::string resolved = benchOutputPath(path);
    std::FILE *f = std::fopen(resolved.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "warning: cannot write %s\n",
                     resolved.c_str());
        return;
    }
    std::string text = benchRunsJson(label, runs, jobs, host_wall_seconds);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace kcm
