#include "core/profiler.hh"

#include <algorithm>
#include <sstream>

#include "base/strutil.hh"

namespace kcm
{

void
Profiler::attach(const CodeImage &image)
{
    entryBase_ = 0;
    entryIndex_.clear();
    predicateNames_.clear();
    predicateCounts_.clear();
    if (image.predicates.empty())
        return;

    Addr lo = UINT32_MAX, hi = 0;
    for (const auto &[functor, info] : image.predicates) {
        lo = std::min(lo, info.entry);
        hi = std::max(hi, info.entry);
    }
    entryBase_ = lo;
    entryIndex_.assign(size_t(hi) - lo + 1, -1);
    for (const auto &[functor, info] : image.predicates) {
        entryIndex_[size_t(info.entry) - lo] =
            int32_t(predicateNames_.size());
        predicateNames_.push_back(atomText(functor.name) + "/" +
                                  std::to_string(functor.arity));
    }
    predicateCounts_.assign(predicateNames_.size(), 0);
}

void
Profiler::reset()
{
    for (auto &count : opcodeCounts_)
        count = 0;
    std::fill(predicateCounts_.begin(), predicateCounts_.end(), 0);
}

std::vector<std::pair<Opcode, uint64_t>>
Profiler::opcodeHistogram() const
{
    std::vector<std::pair<Opcode, uint64_t>> out;
    for (size_t i = 0; i < static_cast<size_t>(Opcode::NumOpcodes); ++i) {
        if (opcodeCounts_[i])
            out.emplace_back(Opcode(i), opcodeCounts_[i]);
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    return out;
}

std::vector<std::pair<std::string, uint64_t>>
Profiler::predicateProfile() const
{
    std::vector<std::pair<std::string, uint64_t>> out;
    for (size_t i = 0; i < predicateNames_.size(); ++i) {
        if (predicateCounts_[i])
            out.emplace_back(predicateNames_[i], predicateCounts_[i]);
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    return out;
}

std::string
Profiler::report(size_t top) const
{
    std::ostringstream os;
    uint64_t total = totalInstructions();
    os << "=== macrocode monitor (opcode histogram, " << total
       << " instructions) ===\n";
    size_t shown = 0;
    for (const auto &[op, count] : opcodeHistogram()) {
        if (shown++ >= top)
            break;
        os << "  " << padRight(opcodeName(op), 22) << padLeft(
               std::to_string(count), 10)
           << "  " << fixed(total ? 100.0 * count / total : 0, 1)
           << "%\n";
    }
    os << "=== Prolog-level monitor (calls per predicate) ===\n";
    shown = 0;
    for (const auto &[name, count] : predicateProfile()) {
        if (shown++ >= top)
            break;
        os << "  " << padRight(name, 22)
           << padLeft(std::to_string(count), 10) << "\n";
    }
    return os.str();
}

} // namespace kcm
