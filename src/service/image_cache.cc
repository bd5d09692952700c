#include "service/image_cache.hh"

#include "base/checksum.hh"
#include "base/logging.hh"

namespace kcm::service
{

uint64_t
imageCacheKey(const std::string &program, const std::string &goal,
              const MachineConfig &config)
{
    uint64_t h = fnvOffsetBasis;
    fnvMixStr(h, program);
    fnvMixStr(h, goal);

    // Machine-config fingerprint: every knob that changes what a
    // restored template computes or reports. (fastDispatch
    // participates even though snapshots are portable across cores —
    // conservative, and it keeps per-tenant config isolation simple.)
    fnvMixPod(h, config.mem.memoryWords);
    fnvMixPod(h, config.shallowBacktracking);
    fnvMixPod(h, config.timeMemory);
    fnvMixPod(h, config.fastDispatch);
    fnvMixPod(h, config.captureOutput);
    fnvMixPod(h, config.maxCycles);
    fnvMixPod(h, config.gcThresholdWords);
    fnvMixPod(h, config.fastDereference);
    fnvMixPod(h, config.parallelTrailCheck);
    fnvMixPod(h, config.racBlockMoves);
    fnvMixPod(h, config.dualPortRegisterFile);
    fnvMixPod(h, config.catchUnwindCycles);
    // Dynamic clause store: index ablation changes scanned counts
    // (and therefore cycles), the cost knobs change them directly.
    fnvMixPod(h, config.dyndb.hashIndex);
    fnvMixPod(h, config.dyndb.skiplist);
    fnvMixPod(h, config.dyndb.scanCycles);
    fnvMixPod(h, config.dyndb.updateCycles);
    fnvMixPod(h, config.governor.cycleBudget);
    fnvMixPod(h, config.governor.globalQuotaWords);
    fnvMixPod(h, config.governor.localQuotaWords);
    fnvMixPod(h, config.governor.controlQuotaWords);
    fnvMixPod(h, config.governor.trailQuotaWords);
    fnvMixPod(h, config.governor.growStacks);
    fnvMixPod(h, config.governor.growthStepWords);
    fnvMixPod(h, config.governor.zoneCeilingWords);
    fnvMixPod(h, config.governor.stackGrowCycles);
    fnvMixPod(h, config.governor.memoryBudgetBytes);
    // Fault plans are chaos-harness configuration; a faulted tenant
    // must not share templates with a clean one.
    fnvMixPod(h, config.faultPlan.actions.size());
    for (const FaultAction &a : config.faultPlan.actions) {
        fnvMixPod(h, a.cycle);
        fnvMixPod(h, a.kind);
        fnvMixPod(h, a.zone);
        fnvMixPod(h, a.limit);
        fnvMixPod(h, a.addr);
        fnvMixPod(h, a.raw);
    }
    return h;
}

uint64_t
RememberedOutcome::bytes() const
{
    uint64_t n = sizeof *this + output.size() + error.size() +
                 failure.classification.size() + failure.detail.size();
    for (const std::string &answer : answers)
        n += sizeof answer + answer.size();
    return n;
}

ImageCache::ImageCache(uint64_t budget_bytes)
    : budgetBytes_(budget_bytes)
{
}

std::shared_ptr<const Snapshot>
ImageCache::lookup(uint64_t key,
                   std::shared_ptr<const RememberedOutcome> *outcome)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    if (outcome)
        *outcome = it->second->outcome;
    return it->second->snap;
}

std::shared_ptr<const Snapshot>
ImageCache::insert(uint64_t key, Snapshot snapshot)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (budgetBytes_ == 0)
        return std::make_shared<const Snapshot>(std::move(snapshot));
    auto it = index_.find(key);
    if (it != index_.end()) {
        stats_.bytes -= it->second->bytes;
        lru_.erase(it->second);
        index_.erase(it);
    }
    Entry e;
    e.key = key;
    e.bytes = snapshot.bytes.size();
    e.snap = std::make_shared<const Snapshot>(std::move(snapshot));
    stats_.bytes += e.bytes;
    auto stored = e.snap;
    lru_.push_front(std::move(e));
    index_[key] = lru_.begin();
    fitBudgetLocked();
    return stored;
}

void
ImageCache::remember(uint64_t key,
                     std::shared_ptr<const RememberedOutcome> outcome)
{
    const uint64_t bytes = outcome->bytes();
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end())
        return;
    Entry &entry = *it->second;
    dropOutcomeLocked(entry);
    entry.outcome = std::move(outcome);
    entry.bytes += bytes;
    stats_.bytes += bytes;
    fitBudgetLocked();
}

void
ImageCache::dropOutcomeLocked(Entry &entry)
{
    if (!entry.outcome)
        return;
    const uint64_t bytes = entry.outcome->bytes();
    entry.bytes -= bytes;
    stats_.bytes -= bytes;
    entry.outcome.reset();
}

void
ImageCache::fitBudgetLocked()
{
    while (stats_.bytes > budgetBytes_ && lru_.size() > 1)
        evictLruLocked();
    stats_.entries = index_.size();
}

void
ImageCache::evictLruLocked()
{
    Entry &victim = lru_.back();
    stats_.bytes -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
    stats_.entries = index_.size();
}

bool
ImageCache::evict(uint64_t key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end())
        return false;
    stats_.bytes -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
    ++stats_.corruptEvictions;
    stats_.entries = index_.size();
    return true;
}

size_t
ImageCache::corruptOneForTesting()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (lru_.empty())
        return 0;
    Entry &mru = lru_.front();
    // Copy-and-replace: concurrent sessions may be restoring from the
    // old buffer right now; mutating it in place would be a data race.
    auto corrupted = std::make_shared<Snapshot>(*mru.snap);
    if (!corrupted->bytes.empty()) {
        // Flip a payload bit past the section table so the declared
        // structure still parses and only the checksum catches it.
        size_t offset = corrupted->bytes.size() / 2;
        corrupted->bytes[offset] ^= 0x40;
    }
    mru.snap = std::move(corrupted);
    dropOutcomeLocked(mru);
    return 1;
}

ImageCacheStats
ImageCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace kcm::service
