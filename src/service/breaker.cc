#include "service/breaker.hh"

namespace kcm::service
{

BreakerRegistry::BreakerRegistry(BreakerOptions options)
    : options_(options)
{
}

bool
BreakerRegistry::shouldReject(uint64_t key, uint64_t &retry_after_ms,
                              bool *is_probe)
{
    if (is_probe)
        *is_probe = false;
    if (!options_.enabled)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = breakers_.find(key);
    if (it == breakers_.end())
        return false;
    Breaker &b = it->second;
    switch (b.state) {
      case State::Closed:
        return false;
      case State::Open: {
        auto now = Clock::now();
        if (now < b.openUntil) {
            auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    b.openUntil - now)
                    .count();
            retry_after_ms = left > 0 ? uint64_t(left) : 1;
            ++stats_.fastFails;
            return true;
        }
        // Cooldown elapsed: this arrival becomes the half-open probe.
        b.state = State::HalfOpen;
        b.probeInFlight = true;
        ++stats_.probes;
        if (is_probe)
            *is_probe = true;
        return false;
      }
      case State::HalfOpen:
        if (!b.probeInFlight) {
            b.probeInFlight = true;
            ++stats_.probes;
            if (is_probe)
                *is_probe = true;
            return false;
        }
        retry_after_ms = options_.openMs;
        ++stats_.fastFails;
        return true;
    }
    return false;
}

void
BreakerRegistry::abandonProbe(uint64_t key)
{
    if (!options_.enabled)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = breakers_.find(key);
    if (it == breakers_.end())
        return;
    Breaker &b = it->second;
    if (b.state == State::HalfOpen && b.probeInFlight)
        b.probeInFlight = false;
}

void
BreakerRegistry::recordSuccess(uint64_t key)
{
    if (!options_.enabled)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = breakers_.find(key);
    if (it == breakers_.end())
        return;
    Breaker &b = it->second;
    if (b.state != State::Closed) {
        ++stats_.closed;
        --stats_.openShapes;
    }
    // One servable answer fully resets the shape — a closed breaker
    // keeps no memory of old trouble.
    breakers_.erase(it);
}

void
BreakerRegistry::recordFailure(uint64_t key)
{
    if (!options_.enabled)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    Breaker &b = breakers_[key];
    switch (b.state) {
      case State::Closed:
        if (++b.consecutiveFailures >= options_.failureThreshold) {
            b.state = State::Open;
            b.openUntil = Clock::now() +
                          std::chrono::milliseconds(options_.openMs);
            ++stats_.opened;
            ++stats_.openShapes;
        }
        break;
      case State::HalfOpen:
        // The probe failed: back to a full cooldown.
        b.state = State::Open;
        b.probeInFlight = false;
        b.openUntil =
            Clock::now() + std::chrono::milliseconds(options_.openMs);
        ++stats_.reopened;
        break;
      case State::Open:
        // A failure from a query admitted before the breaker opened;
        // the cooldown is already running.
        break;
    }
}

BreakerStats
BreakerRegistry::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace kcm::service
