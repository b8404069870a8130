#include "serve/degradation_policy.h"

#include <algorithm>

#include "common/logging.h"

namespace juno {

namespace {

/**
 * Tier knob tables. Scale factors shrink the probe budget roughly
 * geometrically — each tier sheds about a quarter of the remaining
 * scan work — while the prefilter tightens gently (it discards blocks
 * whose quantised bound is within the margin of the heap's worst, so
 * even tier 3 only skips near-threshold blocks).
 */
constexpr double kNprobeScale[DegradationPolicy::kMaxTier + 1] = {
    1.0, 0.75, 0.5, 0.25};
constexpr double kScanTighten[DegradationPolicy::kMaxTier + 1] = {
    0.0, 0.05, 0.10, 0.20};

} // namespace

DegradationPolicy::DegradationPolicy(DegradationConfig config)
    : config_(config)
{
    JUNO_REQUIRE(config_.queue_p95_budget_us >= 0.0,
                 "queue_p95_budget_us must be >= 0");
}

DegradationPolicy::Knobs
DegradationPolicy::knobsForTier(int tier)
{
    const int t = std::clamp(tier, 0, kMaxTier);
    Knobs k;
    k.nprobe_scale = kNprobeScale[t];
    k.scan_tighten = kScanTighten[t];
    return k;
}

double
DegradationPolicy::queueWaitP95Locked() const
{
    const std::size_t n = window_full_ ? window_.size() : window_next_;
    if (n == 0)
        return 0.0;
    // The window is tiny (<= kWindow); copy + nth_element once per
    // batch is cheaper than keeping an ordered structure up to date on
    // every completion.
    std::vector<double> sorted(window_.begin(),
                               window_.begin() +
                                   static_cast<std::ptrdiff_t>(n));
    const std::size_t idx =
        std::min(n - 1, static_cast<std::size_t>(
                            static_cast<double>(n) * 0.95));
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(idx),
                     sorted.end());
    return sorted[idx];
}

void
DegradationPolicy::recordQueueWait(const std::vector<double> &waits_us)
{
    if (!config_.enabled || waits_us.empty())
        return;
    MutexLock lock(mutex_);
    if (window_.size() < kWindow)
        window_.resize(kWindow, 0.0);
    for (const double w : waits_us) {
        window_[window_next_] = w;
        if (++window_next_ == kWindow) {
            window_next_ = 0;
            window_full_ = true;
        }
    }
}

DegradationPolicy::Knobs
DegradationPolicy::evaluate(std::size_t queue_depth,
                            std::size_t queue_capacity)
{
    if (!config_.enabled || queue_capacity == 0)
        return Knobs{};
    const double fraction = static_cast<double>(queue_depth) /
                            static_cast<double>(queue_capacity);
    MutexLock lock(mutex_);
    const double p95 = config_.queue_p95_budget_us > 0.0
                           ? queueWaitP95Locked()
                           : 0.0;
    const bool pressured =
        fraction >= kHighWatermark ||
        (config_.queue_p95_budget_us > 0.0 &&
         p95 > config_.queue_p95_budget_us);
    // Calm requires the backlog to have genuinely drained, not merely
    // dipped under the step-up line: the gap between the watermarks is
    // the hysteresis band where the tier holds.
    const bool calm =
        fraction <= kLowWatermark &&
        (config_.queue_p95_budget_us <= 0.0 ||
         p95 < 0.8 * config_.queue_p95_budget_us);
    int tier = tier_.load(std::memory_order_relaxed);
    if (pressured) {
        calm_streak_ = 0;
        if (++pressured_streak_ >= kUpPatience && tier < kMaxTier) {
            ++tier;
            pressured_streak_ = 0;
            tier_.store(tier, std::memory_order_relaxed);
            transitions_.fetch_add(1, std::memory_order_relaxed);
        }
    } else if (calm) {
        pressured_streak_ = 0;
        if (++calm_streak_ >= kDownPatience && tier > 0) {
            --tier;
            calm_streak_ = 0;
            tier_.store(tier, std::memory_order_relaxed);
            transitions_.fetch_add(1, std::memory_order_relaxed);
        }
    } else {
        // In the band: hold the tier, restart both streaks.
        pressured_streak_ = 0;
        calm_streak_ = 0;
    }
    return knobsForTier(tier);
}

} // namespace juno
