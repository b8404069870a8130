/**
 * @file
 * Tiered graceful degradation for the serving layer: under overload,
 * trade recall for tail latency instead of letting the queue stretch
 * every request's p99.
 *
 * The policy is a small hysteresis state machine over discrete tiers.
 * Tier 0 is full quality (all knobs neutral — results bitwise
 * identical to a service without the policy). Each higher tier scales
 * the IVF probe budget down (SearchOptions::nprobe_scale) and tightens
 * the fast-scan block prefilter (SearchOptions::scan_tighten), so a
 * degraded batch does strictly less scan work per query.
 *
 * Inputs, evaluated once per drained batch by the dispatcher:
 *  - queue depth as a fraction of capacity (the leading indicator:
 *    depth rises the instant arrivals outrun service rate);
 *  - measured queue-wait p95 over a sliding window of recent requests
 *    (the lagging confirmation: how much latency the backlog already
 *    cost), compared against an optional budget.
 *
 * Transitions need patience — several consecutive pressured (or calm)
 * evaluations — before stepping one tier, and the step-down watermark
 * sits well below the step-up watermark. The hysteresis band keeps the
 * policy from oscillating when load hovers near a threshold, which
 * would otherwise make recall flap batch to batch.
 */
#ifndef JUNO_SERVE_DEGRADATION_POLICY_H
#define JUNO_SERVE_DEGRADATION_POLICY_H

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"

namespace juno {

/** Tunables of the degradation state machine. */
struct DegradationConfig {
    /** Master switch; off keeps every batch at tier 0. */
    bool enabled = false;
    /**
     * Queue-wait p95 budget in microseconds; > 0 makes measured
     * queue wait a second pressure trigger (0 = depth only).
     */
    double queue_p95_budget_us = 0.0;
};

/**
 * The state machine. Thread-safe: several dispatchers may evaluate and
 * feed it concurrently; tier() is a relaxed atomic read for gauges.
 */
class DegradationPolicy {
  public:
    /** Per-batch knobs the dispatcher stamps onto SearchOptions. */
    struct Knobs {
        double nprobe_scale = 1.0; ///< 1.0 = full probe budget
        double scan_tighten = 0.0; ///< 0.0 = exact prefilter
    };

    /** Highest tier (the last row of the knob table). */
    static constexpr int kMaxTier = 3;
    /** Queue fraction at/above which a batch counts as pressured. */
    static constexpr double kHighWatermark = 0.50;
    /** Queue fraction at/below which a batch counts as calm. */
    static constexpr double kLowWatermark = 0.125;
    /** Consecutive pressured batches before stepping a tier up. */
    static constexpr int kUpPatience = 2;
    /** Consecutive calm batches before stepping a tier down. */
    static constexpr int kDownPatience = 8;

    explicit DegradationPolicy(DegradationConfig config);

    /**
     * One evaluation, called at batch drain with the instantaneous
     * backlog. Advances the hysteresis counters and returns the knobs
     * for the batch about to dispatch.
     */
    Knobs evaluate(std::size_t queue_depth, std::size_t queue_capacity)
        JUNO_EXCLUDES(mutex_);

    /** Feeds measured queue waits (microseconds) of a fulfilled batch
     * into the sliding p95 window. */
    void recordQueueWait(const std::vector<double> &waits_us)
        JUNO_EXCLUDES(mutex_);

    /** Current tier (0 = full quality), for gauges and tests. */
    int tier() const { return tier_.load(std::memory_order_relaxed); }

    /** Total tier changes (both directions), for tests/diagnostics. */
    std::uint64_t
    transitions() const
    {
        return transitions_.load(std::memory_order_relaxed);
    }

    /** The knob table: what each tier costs in probe budget. */
    static Knobs knobsForTier(int tier);

    const DegradationConfig &config() const { return config_; }

  private:
    /** Sliding queue-wait window: big enough to smooth one batch,
     * small enough to notice drain within a few batches. */
    static constexpr std::size_t kWindow = 256;

    double queueWaitP95Locked() const JUNO_REQUIRES(mutex_);

    const DegradationConfig config_;

    mutable Mutex mutex_;
    std::vector<double> window_ JUNO_GUARDED_BY(mutex_);
    std::size_t window_next_ JUNO_GUARDED_BY(mutex_) = 0;
    bool window_full_ JUNO_GUARDED_BY(mutex_) = false;
    int pressured_streak_ JUNO_GUARDED_BY(mutex_) = 0;
    int calm_streak_ JUNO_GUARDED_BY(mutex_) = 0;

    std::atomic<int> tier_{0};
    std::atomic<std::uint64_t> transitions_{0};
};

} // namespace juno

#endif // JUNO_SERVE_DEGRADATION_POLICY_H
