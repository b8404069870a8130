/**
 * @file
 * Tests of the tiered degradation state machine: patience-gated tier
 * steps, the hysteresis band between the watermarks, the queue-wait
 * p95 trigger and the per-tier knob table.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "serve/degradation_policy.h"

namespace juno {
namespace {

DegradationConfig
baseConfig()
{
    DegradationConfig config;
    config.enabled = true;
    return config;
}

/** @p n calm evaluations (depth under the low watermark). */
void
evaluateCalm(DegradationPolicy &policy, int n)
{
    for (int i = 0; i < n; ++i)
        policy.evaluate(2, 100);
}

TEST(DegradationPolicy, TierZeroKnobsAreNeutral)
{
    const auto knobs = DegradationPolicy::knobsForTier(0);
    EXPECT_DOUBLE_EQ(knobs.nprobe_scale, 1.0);
    EXPECT_DOUBLE_EQ(knobs.scan_tighten, 0.0);
}

TEST(DegradationPolicy, KnobTableIsMonotonicallyMoreAggressive)
{
    double prev_scale = 1.5;
    double prev_tighten = -1.0;
    for (int tier = 0; tier <= DegradationPolicy::kMaxTier; ++tier) {
        const auto knobs = DegradationPolicy::knobsForTier(tier);
        EXPECT_LT(knobs.nprobe_scale, prev_scale) << "tier " << tier;
        EXPECT_GT(knobs.scan_tighten, prev_tighten) << "tier " << tier;
        EXPECT_GT(knobs.nprobe_scale, 0.0);
        EXPECT_LT(knobs.scan_tighten, 1.0);
        prev_scale = knobs.nprobe_scale;
        prev_tighten = knobs.scan_tighten;
    }
}

TEST(DegradationPolicy, StepsUpOnlyAfterUpPatience)
{
    DegradationPolicy policy(baseConfig());
    // One pressured evaluation is not enough (patience = 2)...
    policy.evaluate(80, 100);
    EXPECT_EQ(policy.tier(), 0);
    // ...the second consecutive one steps to tier 1.
    const auto knobs = policy.evaluate(80, 100);
    EXPECT_EQ(policy.tier(), 1);
    EXPECT_DOUBLE_EQ(knobs.nprobe_scale,
                     DegradationPolicy::knobsForTier(1).nprobe_scale);
    EXPECT_EQ(policy.transitions(), 1u);
}

TEST(DegradationPolicy, StepsDownOnlyAfterDownPatience)
{
    DegradationPolicy policy(baseConfig());
    policy.evaluate(80, 100);
    policy.evaluate(80, 100);
    ASSERT_EQ(policy.tier(), 1);
    // Calm evaluations below the low watermark.
    evaluateCalm(policy, DegradationPolicy::kDownPatience - 1);
    EXPECT_EQ(policy.tier(), 1); // still waiting
    evaluateCalm(policy, 1);
    EXPECT_EQ(policy.tier(), 0);
    EXPECT_EQ(policy.transitions(), 2u);
}

TEST(DegradationPolicy, HysteresisBandResetsBothStreaks)
{
    DegradationPolicy policy(baseConfig());
    policy.evaluate(80, 100); // pressured x1
    // In-band (between watermarks): neither pressured nor calm, and it
    // must clear the pressured streak — load hovering at the threshold
    // cannot ratchet the tier up.
    policy.evaluate(30, 100);
    policy.evaluate(80, 100); // pressured x1 again
    EXPECT_EQ(policy.tier(), 0);
    policy.evaluate(80, 100); // x2 -> step
    EXPECT_EQ(policy.tier(), 1);
    // Same on the way down: calm short of patience, in-band, calm
    // must restart.
    evaluateCalm(policy, DegradationPolicy::kDownPatience - 1);
    policy.evaluate(30, 100);
    evaluateCalm(policy, DegradationPolicy::kDownPatience - 1);
    EXPECT_EQ(policy.tier(), 1); // streak broken, no step yet
    evaluateCalm(policy, 1);
    EXPECT_EQ(policy.tier(), 0);
}

TEST(DegradationPolicy, ClampsAtMaxTier)
{
    DegradationPolicy policy(baseConfig());
    for (int i = 0; i < 20; ++i)
        policy.evaluate(99, 100);
    EXPECT_EQ(policy.tier(), DegradationPolicy::kMaxTier);
    EXPECT_EQ(policy.transitions(),
              static_cast<std::uint64_t>(DegradationPolicy::kMaxTier));
}

TEST(DegradationPolicy, QueueWaitP95TriggersPressureUnderBudget)
{
    auto config = baseConfig();
    config.queue_p95_budget_us = 1000.0;
    DegradationPolicy policy(config);
    // Depth is calm, but measured queue waits blow the budget: the
    // lagging signal alone must drive the tier up.
    std::vector<double> slow(64, 5000.0);
    policy.recordQueueWait(slow);
    policy.evaluate(0, 100);
    policy.evaluate(0, 100);
    EXPECT_EQ(policy.tier(), 1);
    // And a drained window steps it back down (p95 well under budget,
    // depth already calm).
    std::vector<double> fast(512, 10.0); // overwrite the whole window
    policy.recordQueueWait(fast);
    for (int i = 0; i < DegradationPolicy::kDownPatience; ++i)
        policy.evaluate(0, 100);
    EXPECT_EQ(policy.tier(), 0);
}

TEST(DegradationPolicy, RejectsBadConfig)
{
    auto bad = baseConfig();
    bad.queue_p95_budget_us = -1.0;
    EXPECT_THROW({ DegradationPolicy p(bad); }, ConfigError);
}

TEST(DegradationPolicy, ConcurrentEvaluateAndRecordAreSafe)
{
    DegradationPolicy policy(baseConfig());
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            std::vector<double> waits(16, 100.0 * (t + 1));
            for (int i = 0; i < 500; ++i) {
                policy.evaluate(i % 100, 100);
                policy.recordQueueWait(waits);
            }
        });
    for (auto &t : threads)
        t.join();
    EXPECT_GE(policy.tier(), 0);
    EXPECT_LE(policy.tier(), DegradationPolicy::kMaxTier);
}

} // namespace
} // namespace juno
