/** @file Tests for the two-stage pipeline executor. */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/pipeline.h"

namespace juno {
namespace {

TEST(Pipeline, PipelinedProcessesEveryItemOnce)
{
    std::vector<std::atomic<int>> s1(20), s2(20);
    auto stage1 = [&](idx_t i) {
        s1[static_cast<std::size_t>(i)].fetch_add(1);
    };
    auto stage2 = [&](idx_t i) {
        s2[static_cast<std::size_t>(i)].fetch_add(1);
    };
    runTwoStagePipeline(20, stage1, stage2);
    for (int i = 0; i < 20; ++i) {
        EXPECT_EQ(s1[static_cast<std::size_t>(i)].load(), 1);
        EXPECT_EQ(s2[static_cast<std::size_t>(i)].load(), 1);
    }
}

TEST(Pipeline, Stage2SeesStage1Output)
{
    std::vector<int> buffer(10, 0);
    std::vector<int> consumed(10, 0);
    auto stage1 = [&](idx_t i) {
        buffer[static_cast<std::size_t>(i)] = static_cast<int>(i) + 100;
    };
    auto stage2 = [&](idx_t i) {
        consumed[static_cast<std::size_t>(i)] =
            buffer[static_cast<std::size_t>(i)];
    };
    runTwoStagePipeline(10, stage1, stage2);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(consumed[static_cast<std::size_t>(i)], i + 100);
}

TEST(Pipeline, BusyTimesAreMeasured)
{
    auto spin = [](idx_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    };
    const auto result = runTwoStagePipeline(5, spin, spin);
    EXPECT_GE(result.stage1_seconds, 0.008);
    EXPECT_GE(result.stage2_seconds, 0.008);
    // Every stage call runs inside the wall interval, and each stage's
    // calls are serial, so the wall covers the busier stage.
    EXPECT_GE(result.wall_seconds, result.modelledPipelinedSeconds());
}

TEST(Pipeline, ModelledBoundsAreConsistent)
{
    PipelineResult r;
    r.stage1_seconds = 3.0;
    r.stage2_seconds = 1.0;
    EXPECT_DOUBLE_EQ(r.modelledPipelinedSeconds(), 3.0);
    EXPECT_DOUBLE_EQ(r.modelledSequentialSeconds(), 4.0);
}

TEST(Pipeline, PipelinedWallAtMostSequentialPlusSlack)
{
    // With sleep-bound stages, overlapping must not be slower than the
    // strict sum of the same run's stage busy times (allow generous
    // scheduling slack on loaded hosts).
    auto sleepy = [](idx_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
    };
    const auto pipe = runTwoStagePipeline(8, sleepy, sleepy);
    EXPECT_LT(pipe.wall_seconds, pipe.modelledSequentialSeconds() * 1.5);
}

TEST(Pipeline, ZeroAndSingleItem)
{
    int calls = 0;
    auto count = [&](idx_t) { ++calls; };
    runTwoStagePipeline(0, count, count);
    EXPECT_EQ(calls, 0);
    runTwoStagePipeline(1, count, count);
    EXPECT_EQ(calls, 2);
}

} // namespace
} // namespace juno
