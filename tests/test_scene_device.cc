/** @file Tests for Scene and the OptiX-like RtDevice facade. */
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"
#include "rtcore/device.h"

namespace juno {
namespace rt {
namespace {

Scene
gridScene(int side, float radius = 0.2f)
{
    Scene scene;
    for (int i = 0; i < side; ++i)
        for (int j = 0; j < side; ++j) {
            Sphere s;
            s.center = {static_cast<float>(i), static_cast<float>(j), 1.0f};
            s.radius = radius;
            s.user_id =
                static_cast<std::uint64_t>(i * side + j);
            scene.addSphere(s);
        }
    scene.build();
    return scene;
}

TEST(Scene, AddAndBuild)
{
    const auto scene = gridScene(4);
    EXPECT_TRUE(scene.built());
    EXPECT_EQ(scene.sphereCount(), 16u);
    EXPECT_EQ(scene.sphere(5).user_id, 5u);
}

TEST(Scene, RejectsNonPositiveRadius)
{
    Scene scene;
    Sphere s;
    s.radius = 0.0f;
    EXPECT_THROW(scene.addSphere(s), ConfigError);
}

TEST(RtDevice, LaunchHitsExpectedSphere)
{
    const auto scene = gridScene(4);
    RtDevice device;
    std::vector<Ray> rays(1);
    rays[0].origin = {2.0f, 3.0f, 0.0f};
    rays[0].dir = {0, 0, 1};

    std::vector<std::uint64_t> hit_ids;
    device.launch(scene, rays, [&](std::size_t, const Hit &hit) {
        hit_ids.push_back(hit.user_id);
        return true;
    });
    ASSERT_EQ(hit_ids.size(), 1u);
    EXPECT_EQ(hit_ids[0], 2u * 4 + 3);
}

TEST(RtDevice, FallbackModeMatchesRtMode)
{
    const auto scene = gridScene(8, 0.45f);
    std::vector<Ray> rays;
    Rng rng(3);
    for (int i = 0; i < 40; ++i) {
        Ray ray;
        ray.origin = {rng.uniform(-0.5f, 7.5f), rng.uniform(-0.5f, 7.5f),
                      0.0f};
        ray.dir = {0, 0, 1};
        ray.payload = static_cast<std::uint64_t>(i);
        rays.push_back(ray);
    }

    auto collect = [&](ExecMode mode) {
        RtDevice device(mode);
        std::set<std::pair<std::uint64_t, std::uint64_t>> hits;
        device.launch(scene, rays,
                      [&](std::size_t ray, const Hit &hit) {
                          hits.insert({rays[ray].payload, hit.user_id});
                          return true;
                      });
        return hits;
    };
    EXPECT_EQ(collect(ExecMode::kRtCore),
              collect(ExecMode::kCudaFallback));
}

TEST(RtDevice, StatsAccumulateAcrossLaunches)
{
    const auto scene = gridScene(4);
    RtDevice device;
    std::vector<Ray> rays(3);
    for (auto &r : rays) {
        r.origin = {0, 0, 0};
        r.dir = {0, 0, 1};
    }
    auto all = [](std::size_t, const Hit &) { return true; };
    device.launch(scene, rays, all);
    device.launch(scene, rays, all);
    EXPECT_EQ(device.totalStats().rays, 6u);
    device.resetStats();
    EXPECT_EQ(device.totalStats().rays, 0u);
}

TEST(RtDevice, LaunchReturnsPerLaunchStats)
{
    const auto scene = gridScene(4);
    RtDevice device;
    std::vector<Ray> rays(2);
    for (auto &r : rays) {
        r.origin = {1, 1, 0};
        r.dir = {0, 0, 1};
    }
    const auto result = device.launch(
        scene, rays, [](std::size_t, const Hit &) { return true; });
    EXPECT_EQ(result.stats.rays, 2u);
    EXPECT_EQ(result.stats.hits, 2u);
    EXPECT_GE(result.seconds, 0.0);
}

/**
 * traceTile() records the same tile in both execution modes: packets of
 * 1, 3, 9 and kRayLanes rays, recording a middle range of the grid's
 * spheres (the others are traced but never recorded). Per lane the
 * cells equal the thit bits Bvh::traverse reports for the recorded
 * spheres, at every SIMD level; kRtCore's counters equal traverse()'s
 * and kCudaFallback's equal traverseLinear()'s.
 */
TEST(RtDevice, TraceTileMatchesSingleRaysInBothModes)
{
    const auto scene = gridScene(8, 0.8f);
    const RecordRange record{16, 24};
    const float canary = std::numeric_limits<float>::quiet_NaN();
    auto bits = [](float f) {
        std::uint32_t u;
        std::memcpy(&u, &f, sizeof(u));
        return u;
    };
    Rng rng(17);
    const simd::Level saved = simd::level();
    for (int count : {1, 3, 9, simd::kRayLanes}) {
        std::vector<Ray> rays(static_cast<std::size_t>(count));
        for (auto &ray : rays)
            ray.origin = {rng.uniform(0.0f, 7.0f), rng.uniform(0.0f, 7.0f),
                          0.0f};
        const std::size_t cells =
            static_cast<std::size_t>(record.count) * rays.size();
        std::vector<float> want(cells, canary);
        TraversalStats want_rt, want_linear;
        std::size_t recorded = 0;
        for (std::size_t i = 0; i < rays.size(); ++i) {
            scene.bvh().traverse(rays[i], scene.spheres(), want_rt,
                                 [&](const Hit &hit) {
                                     const std::uint32_t slot =
                                         hit.prim_id - record.first;
                                     if (slot < record.count) {
                                         want[slot * rays.size() + i] =
                                             hit.thit;
                                         ++recorded;
                                     }
                                     return true;
                                 });
            Bvh::traverseLinear(rays[i], scene.spheres(), want_linear,
                                [](const Hit &) { return true; });
        }
        EXPECT_GT(recorded, 0u) << count << " rays";

        for (ExecMode mode : {ExecMode::kRtCore, ExecMode::kCudaFallback})
            for (simd::Level level : {simd::Level::kScalar,
                                      simd::Level::kAvx2,
                                      simd::Level::kAvx512}) {
                if (!simd::setLevel(level))
                    continue;
                RtDevice device(mode);
                std::vector<float> got(cells, canary);
                device.traceTile(scene, rays.data(), count, record,
                                 got.data());
                const TraversalStats &stats = device.totalStats();
                for (std::size_t c = 0; c < cells; ++c)
                    EXPECT_EQ(bits(want[c]), bits(got[c]))
                        << "cell " << c << " of " << count << " rays, "
                        << (mode == ExecMode::kRtCore ? "rt" : "linear")
                        << " at " << simd::levelName(level);
                const TraversalStats &ref =
                    mode == ExecMode::kRtCore ? want_rt : want_linear;
                EXPECT_EQ(ref.rays, stats.rays);
                EXPECT_EQ(ref.node_visits, stats.node_visits);
                EXPECT_EQ(ref.aabb_tests, stats.aabb_tests);
                EXPECT_EQ(ref.prim_tests, stats.prim_tests);
                EXPECT_EQ(ref.hits, stats.hits);
            }
    }
    simd::setLevel(saved);
}

TEST(RtCostModel, PresetsOrderAsExpected)
{
    // Gen-3 (4090) > Gen-2 (A40) > no-RT (A100) throughput.
    TraversalStats stats;
    stats.rays = 100;
    stats.node_visits = 1000;
    stats.prim_tests = 500;
    const double t4090 = costModelRtx4090().cost(stats);
    const double ta40 = costModelA40().cost(stats);
    const double ta100 = costModelA100().cost(stats);
    EXPECT_LT(t4090, ta40);
    EXPECT_LT(ta40, ta100);
    EXPECT_NEAR(ta40 / t4090, 2.0, 1e-9);
}

TEST(RtCostModel, CostScalesWithCounters)
{
    RtCostModel m;
    TraversalStats small, big;
    small.node_visits = 10;
    big.node_visits = 100;
    EXPECT_LT(m.cost(small), m.cost(big));
}

} // namespace
} // namespace rt
} // namespace juno
