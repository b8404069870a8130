/** @file Tests for Scene and the OptiX-like RtDevice facade. */
#include <gtest/gtest.h>

#include <cstring>
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
    device.launch(scene, rays, perRay([&](std::size_t, const Hit &hit) {
        hit_ids.push_back(hit.user_id);
        return true;
    }));
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
                      perRay([&](std::size_t ray, const Hit &hit) {
                          hits.insert({rays[ray].payload, hit.user_id});
                          return true;
                      }));
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
    auto all = perRay([](std::size_t, const Hit &) { return true; });
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
        scene, rays, perRay([](std::size_t, const Hit &) { return true; }));
    EXPECT_EQ(result.stats.rays, 2u);
    EXPECT_EQ(result.stats.hits, 2u);
    EXPECT_GE(result.seconds, 0.0);
}

/**
 * launch() must cut the rays into coherent runs and trace them as
 * packets: runs of 1 and 3 that share an origin plane but not a
 * direction, a run of kRayLanes (16), and a run of kRayLanes + 3 split
 * kRayLanes + 3. Every call's
 * (first, n) is one of those packets, and per ray the hits (prim_id
 * and thit bits) and the launch counters equal Bvh::traverse's, at
 * every SIMD level.
 */
TEST(RtDevice, LaunchTracesCoherentRunsAsPackets)
{
    const auto scene = gridScene(8, 0.8f);
    std::vector<Ray> rays;
    Rng rng(17);
    auto addRun = [&](std::size_t count, float z, Vec3 dir) {
        for (std::size_t i = 0; i < count; ++i) {
            Ray ray;
            ray.origin = {rng.uniform(0.0f, 7.0f), rng.uniform(0.0f, 7.0f),
                          z};
            ray.dir = dir;
            rays.push_back(ray);
        }
    };
    addRun(1, 0.0f, {0.0f, 0.0f, 1.0f});
    addRun(3, 0.0f, {0.1f, -0.05f, 1.0f}); // direction change, same plane
    constexpr int kL = simd::kRayLanes;
    constexpr auto kLz = static_cast<std::size_t>(kL);
    addRun(kLz, 0.3f, {0.0f, 0.0f, 1.0f});
    addRun(kLz + 3, 0.6f, {0.0f, 0.0f, 1.0f});
    const std::set<std::pair<std::size_t, int>> packets = {
        {0, 1}, {1, 3}, {4, kL}, {4 + kLz, kL}, {4 + 2 * kLz, 3}};

    using HitSeq = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
    auto bits = [](float f) {
        std::uint32_t u;
        std::memcpy(&u, &f, sizeof(u));
        return u;
    };
    std::vector<HitSeq> want(rays.size());
    TraversalStats want_stats;
    for (std::size_t i = 0; i < rays.size(); ++i)
        scene.bvh().traverse(rays[i], scene.spheres(), want_stats,
                             [&](const Hit &hit) {
                                 want[i].push_back(
                                     {hit.prim_id, bits(hit.thit)});
                                 return true;
                             });

    const simd::Level saved = simd::level();
    for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2,
                              simd::Level::kAvx512}) {
        if (!simd::setLevel(level))
            continue;
        RtDevice device;
        std::vector<HitSeq> got(rays.size());
        std::set<std::pair<std::size_t, int>> seen;
        const auto result = device.launch(
            scene, rays,
            [&](std::size_t first, int n, const PacketHit &hit) {
                EXPECT_TRUE(packets.count({first, n}))
                    << "packet (" << first << ", " << n << ") at "
                    << simd::levelName(level);
                EXPECT_NE(hit.mask, 0u);
                EXPECT_EQ(hit.mask >> n, 0u);
                seen.insert({first, n});
                for (int lane = 0; lane < n; ++lane)
                    if (hit.mask >> lane & 1u)
                        got[first + static_cast<std::size_t>(lane)]
                            .push_back({hit.prim_id, bits(hit.thit[lane])});
                return 0u;
            });
        EXPECT_EQ(seen, packets) << simd::levelName(level);
        for (std::size_t i = 0; i < rays.size(); ++i) {
            EXPECT_FALSE(want[i].empty()) << "ray " << i;
            EXPECT_EQ(want[i], got[i])
                << "ray " << i << " at " << simd::levelName(level);
        }
        EXPECT_EQ(want_stats.rays, result.stats.rays);
        EXPECT_EQ(want_stats.node_visits, result.stats.node_visits);
        EXPECT_EQ(want_stats.aabb_tests, result.stats.aabb_tests);
        EXPECT_EQ(want_stats.prim_tests, result.stats.prim_tests);
        EXPECT_EQ(want_stats.hits, result.stats.hits);
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
