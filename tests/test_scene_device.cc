/** @file Tests for Scene and the OptiX-like RtDevice facade. */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"
#include "rt_oracle.h"
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
            scene.addSphere(s);
        }
    scene.build();
    return scene;
}

std::uint32_t
bits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

/** Every sphere of @p scene recorded, slot = prim id. */
RecordRange
recordAll(const Scene &scene)
{
    return {0, static_cast<std::uint32_t>(scene.sphereCount())};
}

void
expectSameStats(const TraversalStats &want, const TraversalStats &got,
                const std::string &where)
{
    EXPECT_EQ(want.rays, got.rays) << where;
    EXPECT_EQ(want.node_visits, got.node_visits) << where;
    EXPECT_EQ(want.aabb_tests, got.aabb_tests) << where;
    EXPECT_EQ(want.prim_tests, got.prim_tests) << where;
    EXPECT_EQ(want.hits, got.hits) << where;
}

/**
 * What the dense gate (every kCudaFallback packet, and a lone ray in
 * either mode) must count for a packet of @p count rays over @p record
 * that wrote @p recorded cells: one prim test per recorded sphere per
 * ray, no node visits or box tests.
 */
TraversalStats
gateStats(int count, RecordRange record, std::size_t recorded)
{
    TraversalStats stats;
    stats.rays = static_cast<std::uint64_t>(count);
    stats.prim_tests = static_cast<std::uint64_t>(count) * record.count;
    stats.hits = recorded;
    return stats;
}

TEST(Scene, AddAndBuild)
{
    const auto scene = gridScene(4);
    EXPECT_TRUE(scene.built());
    EXPECT_EQ(scene.sphereCount(), 16u);
    EXPECT_EQ(scene.sphere(6).center.x, 1.0f);
    EXPECT_EQ(scene.sphere(6).center.y, 2.0f);
}

TEST(Scene, RejectsNonPositiveRadius)
{
    Scene scene;
    Sphere s;
    s.radius = 0.0f;
    EXPECT_THROW(scene.addSphere(s), ConfigError);
}

TEST(RtDevice, TraceTileHitsExpectedSphere)
{
    const auto scene = gridScene(4);
    for (ExecMode mode : {ExecMode::kRtCore, ExecMode::kCudaFallback}) {
        RtDevice device(mode);
        Ray ray;
        ray.origin = {2.0f, 3.0f, 0.0f};
        ray.dir = {0, 0, 1};
        const float nan = std::numeric_limits<float>::quiet_NaN();
        std::vector<float> tile(scene.sphereCount(), nan);
        device.traceTile(scene, &ray, 1, recordAll(scene), tile.data());
        for (std::size_t prim = 0; prim < tile.size(); ++prim)
            EXPECT_EQ(prim == 2u * 4 + 3, !std::isnan(tile[prim]))
                << "prim " << prim;
        EXPECT_EQ(device.totalStats().hits, 1u);
    }
}

TEST(RtDevice, FallbackModeMatchesRtMode)
{
    const auto scene = gridScene(8, 0.45f);
    Rng rng(3);
    for (int i = 0; i < 40; ++i) {
        Ray ray;
        ray.origin = {rng.uniform(-0.5f, 7.5f), rng.uniform(-0.5f, 7.5f),
                      0.0f};
        ray.dir = {0, 0, 1};
        auto trace = [&](ExecMode mode) {
            RtDevice device(mode);
            std::vector<float> tile(scene.sphereCount(),
                                    std::numeric_limits<float>::quiet_NaN());
            device.traceTile(scene, &ray, 1, recordAll(scene), tile.data());
            std::vector<std::uint32_t> out(tile.size());
            for (std::size_t c = 0; c < tile.size(); ++c)
                out[c] = bits(tile[c]);
            return out;
        };
        EXPECT_EQ(trace(ExecMode::kRtCore), trace(ExecMode::kCudaFallback))
            << "ray " << i;
    }
}

TEST(RtDevice, StatsAccumulateAcrossTiles)
{
    const auto scene = gridScene(4);
    RtDevice device;
    std::vector<Ray> rays(3);
    for (auto &r : rays) {
        r.origin = {0, 0, 0};
        r.dir = {0, 0, 1};
    }
    std::vector<float> tile(scene.sphereCount() * rays.size());
    device.traceTile(scene, rays.data(), 3, recordAll(scene), tile.data());
    device.traceTile(scene, rays.data(), 3, recordAll(scene), tile.data());
    EXPECT_EQ(device.totalStats().rays, 6u);
    device.resetStats();
    EXPECT_EQ(device.totalStats().rays, 0u);
}

/**
 * traceTile() records the same tile in both execution modes: packets of
 * 1, 3, 9 and kRayLanes rays, recording a middle range of the grid's
 * spheres (the others are traced by the walk but never recorded). Per
 * lane the cells equal the oracle's thit bits for the recorded
 * spheres, at every SIMD level. kRtCore's counters for a packet of
 * two or more equal its rays' one-ray packet walks'; a lone ray (in
 * either mode) and kCudaFallback take the dense gate and count only the
 * recorded spheres.
 */
TEST(RtDevice, TraceTileMatchesSingleRaysInBothModes)
{
    const auto scene = gridScene(8, 0.8f);
    const RecordRange record{16, 24};
    const float canary = std::numeric_limits<float>::quiet_NaN();
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
        TraversalStats want_rt;
        std::size_t recorded = 0;
        for (std::size_t i = 0; i < rays.size(); ++i) {
            recorded += recordOracle(oracleTrace(rays[i], scene.spheres()),
                                     record, rays.size(), i, want.data());
            std::vector<float> lone(record.count);
            scene.traceTile(&rays[i], 1, record, lone.data(), want_rt);
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
                const std::string where =
                    std::to_string(count) + " rays, " +
                    (mode == ExecMode::kRtCore ? "rt" : "fallback") +
                    " at " + simd::levelName(level);
                for (std::size_t c = 0; c < cells; ++c)
                    EXPECT_EQ(bits(want[c]), bits(got[c]))
                        << "cell " << c << " of " << where;
                expectSameStats(mode == ExecMode::kRtCore && count > 1
                                    ? want_rt
                                    : gateStats(count, record, recorded),
                                device.totalStats(), where);
            }
    }
    simd::setLevel(saved);
}

/**
 * JUNO's scene shape: @p subspaces planes of @p entries radius-1
 * spheres 4 apart (subspace s at z = 4s + 1), prim s * entries + e.
 */
Scene
junoShapedScene(int subspaces, int entries, Rng &rng)
{
    Scene scene;
    for (int s = 0; s < subspaces; ++s)
        for (int e = 0; e < entries; ++e) {
            Sphere sphere;
            sphere.center = {rng.uniform(-0.8f, 0.8f),
                             rng.uniform(-0.8f, 0.8f),
                             4.0f * static_cast<float>(s) + 1.0f};
            sphere.radius = 1.0f;
            scene.addSphere(sphere);
        }
    scene.build();
    return scene;
}

/**
 * A +z probe ray from subspace @p s's plane whose interval reaches the
 * next planes' spheres too.
 */
Ray
longProbeRay(int s, Rng &rng)
{
    Ray ray;
    ray.origin = {rng.uniform(-0.8f, 0.8f), rng.uniform(-0.8f, 0.8f),
                  4.0f * static_cast<float>(s)};
    ray.tmin = -1e-4f;
    ray.tmax = 12.0f;
    return ray;
}

/**
 * The no-RT fallback tests a ray against its own subspace's spheres
 * only. On JUNO's scene shape, with long rays that also hit the next
 * planes' spheres, the kCudaFallback tile equals the packet walk's
 * (Scene::traceTile) bit for bit at every level, and it counts exactly
 * count rays, count * E prim tests and the written cells as hits, with
 * no node visits or box tests.
 */
TEST(RtDevice, FallbackScansOnlyItsSubspace)
{
    const int subspaces = 4, entries = 40;
    Rng rng(83);
    const Scene scene = junoShapedScene(subspaces, entries, rng);
    const float canary = std::numeric_limits<float>::quiet_NaN();
    const simd::Level saved = simd::level();
    for (int s = 0; s + 1 < subspaces; ++s)
        for (int count : {1, 5, simd::kRayLanes}) {
            std::vector<Ray> rays(static_cast<std::size_t>(count));
            std::size_t all_hits = 0;
            for (auto &ray : rays) {
                ray = longProbeRay(s, rng);
                all_hits += oracleTrace(ray, scene.spheres()).hits.size();
            }
            const RecordRange record{static_cast<std::uint32_t>(s * entries),
                                     static_cast<std::uint32_t>(entries)};
            const std::size_t cells =
                static_cast<std::size_t>(entries) * rays.size();
            for (simd::Level level : {simd::Level::kScalar,
                                      simd::Level::kAvx2,
                                      simd::Level::kAvx512}) {
                if (!simd::setLevel(level))
                    continue;
                RtDevice scan(ExecMode::kCudaFallback);
                std::vector<float> want(cells, canary), got(cells, canary);
                TraversalStats walked;
                scene.traceTile(rays.data(), count, record, want.data(),
                                walked);
                scan.traceTile(scene, rays.data(), count, record,
                               got.data());
                std::size_t recorded = 0;
                for (std::size_t c = 0; c < cells; ++c) {
                    EXPECT_EQ(bits(want[c]), bits(got[c])) << "cell " << c;
                    recorded += std::isnan(got[c]) ? 0 : 1;
                }
                const std::string where =
                    "subspace " + std::to_string(s) + ", " +
                    std::to_string(count) + " rays at " +
                    simd::levelName(level);
                EXPECT_GT(recorded, 0u) << where;
                EXPECT_GT(all_hits, recorded)
                    << where << ": no foreign hit to skip";
                expectSameStats(gateStats(count, record, recorded),
                                scan.totalStats(), where);
            }
        }
    simd::setLevel(saved);
}

/**
 * Under kRtCore a lone ray takes the dense gate, not the walk: at
 * every level its tile equals the packet walk's (a one-ray
 * Scene::traceTile) bit for bit, with a guard of canary cells on each
 * side left untouched, and it counts exactly 1 ray, E prim tests, the
 * written cells as hits and no node visits or box tests, although the
 * walk also hits other subspaces' spheres (which neither records).
 */
TEST(RtDevice, LoneRayTakesDenseGate)
{
    const int subspaces = 5, entries = 37;
    Rng rng(91);
    const Scene scene = junoShapedScene(subspaces, entries, rng);
    const float canary = std::numeric_limits<float>::quiet_NaN();
    const std::size_t guard = simd::kRayLanes;
    const std::size_t cells = static_cast<std::size_t>(entries) + 2 * guard;
    const simd::Level saved = simd::level();
    for (int trial = 0; trial < 24; ++trial) {
        const int s = trial % (subspaces - 1);
        const Ray ray = longProbeRay(s, rng);
        const RecordRange record{static_cast<std::uint32_t>(s * entries),
                                 static_cast<std::uint32_t>(entries)};
        std::vector<float> want(cells, canary);
        TraversalStats walked;
        scene.traceTile(&ray, 1, record, want.data() + guard, walked);
        std::size_t recorded = 0;
        for (float t : want)
            recorded += std::isnan(t) ? 0 : 1;
        EXPECT_GT(walked.hits, recorded)
            << "trial " << trial << ": no foreign hit to skip";
        EXPECT_GT(walked.node_visits, 0u);
        for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2,
                                  simd::Level::kAvx512}) {
            if (!simd::setLevel(level))
                continue;
            RtDevice device(ExecMode::kRtCore);
            std::vector<float> got(cells, canary);
            device.traceTile(scene, &ray, 1, record, got.data() + guard);
            const std::string where = "trial " + std::to_string(trial) +
                                      " at " + simd::levelName(level);
            for (std::size_t c = 0; c < cells; ++c)
                EXPECT_EQ(bits(want[c]), bits(got[c]))
                    << "cell " << c << " (guard " << guard << ") of "
                    << where;
            TraversalStats exact;
            exact.rays = 1;
            exact.prim_tests = static_cast<std::uint64_t>(entries);
            exact.hits = recorded;
            expectSameStats(exact, device.totalStats(), where);
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
