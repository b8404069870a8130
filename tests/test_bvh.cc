/** @file Tests for the BVH builder and traversal. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "common/rng.h"
#include "common/simd.h"
#include "rtcore/bvh.h"

namespace juno {
namespace rt {
namespace {

std::vector<Sphere>
randomSpheres(std::size_t n, std::uint64_t seed, float radius = 0.05f)
{
    Rng rng(seed);
    std::vector<Sphere> spheres(n);
    for (std::size_t i = 0; i < n; ++i) {
        spheres[i].center = {rng.uniform(-1.0f, 1.0f),
                             rng.uniform(-1.0f, 1.0f),
                             rng.uniform(0.0f, 4.0f)};
        spheres[i].radius = radius;
        spheres[i].user_id = i;
    }
    return spheres;
}

/** Collects hit prim ids of a ray via the given traversal. */
template <typename TraceFn>
std::set<std::uint32_t>
hitSet(TraceFn &&trace)
{
    std::set<std::uint32_t> out;
    trace([&](const Hit &hit) {
        out.insert(hit.prim_id);
        return true;
    });
    return out;
}

TEST(Bvh, EmptyBuildIsHarmless)
{
    Bvh bvh;
    bvh.build({});
    EXPECT_TRUE(bvh.empty());
    TraversalStats stats;
    Ray ray;
    bvh.traverse(ray, {}, stats, [](const Hit &) { return true; });
    EXPECT_EQ(stats.hits, 0u);
}

TEST(Bvh, SinglePrimitive)
{
    std::vector<Sphere> spheres(1);
    spheres[0].center = {0, 0, 1};
    spheres[0].radius = 0.5f;
    Bvh bvh;
    bvh.build(spheres);
    EXPECT_EQ(bvh.nodeCount(), 1u);

    Ray ray;
    ray.origin = {0, 0, 0};
    ray.dir = {0, 0, 1};
    TraversalStats stats;
    int hits = 0;
    bvh.traverse(ray, spheres, stats, [&](const Hit &) {
        ++hits;
        return true;
    });
    EXPECT_EQ(hits, 1);
}

/** Per-ray hit sequence: (prim_id, thit bits) in delivery order. */
using HitSeq = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

std::uint32_t
bitsOf(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

void
expectSameStats(const TraversalStats &want, const TraversalStats &got)
{
    EXPECT_EQ(want.rays, got.rays);
    EXPECT_EQ(want.node_visits, got.node_visits);
    EXPECT_EQ(want.aabb_tests, got.aabb_tests);
    EXPECT_EQ(want.prim_tests, got.prim_tests);
    EXPECT_EQ(want.hits, got.hits);
}

/** Every dispatch level this host can run. */
std::vector<simd::Level>
supportedLevels()
{
    std::vector<simd::Level> out;
    for (simd::Level l : {simd::Level::kScalar, simd::Level::kAvx2,
                          simd::Level::kAvx512})
        if (simd::supported(l))
            out.push_back(l);
    return out;
}

/** Restores the active dispatch level when a test scope ends. */
struct LevelGuard {
    simd::Level saved = simd::level();
    ~LevelGuard() { simd::setLevel(saved); }
};

/**
 * Adapts per-lane any-hit programs fn(int lane, const Hit&) -> bool to
 * the packet walk's signature, lanes in ascending order; also checks
 * that every delivery is a non-empty subset of the packet's lanes.
 */
template <typename LaneFn>
auto
eachLane(int count, LaneFn &&fn)
{
    return [count, &fn](const PacketHit &hit) {
        EXPECT_NE(hit.mask, 0u);
        EXPECT_EQ(hit.mask >> count, 0u);
        std::uint32_t stop = 0;
        for (int lane = 0; lane < count; ++lane) {
            if ((hit.mask >> lane & 1u) == 0)
                continue;
            Hit h;
            h.prim_id = hit.prim_id;
            h.user_id = hit.user_id;
            h.thit = hit.thit[lane];
            if (!fn(lane, static_cast<const Hit &>(h)))
                stop |= 1u << lane;
        }
        return stop;
    };
}

/** Per-ray reference: each ray alone through traverse(). */
std::vector<HitSeq>
singleRayHits(const Bvh &bvh, const std::vector<Sphere> &spheres,
              const std::vector<Ray> &rays, const std::vector<int> &stop,
              TraversalStats &stats)
{
    std::vector<HitSeq> out(rays.size());
    for (std::size_t i = 0; i < rays.size(); ++i) {
        const std::size_t stop_at =
            i < stop.size() ? static_cast<std::size_t>(stop[i]) : 0u;
        bvh.traverse(rays[i], spheres, stats, [&](const Hit &hit) {
            out[i].push_back({hit.prim_id, bitsOf(hit.thit)});
            return out[i].size() != stop_at;
        });
    }
    return out;
}

/**
 * Traces @p rays one at a time with traverse() and together with
 * traversePacket(), at every supported dispatch level. Lane j's any-hit
 * program returns false on its stop[j]-th hit (0: never), the same rule
 * for both walks. Asserts equal per-ray hit sequences and counters.
 */
void
expectPacketMatchesSingle(const Bvh &bvh, const std::vector<Sphere> &spheres,
                          const std::vector<Ray> &rays,
                          const std::vector<int> &stop = {})
{
    ASSERT_GE(rays.size(), 1u);
    ASSERT_LE(rays.size(), static_cast<std::size_t>(simd::kRayLanes));
    auto stopAt = [&](std::size_t lane) {
        return lane < stop.size() ? static_cast<std::size_t>(stop[lane])
                                  : 0u;
    };
    TraversalStats want_stats;
    const std::vector<HitSeq> want =
        singleRayHits(bvh, spheres, rays, stop, want_stats);

    LevelGuard guard;
    for (simd::Level level : supportedLevels()) {
        ASSERT_TRUE(simd::setLevel(level));
        std::vector<HitSeq> got(rays.size());
        TraversalStats got_stats;
        const int count = static_cast<int>(rays.size());
        bvh.traversePacket(
            rays.data(), count, spheres, got_stats,
            eachLane(count, [&](int lane, const Hit &hit) {
                auto &seq = got[static_cast<std::size_t>(lane)];
                seq.push_back({hit.prim_id, bitsOf(hit.thit)});
                return seq.size() != stopAt(static_cast<std::size_t>(lane));
            }));
        for (std::size_t i = 0; i < rays.size(); ++i)
            EXPECT_EQ(want[i], got[i])
                << "ray " << i << " at " << simd::levelName(level);
        expectSameStats(want_stats, got_stats);
    }
}

/**
 * A random ray: mixed-sign directions with zero components (infinite
 * inverse direction), origins on node slab planes (0 * inf = NaN
 * slabs), empty intervals (tmin > tmax) and rays beside the root box.
 */
Ray
adversarialRay(Rng &rng, const Bvh &bvh)
{
    Ray ray;
    ray.origin = {rng.uniform(-1.3f, 1.3f), rng.uniform(-1.3f, 1.3f),
                  rng.uniform(-1.0f, 5.0f)};
    ray.dir = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f),
               rng.uniform(-1.0f, 1.0f)};
    ray.tmin = rng.uniform(-1.0f, 0.5f);
    ray.tmax = rng.uniform(0.5f, 8.0f);
    switch (rng.below(8)) {
      case 0: // axis-aligned: two zero components
        ray.dir = {0.0f, 0.0f, rng.uniform() < 0.5 ? 1.0f : -1.0f};
        break;
      case 1: // one zero component, origin on a node's slab plane
        ray.dir.x = 0.0f;
        if (!bvh.empty()) {
            const auto &nodes = bvh.nodes();
            const auto &box = nodes[rng.below(nodes.size())].bounds;
            ray.origin.x = rng.uniform() < 0.5 ? box.lo.x : box.hi.x;
        }
        break;
      case 2: // empty interval
        std::swap(ray.tmin, ray.tmax);
        break;
      case 3: // misses the root box
        ray.origin.x = 50.0f;
        ray.dir = {0.0f, 0.0f, 1.0f};
        break;
      case 4: // unbounded interval
        ray.tmin = 0.0f;
        ray.tmax = std::numeric_limits<float>::max();
        break;
      default:
        break;
    }
    return ray;
}

/** Core property: BVH traversal finds exactly the brute-force hit set. */
class BvhEquivalence
    : public ::testing::TestWithParam<std::tuple<int, SplitPolicy>> {};

TEST_P(BvhEquivalence, MatchesLinearScan)
{
    const int n = std::get<0>(GetParam());
    const SplitPolicy policy = std::get<1>(GetParam());
    const auto spheres =
        randomSpheres(static_cast<std::size_t>(n), 100 + n, 0.08f);
    Bvh bvh;
    BvhBuildParams params;
    params.policy = policy;
    bvh.build(spheres, params);

    Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        Ray ray;
        ray.origin = {rng.uniform(-1.2f, 1.2f), rng.uniform(-1.2f, 1.2f),
                      -0.5f};
        ray.dir = {0, 0, 1};
        ray.tmax = rng.uniform(0.5f, 6.0f);

        TraversalStats s1, s2;
        const auto bvh_hits = hitSet([&](auto &&fn) {
            bvh.traverse(ray, spheres, s1, fn);
        });
        const auto lin_hits = hitSet([&](auto &&fn) {
            Bvh::traverseLinear(ray, spheres, s2, fn);
        });
        EXPECT_EQ(bvh_hits, lin_hits) << "trial " << trial;
    }
}

/** Core property: a packet walk equals its rays' single-ray walks. */
TEST_P(BvhEquivalence, PacketMatchesSingleRays)
{
    const int n = std::get<0>(GetParam());
    const auto spheres =
        randomSpheres(static_cast<std::size_t>(n), 200 + n, 0.3f);
    Bvh bvh;
    BvhBuildParams params;
    params.policy = std::get<1>(GetParam());
    bvh.build(spheres, params);

    Rng rng(31 + static_cast<std::uint64_t>(n));
    for (int trial = 0; trial < 60; ++trial) {
        const auto count = 1 + rng.below(simd::kRayLanes);
        std::vector<Ray> rays;
        for (std::uint64_t i = 0; i < count; ++i)
            rays.push_back(adversarialRay(rng, bvh));
        expectPacketMatchesSingle(bvh, spheres, rays);
    }
}

/** JUNO-shaped packets: +z rays from one plane, per-lane tmax gates. */
TEST_P(BvhEquivalence, CoherentPacketMatchesSingleRays)
{
    const int n = std::get<0>(GetParam());
    const auto spheres =
        randomSpheres(static_cast<std::size_t>(n), 300 + n, 0.4f);
    Bvh bvh;
    BvhBuildParams params;
    params.policy = std::get<1>(GetParam());
    bvh.build(spheres, params);

    Rng rng(41 + static_cast<std::uint64_t>(n));
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<Ray> rays(simd::kRayLanes);
        const float z = rng.uniform(-1.0f, 3.0f);
        for (auto &ray : rays) {
            ray.origin = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f),
                          z};
            ray.tmax = rng.uniform(0.2f, 2.0f);
        }
        expectPacketMatchesSingle(bvh, spheres, rays);
    }
}

/** Lane j's any-hit program stopping on its k-th hit stops lane j only. */
TEST_P(BvhEquivalence, PacketTerminationStopsOneLane)
{
    const int n = std::get<0>(GetParam());
    const auto spheres =
        randomSpheres(static_cast<std::size_t>(n), 400 + n, 0.5f);
    Bvh bvh;
    BvhBuildParams params;
    params.policy = std::get<1>(GetParam());
    bvh.build(spheres, params);

    Rng rng(51 + static_cast<std::uint64_t>(n));
    std::vector<Ray> rays(simd::kRayLanes);
    for (auto &ray : rays) {
        ray.origin = {rng.uniform(-0.5f, 0.5f), rng.uniform(-0.5f, 0.5f),
                      -1.0f};
        ray.tmax = 8.0f;
    }
    for (int lane = 0; lane < simd::kRayLanes; ++lane)
        for (int k = 1; k <= 3; ++k) {
            std::vector<int> stop(simd::kRayLanes, 0);
            stop[static_cast<std::size_t>(lane)] = k;
            expectPacketMatchesSingle(bvh, spheres, rays, stop);
        }
    // Every lane stopping on its first hit.
    expectPacketMatchesSingle(bvh, spheres, rays,
                              std::vector<int>(simd::kRayLanes, 1));
}

/**
 * One returned mask stops two hit lanes at once and also names a lane
 * that did not hit the sphere: the two stop as their single-ray walks
 * stopping on that hit would, and the undelivered lane runs to the end.
 */
TEST(BvhPacket, MaskTerminatesOnlyDeliveredLanes)
{
    const auto spheres = randomSpheres(500, 450, 0.5f);
    Bvh bvh;
    bvh.build(spheres);
    Rng rng(57);
    std::vector<Ray> rays(simd::kRayLanes);
    for (auto &ray : rays) {
        ray.origin = {rng.uniform(-0.5f, 0.5f), rng.uniform(-0.5f, 0.5f),
                      -1.0f};
        ray.tmax = 8.0f;
    }
    const std::uint32_t all = (1u << simd::kRayLanes) - 1u;

    LevelGuard guard;
    for (simd::Level level : supportedLevels()) {
        ASSERT_TRUE(simd::setLevel(level));
        std::vector<HitSeq> got(rays.size());
        std::vector<int> stop(rays.size(), 0);
        int bystander = -1;
        std::size_t bystander_hits = 0;
        TraversalStats got_stats;
        bvh.traversePacket(
            rays.data(), simd::kRayLanes, spheres, got_stats,
            [&](const PacketHit &hit) {
                for (std::uint32_t m = hit.mask; m != 0; m &= m - 1u) {
                    const int lane = __builtin_ctz(m);
                    got[static_cast<std::size_t>(lane)].push_back(
                        {hit.prim_id, bitsOf(hit.thit[lane])});
                }
                if (bystander >= 0 || __builtin_popcount(hit.mask) < 2 ||
                    hit.mask == all)
                    return 0u;
                const int a = __builtin_ctz(hit.mask);
                const int b = __builtin_ctz(hit.mask & (hit.mask - 1u));
                bystander = __builtin_ctz(~hit.mask & all);
                for (int lane : {a, b})
                    stop[static_cast<std::size_t>(lane)] = static_cast<int>(
                        got[static_cast<std::size_t>(lane)].size());
                bystander_hits =
                    got[static_cast<std::size_t>(bystander)].size();
                return (1u << a) | (1u << b) | (1u << bystander);
            });
        ASSERT_GE(bystander, 0) << "no partial multi-lane delivery";
        EXPECT_GT(got[static_cast<std::size_t>(bystander)].size(),
                  bystander_hits)
            << "the undelivered lane stopped";
        TraversalStats want_stats;
        const auto want = singleRayHits(bvh, spheres, rays, stop, want_stats);
        for (std::size_t i = 0; i < rays.size(); ++i)
            EXPECT_EQ(want[i], got[i])
                << "ray " << i << " at " << simd::levelName(level);
        expectSameStats(want_stats, got_stats);
    }
}

/**
 * Wide packets (9..kRayLanes lanes, the cross-query sizes) whose masks
 * leave one eight-lane half empty: that half's rays miss the root, or
 * stop on their first hit, while the other half walks on. The AVX2 and
 * scalar tables skip the empty half; every table must still equal the
 * single-ray walks.
 */
TEST(BvhPacket, WidePacketsWithOneHalfEmpty)
{
    static_assert(simd::kRayLanes == 2 * simd::kRayHalfLanes,
                  "two packet halves");
    const auto spheres = randomSpheres(500, 470, 0.3f);
    Bvh bvh;
    bvh.build(spheres);
    Rng rng(73);
    for (int count = simd::kRayHalfLanes + 1; count <= simd::kRayLanes;
         ++count) {
        std::vector<Ray> rays(static_cast<std::size_t>(count));
        for (auto &ray : rays) {
            ray.origin = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f),
                          -0.5f};
            ray.tmax = rng.uniform(1.0f, 6.0f);
        }
        for (int empty_half : {0, 1}) {
            std::vector<Ray> missing = rays;
            for (int i = 0; i < count; ++i)
                if (i / simd::kRayHalfLanes == empty_half)
                    missing[static_cast<std::size_t>(i)].origin.x = 50.0f;
            expectPacketMatchesSingle(bvh, spheres, missing);
            // The half's rays reach the spheres but all stop on their
            // first hit.
            std::vector<int> stop(static_cast<std::size_t>(count), 0);
            for (int i = 0; i < count; ++i)
                if (i / simd::kRayHalfLanes == empty_half)
                    stop[static_cast<std::size_t>(i)] = 1;
            expectPacketMatchesSingle(bvh, spheres, rays, stop);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPolicies, BvhEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 7, 64, 500, 2000),
                       ::testing::Values(SplitPolicy::kBinnedSah,
                                         SplitPolicy::kMedian)));

TEST(Bvh, ThitValuesMatchLinear)
{
    const auto spheres = randomSpheres(300, 11, 0.1f);
    Bvh bvh;
    bvh.build(spheres);
    Ray ray;
    ray.origin = {0.1f, -0.2f, -1.0f};
    ray.dir = {0, 0, 1};

    std::map<std::uint32_t, float> bvh_t, lin_t;
    TraversalStats stats;
    bvh.traverse(ray, spheres, stats, [&](const Hit &hit) {
        bvh_t[hit.prim_id] = hit.thit;
        return true;
    });
    Bvh::traverseLinear(ray, spheres, stats, [&](const Hit &hit) {
        lin_t[hit.prim_id] = hit.thit;
        return true;
    });
    ASSERT_EQ(bvh_t.size(), lin_t.size());
    for (const auto &[prim, t] : bvh_t)
        EXPECT_FLOAT_EQ(t, lin_t.at(prim));
}

TEST(Bvh, EarlyTerminationStopsTraversal)
{
    const auto spheres = randomSpheres(500, 13, 0.3f);
    Bvh bvh;
    bvh.build(spheres);
    Ray ray;
    ray.origin = {0, 0, -1};
    ray.dir = {0, 0, 1};
    int hits = 0;
    TraversalStats stats;
    bvh.traverse(ray, spheres, stats, [&](const Hit &) {
        ++hits;
        return false; // terminate on first hit
    });
    EXPECT_LE(hits, 1);
}

TEST(Bvh, LogarithmicDepthOnUniformData)
{
    const auto spheres = randomSpheres(4096, 17, 0.01f);
    Bvh bvh;
    bvh.build(spheres);
    // A decent tree over 4096 prims (leaf<=4) needs ~10 levels; allow
    // slack but reject pathological linear chains.
    EXPECT_LE(bvh.depth(), 40);
    EXPECT_GE(bvh.depth(), 8);
}

TEST(Bvh, SahBeatsOrMatchesMedianCost)
{
    const auto spheres = randomSpheres(2048, 19, 0.02f);
    Bvh sah, median;
    BvhBuildParams sp, mp;
    sp.policy = SplitPolicy::kBinnedSah;
    mp.policy = SplitPolicy::kMedian;
    sah.build(spheres, sp);
    median.build(spheres, mp);
    EXPECT_LE(sah.sahCost(), median.sahCost() * 1.2);
}

TEST(Bvh, TraversalVisitsFewNodesComparedToLinear)
{
    const auto spheres = randomSpheres(8192, 23, 0.01f);
    Bvh bvh;
    bvh.build(spheres);
    Ray ray;
    ray.origin = {0.0f, 0.0f, -1.0f};
    ray.dir = {0, 0, 1};
    TraversalStats bvh_stats, lin_stats;
    bvh.traverse(ray, spheres, bvh_stats,
                 [](const Hit &) { return true; });
    Bvh::traverseLinear(ray, spheres, lin_stats,
                        [](const Hit &) { return true; });
    // The tree should test far fewer primitives than the linear scan
    // (this is the log-vs-linear claim behind the RT mapping).
    EXPECT_LT(bvh_stats.prim_tests, lin_stats.prim_tests / 4);
}

TEST(Bvh, StatsAccumulateAcrossRays)
{
    const auto spheres = randomSpheres(100, 29, 0.05f);
    Bvh bvh;
    bvh.build(spheres);
    TraversalStats stats;
    Ray ray;
    ray.origin = {0, 0, -1};
    ray.dir = {0, 0, 1};
    bvh.traverse(ray, spheres, stats, [](const Hit &) { return true; });
    bvh.traverse(ray, spheres, stats, [](const Hit &) { return true; });
    EXPECT_EQ(stats.rays, 2u);
}

TEST(Bvh, IdenticalCentersStillBuild)
{
    // Degenerate input: all spheres at the same point.
    std::vector<Sphere> spheres(64);
    for (std::size_t i = 0; i < spheres.size(); ++i) {
        spheres[i].center = {1, 1, 1};
        spheres[i].radius = 0.1f;
        spheres[i].user_id = i;
    }
    Bvh bvh;
    bvh.build(spheres);
    Ray ray;
    ray.origin = {1, 1, -1};
    ray.dir = {0, 0, 1};
    TraversalStats stats;
    int hits = 0;
    bvh.traverse(ray, spheres, stats, [&](const Hit &) {
        ++hits;
        return true;
    });
    EXPECT_EQ(hits, 64);
}

TEST(BvhPacket, EmptyBvhCountsRaysOnly)
{
    Bvh bvh;
    bvh.build({});
    Rng rng(61);
    std::vector<Ray> rays;
    for (int i = 0; i < 5; ++i)
        rays.push_back(adversarialRay(rng, bvh));
    expectPacketMatchesSingle(bvh, {}, rays);
    TraversalStats stats;
    bvh.traversePacket(rays.data(), 5, {}, stats,
                       [](const PacketHit &) { return 0u; });
    EXPECT_EQ(stats.rays, 5u);
    EXPECT_EQ(stats.node_visits, 0u);
}

TEST(BvhPacket, IdenticalCentresOversizedLeaf)
{
    // One degenerate 64-sphere leaf plus a few distinct spheres.
    std::vector<Sphere> spheres(70);
    for (std::size_t i = 0; i < spheres.size(); ++i) {
        spheres[i].center = i < 64 ? Vec3{0.2f, -0.1f, 1.0f}
                                   : Vec3{0.1f * static_cast<float>(i - 64),
                                          0.3f, 2.0f};
        spheres[i].radius = 0.25f;
        spheres[i].user_id = i;
    }
    Bvh bvh;
    bvh.build(spheres);
    Rng rng(71);
    for (int trial = 0; trial < 40; ++trial) {
        const auto count = 1 + rng.below(simd::kRayLanes);
        std::vector<Ray> rays;
        for (std::uint64_t i = 0; i < count; ++i) {
            Ray ray = adversarialRay(rng, bvh);
            if (i % 2 == 0) { // aim at the shared centre
                ray.origin = {0.2f + rng.uniform(-0.2f, 0.2f), -0.1f, 0.0f};
                ray.dir = {0.0f, 0.0f, 1.0f};
            }
            rays.push_back(ray);
        }
        std::vector<int> stop(count, 0);
        stop[0] = 7; // stop lane 0 inside the oversized leaf
        expectPacketMatchesSingle(bvh, spheres, rays, stop);
    }
}

} // namespace
} // namespace rt
} // namespace juno
