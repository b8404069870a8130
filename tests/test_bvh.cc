/** @file Tests for the BVH builder and traversal. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/rng.h"
#include "common/simd.h"
#include "rt_oracle.h"
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
    }
    return spheres;
}

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

/** Tile cells no hit may write hold this NaN payload. */
float
canary()
{
    const std::uint32_t u = 0x7FC5A5A5u;
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
}

/** Every sphere of the scene recorded, slot = prim id. */
RecordRange
recordAll(const std::vector<Sphere> &spheres)
{
    return {0, static_cast<std::uint32_t>(spheres.size())};
}

/**
 * Traces @p ray alone (a one-ray packet: the lone-ray walk), recording
 * every sphere. Its cells must hold exactly the oracle's hits, bit for
 * bit, and it must find as many hits as the oracle; returns the walk's
 * counters.
 */
TraversalStats
expectLoneRayMatchesOracle(const Bvh &bvh, const std::vector<Sphere> &spheres,
                           const Ray &ray)
{
    const RecordRange record = recordAll(spheres);
    std::vector<float> want(spheres.size(), canary());
    const OracleTrace oracle = oracleTrace(ray, spheres);
    recordOracle(oracle, record, 1, 0, want.data());
    std::vector<float> got(spheres.size(), canary());
    TraversalStats stats;
    bvh.traceTile(&ray, 1, spheres, record, got.data(), stats);
    for (std::size_t c = 0; c < want.size(); ++c)
        EXPECT_EQ(bitsOf(want[c]), bitsOf(got[c])) << "prim " << c;
    EXPECT_EQ(stats.rays, 1u);
    EXPECT_EQ(stats.hits, oracle.stats.hits);
    return stats;
}

/**
 * Traces @p rays (1..kRayLanes) one at a time (one-ray packets) and as
 * one packet with traceTile() at every supported dispatch level,
 * recording @p record. Each lone ray must equal the oracle
 * (expectLoneRayMatchesOracle). Lane i's cell of each recorded sphere
 * must hold the oracle's thit bits for ray i, every other cell and a
 * guard of kRayLanes cells on each side of the tile the canary, and
 * the packet's counters must equal the lone rays' sum. Returns the
 * recorded hits.
 */
std::size_t
expectTileMatchesSingle(const Bvh &bvh, const std::vector<Sphere> &spheres,
                        const std::vector<Ray> &rays, RecordRange record)
{
    EXPECT_GE(rays.size(), 1u);
    EXPECT_LE(rays.size(), static_cast<std::size_t>(simd::kRayLanes));
    const std::size_t lanes = rays.size();
    const auto guard = static_cast<std::size_t>(simd::kRayLanes);
    const std::size_t cells = record.count * lanes + 2 * guard;
    std::vector<float> want(cells, canary());
    TraversalStats want_stats;
    std::size_t recorded = 0;
    for (std::size_t i = 0; i < lanes; ++i) {
        recorded += recordOracle(oracleTrace(rays[i], spheres), record,
                                 lanes, i, want.data() + guard);
        want_stats.merge(expectLoneRayMatchesOracle(bvh, spheres, rays[i]));
    }

    LevelGuard level_guard;
    for (simd::Level level : supportedLevels()) {
        EXPECT_TRUE(simd::setLevel(level));
        std::vector<float> got(cells, canary());
        TraversalStats got_stats;
        bvh.traceTile(rays.data(), static_cast<int>(lanes), spheres, record,
                      got.data() + guard, got_stats);
        for (std::size_t c = 0; c < cells; ++c)
            EXPECT_EQ(bitsOf(want[c]), bitsOf(got[c]))
                << "cell " << c << " (guard " << guard << ", " << lanes
                << " lanes) at " << simd::levelName(level);
        expectSameStats(want_stats, got_stats);
    }
    return recorded;
}

std::size_t
expectTileMatchesSingle(const Bvh &bvh, const std::vector<Sphere> &spheres,
                        const std::vector<Ray> &rays)
{
    return expectTileMatchesSingle(bvh, spheres, rays, recordAll(spheres));
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

TEST(Bvh, EmptyBuildIsHarmless)
{
    Bvh bvh;
    bvh.build({});
    EXPECT_TRUE(bvh.empty());
    TraversalStats stats;
    Ray ray;
    bvh.traceTile(&ray, 1, {}, {}, nullptr, stats);
    EXPECT_EQ(stats.rays, 1u);
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
    EXPECT_EQ(expectLoneRayMatchesOracle(bvh, spheres, ray).hits, 1u);
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
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectLoneRayMatchesOracle(bvh, spheres, ray);
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
        expectTileMatchesSingle(bvh, spheres, rays);
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
        expectTileMatchesSingle(bvh, spheres, rays);
    }
}

/**
 * Wide packets (9..kRayLanes lanes, the cross-query sizes) whose masks
 * leave one eight-lane half empty: that half's rays miss the root, or
 * end their interval after a few nodes, while the other half walks on.
 * The AVX2 and scalar lanes skip the empty half; every level must
 * still equal the single-ray walks.
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
            std::vector<Ray> short_lived = rays;
            for (int i = 0; i < count; ++i)
                if (i / simd::kRayHalfLanes == empty_half) {
                    missing[static_cast<std::size_t>(i)].origin.x = 50.0f;
                    // Reaches only the spheres nearest z = 0.
                    short_lived[static_cast<std::size_t>(i)].tmax = 0.6f;
                }
            expectTileMatchesSingle(bvh, spheres, missing);
            expectTileMatchesSingle(bvh, spheres, short_lived);
        }
    }
}

/**
 * JUNO's scene shape: subspace planes of spheres 4 apart, rays from
 * one plane recording only its subspace's spheres. Long rays also hit
 * the next planes' spheres, which the walk must count but never
 * record: the tile holds exactly the subspace's hits.
 */
TEST(BvhPacket, ForeignSpheresAreCountedNotRecorded)
{
    const int subspaces = 4, entries = 40;
    Rng rng(79);
    std::vector<Sphere> spheres;
    for (int s = 0; s < subspaces; ++s)
        for (int e = 0; e < entries; ++e) {
            Sphere sphere;
            sphere.center = {rng.uniform(-0.8f, 0.8f),
                             rng.uniform(-0.8f, 0.8f),
                             4.0f * static_cast<float>(s) + 1.0f};
            sphere.radius = 1.0f;
            spheres.push_back(sphere);
        }
    Bvh bvh;
    bvh.build(spheres);
    for (int s = 0; s < subspaces; ++s)
        for (int count = 1; count <= simd::kRayLanes; ++count) {
            std::vector<Ray> rays(static_cast<std::size_t>(count));
            for (auto &ray : rays) {
                ray.origin = {rng.uniform(-0.8f, 0.8f),
                              rng.uniform(-0.8f, 0.8f),
                              4.0f * static_cast<float>(s)};
                ray.tmin = -1e-4f;
                ray.tmax = rng.uniform(0.1f, 12.0f);
            }
            const RecordRange record{
                static_cast<std::uint32_t>(s * entries),
                static_cast<std::uint32_t>(entries)};
            const std::size_t recorded =
                expectTileMatchesSingle(bvh, spheres, rays, record);
            std::size_t hits = 0;
            for (const Ray &ray : rays)
                hits += oracleTrace(ray, spheres).hits.size();
            if (s + 1 < subspaces && count == simd::kRayLanes) {
                EXPECT_GT(hits, recorded)
                    << "subspace " << s << ": no foreign hit to drop";
            }
        }
}

/**
 * The walk's masked tile store writes exactly the hit lanes' cells, at
 * every level and for every lane mask: lane i starts under the one
 * sphere when bit i is set and beside the scene otherwise, and the
 * packet ends at the highest set lane, so a write past the tile would
 * leave the buffer.
 */
TEST(BvhPacket, TileStoreWritesOnlyHitLanes)
{
    std::vector<Sphere> spheres(1);
    spheres[0].center = {0.0f, 0.0f, 1.0f};
    spheres[0].radius = 0.5f;
    Bvh bvh;
    bvh.build(spheres);
    LevelGuard guard;
    for (simd::Level level : supportedLevels()) {
        ASSERT_TRUE(simd::setLevel(level));
        for (std::uint32_t mask = 1; mask < (1u << simd::kRayLanes);
             ++mask) {
            const int count = 32 - __builtin_clz(mask);
            std::vector<Ray> rays(static_cast<std::size_t>(count));
            for (int i = 0; i < count; ++i)
                rays[static_cast<std::size_t>(i)].origin = {
                    (mask >> i & 1u) ? 0.01f * static_cast<float>(i) : 5.0f,
                    0.0f, 0.0f};
            std::vector<float> tile(static_cast<std::size_t>(count),
                                    canary());
            TraversalStats stats;
            bvh.traceTile(rays.data(), count, spheres, recordAll(spheres),
                          tile.data(), stats);
            for (int i = 0; i < count; ++i) {
                float want = canary();
                if (mask >> i & 1u) {
                    ASSERT_TRUE(intersectSphere(
                        rays[static_cast<std::size_t>(i)], spheres[0],
                        want));
                }
                EXPECT_EQ(bitsOf(want),
                          bitsOf(tile[static_cast<std::size_t>(i)]))
                    << simd::levelName(level) << " mask " << mask
                    << " lane " << i;
            }
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
    EXPECT_GT(expectLoneRayMatchesOracle(bvh, spheres, ray).hits, 0u);
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
    const TraversalStats bvh_stats =
        expectLoneRayMatchesOracle(bvh, spheres, ray);
    // The tree should test far fewer primitives than the linear scan
    // (this is the log-vs-linear claim behind the RT mapping).
    EXPECT_LT(bvh_stats.prim_tests,
              oracleTrace(ray, spheres).stats.prim_tests / 4);
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
    std::vector<float> tile(spheres.size());
    bvh.traceTile(&ray, 1, spheres, recordAll(spheres), tile.data(), stats);
    bvh.traceTile(&ray, 1, spheres, recordAll(spheres), tile.data(), stats);
    EXPECT_EQ(stats.rays, 2u);
}

TEST(Bvh, IdenticalCentersStillBuild)
{
    // Degenerate input: all spheres at the same point.
    std::vector<Sphere> spheres(64);
    for (std::size_t i = 0; i < spheres.size(); ++i) {
        spheres[i].center = {1, 1, 1};
        spheres[i].radius = 0.1f;
    }
    Bvh bvh;
    bvh.build(spheres);
    Ray ray;
    ray.origin = {1, 1, -1};
    ray.dir = {0, 0, 1};
    EXPECT_EQ(expectLoneRayMatchesOracle(bvh, spheres, ray).hits, 64u);
}

TEST(BvhPacket, EmptyBvhCountsRaysOnly)
{
    Bvh bvh;
    bvh.build({});
    Rng rng(61);
    std::vector<Ray> rays;
    for (int i = 0; i < 5; ++i)
        rays.push_back(adversarialRay(rng, bvh));
    expectTileMatchesSingle(bvh, {}, rays);
    TraversalStats stats;
    bvh.traceTile(rays.data(), 5, {}, {}, nullptr, stats);
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
        expectTileMatchesSingle(bvh, spheres, rays);
    }
}

} // namespace
} // namespace rt
} // namespace juno
