/**
 * @file
 * Tests of the SIMD kernel layer: every dispatched kernel must match
 * the scalar reference (bitwise for candidate compaction, the sphere
 * gate and the LUT finish, 1e-4 relative for float reductions) across
 * odd dimensions, and flipping the dispatch level must not change the
 * top-k ids an index returns. The packet walk's per-level lane
 * operations (common/ray_lanes.h) are checked against the single-ray
 * geometry here too. The interleaved ADC scan and the 4-bit fast scan
 * are checked in test_fastscan.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "baseline/flat_index.h"
#include "baseline/ivfpq_index.h"
#include "common/ray_lanes.h"
#include "common/rng.h"
#include "common/simd.h"
#include "dataset/synthetic.h"
#include "rtcore/geometry.h"

namespace juno {
namespace {

const idx_t kDims[] = {1, 3, 7, 33, 100};

/** Restores the active dispatch level when a test scope ends. */
struct LevelGuard {
    simd::Level saved = simd::level();
    ~LevelGuard() { simd::setLevel(saved); }
};

std::vector<float>
randomVec(Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (auto &x : v)
        x = rng.uniform(-1.0f, 1.0f);
    return v;
}

void
expectClose(float expected, float actual, const char *what, idx_t d)
{
    const float tol =
        1e-4f * std::max(1.0f, std::abs(expected));
    EXPECT_NEAR(expected, actual, tol) << what << " d=" << d;
}

TEST(Simd, ReductionsMatchScalarAcrossOddDims)
{
    const auto &scalar = simd::table(simd::Level::kScalar);
    const auto &dispatched = simd::table(simd::bestSupported());
    Rng rng(11);
    for (idx_t d : kDims) {
        const auto a = randomVec(rng, static_cast<std::size_t>(d));
        const auto b = randomVec(rng, static_cast<std::size_t>(d));
        expectClose(scalar.l2_sqr(a.data(), b.data(), d),
                    dispatched.l2_sqr(a.data(), b.data(), d), "l2Sqr", d);
        expectClose(scalar.inner_product(a.data(), b.data(), d),
                    dispatched.inner_product(a.data(), b.data(), d),
                    "innerProduct", d);
        expectClose(scalar.l2_norm_sqr(a.data(), d),
                    dispatched.l2_norm_sqr(a.data(), d), "l2NormSqr", d);
    }
}

TEST(Simd, BatchKernelsMatchScalarReference)
{
    const auto &scalar = simd::table(simd::Level::kScalar);
    const auto &dispatched = simd::table(simd::bestSupported());
    Rng rng(12);
    // n = 7 exercises both the 4-row blocks and the row tail; d = 2
    // additionally exercises the packed JUNO-subspace special case.
    const idx_t n = 7;
    for (idx_t d : {idx_t(1), idx_t(2), idx_t(3), idx_t(33), idx_t(100)}) {
        const auto q = randomVec(rng, static_cast<std::size_t>(d));
        const auto rows =
            randomVec(rng, static_cast<std::size_t>(n * d));
        std::vector<float> ref(static_cast<std::size_t>(n));
        std::vector<float> got(static_cast<std::size_t>(n));

        scalar.l2_sqr_batch(q.data(), rows.data(), n, d, ref.data());
        dispatched.l2_sqr_batch(q.data(), rows.data(), n, d, got.data());
        for (idx_t i = 0; i < n; ++i) {
            expectClose(ref[static_cast<std::size_t>(i)],
                        got[static_cast<std::size_t>(i)], "l2SqrBatch", d);
            // The batch kernel must agree with the single-row kernel.
            expectClose(scalar.l2_sqr(q.data(),
                                      rows.data() +
                                          static_cast<std::size_t>(i * d),
                                      d),
                        ref[static_cast<std::size_t>(i)],
                        "l2SqrBatch-vs-single", d);
        }

        scalar.inner_product_batch(q.data(), rows.data(), n, d,
                                   ref.data());
        dispatched.inner_product_batch(q.data(), rows.data(), n, d,
                                       got.data());
        for (idx_t i = 0; i < n; ++i)
            expectClose(ref[static_cast<std::size_t>(i)],
                        got[static_cast<std::size_t>(i)],
                        "innerProductBatch", d);
    }
}

TEST(Simd, GemmTileMatchesScalar)
{
    const auto &scalar = simd::table(simd::Level::kScalar);
    const auto &dispatched = simd::table(simd::bestSupported());
    Rng rng(13);
    // Shapes hit the 4x16 tile, the 8-wide column tail, the scalar
    // column tail and the row tail.
    const struct {
        idx_t m, k, n;
    } shapes[] = {{5, 7, 19}, {8, 3, 40}, {4, 16, 16}, {1, 1, 1}};
    for (const auto &s : shapes) {
        const auto a =
            randomVec(rng, static_cast<std::size_t>(s.m * s.k));
        const auto b =
            randomVec(rng, static_cast<std::size_t>(s.k * s.n));
        std::vector<float> ref(static_cast<std::size_t>(s.m * s.n));
        std::vector<float> got(static_cast<std::size_t>(s.m * s.n));
        scalar.gemm(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
        dispatched.gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n);
        for (std::size_t i = 0; i < ref.size(); ++i) {
            const float tol =
                1e-4f * std::max(1.0f, std::abs(ref[i]));
            EXPECT_NEAR(ref[i], got[i], tol)
                << "gemm " << s.m << "x" << s.k << "x" << s.n << " @" << i;
        }
    }
}

TEST(Simd, CompactCandidatesBitwiseIdenticalAcrossTables)
{
    const auto &scalar = simd::table(simd::Level::kScalar);
    const auto &dispatched = simd::table(simd::bestSupported());
    Rng rng(15);
    const std::size_t n = 37; // exercises the 8-wide blocks + tail
    std::vector<float> acc(n);
    std::vector<std::int32_t> hits(n, 0);
    std::vector<idx_t> list(n);
    for (std::size_t i = 0; i < n; ++i) {
        acc[i] = rng.uniform(-2.0f, 2.0f);
        hits[i] = rng.uniform(0.0f, 1.0f) < 0.25f ? 1 : 0;
        list[i] = static_cast<idx_t>(1000 + i);
    }
    // Force an all-zero block (fast skip) and an all-live block.
    for (std::size_t i = 8; i < 16; ++i)
        hits[i] = 0;
    for (std::size_t i = 16; i < 24; ++i)
        hits[i] = 3;

    std::vector<Neighbor> ref, got;
    const float offset = -1.25f;
    scalar.compact_candidates(acc.data(), hits.data(), list.data(), n,
                              offset, ref);
    dispatched.compact_candidates(acc.data(), hits.data(), list.data(), n,
                                  offset, got);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(ref[i], got[i]) << "candidate " << i;
}

/** Every table this host can run. */
std::vector<const simd::Kernels *>
runnableTables()
{
    std::vector<const simd::Kernels *> out;
    for (simd::Level l : {simd::Level::kScalar, simd::Level::kAvx2,
                          simd::Level::kAvx512})
        if (simd::supported(l))
            out.push_back(&simd::table(l));
    return out;
}

std::uint32_t
bitsOf(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

simd::RayLanes
lanesOf(const rt::Ray (&rays)[simd::kRayLanes])
{
    simd::RayLanes l;
    for (int i = 0; i < simd::kRayLanes; ++i) {
        l.ox[i] = rays[i].origin.x;
        l.oy[i] = rays[i].origin.y;
        l.oz[i] = rays[i].origin.z;
        l.dx[i] = rays[i].dir.x;
        l.dy[i] = rays[i].dir.y;
        l.dz[i] = rays[i].dir.z;
        l.ix[i] = 1.0f / rays[i].dir.x;
        l.iy[i] = 1.0f / rays[i].dir.y;
        l.iz[i] = 1.0f / rays[i].dir.z;
        l.tmin[i] = rays[i].tmin;
        l.tmax[i] = rays[i].tmax;
    }
    return l;
}

/**
 * One level's packet lane operations (common/ray_lanes.h, which the
 * packet walk inlines) behind plain calls: box() returns the hit mask,
 * sphere() the hit mask with the hit lanes' times stored to thit.
 */
struct LaneOps {
    const char *name;
    std::uint32_t (*box)(const simd::RayLanes &rays, std::uint32_t active,
                         const rt::Aabb &box);
    std::uint32_t (*sphere)(const simd::RayLanes &rays,
                            std::uint32_t active, const rt::Sphere &sphere,
                            float *thit);
};

template <typename Lanes>
std::uint32_t
laneSphere(const simd::RayLanes &rays, std::uint32_t active,
           const rt::Sphere &s, float *thit)
{
    typename Lanes::Times t;
    const std::uint32_t hit = Lanes(rays).sphere(
        active, s.center.x, s.center.y, s.center.z, s.radius, t);
    Lanes::store(t, hit, thit);
    return hit;
}

std::uint32_t
boxScalar(const simd::RayLanes &r, std::uint32_t active, const rt::Aabb &b)
{
    return simd::ScalarRayLanes(r).box(active, b.lo.x, b.lo.y, b.lo.z,
                                       b.hi.x, b.hi.y, b.hi.z);
}

std::uint32_t
sphereScalar(const simd::RayLanes &r, std::uint32_t active,
             const rt::Sphere &s, float *thit)
{
    return laneSphere<simd::ScalarRayLanes>(r, active, s, thit);
}

#if JUNO_SIMD_X86
JUNO_TARGET_AVX2 std::uint32_t
boxAvx2(const simd::RayLanes &r, std::uint32_t active, const rt::Aabb &b)
{
    return simd::Avx2RayLanes(r).box(active, b.lo.x, b.lo.y, b.lo.z, b.hi.x,
                                     b.hi.y, b.hi.z);
}

JUNO_TARGET_AVX2 std::uint32_t
sphereAvx2(const simd::RayLanes &r, std::uint32_t active,
           const rt::Sphere &s, float *thit)
{
    return laneSphere<simd::Avx2RayLanes>(r, active, s, thit);
}

JUNO_TARGET_AVX512 std::uint32_t
boxAvx512(const simd::RayLanes &r, std::uint32_t active, const rt::Aabb &b)
{
    return simd::Avx512RayLanes(r).box(active, b.lo.x, b.lo.y, b.lo.z,
                                       b.hi.x, b.hi.y, b.hi.z);
}

JUNO_TARGET_AVX512 std::uint32_t
sphereAvx512(const simd::RayLanes &r, std::uint32_t active,
             const rt::Sphere &s, float *thit)
{
    return laneSphere<simd::Avx512RayLanes>(r, active, s, thit);
}
#endif

const LaneOps kScalarLanes = {"scalar", &boxScalar, &sphereScalar};

/** The lane operations of every level this host can run. */
std::vector<LaneOps>
runnableLaneOps()
{
    std::vector<LaneOps> out{kScalarLanes};
#if JUNO_SIMD_X86
    if (simd::supported(simd::Level::kAvx2))
        out.push_back({"avx2", &boxAvx2, &sphereAvx2});
    if (simd::supported(simd::Level::kAvx512))
        out.push_back({"avx512", &boxAvx512, &sphereAvx512});
#endif
    return out;
}

/**
 * Checks the box and sphere lane operations of every level against the
 * single-ray geometry (Aabb::hitBy, intersectSphere) lane by lane:
 * same masks, same thit bits, inactive lanes never reported.
 */
void
expectRayKernelsMatchGeometry(const rt::Ray (&rays)[simd::kRayLanes],
                              const rt::Aabb &box, const rt::Sphere &sphere,
                              std::uint32_t active)
{
    const simd::RayLanes lanes = lanesOf(rays);
    std::uint32_t want_box = 0, want_sphere = 0;
    float want_t[simd::kRayLanes] = {};
    for (int i = 0; i < simd::kRayLanes; ++i) {
        if ((active >> i & 1u) == 0)
            continue;
        const rt::Vec3 inv{lanes.ix[i], lanes.iy[i], lanes.iz[i]};
        if (box.hitBy(rays[i], inv))
            want_box |= 1u << i;
        if (rt::intersectSphere(rays[i], sphere, want_t[i]))
            want_sphere |= 1u << i;
    }
    for (const LaneOps &ops : runnableLaneOps()) {
        EXPECT_EQ(want_box, ops.box(lanes, active, box)) << ops.name;
        float got_t[simd::kRayLanes];
        EXPECT_EQ(want_sphere, ops.sphere(lanes, active, sphere, got_t))
            << ops.name;
        for (int i = 0; i < simd::kRayLanes; ++i) {
            if ((want_sphere >> i & 1u) == 0)
                continue;
            EXPECT_EQ(bitsOf(want_t[i]), bitsOf(got_t[i]))
                << ops.name << " lane " << i;
        }
    }
}

TEST(Simd, RayKernelsAdversarialLanes)
{
    rt::Sphere sphere;
    sphere.center = {0.0f, 0.0f, 1.0f};
    sphere.radius = 0.5f;
    const rt::Aabb box = rt::Aabb::of(sphere);
    const float inf = std::numeric_limits<float>::infinity();

    rt::Ray rays[simd::kRayLanes];
    // Lane 0: plain entry-root hit at t = 0.5.
    rays[0].origin = {0.1f, 0.0f, 0.0f};
    rays[0].tmax = 10.0f;
    // Lane 1: beside the sphere: disc < 0 (and outside the box).
    rays[1].origin = {2.0f, 0.0f, 0.0f};
    // Lane 2: infinite origin: half_b = inf * 0 = NaN, so disc is NaN
    // and the ordered compares let it through with a NaN thit; the box
    // sees NaN slabs.
    rays[2].origin = {inf, 0.0f, 0.0f};
    // Lane 3: entry root before tmin: falls back to the exit root.
    rays[3].origin = {0.0f, 0.2f, 0.0f};
    rays[3].tmin = 0.8f;
    rays[3].tmax = 10.0f;
    // Lane 4: entry root beyond tmax.
    rays[4].origin = {0.0f, 0.0f, 0.0f};
    rays[4].tmax = 0.3f;
    // Lane 5: both roots before tmin.
    rays[5].origin = {0.0f, 0.0f, 0.0f};
    rays[5].tmin = 2.0f;
    // Lane 6: oblique, non-unit direction with a negative component.
    rays[6].origin = {-0.1f, 0.2f, -1.0f};
    rays[6].dir = {0.05f, -0.1f, 2.0f};
    // Lane 7: origin on the box's x slab with dir.x = 0 (0 * inf), and
    // an empty interval.
    rays[7].origin = {box.lo.x, 0.0f, 0.0f};
    rays[7].tmin = 1.0f;
    rays[7].tmax = 0.5f;

    for (std::uint32_t active : {0xFFu, 0x55u, 0xAAu, 0x01u, 0x00u})
        expectRayKernelsMatchGeometry(rays, box, sphere, active);
    // The same eight cases in the high half of a sixteen-lane packet:
    // each half alone, both, and masks with one lane in a half.
    static_assert(simd::kRayLanes == 2 * simd::kRayHalfLanes,
                  "two packet halves");
    for (int i = 0; i < simd::kRayHalfLanes; ++i)
        rays[i + simd::kRayHalfLanes] = rays[i];
    for (std::uint32_t active :
         {0xFF00u, 0xFFFFu, 0x5500u, 0x0100u, 0x8001u, 0x80FFu})
        expectRayKernelsMatchGeometry(rays, box, sphere, active);

    // Slab-plane origins with zero direction components: the NaN slab
    // (0 * inf) must be suppressed, not turned into a miss.
    rt::Ray slab[simd::kRayLanes];
    for (int i = 0; i < simd::kRayLanes; ++i) {
        slab[i].origin = {i % 2 == 0 ? box.lo.x : box.hi.x,
                          i < 4 ? 0.0f : box.lo.y, 0.0f};
        slab[i].tmax = 10.0f;
    }
    slab[6].dir = {0.0f, 1.0f, 0.0f};
    slab[6].origin = {0.0f, -1.0f, box.hi.z};
    slab[7].tmin = 3.0f; // box behind the interval
    for (std::uint32_t active : {0xFFu, 0x0Fu})
        expectRayKernelsMatchGeometry(slab, box, sphere, active);
    const std::uint32_t in_box = kScalarLanes.box(lanesOf(slab), 0xFFu, box);
    EXPECT_EQ(in_box, 0x7Fu);

    // The adversarial outcomes are what the comments claim.
    float t[simd::kRayLanes];
    const std::uint32_t hit =
        kScalarLanes.sphere(lanesOf(rays), 0xFFFFu, sphere, t);
    EXPECT_EQ(hit, 0x4D4Du); // lanes 0, 2, 3, 6 of both halves
    EXPECT_TRUE(std::isnan(t[2]));
    EXPECT_TRUE(std::isnan(t[10]));
    EXPECT_GT(t[3], 1.0f); // exit root
    EXPECT_EQ(bitsOf(t[3]), bitsOf(t[11]));
}

TEST(Simd, RayKernelsRandomLanesMatchGeometry)
{
    Rng rng(16);
    for (int trial = 0; trial < 300; ++trial) {
        rt::Sphere sphere;
        sphere.center = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f),
                         rng.uniform(0.0f, 3.0f)};
        sphere.radius = rng.uniform(0.05f, 1.0f);
        const rt::Aabb box = rt::Aabb::of(sphere);
        rt::Ray rays[simd::kRayLanes];
        for (auto &ray : rays) {
            ray.origin = {rng.uniform(-1.5f, 1.5f), rng.uniform(-1.5f, 1.5f),
                          rng.uniform(-1.0f, 1.0f)};
            ray.dir = {rng.uniform(-0.5f, 0.5f), rng.uniform(-0.5f, 0.5f),
                       rng.uniform(-1.0f, 1.0f)};
            if (rng.uniform() < 0.3) // JUNO's shape: +z, zero x/y
                ray.dir = {0.0f, 0.0f, 1.0f};
            ray.tmin = rng.uniform(-1.0f, 1.0f);
            ray.tmax = rng.uniform(-0.5f, 4.0f);
        }
        expectRayKernelsMatchGeometry(
            rays, box, sphere,
            static_cast<std::uint32_t>(rng.below(1u << simd::kRayLanes)));
        // One half empty: the half-skipping tables must still agree.
        for (std::uint32_t half : {0x00FFu, 0xFF00u})
            expectRayKernelsMatchGeometry(
                rays, box, sphere,
                static_cast<std::uint32_t>(
                    rng.below(1u << simd::kRayLanes)) & half);
    }
}

/** The canary no gate may write over except at a hit sphere's cell. */
float
gateCanary()
{
    const std::uint32_t u = 0x7FC5A5A5u;
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
}

/**
 * Checks sphere_gate of every table against rt::intersectSphere on the
 * same spheres: for each stride, lane i = stride - 1 of an [e][lane]
 * tile must hold exactly the hit spheres' thit bits, every other cell
 * (other lanes, missed spheres, a guard of 32 cells past the tile) the
 * canary, and every table must return the hit count. Returns the hits.
 */
std::size_t
expectGateMatchesGeometry(const rt::Ray &ray,
                          const std::vector<rt::Sphere> &spheres)
{
    const std::size_t count = spheres.size();
    const std::size_t guard = 32;
    std::size_t hits = 0;
    for (std::size_t stride : {std::size_t{1}, std::size_t{3},
                               std::size_t{simd::kRayLanes}}) {
        const std::size_t lane = stride - 1;
        std::vector<float> want(count * stride + guard, gateCanary());
        hits = 0;
        for (std::size_t e = 0; e < count; ++e) {
            float t;
            if (rt::intersectSphere(ray, spheres[e], t)) {
                want[e * stride + lane] = t;
                ++hits;
            }
        }
        for (const simd::Kernels *k : runnableTables()) {
            std::vector<float> got(want.size(), gateCanary());
            EXPECT_EQ(hits, k->sphere_gate(ray, spheres.data(), count,
                                           got.data() + lane, stride))
                << k->name << " E=" << count << " stride " << stride;
            for (std::size_t c = 0; c < want.size(); ++c)
                EXPECT_EQ(bitsOf(want[c]), bitsOf(got[c]))
                    << k->name << " E=" << count << " stride " << stride
                    << " cell " << c;
        }
    }
    return hits;
}

/**
 * JUNO-shaped spheres (one plane at z = 1, radii around 1) and +z rays
 * from z = 0, for every entry count around the vector widths: origins
 * inside spheres (entry root before tmin, so the exit root), spheres
 * beside the ray (disc < 0), a tmax that cuts some entry roots, and a
 * non-unit oblique direction.
 */
TEST(Simd, SphereGateBitwiseAcrossTablesAndShapes)
{
    Rng rng(27);
    for (std::size_t entries : {1, 15, 16, 17, 40, 128, 200}) {
        std::vector<rt::Sphere> spheres(entries);
        for (auto &s : spheres) {
            s.center = {rng.uniform(-1.5f, 1.5f), rng.uniform(-1.5f, 1.5f),
                        1.0f};
            s.radius = rng.uniform(0.3f, 1.3f);
        }
        std::size_t hits = 0, misses = 0;
        for (int trial = 0; trial < 12; ++trial) {
            rt::Ray ray;
            ray.origin = {rng.uniform(-1.0f, 1.0f), rng.uniform(-1.0f, 1.0f),
                          0.0f};
            ray.tmin = -1e-4f;
            ray.tmax = rng.uniform(0.2f, 2.0f);
            switch (trial % 4) {
              case 1: // origin inside spheres: exit roots
                ray.origin.z = 1.0f;
                ray.tmin = 0.0f;
                break;
              case 2: // non-unit oblique direction
                ray.dir = {rng.uniform(-0.3f, 0.3f), rng.uniform(-0.3f, 0.3f),
                           rng.uniform(0.5f, 2.0f)};
                break;
              case 3: // tight tmax: cuts entry roots
                ray.tmax = rng.uniform(0.0f, 0.3f);
                break;
              default:
                break;
            }
            const std::size_t h = expectGateMatchesGeometry(ray, spheres);
            hits += h;
            misses += entries - h;
        }
        EXPECT_GT(hits, 0u) << "E=" << entries;
        EXPECT_GT(misses, 0u) << "E=" << entries;
    }
}

/**
 * The adversarial single-sphere outcomes of RayKernelsAdversarialLanes,
 * in the gate's layout: beside the sphere (disc < 0), entry root before
 * tmin (exit root), beyond tmax, both roots before tmin, an infinite
 * origin (NaN disc, passed through with a NaN thit as intersectSphere
 * does), and an empty interval.
 */
TEST(Simd, SphereGateAdversarialRays)
{
    std::vector<rt::Sphere> spheres(17);
    for (std::size_t e = 0; e < spheres.size(); ++e) {
        spheres[e].center = {0.05f * static_cast<float>(e), 0.0f, 1.0f};
        spheres[e].radius = 0.5f;
    }
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<rt::Ray> rays(6);
    rays[0].origin = {2.0f, 0.0f, 0.0f};
    rays[1].origin = {0.0f, 0.2f, 0.0f};
    rays[1].tmin = 0.8f;
    rays[1].tmax = 10.0f;
    rays[2].tmax = 0.3f;
    rays[3].tmin = 2.0f;
    rays[4].origin = {inf, 0.0f, 0.0f};
    rays[5].tmin = 1.0f;
    rays[5].tmax = 0.5f;
    const std::size_t want_hits[] = {0, 10, 0, 0, 17, 0};
    for (std::size_t r = 0; r < rays.size(); ++r)
        EXPECT_EQ(expectGateMatchesGeometry(rays[r], spheres), want_hits[r])
            << "ray " << r;
}

/**
 * The LUT finish writes bitwise identical rows in every table: packets of 1..kRayLanes lanes, entry counts around the vector
 * widths and the 32-cell flag words, tiles mixing NaN (no hit) with hit
 * times around the inner gate, both metrics, with and without inner
 * flags. Per cell the scalar table matches JunoScene's conversion
 * written out here, every flag word is written whole (bits past the
 * entries clear), and no table writes past a row.
 */
TEST(Simd, LutFinishBitwiseIdenticalAcrossTables)
{
    Rng rng(91);
    const float radius_sqr = 0.81f;
    const float guard = -7.0f;
    const std::uint32_t guard_word = 0xA5A5A5A5u;
    for (Metric metric : {Metric::kL2, Metric::kInnerProduct})
        for (std::size_t entries :
             {1, 7, 8, 15, 16, 17, 24, 31, 32, 33, 40, 100, 128})
            for (int lanes : {1, 2, 5, 8, 11, 16})
                for (bool inner : {false, true}) {
                    const auto n = static_cast<std::size_t>(lanes);
                    const std::size_t words = (entries + 31) / 32;
                    std::vector<float> tile(entries * n);
                    for (float &t : tile)
                        t = rng.uniform() < 0.4
                            ? std::numeric_limits<float>::quiet_NaN()
                            : rng.uniform(-0.2f, 0.6f);
                    std::vector<simd::LutRow> rows(n);
                    for (auto &row : rows) {
                        row.miss = rng.uniform(0.0f, 2.0f);
                        row.kappa_sqr = rng.uniform(0.5f, 4.0f);
                        row.qnorm_scaled_sqr = rng.uniform(0.0f, 1.5f);
                        row.tmax_inner = rng.uniform(0.0f, 0.4f);
                    }
                    // Per table: each lane's delta row plus a guard cell,
                    // its selected and inner words plus a guard word
                    // (flag words start as the guard too, so a word left
                    // unwritten shows).
                    struct Out {
                        std::vector<float> delta;
                        std::vector<std::uint32_t> selected, inner;
                    };
                    auto run = [&](const simd::Kernels &k, Out &out) {
                        out.delta.assign(n * (entries + 1), guard);
                        out.selected.assign(n * (words + 1), guard_word);
                        out.inner.assign(n * (words + 1), guard_word);
                        std::vector<simd::LutRow> r = rows;
                        for (std::size_t i = 0; i < n; ++i) {
                            r[i].delta = out.delta.data() + i * (entries + 1);
                            r[i].selected =
                                out.selected.data() + i * (words + 1);
                            r[i].inner = inner ? out.inner.data() +
                                                     i * (words + 1)
                                               : nullptr;
                        }
                        k.lut_finish(metric, radius_sqr, tile.data(), lanes,
                                     entries, r.data());
                    };
                    Out want;
                    run(simd::table(simd::Level::kScalar), want);
                    for (std::size_t i = 0; i < n; ++i) {
                        const simd::LutRow &row = rows[i];
                        const float *d = want.delta.data() + i * (entries + 1);
                        std::vector<std::uint32_t> sel(words, 0), inn(words, 0);
                        for (std::size_t e = 0; e < entries; ++e) {
                            const float t = tile[e * n + i];
                            const float om = 1.0f - t;
                            const float value = metric == Metric::kL2
                                ? (radius_sqr - om * om) / row.kappa_sqr
                                : 0.5f *
                                      (row.qnorm_scaled_sqr - radius_sqr +
                                       om * om) /
                                      row.kappa_sqr;
                            const bool hit = !std::isnan(t);
                            EXPECT_EQ(bitsOf(d[e]),
                                      bitsOf(hit ? value - row.miss : 0.0f));
                            sel[e / 32] |= hit ? 1u << (e % 32) : 0u;
                            inn[e / 32] |=
                                t <= row.tmax_inner ? 1u << (e % 32) : 0u;
                        }
                        EXPECT_EQ(bitsOf(d[entries]), bitsOf(guard));
                        for (std::size_t w = 0; w <= words; ++w) {
                            const std::size_t at = i * (words + 1) + w;
                            EXPECT_EQ(want.selected[at],
                                      w < words ? sel[w] : guard_word);
                            EXPECT_EQ(want.inner[at], inner && w < words
                                                          ? inn[w]
                                                          : guard_word);
                        }
                    }
                    for (simd::Level level :
                         {simd::Level::kAvx2, simd::Level::kAvx512}) {
                        if (!simd::supported(level))
                            continue;
                        Out got;
                        run(simd::table(level), got);
                        const std::string where =
                            std::string(simd::levelName(level)) +
                            " entries " + std::to_string(entries) +
                            " lanes " + std::to_string(lanes);
                        for (std::size_t c = 0; c < want.delta.size(); ++c)
                            EXPECT_EQ(bitsOf(want.delta[c]),
                                      bitsOf(got.delta[c]))
                                << where << " cell " << c;
                        EXPECT_EQ(want.selected, got.selected) << where;
                        EXPECT_EQ(want.inner, got.inner) << where;
                    }
                }
}

TEST(Simd, LevelKnobsRoundTrip)
{
    LevelGuard guard;
    EXPECT_EQ(simd::parseLevel("scalar"), simd::Level::kScalar);
    EXPECT_EQ(simd::parseLevel(""), simd::bestSupported());
    EXPECT_EQ(simd::parseLevel("auto"), simd::bestSupported());
    EXPECT_EQ(simd::parseLevel(nullptr), simd::bestSupported());
    // Unknown specs fall back to best-supported instead of silently
    // changing behaviour.
    EXPECT_EQ(simd::parseLevel("neon"), simd::bestSupported());
    // A supported-tier request resolves to that tier, or degrades to
    // the best level below it on hosts that lack the ISA.
    const simd::Level parsed512 = simd::parseLevel("avx512");
    if (simd::supported(simd::Level::kAvx512))
        EXPECT_EQ(parsed512, simd::Level::kAvx512);
    else
        EXPECT_LE(static_cast<int>(parsed512),
                  static_cast<int>(simd::bestSupported()));

    ASSERT_TRUE(simd::setLevel(simd::Level::kScalar));
    EXPECT_EQ(simd::level(), simd::Level::kScalar);
    EXPECT_STREQ(simd::active().name, "scalar");
    if (simd::supported(simd::Level::kAvx2)) {
        ASSERT_TRUE(simd::setLevel(simd::Level::kAvx2));
        EXPECT_EQ(simd::level(), simd::Level::kAvx2);
        EXPECT_STREQ(simd::active().name, "avx2");
    } else {
        EXPECT_FALSE(simd::setLevel(simd::Level::kAvx2));
        EXPECT_EQ(simd::level(), simd::Level::kScalar);
    }
}

Dataset
simdDataset()
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kDeepLike;
    spec.num_points = 500;
    spec.num_queries = 15;
    spec.dim = 8;
    spec.seed = 777;
    return makeDataset(spec);
}

std::vector<std::vector<idx_t>>
idsOf(const SearchResults &results)
{
    std::vector<std::vector<idx_t>> ids(results.size());
    for (std::size_t q = 0; q < results.size(); ++q)
        for (const auto &nb : results[q])
            ids[q].push_back(nb.id);
    return ids;
}

TEST(Simd, FlatTopKIdsIdenticalAcrossLevels)
{
    if (!simd::supported(simd::Level::kAvx2))
        GTEST_SKIP() << "host has no AVX2; nothing to compare";
    LevelGuard guard;
    const auto ds = simdDataset();
    FlatIndex index(ds.metric, ds.base.view());

    ASSERT_TRUE(simd::setLevel(simd::Level::kScalar));
    const auto scalar_ids = idsOf(index.search(ds.queries.view(), 10));
    ASSERT_TRUE(simd::setLevel(simd::Level::kAvx2));
    const auto avx2_ids = idsOf(index.search(ds.queries.view(), 10));
    EXPECT_EQ(scalar_ids, avx2_ids);
}

TEST(Simd, IvfPqTopKIdsIdenticalAcrossLevels)
{
    if (!simd::supported(simd::Level::kAvx2))
        GTEST_SKIP() << "host has no AVX2; nothing to compare";
    LevelGuard guard;
    const auto ds = simdDataset();
    IvfPqIndex::Params params;
    params.clusters = 16;
    params.pq_subspaces = 4;
    params.pq_entries = 32;
    params.nprobs = 4;
    // Build once (under the guard's saved level), then search the same
    // trained index under both dispatch levels.
    IvfPqIndex index(ds.metric, ds.base.view(), params);

    ASSERT_TRUE(simd::setLevel(simd::Level::kScalar));
    const auto scalar_ids = idsOf(index.search(ds.queries.view(), 10));
    ASSERT_TRUE(simd::setLevel(simd::Level::kAvx2));
    const auto avx2_ids = idsOf(index.search(ds.queries.view(), 10));
    EXPECT_EQ(scalar_ids, avx2_ids);
    // The widest supported tier (AVX-512 interleaved scan when present)
    // must agree as well.
    ASSERT_TRUE(simd::setLevel(simd::bestSupported()));
    const auto best_ids = idsOf(index.search(ds.queries.view(), 10));
    EXPECT_EQ(scalar_ids, best_ids);
}

} // namespace
} // namespace juno
