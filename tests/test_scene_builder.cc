/** @file Tests for the JUNO scene construction and coordinate mapping. */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "common/distance.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/scene_builder.h"
#include "rtcore/device.h"

namespace juno {
namespace {

/** Trains a tiny PQ + policy pair over random dim-8 vectors. */
struct SceneFixture {
    FloatMatrix vectors{FloatMatrix(800, 8)};
    ProductQuantizer pq;
    DensityMap density;
    ThresholdPolicy policy;
    JunoScene scene;

    explicit SceneFixture(Metric metric)
    {
        Rng rng(81);
        for (idx_t i = 0; i < vectors.rows(); ++i)
            for (idx_t j = 0; j < vectors.cols(); ++j)
                vectors.at(i, j) = rng.uniform(-2.0f, 2.0f);

        PQParams pq_params;
        pq_params.num_subspaces = 4;
        pq_params.entries = 32;
        pq.train(vectors.view(), pq_params);

        density.build(vectors.view(), 4, 20);
        ThresholdPolicy::Params tp;
        tp.train_samples = 60;
        tp.ref_samples = 400;
        tp.contain_topk = 30;
        policy.train(metric, vectors.view(), 4, density, tp);

        scene.build(metric, pq, policy);
    }
};

/**
 * Subspace @p s's entries that @p ray hits, with their hit times: one
 * one-ray packet recording the subspace's spheres.
 */
std::map<entry_t, float>
hitEntries(const JunoScene &scene, int s, const rt::Ray &ray)
{
    rt::RtDevice device;
    std::vector<float> tile(static_cast<std::size_t>(scene.entries()),
                            std::numeric_limits<float>::quiet_NaN());
    device.traceTile(scene.scene(), &ray, 1, scene.recordRange(s),
                     tile.data());
    std::map<entry_t, float> out;
    for (std::size_t e = 0; e < tile.size(); ++e)
        if (!std::isnan(tile[e]))
            out[static_cast<entry_t>(e)] = tile[e];
    return out;
}

TEST(JunoScene, PlacesOneSpherePerEntry)
{
    SceneFixture fx(Metric::kL2);
    EXPECT_TRUE(fx.scene.built());
    EXPECT_EQ(fx.scene.scene().sphereCount(), 4u * 32u);
}

TEST(JunoScene, SpheresSitAtSubspacePlanes)
{
    SceneFixture fx(Metric::kL2);
    const auto &spheres = fx.scene.scene().spheres();
    for (std::size_t prim = 0; prim < spheres.size(); ++prim) {
        // Entry e of subspace s is prim s * E + e (recordRange()).
        const std::size_t s = prim / 32;
        EXPECT_FLOAT_EQ(spheres[prim].center.z,
                        JunoScene::kZSpacing * static_cast<float>(s) + 1.0f);
    }
}

TEST(JunoScene, L2SpheresShareConstantRadius)
{
    SceneFixture fx(Metric::kL2);
    for (const auto &sphere : fx.scene.scene().spheres())
        EXPECT_FLOAT_EQ(sphere.radius, fx.scene.radius());
}

TEST(JunoScene, IpRadiiAreInflatedByEntryNorm)
{
    SceneFixture fx(Metric::kInnerProduct);
    const float r2 = fx.scene.radius() * fx.scene.radius();
    for (const auto &sphere : fx.scene.scene().spheres()) {
        const float norm2 = sphere.center.x * sphere.center.x +
                            sphere.center.y * sphere.center.y;
        EXPECT_NEAR(sphere.radius, std::sqrt(r2 + norm2), 1e-5f);
    }
}

TEST(JunoScene, MakeRayGatesTmaxByThreshold)
{
    SceneFixture fx(Metric::kL2);
    rt::Ray tight, loose;
    ASSERT_TRUE(fx.scene.makeRay(0, 0.1f, 0.1f, 0.2, tight));
    ASSERT_TRUE(fx.scene.makeRay(0, 0.1f, 0.1f, 1.0, loose));
    EXPECT_LT(tight.tmax, loose.tmax);
    EXPECT_LE(loose.tmax, 1.0f);
}

TEST(JunoScene, MakeRayRejectsEmptyGate)
{
    SceneFixture fx(Metric::kL2);
    rt::Ray ray;
    EXPECT_FALSE(fx.scene.makeRay(0, 0.0f, 0.0f, 0.0, ray));
    EXPECT_FALSE(fx.scene.makeRay(0, 0.0f, 0.0f, -1.0, ray));
}

TEST(JunoScene, ThitGateEquivalentToDistanceCheckL2)
{
    // Property: an entry is hit by a gated ray iff its true subspace
    // distance is within the threshold. This is the core correctness
    // claim of the RT mapping.
    SceneFixture fx(Metric::kL2);
    Rng rng(91);
    for (int trial = 0; trial < 40; ++trial) {
        const int s = static_cast<int>(rng.below(4));
        const float qx = rng.uniform(-2.0f, 2.0f);
        const float qy = rng.uniform(-2.0f, 2.0f);
        const double thr =
            fx.policy.threshold(s, qx, qy) * rng.uniform(0.3f, 1.0f);
        rt::Ray ray;
        if (!fx.scene.makeRay(s, qx, qy, thr, ray))
            continue;
        const auto hit_entries = hitEntries(fx.scene, s, ray);
        for (entry_t e = 0; e < 32; ++e) {
            const float *ec = fx.pq.entry(s, e);
            const double dx = ec[0] - qx, dy = ec[1] - qy;
            const double dist = std::sqrt(dx * dx + dy * dy);
            const bool inside = dist <= thr * (1.0 - 1e-6);
            const bool outside = dist >= thr * (1.0 + 1e-6);
            if (inside) {
                EXPECT_TRUE(hit_entries.count(e))
                    << "entry " << e << " at dist " << dist
                    << " should be within thr " << thr;
            } else if (outside) {
                EXPECT_FALSE(hit_entries.count(e))
                    << "entry " << e << " at dist " << dist
                    << " should be outside thr " << thr;
            }
        }
    }
}

TEST(JunoScene, LutValueRecoversL2)
{
    SceneFixture fx(Metric::kL2);
    const int s = 1;
    const float qx = 0.3f, qy = -0.6f;
    const double thr = fx.policy.maxThreshold(s);
    rt::Ray ray;
    ASSERT_TRUE(fx.scene.makeRay(s, qx, qy, thr, ray));
    const float k = fx.scene.coordScale(s);
    const auto hits = hitEntries(fx.scene, s, ray);
    for (const auto &[e, thit] : hits) {
        const float *ec = fx.pq.entry(s, e);
        const float dx = ec[0] - qx, dy = ec[1] - qy;
        EXPECT_NEAR(fx.scene.lutValueL2(k * k, thit), dx * dx + dy * dy,
                    2e-3f);
    }
    EXPECT_FALSE(hits.empty());
}

TEST(JunoScene, LutValueRecoversIp)
{
    SceneFixture fx(Metric::kInnerProduct);
    const int s = 2;
    const float qx = 0.8f, qy = 0.4f;
    // A permissive floor so several entries hit.
    const double floor = fx.policy.minThreshold(s) - 5.0;
    rt::Ray ray;
    ASSERT_TRUE(fx.scene.makeRay(s, qx, qy, floor, ray));
    const float k = fx.scene.coordScale(s);
    const float qn2 = (qx * k) * (qx * k) + (qy * k) * (qy * k);
    const auto hits = hitEntries(fx.scene, s, ray);
    for (const auto &[e, thit] : hits) {
        const float *ec = fx.pq.entry(s, e);
        const float ip = ec[0] * qx + ec[1] * qy;
        EXPECT_NEAR(fx.scene.lutValueIp(k * k, qn2, thit), ip, 5e-3f);
    }
    EXPECT_FALSE(hits.empty());
}

TEST(JunoScene, TmaxMonotoneInThresholdNeverAddsHitsWhenShrunk)
{
    SceneFixture fx(Metric::kL2);
    const int s = 0;
    const float qx = 0.2f, qy = 0.1f;
    auto hits_for = [&](double thr) {
        rt::Ray ray;
        if (!fx.scene.makeRay(s, qx, qy, thr, ray))
            return std::set<entry_t>{};
        std::set<entry_t> out;
        for (const auto &hit : hitEntries(fx.scene, s, ray))
            out.insert(hit.first);
        return out;
    };
    const double full = fx.policy.maxThreshold(s);
    auto prev = hits_for(full);
    for (double scale : {0.75, 0.5, 0.25, 0.1}) {
        auto cur = hits_for(full * scale);
        for (entry_t e : cur)
            EXPECT_TRUE(prev.count(e)) << "shrinking gate added entry " << e;
        prev = std::move(cur);
    }
}

TEST(JunoScene, RequiresTwoDimensionalSubspaces)
{
    Rng rng(83);
    FloatMatrix vectors(200, 12);
    for (idx_t i = 0; i < 200; ++i)
        for (idx_t j = 0; j < 12; ++j)
            vectors.at(i, j) = rng.uniform(-1.0f, 1.0f);
    ProductQuantizer pq;
    PQParams params;
    params.num_subspaces = 3; // subDim = 4: invalid for the RT mapping
    params.entries = 8;
    pq.train(vectors.view(), params);

    DensityMap density;
    density.build(vectors.view(), 6, 10);
    ThresholdPolicy policy;
    ThresholdPolicy::Params tp;
    tp.train_samples = 20;
    tp.ref_samples = 100;
    tp.contain_topk = 10;
    policy.train(Metric::kL2, vectors.view(), 6, density, tp);

    JunoScene scene;
    EXPECT_THROW(scene.build(Metric::kL2, pq, policy), ConfigError);
}

} // namespace
} // namespace juno
