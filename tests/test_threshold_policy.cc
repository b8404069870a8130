/** @file Tests for the dynamic threshold policy. */
#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/threshold_policy.h"

namespace juno {
namespace {

/** Clustered 2-subspace vectors (dim 4) with a dense and sparse blob. */
FloatMatrix
clusteredVectors(idx_t n, std::uint64_t seed)
{
    Rng rng(seed);
    FloatMatrix m(n, 4);
    for (idx_t i = 0; i < n; ++i) {
        const bool dense = rng.uniform() < 0.8;
        const float cx = dense ? 0.0f : 3.0f;
        const float sigma = dense ? 0.1f : 0.8f;
        for (int s = 0; s < 2; ++s) {
            m.at(i, 2 * s) =
                cx + static_cast<float>(rng.gaussian(0.0, sigma));
            m.at(i, 2 * s + 1) =
                static_cast<float>(rng.gaussian(0.0, sigma));
        }
    }
    return m;
}

struct PolicyFixture {
    FloatMatrix vectors;
    DensityMap density;
    ThresholdPolicy policy;

    explicit PolicyFixture(Metric metric, idx_t n = 2000)
        : vectors(clusteredVectors(n, 71))
    {
        density.build(vectors.view(), 2, 40);
        ThresholdPolicy::Params params;
        params.train_samples = 100;
        params.ref_samples = 1000;
        params.contain_topk = 50;
        policy.train(metric, vectors.view(), 2, density, params);
    }
};

TEST(ThresholdPolicy, TrainedStateAndRanges)
{
    PolicyFixture fx(Metric::kL2);
    EXPECT_TRUE(fx.policy.trained());
    EXPECT_EQ(fx.policy.numSubspaces(), 2);
    for (int s = 0; s < 2; ++s) {
        EXPECT_GT(fx.policy.minThreshold(s), 0.0);
        EXPECT_GE(fx.policy.maxThreshold(s), fx.policy.minThreshold(s));
    }
}

TEST(ThresholdPolicy, DynamicThresholdWithinTrainingRange)
{
    PolicyFixture fx(Metric::kL2);
    for (int s = 0; s < 2; ++s) {
        const double thr = fx.policy.threshold(s, 0.0f, 0.0f);
        EXPECT_GE(thr, fx.policy.minThreshold(s) - 1e-9);
        EXPECT_LE(thr, fx.policy.maxThreshold(s) + 1e-9);
    }
}

TEST(ThresholdPolicy, DenseRegionGetsTighterThreshold)
{
    // The Fig. 7(a) correlation: density up -> threshold down.
    PolicyFixture fx(Metric::kL2, 4000);
    const double dense_thr = fx.policy.threshold(0, 0.0f, 0.0f);
    const double sparse_thr = fx.policy.threshold(0, 3.0f, 0.0f);
    EXPECT_LT(dense_thr, sparse_thr);
}

TEST(ThresholdPolicy, StaticModesReturnExtremes)
{
    PolicyFixture fx(Metric::kL2);
    fx.policy.setMode(ThresholdMode::kStaticSmall);
    EXPECT_DOUBLE_EQ(fx.policy.threshold(0, 0.0f, 0.0f),
                     fx.policy.minThreshold(0));
    fx.policy.setMode(ThresholdMode::kStaticLarge);
    EXPECT_DOUBLE_EQ(fx.policy.threshold(0, 0.0f, 0.0f),
                     fx.policy.maxThreshold(0));
}

TEST(ThresholdPolicy, L2ScalingIsMultiplicative)
{
    PolicyFixture fx(Metric::kL2);
    const double thr = 2.0;
    EXPECT_DOUBLE_EQ(fx.policy.scaled(0, thr, 1.0), 2.0);
    EXPECT_DOUBLE_EQ(fx.policy.scaled(0, thr, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(fx.policy.scaled(0, thr, 0.0), 0.0);
}

TEST(ThresholdPolicy, IpScalingRaisesFloorMonotonically)
{
    PolicyFixture fx(Metric::kInnerProduct);
    const double thr = fx.policy.threshold(0, 0.0f, 0.0f);
    double prev = fx.policy.scaled(0, thr, 1.0);
    EXPECT_DOUBLE_EQ(prev, thr);
    for (double scale : {0.8, 0.5, 0.2}) {
        const double cur = fx.policy.scaled(0, thr, scale);
        EXPECT_GE(cur, prev); // smaller scale -> higher (tighter) floor
        prev = cur;
    }
    EXPECT_LE(prev, fx.policy.maxThreshold(0) + 1e-9);
}

TEST(ThresholdPolicy, L2ThresholdCoversTopKMostly)
{
    // Property: the predicted radius around a *data* point should
    // contain a healthy share of its top-50 subspace neighbours.
    PolicyFixture fx(Metric::kL2, 3000);
    Rng rng(9);
    int covered = 0, total = 0;
    for (int trial = 0; trial < 30; ++trial) {
        const idx_t p = static_cast<idx_t>(rng.below(3000));
        const float x = fx.vectors.at(p, 0), y = fx.vectors.at(p, 1);
        const double thr = fx.policy.threshold(0, x, y);
        // Count points within thr of (x, y) in subspace 0.
        int within = 0;
        for (idx_t i = 0; i < 3000; ++i) {
            const float dx = fx.vectors.at(i, 0) - x;
            const float dy = fx.vectors.at(i, 1) - y;
            if (static_cast<double>(dx) * dx + static_cast<double>(dy) * dy
                <= thr * thr)
                ++within;
        }
        covered += within >= 25; // at least half the target top-50
        ++total;
    }
    EXPECT_GE(static_cast<double>(covered) / total, 0.7);
}

/**
 * The per-count table is derived data: for every cell count it holds
 * exactly the regressor's prediction at count / cell area, and the
 * dynamic threshold() of any projection equals the direct
 * predict(densityAt) it replaces, bit for bit, after training and
 * after a save/load round trip, for both metrics.
 */
TEST(ThresholdPolicy, CountTableEqualsDirectPrediction)
{
    for (Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
        PolicyFixture fx(metric);
        BufferWriter writer;
        fx.policy.save(writer);
        BoundedMemReader reader(writer.buffer().data(),
                                writer.buffer().size(), "policy");
        ThresholdPolicy loaded;
        loaded.load(reader, fx.density);
        for (const ThresholdPolicy *policy : {&fx.policy, &loaded}) {
            Rng rng(5);
            for (int s = 0; s < 2; ++s) {
                const SubspaceDensity &map = fx.density.subspace(s);
                const PolyRegressor &reg = policy->regressor(s);
                for (idx_t c = 0; c <= map.maxCount(); ++c)
                    ASSERT_EQ(policy->thresholdForCount(s, c),
                              reg.predict(static_cast<double>(c) /
                                          map.cellArea()))
                        << "subspace " << s << " count " << c;
                EXPECT_THROW(policy->thresholdForCount(s, map.maxCount() + 1),
                             ConfigError);
                EXPECT_THROW(policy->thresholdForCount(s, -1), ConfigError);
                for (int i = 0; i < 2000; ++i) {
                    // Beyond the map's box too: cells clamp at the edge.
                    const float x = rng.uniform(-2.0f, 5.0f);
                    const float y = rng.uniform(-3.0f, 3.0f);
                    ASSERT_EQ(policy->threshold(s, x, y),
                              reg.predict(fx.density.densityAt(s, x, y)))
                        << "subspace " << s << " at (" << x << ", " << y
                        << ")";
                }
            }
        }
    }
}

TEST(ThresholdPolicy, RejectsMisuse)
{
    PolicyFixture fx(Metric::kL2);
    EXPECT_THROW(fx.policy.threshold(5, 0.0f, 0.0f), ConfigError);
    ThresholdPolicy untrained;
    EXPECT_THROW(untrained.threshold(0, 0.0f, 0.0f), ConfigError);

    FloatMatrix bad(10, 5);
    DensityMap dm;
    ThresholdPolicy policy;
    ThresholdPolicy::Params params;
    EXPECT_THROW(policy.train(Metric::kL2, bad.view(), 2, dm, params),
                 ConfigError);
}

} // namespace
} // namespace juno
