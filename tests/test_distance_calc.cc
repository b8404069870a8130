/** @file Tests for the selective distance-calculation stage. */
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/distance.h"
#include "common/simd.h"
#include "core/distance_calc.h"
#include "core/selective_lut.h"
#include "dataset/synthetic.h"

namespace juno {
namespace {

/** Offline stack shared across the tests in this file. */
struct Fixture {
    Dataset ds;
    InvertedFileIndex ivf;
    ProductQuantizer pq;
    PQCodes codes;
    InterestIndex interest;
    DensityMap density;
    ThresholdPolicy policy;
    JunoScene scene;
    InterleavedLists interleaved;
    rt::RtDevice device;
    std::unique_ptr<SelectiveLutBuilder> builder;
    std::unique_ptr<DistanceCalculator> calc;

    /** @p entries: codebook size E (flag rows of ceil(E / 32) words). */
    explicit Fixture(int entries = 16)
    {
        SyntheticSpec spec;
        spec.kind = DatasetKind::kDeepLike;
        spec.num_points = 1500;
        spec.num_queries = 8;
        spec.dim = 8;
        spec.components = 12;
        spec.seed = 77;
        ds = makeDataset(spec);

        InvertedFileIndex::Params ivf_params;
        ivf_params.clusters = 12;
        ivf.build(ds.base.view(), ivf_params);

        FloatMatrix residuals(ds.base.rows(), ds.base.cols());
        for (idx_t p = 0; p < ds.base.rows(); ++p)
            ivf.residual(ds.base.row(p), ivf.label(p), residuals.row(p));
        PQParams pq_params;
        pq_params.num_subspaces = 4;
        pq_params.entries = entries;
        pq.train(residuals.view(), pq_params);
        codes = pq.encode(residuals.view());
        interest.build(ivf, codes, entries);

        density.build(residuals.view(), 4, 30);
        ThresholdPolicy::Params tp;
        tp.train_samples = 80;
        tp.ref_samples = 800;
        tp.contain_topk = 50;
        policy.train(Metric::kL2, residuals.view(), 4, density, tp);
        scene.build(Metric::kL2, pq, policy);
        builder = std::make_unique<SelectiveLutBuilder>(scene, policy, ivf,
                                                        device);
        interleaved.build(ivf.lists(), codes, entries);
        calc = std::make_unique<DistanceCalculator>(ivf, interest,
                                                    &interleaved);
    }
};

TEST(DistanceCalc, SearchModeNames)
{
    EXPECT_STREQ(searchModeName(SearchMode::kExactDistance), "JUNO-H");
    EXPECT_STREQ(searchModeName(SearchMode::kRewardPenalty), "JUNO-M");
    EXPECT_STREQ(searchModeName(SearchMode::kHitCount), "JUNO-L");
}

TEST(DistanceCalc, ExactModeScoresMatchSparseAccumulation)
{
    Fixture fx;
    const float *q = fx.ds.queries.row(0);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 3);
    const auto lut = fx.builder->build(q, probes, {});
    const auto result = fx.calc->run(Metric::kL2, SearchMode::kExactDistance,
                                     probes, lut, 20);
    ASSERT_FALSE(result.empty());

    // Recompute one result's score by hand from the LUT rows.
    const idx_t pid = result[0].id;
    const cluster_t c = fx.ivf.label(pid);
    std::size_t probe_ord = probes.size();
    for (std::size_t p = 0; p < probes.size(); ++p)
        if (probes[p].id == c)
            probe_ord = p;
    ASSERT_LT(probe_ord, probes.size());

    float expect = 0.0f;
    for (int s = 0; s < 4; ++s) {
        const entry_t code = fx.codes.at(pid, s);
        // A selected cell holds value - miss; a miss is charged miss.
        expect += lut.missFor(probe_ord, s);
        if (lut.selectedAt(probe_ord, s, code))
            expect += lut.delta[lut.cell(probe_ord, s, code)];
    }
    EXPECT_NEAR(result[0].score, expect, 1e-3f * (1.0f + expect));
}

TEST(DistanceCalc, ResultsSortedByMode)
{
    Fixture fx;
    const float *q = fx.ds.queries.row(1);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 3);
    SelectiveLutParams lp;
    lp.inner_gate = true;
    const auto lut = fx.builder->build(q, probes, lp);

    const auto exact = fx.calc->run(Metric::kL2,
                                    SearchMode::kExactDistance, probes, lut,
                                    10);
    for (std::size_t i = 1; i < exact.size(); ++i)
        EXPECT_LE(exact[i - 1].score, exact[i].score);

    const auto counts = fx.calc->run(Metric::kL2, SearchMode::kHitCount,
                                     probes, lut, 10);
    for (std::size_t i = 1; i < counts.size(); ++i)
        EXPECT_GE(counts[i - 1].score, counts[i].score);
}

TEST(DistanceCalc, HitCountBoundedBySubspaces)
{
    Fixture fx;
    const float *q = fx.ds.queries.row(2);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 4);
    const auto lut = fx.builder->build(q, probes, {});
    const auto counts = fx.calc->run(Metric::kL2, SearchMode::kHitCount,
                                     probes, lut, 50);
    for (const auto &nb : counts) {
        EXPECT_GE(nb.score, 1.0f);
        EXPECT_LE(nb.score, 4.0f);
    }
}

TEST(DistanceCalc, RewardPenaltyWithinBounds)
{
    Fixture fx;
    const float *q = fx.ds.queries.row(3);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 4);
    SelectiveLutParams lp;
    lp.inner_gate = true;
    const auto lut = fx.builder->build(q, probes, lp);
    const auto scores = fx.calc->run(Metric::kL2,
                                     SearchMode::kRewardPenalty, probes,
                                     lut, 50);
    for (const auto &nb : scores) {
        EXPECT_GE(nb.score, -4.0f);
        EXPECT_LE(nb.score, 4.0f);
    }
}

TEST(DistanceCalc, TrueNearestNeighborRanksHighOnHitCount)
{
    // Property behind Fig. 11(b): the true NN's entries are close to
    // the query projections, so its hit count should land near the top.
    Fixture fx;
    int wins = 0, trials = 0;
    for (idx_t qi = 0; qi < fx.ds.queries.rows(); ++qi) {
        const float *q = fx.ds.queries.row(qi);
        const auto probes = fx.ivf.probe(Metric::kL2, q, 6);
        const auto lut = fx.builder->build(q, probes, {});
        const auto counts = fx.calc->run(Metric::kL2, SearchMode::kHitCount,
                                         probes, lut, 100);
        // Exact NN via brute force.
        idx_t best = -1;
        float best_d = 1e30f;
        for (idx_t p = 0; p < fx.ds.base.rows(); ++p) {
            const float d = l2Sqr(q, fx.ds.base.row(p), 8);
            if (d < best_d) {
                best_d = d;
                best = p;
            }
        }
        for (const auto &nb : counts)
            if (nb.id == best) {
                ++wins;
                break;
            }
        ++trials;
    }
    EXPECT_GE(static_cast<double>(wins) / trials, 0.5);
}

TEST(DistanceCalc, AccumulateListExposesPerClusterScores)
{
    Fixture fx;
    const float *q = fx.ds.queries.row(4);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 2);
    const auto lut = fx.builder->build(q, probes, {});
    std::vector<Neighbor> scores;
    const cluster_t c = static_cast<cluster_t>(probes[0].id);
    fx.calc->accumulateList(SearchMode::kExactDistance, c, 0, lut, scores);
    EXPECT_FALSE(scores.empty());
    for (const auto &nb : scores)
        EXPECT_EQ(fx.ivf.label(nb.id), c);
}

/**
 * The dense path streams the interleaved codes against the LUT rows;
 * it must reproduce the sparse interest-index walk bit for bit (same
 * candidates, same scores, same order) in every mode, at every
 * dispatch level and at the default threshold between them.
 */
void
expectDenseEqualsSparse(Fixture &fx)
{
    struct LevelGuard {
        simd::Level saved = simd::level();
        ~LevelGuard() { simd::setLevel(saved); }
    } guard;
    std::vector<simd::Level> levels = {simd::Level::kScalar};
    if (simd::supported(simd::Level::kAvx2))
        levels.push_back(simd::Level::kAvx2);
    if (simd::supported(simd::Level::kAvx512))
        levels.push_back(simd::Level::kAvx512);

    for (idx_t qi = 0; qi < 4; ++qi) {
        const float *q = fx.ds.queries.row(qi);
        const auto probes = fx.ivf.probe(Metric::kL2, q, 4);
        SelectiveLutParams lp;
        lp.inner_gate = true;
        const auto lut = fx.builder->build(q, probes, lp);
        for (SearchMode mode :
             {SearchMode::kExactDistance, SearchMode::kHitCount,
              SearchMode::kRewardPenalty}) {
            fx.calc->setDenseThreshold(2.0); // never dense
            const auto sparse =
                fx.calc->run(Metric::kL2, mode, probes, lut, 40);
            for (simd::Level level : levels) {
                ASSERT_TRUE(simd::setLevel(level));
                for (double threshold : {0.0 /* always dense */, 0.5}) {
                    fx.calc->setDenseThreshold(threshold);
                    const auto dense =
                        fx.calc->run(Metric::kL2, mode, probes, lut, 40);
                    ASSERT_EQ(sparse.size(), dense.size())
                        << "mode=" << searchModeName(mode) << " level="
                        << simd::levelName(level)
                        << " threshold=" << threshold;
                    for (std::size_t i = 0; i < sparse.size(); ++i)
                        EXPECT_EQ(sparse[i], dense[i])
                            << "mode=" << searchModeName(mode)
                            << " level=" << simd::levelName(level)
                            << " threshold=" << threshold << " i=" << i;
                }
            }
            fx.calc->setDenseThreshold(0.5);
        }
    }
}

TEST(DistanceCalc, DenseInterleavedPathBitwiseEqualsSparseWalk)
{
    Fixture fx;
    expectDenseEqualsSparse(fx);
}

TEST(DistanceCalc, DenseEqualsSparseOverMultiWordFlagRows)
{
    // E = 64: two flag words and two register pairs of the AVX-512
    // permute scan; E = 200: seven words and the eight-pair permute
    // with a partial last register.
    for (int entries : {64, 200}) {
        SCOPED_TRACE("entries " + std::to_string(entries));
        Fixture fx(entries);
        expectDenseEqualsSparse(fx);
    }
}

TEST(DistanceCalc, RejectsBadK)
{
    Fixture fx;
    const float *q = fx.ds.queries.row(5);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 2);
    const auto lut = fx.builder->build(q, probes, {});
    EXPECT_THROW(fx.calc->run(Metric::kL2, SearchMode::kExactDistance,
                              probes, lut, 0),
                 ConfigError);
}

} // namespace
} // namespace juno
