/** @file Tests for the selective distance-calculation stage. */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
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
        calc = std::make_unique<DistanceCalculator>(ivf, interleaved);
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

std::uint32_t
bitsOf(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

/**
 * The scan's reference for probe @p p of @p lut over list @p c: per
 * point, one add per selected subspace in subspace order (JUNO-H's
 * delta cells), counting the selected and the inner-gated subspaces;
 * a point with no selected subspace is no candidate. Candidates come
 * in list order, as DistanceCalculator::accumulateList appends them.
 */
std::vector<Neighbor>
referenceList(const Fixture &fx, SearchMode mode, cluster_t c,
              std::size_t p, const SelectiveLut &lut)
{
    const int subspaces = fx.codes.num_subspaces;
    std::vector<Neighbor> out;
    for (idx_t pid : fx.ivf.list(c)) {
        float acc = 0.0f;
        int hits = 0, inner = 0;
        for (int s = 0; s < subspaces; ++s) {
            const entry_t e = fx.codes.at(pid, s);
            if (!lut.selectedAt(p, s, e))
                continue;
            ++hits;
            if (!lut.inner.empty() && lut.innerAt(p, s, e))
                ++inner;
            acc += lut.delta[lut.cell(p, s, e)];
        }
        if (hits == 0)
            continue;
        float score = 0.0f;
        switch (mode) {
          case SearchMode::kExactDistance:
            score = acc + lut.offset[p];
            break;
          case SearchMode::kHitCount:
            score = static_cast<float>(hits);
            break;
          case SearchMode::kRewardPenalty:
            // +1 inner, 0 outer-only, -1 miss.
            score = static_cast<float>(inner + hits - subspaces);
            break;
        }
        out.push_back({pid, score});
    }
    return out;
}

/** Sets (@p on) or clears every flag of probe @p p's rows. */
void
fillProbe(SelectiveLut &lut, std::size_t p, int subspaces, bool on)
{
    for (int s = 0; s < subspaces; ++s)
        for (entry_t e = 0; e < lut.entries; ++e) {
            const std::size_t w = lut.wordRow(p, s) + e / 32;
            const std::uint32_t bit = 1u << (e % 32);
            lut.selected[w] = on ? lut.selected[w] | bit
                                 : lut.selected[w] & ~bit;
            // Inner on every other entry of a full row.
            lut.inner[w] = on && e % 2 == 0 ? lut.inner[w] | bit
                                            : lut.inner[w] & ~bit;
            if (!on)
                lut.delta[lut.cell(p, s, e)] = 0.0f;
        }
}

/**
 * Every probed list of four queries, in every mode and at every
 * dispatch level, equals the reference scorer id for id and score bit
 * for bit. Each query's LUT also gets a probe with no selected cell,
 * which must yield no candidates, and one with every cell selected,
 * where every point of the list is a candidate.
 */
void
expectScanMatchesReference(Fixture &fx)
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

    const int subspaces = fx.codes.num_subspaces;
    for (idx_t qi = 0; qi < 4; ++qi) {
        const float *q = fx.ds.queries.row(qi);
        const auto probes = fx.ivf.probe(Metric::kL2, q, 6);
        SelectiveLutParams lp;
        lp.inner_gate = true;
        auto lut = fx.builder->build(q, probes, lp);
        const std::size_t none = 4, all = 5;
        fillProbe(lut, none, subspaces, false);
        fillProbe(lut, all, subspaces, true);
        for (SearchMode mode :
             {SearchMode::kExactDistance, SearchMode::kHitCount,
              SearchMode::kRewardPenalty})
            for (simd::Level level : levels) {
                ASSERT_TRUE(simd::setLevel(level));
                for (std::size_t p = 0; p < probes.size(); ++p) {
                    const auto c = static_cast<cluster_t>(probes[p].id);
                    const auto want = referenceList(fx, mode, c, p, lut);
                    std::vector<Neighbor> got;
                    fx.calc->accumulateList(mode, c, p, lut, got);
                    const std::string where =
                        std::string("mode=") + searchModeName(mode) +
                        " level=" + simd::levelName(level) +
                        " query=" + std::to_string(qi) +
                        " probe=" + std::to_string(p);
                    if (p == none) {
                        EXPECT_TRUE(got.empty()) << where;
                    }
                    if (p == all) {
                        EXPECT_EQ(got.size(), fx.ivf.list(c).size())
                            << where;
                    }
                    ASSERT_EQ(want.size(), got.size()) << where;
                    for (std::size_t i = 0; i < want.size(); ++i) {
                        EXPECT_EQ(want[i].id, got[i].id) << where;
                        EXPECT_EQ(bitsOf(want[i].score),
                                  bitsOf(got[i].score))
                            << where << " i=" << i;
                    }
                }
            }
    }
}

TEST(DistanceCalc, ScanMatchesReferenceScorer)
{
    Fixture fx;
    expectScanMatchesReference(fx);
}

TEST(DistanceCalc, ScanMatchesReferenceOverMultiWordFlagRows)
{
    // E = 64: two flag words and two register pairs of the AVX-512
    // permute scan; E = 200: seven words and the eight-pair permute
    // with a partial last register.
    for (int entries : {64, 200}) {
        SCOPED_TRACE("entries " + std::to_string(entries));
        Fixture fx(entries);
        expectScanMatchesReference(fx);
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
