/** @file Tests for the end-to-end JunoIndex. */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "common/logging.h"
#include "core/juno_index.h"
#include "dataset/ground_truth.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"

namespace juno {
namespace {

Dataset
makeData(Metric metric, idx_t n = 2000, idx_t dim = 16)
{
    SyntheticSpec spec;
    spec.kind = metric == Metric::kL2 ? DatasetKind::kDeepLike
                                      : DatasetKind::kTtiLike;
    spec.num_points = n;
    spec.num_queries = 25;
    spec.dim = dim;
    spec.components = 16;
    spec.seed = 88;
    return makeDataset(spec);
}

JunoParams
smallParams()
{
    JunoParams params;
    params.clusters = 20;
    params.pq_entries = 32;
    params.nprobs = 6;
    params.density_grid = 40;
    params.policy.train_samples = 80;
    params.policy.ref_samples = 1000;
    params.policy.contain_topk = 50;
    return params;
}

TEST(JunoIndex, BuildsAllComponents)
{
    const auto ds = makeData(Metric::kL2);
    JunoIndex index(Metric::kL2, ds.base.view(), smallParams());
    EXPECT_EQ(index.size(), 2000);
    EXPECT_TRUE(index.ivf().built());
    EXPECT_TRUE(index.pq().trained());
    EXPECT_TRUE(index.densityMap().built());
    EXPECT_TRUE(index.thresholdPolicy().trained());
    EXPECT_TRUE(index.junoScene().built());
    EXPECT_EQ(index.pq().numSubspaces(), 8); // dim 16 -> 8 subspaces
}

TEST(JunoIndex, JunoHReachesHighRecallWithFullProbing)
{
    const auto ds = makeData(Metric::kL2);
    auto params = junoPresetH(smallParams());
    params.nprobs = 20;
    JunoIndex index(Metric::kL2, ds.base.view(), params);
    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.queries.view(), 10);
    const auto results = index.search(ds.queries.view(), 100);
    EXPECT_GE(recall1AtK(gt, results), 0.8);
}

TEST(JunoIndex, PresetsConfigureModes)
{
    EXPECT_EQ(junoPresetH().mode, SearchMode::kExactDistance);
    EXPECT_EQ(junoPresetM().mode, SearchMode::kRewardPenalty);
    EXPECT_EQ(junoPresetL().mode, SearchMode::kHitCount);
}

TEST(JunoIndex, QualityOrderingAcrossModes)
{
    // JUNO-H (exact distances) should recall at least as well as the
    // count-based modes at the same operating point.
    const auto ds = makeData(Metric::kL2);
    auto params = smallParams();
    params.nprobs = 12;
    JunoIndex index(Metric::kL2, ds.base.view(), params);
    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.queries.view(), 10);

    index.setSearchMode(SearchMode::kExactDistance);
    const double rh = recall1AtK(gt, index.search(ds.queries.view(), 100));
    index.setSearchMode(SearchMode::kRewardPenalty);
    const double rm = recall1AtK(gt, index.search(ds.queries.view(), 100));
    index.setSearchMode(SearchMode::kHitCount);
    const double rl = recall1AtK(gt, index.search(ds.queries.view(), 100));

    EXPECT_GE(rh, rl - 0.1);
    EXPECT_GE(rh, 0.6);
    EXPECT_GT(rm, 0.0);
    EXPECT_GT(rl, 0.0);
}

TEST(JunoIndex, RecallMonotoneInNprobs)
{
    const auto ds = makeData(Metric::kL2);
    JunoIndex index(Metric::kL2, ds.base.view(),
                    junoPresetH(smallParams()));
    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.queries.view(), 10);
    double prev = -1.0;
    for (idx_t nprobs : {2, 8, 20}) {
        index.setNprobs(nprobs);
        const double r =
            recall1AtK(gt, index.search(ds.queries.view(), 100));
        EXPECT_GE(r, prev - 0.08) << "nprobs " << nprobs;
        prev = r;
    }
}

TEST(JunoIndex, ScaleTradesRecallForFewerHits)
{
    const auto ds = makeData(Metric::kL2);
    auto params = junoPresetH(smallParams());
    params.nprobs = 12;
    JunoIndex index(Metric::kL2, ds.base.view(), params);
    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.queries.view(), 10);

    index.setThresholdScale(1.0);
    index.device().resetStats();
    const double r_full =
        recall1AtK(gt, index.search(ds.queries.view(), 100));
    const auto hits_full = index.rtStats().hits;

    index.setThresholdScale(0.4);
    index.device().resetStats();
    const double r_small =
        recall1AtK(gt, index.search(ds.queries.view(), 100));
    const auto hits_small = index.rtStats().hits;

    EXPECT_LT(hits_small, hits_full);
    EXPECT_GE(r_full, r_small - 0.05);
}

TEST(JunoIndex, InnerProductSearchWorks)
{
    const auto ds = makeData(Metric::kInnerProduct);
    auto params = junoPresetH(smallParams());
    params.nprobs = 20;
    JunoIndex index(Metric::kInnerProduct, ds.base.view(), params);
    const auto gt = computeGroundTruth(Metric::kInnerProduct,
                                       ds.base.view(), ds.queries.view(),
                                       10);
    const auto results = index.search(ds.queries.view(), 100);
    EXPECT_GE(recall1AtK(gt, results), 0.5);
}

TEST(JunoIndex, RtAndFallbackGiveSameResults)
{
    const auto ds = makeData(Metric::kL2);
    JunoIndex index(Metric::kL2, ds.base.view(),
                    junoPresetH(smallParams()));
    const auto rt_results = index.search(ds.queries.view(), 20);
    index.setUseRtCore(false);
    const auto fb_results = index.search(ds.queries.view(), 20);
    for (std::size_t q = 0; q < rt_results.size(); ++q) {
        ASSERT_EQ(rt_results[q].size(), fb_results[q].size());
        for (std::size_t i = 0; i < rt_results[q].size(); ++i) {
            EXPECT_EQ(rt_results[q][i].id, fb_results[q][i].id);
            std::uint32_t rt_bits, fb_bits;
            std::memcpy(&rt_bits, &rt_results[q][i].score, sizeof rt_bits);
            std::memcpy(&fb_bits, &fb_results[q][i].score, sizeof fb_bits);
            EXPECT_EQ(rt_bits, fb_bits) << "query " << q << " rank " << i;
        }
    }
}

TEST(JunoIndex, PipelinedMatchesSequentialResults)
{
    const auto ds = makeData(Metric::kL2);
    JunoIndex index(Metric::kL2, ds.base.view(),
                    junoPresetH(smallParams()));
    const auto seq = index.search(ds.queries.view(), 15);
    index.setPipelined(true);
    const auto pipe = index.search(ds.queries.view(), 15);
    EXPECT_EQ(seq, pipe);
}

TEST(JunoIndex, StageTimersPopulated)
{
    const auto ds = makeData(Metric::kL2);
    JunoIndex index(Metric::kL2, ds.base.view(),
                    junoPresetH(smallParams()));
    index.search(ds.queries.view(), 10);
    EXPECT_GT(index.stageTimers().seconds("filter"), 0.0);
    EXPECT_GT(index.stageTimers().seconds("rt_lut"), 0.0);
    EXPECT_GT(index.stageTimers().seconds("scan"), 0.0);
}

TEST(JunoIndex, StaticThresholdModesWork)
{
    const auto ds = makeData(Metric::kL2);
    JunoIndex index(Metric::kL2, ds.base.view(),
                    junoPresetH(smallParams()));
    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.queries.view(), 10);

    index.setThresholdMode(ThresholdMode::kStaticLarge);
    index.device().resetStats();
    const double r_large =
        recall1AtK(gt, index.search(ds.queries.view(), 100));
    const auto hits_large = index.rtStats().hits;

    index.setThresholdMode(ThresholdMode::kStaticSmall);
    index.device().resetStats();
    recall1AtK(gt, index.search(ds.queries.view(), 100));
    const auto hits_small = index.rtStats().hits;

    // Large static threshold does more work (more hits) and should be
    // at least as accurate as anything smaller.
    EXPECT_GT(hits_large, hits_small);
    EXPECT_GT(r_large, 0.0);
}

TEST(JunoIndex, NameEncodesPreset)
{
    const auto ds = makeData(Metric::kL2);
    JunoIndex index(Metric::kL2, ds.base.view(),
                    junoPresetL(smallParams()));
    EXPECT_NE(index.name().find("JUNO-L"), std::string::npos);
    EXPECT_NE(index.name().find("C=20"), std::string::npos);
}

TEST(JunoIndex, RejectsBadConfigs)
{
    const auto ds = makeData(Metric::kL2);
    auto params = smallParams();
    params.nprobs = 0;
    EXPECT_THROW(JunoIndex(Metric::kL2, ds.base.view(), params),
                 ConfigError);

    SyntheticSpec odd;
    odd.kind = DatasetKind::kUniform;
    odd.num_points = 100;
    odd.dim = 7; // odd dimension cannot form 2-D subspaces
    const auto odd_ds = makeDataset(odd);
    EXPECT_THROW(JunoIndex(Metric::kL2, odd_ds.base.view(), smallParams()),
                 ConfigError);

    JunoIndex ok(Metric::kL2, ds.base.view(), smallParams());
    EXPECT_THROW(ok.setThresholdScale(0.0), ConfigError);
    EXPECT_THROW(ok.setThresholdScale(1.5), ConfigError);
    EXPECT_THROW(ok.setNprobs(0), ConfigError);
}

} // namespace
} // namespace juno
