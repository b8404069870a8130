/** @file Tests for the FAISS-style IVFPQ baseline. */
#include <gtest/gtest.h>

#include "baseline/flat_index.h"
#include "baseline/ivfpq_index.h"
#include "common/logging.h"
#include "dataset/ground_truth.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"

namespace juno {
namespace {

Dataset
clusteredData(Metric metric = Metric::kL2, idx_t n = 1500, idx_t dim = 16)
{
    SyntheticSpec spec;
    spec.kind = metric == Metric::kL2 ? DatasetKind::kDeepLike
                                      : DatasetKind::kTtiLike;
    spec.num_points = n;
    spec.num_queries = 20;
    spec.dim = dim;
    spec.components = 16;
    spec.seed = 44;
    return makeDataset(spec);
}

/**
 * Searches @p query through the engine and counts, per subspace, how
 * often each codebook entry encodes a returned neighbour (the
 * Fig. 3(b) heatmap row of that query).
 */
std::vector<Neighbor>
searchCountingUsage(IvfPqIndex &index, const float *query, idx_t k,
                    std::vector<std::vector<std::uint32_t>> &usage)
{
    auto result = index.search(
        SearchRequest(FloatMatrixView(query, 1, index.dim()), k))[0];
    const int subspaces = index.pq().numSubspaces();
    usage.assign(static_cast<std::size_t>(subspaces),
                 std::vector<std::uint32_t>(
                     static_cast<std::size_t>(index.pq().entries()), 0));
    for (const Neighbor &nb : result) {
        const entry_t *pc = index.codes().row(nb.id);
        for (int s = 0; s < subspaces; ++s)
            ++usage[static_cast<std::size_t>(s)][pc[s]];
    }
    return result;
}

IvfPqIndex::Params
smallParams()
{
    IvfPqIndex::Params params;
    params.clusters = 24;
    params.pq_subspaces = 8;
    params.pq_entries = 32;
    params.nprobs = 6;
    return params;
}

TEST(IvfPq, ReasonableRecallOnClusteredData)
{
    const auto ds = clusteredData();
    IvfPqIndex index(Metric::kL2, ds.base.view(), smallParams());
    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.queries.view(), 10);
    index.setNprobs(24); // probe everything; only PQ error remains
    const auto results = index.search(ds.queries.view(), 100);
    EXPECT_GE(recall1AtK(gt, results), 0.85);
}

TEST(IvfPq, RecallMonotoneInNprobs)
{
    const auto ds = clusteredData();
    IvfPqIndex index(Metric::kL2, ds.base.view(), smallParams());
    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.queries.view(), 10);
    double prev = -1.0;
    for (idx_t nprobs : {1, 4, 24}) {
        index.setNprobs(nprobs);
        const double r =
            recall1AtK(gt, index.search(ds.queries.view(), 50));
        EXPECT_GE(r, prev - 0.05) << "nprobs " << nprobs;
        prev = r;
    }
}

TEST(IvfPq, InnerProductRecall)
{
    const auto ds = clusteredData(Metric::kInnerProduct);
    auto params = smallParams();
    IvfPqIndex index(Metric::kInnerProduct, ds.base.view(), params);
    const auto gt = computeGroundTruth(Metric::kInnerProduct,
                                       ds.base.view(), ds.queries.view(),
                                       10);
    index.setNprobs(24);
    const auto results = index.search(ds.queries.view(), 100);
    EXPECT_GE(recall1AtK(gt, results), 0.7);
}

TEST(IvfPq, StageTimersCoverThreeStages)
{
    const auto ds = clusteredData();
    IvfPqIndex index(Metric::kL2, ds.base.view(), smallParams());
    index.search(ds.queries.view(), 10);
    EXPECT_GT(index.stageTimers().seconds("filter"), 0.0);
    EXPECT_GT(index.stageTimers().seconds("lut"), 0.0);
    EXPECT_GT(index.stageTimers().seconds("scan"), 0.0);
}

TEST(IvfPq, NameReflectsConfiguration)
{
    const auto ds = clusteredData();
    IvfPqIndex index(Metric::kL2, ds.base.view(), smallParams());
    EXPECT_EQ(index.name(), "IVF24,PQ8");
}

TEST(IvfPq, HnswRouterNameAndRecall)
{
    const auto ds = clusteredData();
    auto params = smallParams();
    params.use_hnsw_router = true;
    params.nprobs = 8;
    IvfPqIndex index(Metric::kL2, ds.base.view(), params);
    EXPECT_TRUE(index.hasHnswRouter());
    EXPECT_EQ(index.name(), "IVF24_HNSW,PQ8");

    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.queries.view(), 10);
    const auto results = index.search(ds.queries.view(), 100);
    // Router recall should be close to brute-force probing.
    IvfPqIndex brute(Metric::kL2, ds.base.view(), smallParams());
    brute.setNprobs(8);
    const auto brute_results = brute.search(ds.queries.view(), 100);
    EXPECT_GE(recall1AtK(gt, results),
              recall1AtK(gt, brute_results) - 0.15);
}

TEST(IvfPq, UsageRecordingCountsTopKEncodings)
{
    const auto ds = clusteredData();
    auto params = smallParams();
    IvfPqIndex index(Metric::kL2, ds.base.view(), params);
    std::vector<std::vector<std::uint32_t>> usage;
    const auto result =
        searchCountingUsage(index, ds.queries.row(0), 50, usage);
    ASSERT_EQ(usage.size(), 8u);

    // Total usage per subspace equals the number of returned points.
    for (int s = 0; s < 8; ++s) {
        std::uint64_t total = 0;
        for (auto c : usage[static_cast<std::size_t>(s)])
            total += c;
        EXPECT_EQ(total, result.size());
    }
}

TEST(IvfPq, UsageIsSparse)
{
    // The motivation claim (Sec. 3.2): the top-k use only a small
    // fraction of codebook entries per subspace.
    const auto ds = clusteredData(Metric::kL2, 3000);
    auto params = smallParams();
    params.pq_entries = 64;
    params.nprobs = 24;
    IvfPqIndex index(Metric::kL2, ds.base.view(), params);
    std::vector<std::vector<std::uint32_t>> usage;
    searchCountingUsage(index, ds.queries.row(0), 100, usage);
    double used_fraction = 0.0;
    for (const auto &row : usage) {
        int used = 0;
        for (auto c : row)
            used += c > 0;
        used_fraction +=
            static_cast<double>(used) / static_cast<double>(row.size());
    }
    used_fraction /= static_cast<double>(usage.size());
    EXPECT_LT(used_fraction, 0.6);
}

TEST(IvfPq, RejectsBadConfigs)
{
    const auto ds = clusteredData();
    auto params = smallParams();
    params.nprobs = 0;
    EXPECT_THROW(IvfPqIndex(Metric::kL2, ds.base.view(), params),
                 ConfigError);
    params = smallParams();
    params.pq_subspaces = 5; // 16 % 5 != 0
    EXPECT_THROW(IvfPqIndex(Metric::kL2, ds.base.view(), params),
                 ConfigError);
}

} // namespace
} // namespace juno
