/** @file Tests for ground truth and the recall metrics of Sec. 6.1. */
#include <gtest/gtest.h>

#include "common/logging.h"
#include "dataset/ground_truth.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"

namespace juno {
namespace {

TEST(GroundTruth, SelfQueryFindsItself)
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kUniform;
    spec.num_points = 100;
    spec.num_queries = 0;
    spec.dim = 8;
    const auto ds = makeDataset(spec);
    // Queries are the first 10 base points: rank-0 must be identity.
    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.base.view().slice(0, 10), 3);
    for (idx_t q = 0; q < 10; ++q) {
        EXPECT_EQ(gt.neighbors[static_cast<std::size_t>(q)][0].id, q);
        EXPECT_FLOAT_EQ(gt.neighbors[static_cast<std::size_t>(q)][0].score,
                        0.0f);
    }
}

TEST(GroundTruth, ResultsAreSortedBestFirst)
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kUniform;
    spec.num_points = 200;
    spec.num_queries = 5;
    spec.dim = 6;
    const auto ds = makeDataset(spec);
    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.queries.view(), 10);
    for (const auto &row : gt.neighbors) {
        ASSERT_EQ(row.size(), 10u);
        for (std::size_t i = 1; i < row.size(); ++i)
            EXPECT_LE(row[i - 1].score, row[i].score);
    }
}

TEST(GroundTruth, IpOrdersDescending)
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kUniform;
    spec.num_points = 150;
    spec.num_queries = 4;
    spec.dim = 6;
    const auto ds = makeDataset(spec);
    const auto gt = computeGroundTruth(Metric::kInnerProduct,
                                       ds.base.view(), ds.queries.view(), 8);
    for (const auto &row : gt.neighbors)
        for (std::size_t i = 1; i < row.size(); ++i)
            EXPECT_GE(row[i - 1].score, row[i].score);
}

TEST(GroundTruth, ParallelMatchesSerial)
{
    SyntheticSpec spec;
    spec.num_points = 120;
    spec.num_queries = 6;
    spec.dim = 16;
    const auto ds = makeDataset(spec);
    ThreadPool pool(3);
    const auto serial = computeGroundTruth(Metric::kL2, ds.base.view(),
                                           ds.queries.view(), 5);
    const auto parallel = computeGroundTruth(
        Metric::kL2, ds.base.view(), ds.queries.view(), 5, &pool);
    for (std::size_t q = 0; q < serial.neighbors.size(); ++q)
        EXPECT_EQ(serial.neighbors[q], parallel.neighbors[q]);
}

TEST(GroundTruth, RejectsBadK)
{
    FloatMatrix base(5, 2), queries(1, 2);
    EXPECT_THROW(
        computeGroundTruth(Metric::kL2, base.view(), queries.view(), 0),
        ConfigError);
    EXPECT_THROW(
        computeGroundTruth(Metric::kL2, base.view(), queries.view(), 6),
        ConfigError);
}

GroundTruth
makeGt(std::vector<std::vector<idx_t>> ids)
{
    GroundTruth gt;
    gt.k = static_cast<idx_t>(ids[0].size());
    for (const auto &row : ids) {
        std::vector<Neighbor> nbs;
        float s = 0.0f;
        for (idx_t id : row)
            nbs.push_back({id, s += 1.0f});
        gt.neighbors.push_back(std::move(nbs));
    }
    return gt;
}

ResultSet
makeResults(std::vector<std::vector<idx_t>> ids)
{
    ResultSet rs;
    for (const auto &row : ids) {
        std::vector<Neighbor> nbs;
        for (idx_t id : row)
            nbs.push_back({id, 0.0f});
        rs.push_back(std::move(nbs));
    }
    return rs;
}

TEST(Recall, R1AtKCountsTrueNnMembership)
{
    // Paper's definition: 8 of 10 queries contain the true NN -> 0.8.
    const auto gt = makeGt({{1, 2}, {3, 4}, {5, 6}});
    const auto rs = makeResults({{9, 1}, {4, 7}, {5, 8}});
    EXPECT_DOUBLE_EQ(recall1AtK(gt, rs), 2.0 / 3.0);
}

TEST(Recall, R1AtKIgnoresOrder)
{
    const auto gt = makeGt({{7, 8}});
    const auto rs = makeResults({{1, 2, 3, 7}});
    EXPECT_DOUBLE_EQ(recall1AtK(gt, rs), 1.0);
}

TEST(Recall, RmAtKAveragesCoverage)
{
    const auto gt = makeGt({{1, 2, 3, 4}, {5, 6, 7, 8}});
    // Query 0 retrieves 2 of the top-4; query 1 retrieves 4 of 4.
    const auto rs = makeResults({{1, 2, 99, 98}, {8, 7, 6, 5}});
    EXPECT_DOUBLE_EQ(recallMAtK(gt, rs, 4), (0.5 + 1.0) / 2.0);
}

TEST(Recall, RmRequiresEnoughGroundTruth)
{
    const auto gt = makeGt({{1, 2}});
    const auto rs = makeResults({{1, 2}});
    EXPECT_THROW(recallMAtK(gt, rs, 3), ConfigError);
}

TEST(Recall, MismatchedQueryCountThrows)
{
    const auto gt = makeGt({{1}});
    const auto rs = makeResults({{1}, {2}});
    EXPECT_THROW(recall1AtK(gt, rs), ConfigError);
}

TEST(Recall, EmptyResultsScoreZero)
{
    const auto gt = makeGt({{1, 2}});
    ResultSet rs{{}};
    EXPECT_DOUBLE_EQ(recall1AtK(gt, rs), 0.0);
    EXPECT_DOUBLE_EQ(recallMAtK(gt, rs, 2), 0.0);
}

/** The self-test values of benchsuite's wilson95 (suite/stats.h). */
TEST(Recall, WilsonIntervalMatchesBenchsuiteSelfTest)
{
    const WilsonInterval ci = wilson95(90.0, 100.0);
    EXPECT_NEAR(ci.lo, 0.8256, 1e-3);
    EXPECT_NEAR(ci.hi, 0.9448, 1e-3);
    // The same interval through the recall helper (R1@k over 100
    // queries at 0.9).
    const WilsonInterval r = recallInterval(0.9, 100);
    EXPECT_DOUBLE_EQ(r.lo, ci.lo);
    EXPECT_DOUBLE_EQ(r.hi, ci.hi);
}

TEST(Recall, WilsonIntervalShape)
{
    // Contains the estimate, stays in [0, 1] at the extremes, and
    // narrows as the trial count grows (64 -> 1024 queries).
    const WilsonInterval none = wilson95(0.0, 64.0);
    EXPECT_NEAR(none.lo, 0.0, 1e-12);
    EXPECT_GT(none.hi, 0.0);
    const WilsonInterval all = wilson95(64.0, 64.0);
    EXPECT_NEAR(all.hi, 1.0, 1e-12);
    EXPECT_LT(all.lo, 1.0);
    const WilsonInterval small = recallInterval(0.5, 64);
    const WilsonInterval large = recallInterval(0.5, 1024);
    EXPECT_LT(small.lo, 0.5);
    EXPECT_GT(small.hi, 0.5);
    EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
    EXPECT_THROW(wilson95(1.0, 0.0), ConfigError);
    EXPECT_THROW(wilson95(5.0, 4.0), ConfigError);
}

} // namespace
} // namespace juno
