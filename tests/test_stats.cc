/** @file Unit tests for running statistics and quantile sketches. */
#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"

namespace juno {
namespace {

TEST(RunningStat, MeanVarianceMinMax)
{
    RunningStat st;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        st.add(x);
    EXPECT_EQ(st.count(), 8u);
    EXPECT_DOUBLE_EQ(st.mean(), 5.0);
    EXPECT_NEAR(st.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(st.min(), 2.0);
    EXPECT_DOUBLE_EQ(st.max(), 9.0);
}

TEST(RunningStat, EmptyAndSingle)
{
    RunningStat st;
    EXPECT_EQ(st.count(), 0u);
    EXPECT_DOUBLE_EQ(st.mean(), 0.0);
    st.add(3.0);
    EXPECT_DOUBLE_EQ(st.mean(), 3.0);
    EXPECT_DOUBLE_EQ(st.variance(), 0.0);
}

TEST(QuantileSketch, MedianAndQuartiles)
{
    QuantileSketch qs;
    for (int i = 1; i <= 101; ++i)
        qs.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(qs.median(), 51.0);
    EXPECT_DOUBLE_EQ(qs.q1(), 26.0);
    EXPECT_DOUBLE_EQ(qs.q3(), 76.0);
    EXPECT_DOUBLE_EQ(qs.iqr(), 50.0);
    EXPECT_DOUBLE_EQ(qs.q0(), 26.0 - 75.0);
    EXPECT_DOUBLE_EQ(qs.q4(), 76.0 + 75.0);
}

TEST(QuantileSketch, InterpolatesBetweenSamples)
{
    QuantileSketch qs;
    qs.add(0.0);
    qs.add(10.0);
    EXPECT_DOUBLE_EQ(qs.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(qs.quantile(0.25), 2.5);
}

TEST(QuantileSketch, SingleSampleAllQuantiles)
{
    QuantileSketch qs;
    qs.add(7.0);
    EXPECT_DOUBLE_EQ(qs.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(qs.quantile(1.0), 7.0);
}

TEST(QuantileSketch, RejectsEmptyAndBadArgs)
{
    QuantileSketch qs;
    EXPECT_THROW(qs.quantile(0.5), ConfigError);
    qs.add(1.0);
    EXPECT_THROW(qs.quantile(-0.1), ConfigError);
    EXPECT_THROW(qs.quantile(1.1), ConfigError);
}

TEST(QuantileSketch, MeanMatchesArithmetic)
{
    QuantileSketch qs;
    qs.add({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(qs.mean(), 2.5);
}

TEST(QuantileSketch, MonotoneInQ)
{
    Rng rng(3);
    QuantileSketch qs;
    for (int i = 0; i < 500; ++i)
        qs.add(rng.gaussian());
    double prev = qs.quantile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double v = qs.quantile(q);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(QuantileSketch, MergeMatchesUnion)
{
    QuantileSketch a, b, all;
    for (int i = 0; i < 50; ++i) {
        a.add(static_cast<double>(i));
        all.add(static_cast<double>(i));
    }
    for (int i = 50; i < 101; ++i) {
        b.add(static_cast<double>(i));
        all.add(static_cast<double>(i));
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q));
}

TEST(QuantileSketch, MergeEmptySides)
{
    QuantileSketch a, empty;
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.median(), 3.0);
}

TEST(QuantileSketch, MergeAfterQuantileQuery)
{
    // merge() must invalidate the lazily-sorted state.
    QuantileSketch a, b;
    a.add({5.0, 1.0});
    EXPECT_DOUBLE_EQ(a.median(), 3.0); // forces the sort
    b.add({0.0, 0.0, 0.0});
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.median(), 0.0);
}

TEST(QuantileSketch, SelfMergeDoublesSamples)
{
    QuantileSketch a;
    a.add({1.0, 2.0, 3.0});
    a.merge(a);
    EXPECT_EQ(a.count(), 6u);
    EXPECT_DOUBLE_EQ(a.median(), 2.0);
}

TEST(QuantileSketch, SummaryDigestsQuantiles)
{
    QuantileSketch sketch;
    EXPECT_EQ(sketch.summary().count, 0u);
    EXPECT_DOUBLE_EQ(sketch.summary().p99, 0.0);
    for (int i = 1; i <= 1000; ++i)
        sketch.add(static_cast<double>(i));
    const QuantileSummary s = sketch.summary();
    EXPECT_EQ(s.count, 1000u);
    EXPECT_DOUBLE_EQ(s.mean, sketch.mean());
    EXPECT_DOUBLE_EQ(s.p50, sketch.quantile(0.50));
    EXPECT_DOUBLE_EQ(s.p95, sketch.quantile(0.95));
    EXPECT_DOUBLE_EQ(s.p99, sketch.quantile(0.99));
    EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

} // namespace
} // namespace juno
