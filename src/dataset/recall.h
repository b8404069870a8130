/**
 * @file
 * Recall metrics exactly as defined in paper Sec. 6.1:
 *
 *  - R1@k   ("Recall-1@k"): fraction of queries whose k retrieved
 *    neighbours contain the single true nearest neighbour.
 *  - Rm@k   ("Recall-m@k", e.g. R100@1000): averaged count of the m
 *    true nearest neighbours found among the k retrieved, divided by m.
 *
 * Each recall is a proportion of hit-or-miss trials, so it carries a
 * 95% Wilson score interval at the resolution its trial count allows.
 */
#ifndef JUNO_DATASET_RECALL_H
#define JUNO_DATASET_RECALL_H

#include <vector>

#include "common/topk.h"
#include "dataset/ground_truth.h"

namespace juno {

/** Retrieved results: one best-first Neighbor list per query. */
using ResultSet = std::vector<std::vector<Neighbor>>;

/**
 * R1@k: @p results[q] may hold any number of ids; only membership of
 * gt's rank-0 id matters.
 */
double recall1AtK(const GroundTruth &gt, const ResultSet &results);

/**
 * Rm@k: fraction of the first @p m ground-truth ids present in each
 * result list, averaged over queries. Requires gt.k >= m.
 */
double recallMAtK(const GroundTruth &gt, const ResultSet &results, idx_t m);

/** A 95% confidence interval [lo, hi] of a proportion. */
struct WilsonInterval {
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * 95% Wilson score interval of @p successes out of @p trials (> 0),
 * by the formula of benchsuite's wilson95 (benchsuite/suite/stats.h),
 * so that bench and benchmark intervals agree.
 */
WilsonInterval wilson95(double successes, double trials);

/**
 * Interval of a recall measured as the mean of @p trials hit-or-miss
 * trials: the queries for R1@k, queries x m for Rm@k. No trials give
 * [0, 1].
 */
WilsonInterval recallInterval(double recall, std::size_t trials);

} // namespace juno

#endif // JUNO_DATASET_RECALL_H
