/**
 * @file
 * Reproduces paper Fig. 11(b): correlation between the hit count of a
 * search point (number of subspaces where its codebook entry's sphere
 * is hit) and its exact distance to the query — for the plain hit
 * count (JUNO-L) and the reward/penalty variant (JUNO-M).
 *
 * Expected shape: points in tighter true-distance percentiles have
 * higher hit counts, and the reward/penalty score separates the
 * percentiles more sharply than the plain count.
 */
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.h"
#include "common/distance.h"
#include "common/stats.h"
#include "core/juno_index.h"
#include "harness/reporter.h"
#include "harness/workload.h"

using namespace juno;

int
main()
{
    printBanner("Fig. 11(b): hit count vs true distance percentile "
                "(DEEP-like)");
    auto spec = bench::deepSpec();
    spec.num_queries = 16;
    Workload workload(spec, 100);

    JunoParams params = junoPresetH();
    params.clusters = bench::clustersFor(spec.num_points);
    params.pq_entries = 128;
    params.nprobs = 16;
    params.max_training_points = 10000;
    params.policy.ref_samples = 4000;
    JunoIndex index(workload.metric(), workload.base(), params);
    // JUNO-M's LUT: it records the inner gate reward/penalty scores.
    JunoParams m_params = params;
    m_params.mode = SearchMode::kRewardPenalty;
    const SelectiveLutParams lut_params = m_params.lutParams();
    SelectiveLutBuilder builder(index.junoScene(), index.thresholdPolicy(),
                                index.ivf(), index.device());
    SelectiveLut lut;

    // Percentile buckets of the true distance within the probed pool.
    const char *bucket_names[4] = {"top 0.1%", "top 1%", "top 10%",
                                   "top 100%"};
    const double bucket_edges[4] = {0.001, 0.01, 0.1, 1.0};
    RunningStat plain[4], reward[4];

    for (idx_t qi = 0; qi < workload.queries().rows(); ++qi) {
        const float *q = workload.queries().row(qi);
        const auto probes = index.probe(q);
        builder.buildInto(q, probes, lut_params, lut);

        // Exact distances of every point in the probed clusters.
        std::vector<Neighbor> exact;
        for (const auto &pr : probes) {
            for (idx_t pid :
                 index.ivf().list(static_cast<cluster_t>(pr.id)))
                exact.push_back(
                    {pid, l2Sqr(q, workload.base().row(pid),
                                workload.base().cols())});
        }
        std::sort(exact.begin(), exact.end(),
                  [](const Neighbor &a, const Neighbor &b) {
                      return a.score < b.score;
                  });
        std::map<idx_t, int> bucket_of;
        for (std::size_t rank = 0; rank < exact.size(); ++rank) {
            const double pct = static_cast<double>(rank + 1) /
                               static_cast<double>(exact.size());
            for (int b = 0; b < 4; ++b)
                if (pct <= bucket_edges[b]) {
                    bucket_of[exact[rank].id] = b;
                    break;
                }
        }

        // Hit-count scores of every touched point, both modes.
        auto collect = [&](SearchMode mode, RunningStat *sink) {
            std::vector<Neighbor> scores;
            for (std::size_t p = 0; p < probes.size(); ++p) {
                scores.clear();
                index.calculator().accumulateList(
                    mode, static_cast<cluster_t>(probes[p].id), p, lut,
                    scores);
                for (const auto &nb : scores) {
                    const auto it = bucket_of.find(nb.id);
                    if (it != bucket_of.end())
                        sink[it->second].add(nb.score);
                }
            }
        };
        collect(SearchMode::kHitCount, plain);
        collect(SearchMode::kRewardPenalty, reward);
    }

    TablePrinter table({"true-distance bucket", "hit_count_mean",
                        "reward_penalty_mean"});
    for (int b = 0; b < 4; ++b)
        table.addRow({bucket_names[b], TablePrinter::num(plain[b].mean()),
                      TablePrinter::num(reward[b].mean())});
    table.print();

    const double plain_sep = plain[0].mean() - plain[3].mean();
    const double reward_sep = reward[0].mean() - reward[3].mean();
    std::printf("\nseparation (top 0.1%% minus top 100%%): plain=%.2f "
                "reward/penalty=%.2f\n",
                plain_sep, reward_sep);
    std::printf("paper: closer points collect more hits, and the "
                "reward/penalty variant correlates\nmore strongly than "
                "the plain count.\n");
    return 0;
}
