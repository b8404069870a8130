/**
 * @file
 * Reproduces paper Fig. 3(b), Fig. 4 and Fig. 5: sparsity and spatial
 * locality of codebook-entry usage by the true top-100 neighbours, on
 * DEEP-like, SIFT-like and TTI-like datasets.
 *
 * Part 1 (Fig. 4(a) / 5(a)): mean and max fraction of codebook entries
 * used per subspace, over a batch of queries. Paper: mean <= ~25-30%.
 *
 * Part 2 (Fig. 4(b) / 5(b)): CDF of top-100 coverage when entries are
 * taken closest-first from the query projection. Paper: ~50% of the
 * closest entries contain >= 90% of the top-100.
 */
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "baseline/ivfpq_index.h"
#include "bench_common.h"
#include "common/stats.h"
#include "harness/reporter.h"
#include "harness/workload.h"

using namespace juno;

namespace {

struct SparsityResult {
    double mean_usage = 0.0;
    double max_usage = 0.0;
    /** coverage[i]: fraction of top-100 captured by the (i+1) closest
     *  deciles of entries (10 buckets). */
    std::vector<double> coverage_deciles;
};

SparsityResult
analyze(Workload &workload, int pq_subspaces, int entries)
{
    IvfPqIndex::Params params;
    params.clusters = bench::clustersFor(workload.base().rows());
    params.pq_subspaces = pq_subspaces;
    params.pq_entries = entries;
    params.nprobs = params.clusters; // exhaustive: usage of true top-100
    params.max_training_points = 10000;
    IvfPqIndex index(workload.metric(), workload.base(), params);

    const int subspaces = index.pq().numSubspaces();
    RunningStat usage_mean;
    double usage_max = 0.0;
    std::vector<double> coverage(10, 0.0);
    idx_t queries_done = 0;

    const idx_t q_count = std::min<idx_t>(workload.queries().rows(), 32);
    FloatMatrix lut;
    for (idx_t qi = 0; qi < q_count; ++qi) {
        const float *query = workload.queries().row(qi);
        const auto top = index.search(SearchRequest(
            FloatMatrixView(query, 1, index.dim()), 100))[0];
        // Per subspace, how often each entry encodes a returned
        // neighbour (the Fig. 3(b) heatmap row for this query).
        std::vector<std::vector<std::uint32_t>> per_entry_usage(
            static_cast<std::size_t>(subspaces),
            std::vector<std::uint32_t>(
                static_cast<std::size_t>(index.pq().entries()), 0));
        for (const Neighbor &nb : top) {
            const entry_t *pc = index.codes().row(nb.id);
            for (int s = 0; s < subspaces; ++s)
                ++per_entry_usage[static_cast<std::size_t>(s)][pc[s]];
        }
        index.pq().computeLut(workload.metric(), query, lut);

        for (int s = 0; s < subspaces; ++s) {
            const auto &row = per_entry_usage[static_cast<std::size_t>(s)];
            int used = 0;
            std::uint64_t total = 0;
            for (auto c : row) {
                used += c > 0;
                total += c;
            }
            const double ratio =
                static_cast<double>(used) / static_cast<double>(row.size());
            usage_mean.add(ratio);
            usage_max = std::max(usage_max, ratio);

            // Coverage CDF: sort entries by distance between the entry
            // and the query projection (via the dense LUT), then count
            // how much of the top-100 the closest deciles capture.
            std::vector<int> order(row.size());
            std::iota(order.begin(), order.end(), 0);
            const float *scores = lut.row(s);
            const bool l2 = workload.metric() == Metric::kL2;
            std::sort(order.begin(), order.end(), [&](int a, int b) {
                return l2 ? scores[a] < scores[b] : scores[a] > scores[b];
            });
            if (total == 0)
                continue;
            std::uint64_t acc = 0;
            std::size_t idx = 0;
            for (int decile = 0; decile < 10; ++decile) {
                const std::size_t limit = (decile + 1) * row.size() / 10;
                for (; idx < limit; ++idx)
                    acc += row[static_cast<std::size_t>(order[idx])];
                coverage[static_cast<std::size_t>(decile)] +=
                    static_cast<double>(acc) / static_cast<double>(total);
            }
        }
        ++queries_done;
    }

    SparsityResult result;
    result.mean_usage = usage_mean.mean();
    result.max_usage = usage_max;
    for (double &c : coverage)
        c /= static_cast<double>(queries_done) * subspaces;
    result.coverage_deciles = std::move(coverage);
    return result;
}

void
report(const char *label, Workload &workload, int pq, int entries)
{
    const auto res = analyze(workload, pq, entries);
    std::printf("\n%s (PQ%d, E=%d):\n", label, pq, entries);
    std::printf("  entry usage ratio by top-100: mean=%.3f max=%.3f "
                "(paper: mean ~0.25, max ~0.3)\n",
                res.mean_usage, res.max_usage);
    std::printf("  coverage CDF, closest deciles of entries:\n    ");
    for (int d = 0; d < 10; ++d)
        std::printf("%d%%:%.2f  ", (d + 1) * 10,
                    res.coverage_deciles[static_cast<std::size_t>(d)]);
    std::printf("\n  (paper: closest ~50%% of entries contain >= 90%% of "
                "the top-100)\n");
}

} // namespace

int
main()
{
    printBanner("Fig. 3(b)/4/5: codebook-entry sparsity and locality");

    Workload deep(bench::deepSpec(), 100);
    report("DEEP-like", deep, 48, 256);

    Workload sift(bench::siftSpec(), 100);
    report("SIFT-like", sift, 64, 256);

    Workload tti(bench::ttiSpec(), 100);
    report("TTI-like", tti, 100, 256);

    return 0;
}
