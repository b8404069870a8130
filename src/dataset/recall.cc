#include "dataset/recall.h"

#include <cmath>
#include <unordered_set>

#include "common/logging.h"

namespace juno {

double
recall1AtK(const GroundTruth &gt, const ResultSet &results)
{
    JUNO_REQUIRE(gt.neighbors.size() == results.size(),
                 "query count mismatch");
    if (results.empty())
        return 0.0;
    std::size_t hits = 0;
    for (std::size_t q = 0; q < results.size(); ++q) {
        JUNO_REQUIRE(!gt.neighbors[q].empty(), "empty ground truth row");
        const idx_t true_nn = gt.neighbors[q][0].id;
        for (const auto &nb : results[q]) {
            if (nb.id == true_nn) {
                ++hits;
                break;
            }
        }
    }
    return static_cast<double>(hits) / static_cast<double>(results.size());
}

double
recallMAtK(const GroundTruth &gt, const ResultSet &results, idx_t m)
{
    JUNO_REQUIRE(gt.neighbors.size() == results.size(),
                 "query count mismatch");
    JUNO_REQUIRE(gt.k >= m, "ground truth k=" << gt.k << " < m=" << m);
    if (results.empty())
        return 0.0;
    double total = 0.0;
    for (std::size_t q = 0; q < results.size(); ++q) {
        std::unordered_set<idx_t> retrieved;
        retrieved.reserve(results[q].size() * 2);
        for (const auto &nb : results[q])
            retrieved.insert(nb.id);
        idx_t found = 0;
        for (idx_t r = 0; r < m; ++r)
            if (retrieved.count(gt.neighbors[q][static_cast<std::size_t>(r)].id))
                ++found;
        total += static_cast<double>(found) / static_cast<double>(m);
    }
    return total / static_cast<double>(results.size());
}

WilsonInterval
wilson95(double successes, double trials)
{
    JUNO_REQUIRE(trials > 0.0 && successes >= 0.0 && successes <= trials,
                 successes << " successes out of " << trials << " trials");
    const double z = 1.959963984540054;
    const double p = successes / trials;
    const double denom = 1.0 + z * z / trials;
    const double centre = (p + z * z / (2.0 * trials)) / denom;
    const double spread =
        p * (1.0 - p) / trials + z * z / (4.0 * trials * trials);
    const double half = z * std::sqrt(spread) / denom;
    return {centre - half, centre + half};
}

WilsonInterval
recallInterval(double recall, std::size_t trials)
{
    if (trials == 0)
        return {0.0, 1.0};
    const auto n = static_cast<double>(trials);
    return wilson95(recall * n, n);
}

} // namespace juno
