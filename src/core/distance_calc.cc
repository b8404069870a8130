#include "core/distance_calc.h"

#include <algorithm>

#include "common/logging.h"
#include "common/simd.h"

namespace juno {

const char *
searchModeName(SearchMode mode)
{
    switch (mode) {
      case SearchMode::kExactDistance:
        return "JUNO-H";
      case SearchMode::kRewardPenalty:
        return "JUNO-M";
      case SearchMode::kHitCount:
        return "JUNO-L";
    }
    return "JUNO-?";
}

Metric
rankingMetric(Metric metric, SearchMode mode)
{
    return mode == SearchMode::kExactDistance ? metric
                                              : Metric::kInnerProduct;
}

DistanceCalculator::DistanceCalculator(const InvertedFileIndex &ivf,
                                       const InterleavedLists &interleaved)
    : ivf_(ivf), interleaved_(interleaved)
{
    JUNO_REQUIRE(interleaved.built() &&
                     interleaved.numLists() == ivf.numClusters(),
                 "interleaved lists not built for this IVF");
    std::size_t scratch = 0;
    for (const auto &list : ivf.lists())
        scratch = std::max(scratch, list.size());
    acc_.assign(scratch, 0.0f);
    hit_count_.assign(scratch, 0);
}

void
DistanceCalculator::accumulateList(SearchMode mode, cluster_t c,
                                   std::size_t probe,
                                   const SelectiveLut &lut,
                                   std::vector<Neighbor> &out)
{
    const auto &list = ivf_.list(c);
    if (list.empty())
        return;
    const int subspaces = interleaved_.subspaces();
    const auto entries = static_cast<idx_t>(lut.entries);
    const std::size_t n = list.size();
    const entry_t *blocks = interleaved_.listBlocks(c);
    // The probe's subspace-0 rows; subspace s is s * rowStride() (delta)
    // or s * wordStride() (flag bits) further.
    const auto count = [&](const std::vector<std::uint32_t> &bits) {
        simd::flagCountInterleaved(bits.data() + lut.wordRow(probe, 0),
                                   static_cast<idx_t>(lut.wordStride()),
                                   entries, subspaces, blocks, n,
                                   hit_count_.data());
    };

    // JUNO-H streams the delta rows: per point one add per subspace in
    // subspace order, which accumulates only the selected entries
    // (paper Alg. 1 lines 12-14), since an unselected cell adds an
    // exact 0.0f and cannot change any partial sum. Hit counts come
    // from the selected bits; JUNO-L scores float(hits) and JUNO-M
    // (+1 inner, 0 outer-only, -1 miss) float(inner) + float(hits) - S,
    // exact small integers.
    const bool exact = mode == SearchMode::kExactDistance;
    const bool reward =
        mode == SearchMode::kRewardPenalty && !lut.inner.empty();
    if (exact)
        simd::adcScanInterleaved(lut.delta.data() + lut.cell(probe, 0, 0),
                                 static_cast<idx_t>(lut.rowStride()),
                                 entries, subspaces, blocks, n, 0.0f,
                                 acc_.data());
    if (reward) {
        count(lut.inner);
        for (std::size_t i = 0; i < n; ++i)
            acc_[i] = static_cast<float>(hit_count_[i]);
    }
    count(lut.selected);
    if (!exact)
        for (std::size_t i = 0; i < n; ++i)
            acc_[i] = reward ? acc_[i] + static_cast<float>(hit_count_[i])
                             : static_cast<float>(hit_count_[i]);

    float offset = 0.0f;
    if (exact)
        offset = lut.offset[probe];
    else if (mode == SearchMode::kRewardPenalty)
        offset = -static_cast<float>(subspaces);

    // Points with no selected entry keep the paper's "large constant"
    // semantics by simply not becoming candidates.
    simd::compactCandidates(acc_.data(), hit_count_.data(), list.data(), n,
                            offset, out);
}

std::vector<Neighbor>
DistanceCalculator::run(Metric metric, SearchMode mode,
                        const std::vector<Neighbor> &probes,
                        const SelectiveLut &lut, idx_t k)
{
    JUNO_REQUIRE(k > 0, "k must be positive");
    TopK top(k, rankingMetric(metric, mode));
    std::vector<Neighbor> candidates;
    for (std::size_t p = 0; p < probes.size(); ++p) {
        candidates.clear();
        accumulateList(mode, static_cast<cluster_t>(probes[p].id), p, lut,
                       candidates);
        for (const auto &cand : candidates)
            top.push(cand.id, cand.score);
    }
    return top.take();
}

} // namespace juno
