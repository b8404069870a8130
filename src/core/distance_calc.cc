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
                                       const InterestIndex &interest,
                                       const InterleavedLists *interleaved)
    : ivf_(ivf), interest_(interest), interleaved_(interleaved)
{
    JUNO_REQUIRE(interest.built(), "interest index not built");
    const std::size_t scratch =
        static_cast<std::size_t>(interest.maxClusterSize());
    acc_.assign(scratch, 0.0f);
    hit_count_.assign(scratch, 0);
    if (interleaved_ != nullptr && !interleaved_->built())
        interleaved_ = nullptr;
    if (interleaved_ != nullptr)
        flag_acc_.assign(scratch, 0.0f);
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
    const int subspaces = interest_.numSubspaces();
    const int entries = interest_.entries();
    const std::size_t n = list.size();
    const std::size_t stride = lut.rowStride();
    // The probe's subspace-0 rows; subspace s is s * stride further.
    const std::size_t column = lut.cell(probe, 0, 0);
    const float *delta = lut.delta.data() + column;
    const float *selected = lut.selected.data() + column;
    const float *inner =
        lut.inner.empty() ? nullptr : lut.inner.data() + column;

    const bool exact = mode == SearchMode::kExactDistance;
    // Reward/penalty: +1 inner, 0 outer-only, -1 miss, encoded as
    // acc += (inner ? 2 : 1), final -= S.
    const bool reward = mode == SearchMode::kRewardPenalty && inner;

    // Dense regime detection: when most entries were selected, the
    // sparse interest-index walk degenerates into scattered writes
    // over nearly every (point, subspace) pair; streaming the
    // cluster's interleaved codes against the LUT rows does the same
    // adds sequentially and SIMD-wide.
    const bool dense =
        interleaved_ != nullptr &&
        static_cast<double>(lut.selected_count[lut.blockOf(probe)]) >=
            dense_threshold_ * static_cast<double>(subspaces) *
                static_cast<double>(entries);

    if (dense) {
        // Per point this performs one add per subspace in subspace
        // order — bitwise identical to the sparse walk (unselected
        // cells contribute an exact 0.0f, which cannot change any
        // partial sum). JUNO-H streams the delta rows, JUNO-L the
        // selected rows, JUNO-M inner + selected (exact small
        // integers, equal to the walk's sum of inner ? 2 : 1).
        const entry_t *blocks = interleaved_->listBlocks(c);
        const auto scan = [&](const float *rows, float *dst) {
            simd::adcScanInterleaved(rows, static_cast<idx_t>(stride),
                                     subspaces, blocks, n, 0.0f, dst);
        };
        scan(selected, flag_acc_.data());
        if (exact)
            scan(delta, acc_.data());
        else if (reward)
            scan(inner, acc_.data());
        for (std::size_t i = 0; i < n; ++i) {
            hit_count_[i] = static_cast<std::int32_t>(flag_acc_[i]);
            if (!exact)
                acc_[i] = reward ? acc_[i] + flag_acc_[i] : flag_acc_[i];
        }
    } else {
        // Reset the per-ordinal scratch for this cluster; the dense
        // clear keeps the inner accumulation loop down to two
        // operations per (entry hit, point) pair, which is the
        // stage's critical path.
        std::fill_n(acc_.begin(), n, 0.0f);
        std::fill_n(hit_count_.begin(), n, 0);

        // Walk the selected entries subspace by subspace and
        // accumulate into the scratch (paper: "access the inverted
        // index to retrieve the search points whose entry is
        // matched"). Each point holds one entry per subspace, so the
        // entry order within a subspace cannot change any sum.
        for (int s = 0; s < subspaces; ++s) {
            const std::size_t row = static_cast<std::size_t>(s) * stride;
            for (int e = 0; e < entries; ++e) {
                const std::size_t cell = row + static_cast<std::size_t>(e);
                if (selected[cell] == 0.0f)
                    continue;
                const float d = exact    ? delta[cell]
                                : reward ? 1.0f + inner[cell]
                                         : 1.0f;
                const auto range =
                    interest_.lookup(c, s, static_cast<entry_t>(e));
                for (const std::uint32_t *it = range.begin;
                     it != range.end; ++it) {
                    const std::uint32_t ord = *it;
                    ++hit_count_[ord];
                    acc_[ord] += d;
                }
            }
        }
    }

    // Finalise. Points never touched keep the paper's "large constant"
    // semantics by simply not becoming candidates.
    float offset = 0.0f;
    if (exact)
        offset = lut.offset[probe];
    else if (mode == SearchMode::kRewardPenalty)
        offset = -static_cast<float>(subspaces);

    // Candidate compaction through the dispatch table: the AVX2 path
    // skips untouched ordinals eight at a time, which dominates under
    // the selective LUT's sparse hit pattern.
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
