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
    // The probe's subspace-0 rows; subspace s is s * stride (delta) or
    // s * word_stride (flag bits) further.
    const std::size_t stride = lut.rowStride();
    const std::size_t word_stride = lut.wordStride();
    const float *delta = lut.delta.data() + lut.cell(probe, 0, 0);
    const std::uint32_t *selected =
        lut.selected.data() + lut.wordRow(probe, 0);
    const std::uint32_t *inner =
        lut.inner.empty() ? nullptr : lut.inner.data() + lut.wordRow(probe, 0);

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
        // JUNO-H streams the delta rows: per point one add per subspace
        // in subspace order, bitwise identical to the sparse walk
        // (unselected cells contribute an exact 0.0f, which cannot
        // change any partial sum). Hit counts come from the selected
        // bits; JUNO-L scores float(hits) and JUNO-M
        // float(inner) + float(hits), exact small integers equal to
        // the walk's sums of 1 and of inner ? 2 : 1.
        const entry_t *blocks = interleaved_->listBlocks(c);
        const auto count = [&](const std::uint32_t *bits) {
            simd::flagCountInterleaved(bits, static_cast<idx_t>(word_stride),
                                       entries, subspaces, blocks, n,
                                       hit_count_.data());
        };
        if (exact)
            simd::adcScanInterleaved(delta, static_cast<idx_t>(stride),
                                     entries, subspaces, blocks, n, 0.0f,
                                     acc_.data());
        if (reward) {
            count(inner);
            for (std::size_t i = 0; i < n; ++i)
                acc_[i] = static_cast<float>(hit_count_[i]);
        }
        count(selected);
        if (!exact)
            for (std::size_t i = 0; i < n; ++i)
                acc_[i] = reward
                    ? acc_[i] + static_cast<float>(hit_count_[i])
                    : static_cast<float>(hit_count_[i]);
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
        // entry order within a subspace cannot change any sum; the
        // walk visits each flag word's set bits in ascending order.
        const std::size_t words = lut.rowWords();
        for (int s = 0; s < subspaces; ++s) {
            const float *delta_row =
                delta + static_cast<std::size_t>(s) * stride;
            const std::uint32_t *selected_row =
                selected + static_cast<std::size_t>(s) * word_stride;
            const std::uint32_t *inner_row =
                reward ? inner + static_cast<std::size_t>(s) * word_stride
                       : nullptr;
            for (std::size_t w = 0; w < words; ++w) {
                for (std::uint32_t live = selected_row[w]; live != 0;
                     live &= live - 1) {
                    const auto bit =
                        static_cast<unsigned>(__builtin_ctz(live));
                    const auto e = static_cast<entry_t>(w * 32 + bit);
                    const float d = exact ? delta_row[e]
                        : reward          ? 1.0f + static_cast<float>(
                                              (inner_row[w] >> bit) & 1u)
                                          : 1.0f;
                    const auto range = interest_.lookup(c, s, e);
                    for (const std::uint32_t *it = range.begin;
                         it != range.end; ++it) {
                        const std::uint32_t ord = *it;
                        ++hit_count_[ord];
                        acc_[ord] += d;
                    }
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
