/**
 * @file
 * Distance-calculation stage over the selective LUT (paper Sec. 5.3-5.4).
 *
 * Given the entries the RT pass selected, the calculator walks the
 * subspace-level inverted index and accumulates scores only for the
 * *interested* points. Three scoring modes implement the paper's
 * quality presets:
 *
 *  - kExactDistance (JUNO-H): accumulate the recovered per-subspace
 *    scores; subspaces where a point's entry was not selected are
 *    charged the gate-boundary miss score.
 *  - kHitCount (JUNO-L): score = number of subspaces whose entry
 *    sphere was hit; no floating-point distance at all.
 *  - kRewardPenalty (JUNO-M): +1 if the inner (half) sphere was hit,
 *    0 if only the outer, -1 if neither (Fig. 11(b) blue triangles).
 */
#ifndef JUNO_CORE_DISTANCE_CALC_H
#define JUNO_CORE_DISTANCE_CALC_H

#include <vector>

#include "common/topk.h"
#include "core/interest_index.h"
#include "core/selective_lut.h"
#include "quant/interleaved_codes.h"

namespace juno {

/** Scoring mode; selects the JUNO-H/M/L behaviour. */
enum class SearchMode {
    kExactDistance,
    kHitCount,
    kRewardPenalty,
};

/** Short preset name ("JUNO-H" etc.) for reports. */
const char *searchModeName(SearchMode mode);

/**
 * The ordering a top-k over @p mode's scores uses: @p metric for
 * JUNO-H distances; hit counts are higher-is-better under either
 * metric.
 */
Metric rankingMetric(Metric metric, SearchMode mode);

/** Accumulates selective-LUT scores into a top-k per query. */
class DistanceCalculator {
  public:
    /**
     * @p ivf and @p interest must outlive the calculator. When an
     * @p interleaved layout is supplied (and built), clusters whose
     * selected-entry fraction exceeds the dense threshold are scored
     * by streaming the list-resident interleaved codes against the
     * LUT's rows, instead of walking the interest-index ranges of the
     * selected entries point by scattered point. Both paths produce
     * bitwise-identical accumulators (one add per selected subspace,
     * in subspace order; unselected cells add an exact 0.0f in the
     * dense JUNO-H scan, and the hit-count modes' scores are exact
     * small integers either way).
     */
    DistanceCalculator(const InvertedFileIndex &ivf,
                       const InterestIndex &interest,
                       const InterleavedLists *interleaved = nullptr);

    /**
     * Selected-entry fraction above which a cluster switches to the
     * dense interleaved scan: the sparse walk touches ~fraction * S
     * scattered ordinals per point, the dense scan S sequential
     * lookups. 0 forces dense (tests), > 1 disables it.
     */
    void setDenseThreshold(double fraction)
    {
        dense_threshold_ = fraction;
    }
    double denseThreshold() const { return dense_threshold_; }

    /**
     * Scores one probed list (the per-list step of JUNO's probe
     * loop): appends (point id, score) to @p out for every point of
     * @p list touched at least once, reading the LUT rows of probe
     * @p probe (the list's rank in the filter's output). In
     * kExactDistance mode scores are approximate distances under the
     * LUT's metric; in the hit-count modes they are counts, ranked by
     * rankingMetric().
     */
    void accumulateList(SearchMode mode, cluster_t list, std::size_t probe,
                        const SelectiveLut &lut, std::vector<Neighbor> &out);

    /**
     * Scores every probed list into one top-k (a reference loop over
     * accumulateList() for tests; searches run the probe loop).
     */
    std::vector<Neighbor> run(Metric metric, SearchMode mode,
                              const std::vector<Neighbor> &probes,
                              const SelectiveLut &lut, idx_t k);

  private:

    const InvertedFileIndex &ivf_;
    const InterestIndex &interest_;
    const InterleavedLists *interleaved_ = nullptr;
    double dense_threshold_ = 0.5;

    // Scratch sized to the largest cluster; densely reset per cluster.
    std::vector<float> acc_;
    std::vector<std::int32_t> hit_count_;
};

} // namespace juno

#endif // JUNO_CORE_DISTANCE_CALC_H
