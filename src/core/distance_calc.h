/**
 * @file
 * Distance-calculation stage over the selective LUT (paper Sec. 5.3-5.4).
 *
 * Given the entries the RT pass selected, the calculator streams each
 * probed list's interleaved codes against the LUT rows: every point
 * gets one add per subspace, an exact 0.0f where its entry was not
 * selected, and only points with at least one selected entry become
 * candidates. Three scoring modes implement the paper's quality
 * presets:
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
     * @p ivf and @p interleaved (the list-resident copy of the codes)
     * must outlive the calculator. Per probed list, JUNO-H streams the
     * codes against the LUT's delta rows and every mode counts the
     * selected flag bits (JUNO-M also the inner ones); the scratch is
     * sized to the longest list.
     */
    DistanceCalculator(const InvertedFileIndex &ivf,
                       const InterleavedLists &interleaved);

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
    const InterleavedLists &interleaved_;

    // Scratch sized to the longest list; overwritten per list.
    std::vector<float> acc_;
    std::vector<std::int32_t> hit_count_;
};

} // namespace juno

#endif // JUNO_CORE_DISTANCE_CALC_H
