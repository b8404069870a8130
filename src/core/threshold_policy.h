/**
 * @file
 * Dynamic per-query distance threshold (paper Sec. 4.1).
 *
 * Offline: sample projections, measure the radius that contains the
 * top-k projections around each sample, and fit a per-subspace
 * polynomial regression of that radius on local density. Online:
 * density lookup + regression + user scaling factor gives the
 * query-specific threshold in O(1).
 *
 * Metric semantics:
 *  - L2: threshold(s, x, y) is a *radius*; smaller = tighter.
 *  - Inner product: threshold is a *similarity floor* tau; entries with
 *    IP below tau are pruned (higher = tighter). The user scaling
 *    factor in [0,1] loosens/tightens consistently in both cases:
 *    1.0 targets "contains the top-k", smaller values trade recall for
 *    throughput (paper Fig. 7(b)).
 */
#ifndef JUNO_CORE_THRESHOLD_POLICY_H
#define JUNO_CORE_THRESHOLD_POLICY_H

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/density_map.h"
#include "core/poly_regressor.h"

namespace juno {

/** How the threshold is chosen at query time (Fig. 13(b) ablation). */
enum class ThresholdMode {
    /** Density-regressed per-query threshold (the paper's design). */
    kDynamic,
    /** Constant: the smallest threshold seen during training. */
    kStaticSmall,
    /** Constant: the largest threshold seen during training. */
    kStaticLarge,
};

/** Trains and serves per-subspace thresholds. */
class ThresholdPolicy {
  public:
    struct Params {
        /** Sampled training projections per subspace. */
        idx_t train_samples = 200;
        /** Reference projections the radius is measured against. */
        idx_t ref_samples = 4000;
        /** The k of "radius containing the top-k" (paper uses 100). */
        idx_t contain_topk = 100;
        int poly_degree = 3;
        std::uint64_t seed = 1234;
    };

    /**
     * Trains one regressor per subspace.
     * @param metric L2 trains radii, IP trains similarity floors;
     * @param vectors N x D matrix whose 2-D projections define each
     *        subspace (residuals for L2, raw points for IP);
     * @param density map built over the same matrix.
     */
    void train(Metric metric, FloatMatrixView vectors, int num_subspaces,
               const DensityMap &density, const Params &params);

    bool trained() const { return !regressors_.empty(); }
    int numSubspaces() const { return static_cast<int>(regressors_.size()); }
    Metric metric() const { return metric_; }

    ThresholdMode mode() const { return mode_; }
    void setMode(ThresholdMode mode) { mode_ = mode; }

    /**
     * Threshold for a projection at (x, y) in subspace @p s under the
     * current mode, before user scaling.
     */
    double threshold(int s, float x, float y) const;

    /**
     * threshold() of @p n projections in subspace @p s: out[i] for
     * (xy[2i], xy[2i + 1]). One tight loop, so the density-cell loads
     * of a batch overlap instead of each stalling its caller.
     */
    void thresholds(int s, const float *xy, std::size_t n,
                    double *out) const;

    /**
     * Dynamic-mode threshold of a projection whose density cell holds
     * @p count points (0 <= count <= the map's maxCount()): the
     * regressor's prediction at count / cell area, read from a table
     * train() and load() derive, so threshold() costs one cell lookup.
     */
    double thresholdForCount(int s, idx_t count) const;

    /**
     * Applies the user scaling factor in [0, 1]: for L2, radius*scale;
     * for IP, interpolates the floor towards the training maximum so
     * smaller scale always prunes more. Per-ray set-up, so inline and
     * unchecked: @p s must be a valid subspace (checked in debug
     * builds; thresholds() checks it in every build).
     */
    double
    scaled(int s, double threshold, double scale) const
    {
        JUNO_DCHECK(s >= 0 && s < numSubspaces(), "subspace " << s);
        scale = std::clamp(scale, 0.0, 1.0);
        if (metric_ == Metric::kL2)
            return threshold * scale;
        // IP: scale 1 keeps the predicted floor; smaller scale raises it
        // towards the training maximum, pruning more entries.
        const double hi = max_thr_[static_cast<std::size_t>(s)];
        return threshold + (1.0 - scale) * std::max(0.0, hi - threshold);
    }

    /** Smallest / largest threshold observed at training (per subspace). */
    double minThreshold(int s) const;
    double maxThreshold(int s) const;

    const PolyRegressor &regressor(int s) const;

    /** Serializes a trained policy (not including the density map). */
    void save(Writer &writer) const;

    /**
     * Restores a trained policy bound to @p density, which must match
     * the map the policy was trained with and outlive the policy.
     */
    void load(Reader &reader, const DensityMap &density);

  private:
    void checkSubspace(int s) const;

    /** Fills by_count_ from the regressors and the density map. */
    void tabulate();

    Metric metric_ = Metric::kL2;
    ThresholdMode mode_ = ThresholdMode::kDynamic;
    const DensityMap *density_ = nullptr;
    std::vector<PolyRegressor> regressors_;
    std::vector<double> min_thr_;
    std::vector<double> max_thr_;
    /** by_count_[s][c]: regressor s's prediction for a cell of c points. */
    std::vector<std::vector<double>> by_count_;
};

} // namespace juno

#endif // JUNO_CORE_THRESHOLD_POLICY_H
