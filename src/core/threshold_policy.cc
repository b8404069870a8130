#include "core/threshold_policy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/distance.h"
#include "common/logging.h"
#include "common/topk.h"

namespace juno {

void
ThresholdPolicy::train(Metric metric, FloatMatrixView vectors,
                       int num_subspaces, const DensityMap &density,
                       const Params &params)
{
    JUNO_REQUIRE(num_subspaces > 0, "num_subspaces must be positive");
    JUNO_REQUIRE(vectors.cols() == 2 * num_subspaces,
                 "vector dim " << vectors.cols() << " != 2 * "
                               << num_subspaces);
    JUNO_REQUIRE(density.numSubspaces() == num_subspaces,
                 "density map subspace count mismatch");
    JUNO_REQUIRE(params.contain_topk > 0, "contain_topk must be positive");

    metric_ = metric;
    density_ = &density;
    regressors_.assign(static_cast<std::size_t>(num_subspaces), {});
    min_thr_.assign(static_cast<std::size_t>(num_subspaces), 0.0);
    max_thr_.assign(static_cast<std::size_t>(num_subspaces), 0.0);

    Rng rng(params.seed);
    const idx_t n = vectors.rows();
    const idx_t num_train = std::min(params.train_samples, n);
    const idx_t num_ref = std::min(params.ref_samples, n);
    // When measuring top-k neighbours on a reference subsample, scale k
    // by the sampling ratio so the measured radius estimates the
    // full-corpus top-k radius.
    idx_t k_eff = params.contain_topk;
    if (num_ref < n) {
        k_eff = std::max<idx_t>(
            1, static_cast<idx_t>(
                   std::llround(static_cast<double>(params.contain_topk) *
                                static_cast<double>(num_ref) /
                                static_cast<double>(n))));
    }
    k_eff = std::min(k_eff, num_ref);

    const auto train_ids = rng.sampleWithoutReplacement(n, num_train);
    const auto ref_ids = rng.sampleWithoutReplacement(n, num_ref);
    const idx_t dim = vectors.cols();

    // Pass 1: for each training sample, its top-k *full-dimension*
    // neighbours among the references. The per-subspace threshold is
    // the radius that contains the *projections of these neighbours*
    // (paper Sec. 4.1: "the threshold to contain the top-100 search
    // points"), which is wider than the radius containing the top-k
    // subspace projections — this is exactly why Fig. 4(b) needs ~50%
    // of the closest entries for 90% of the true top-100.
    std::vector<std::vector<idx_t>> topk_ids(
        static_cast<std::size_t>(num_train));
    for (idx_t ti = 0; ti < num_train; ++ti) {
        const idx_t t = train_ids[static_cast<std::size_t>(ti)];
        TopK top(k_eff, metric);
        for (idx_t r : ref_ids) {
            if (r == t)
                continue; // the sample itself is not its own neighbour
            top.push(r, score(metric, vectors.row(t), vectors.row(r), dim));
        }
        auto &ids = topk_ids[static_cast<std::size_t>(ti)];
        for (const auto &nb : top.take())
            ids.push_back(nb.id);
    }

    // Pass 2: per subspace, measure the covering radius / floor and
    // regress it on density.
    for (int s = 0; s < num_subspaces; ++s) {
        std::vector<double> densities, thresholds;
        densities.reserve(static_cast<std::size_t>(num_train));
        thresholds.reserve(static_cast<std::size_t>(num_train));

        for (idx_t ti = 0; ti < num_train; ++ti) {
            const idx_t t = train_ids[static_cast<std::size_t>(ti)];
            const float qx = vectors.at(t, 2 * s);
            const float qy = vectors.at(t, 2 * s + 1);

            double thr;
            if (metric == Metric::kL2) {
                // Radius containing every top-k neighbour's projection.
                double max_d2 = 0.0;
                for (idx_t r : topk_ids[static_cast<std::size_t>(ti)]) {
                    const double dx = vectors.at(r, 2 * s) - qx;
                    const double dy = vectors.at(r, 2 * s + 1) - qy;
                    max_d2 = std::max(max_d2, dx * dx + dy * dy);
                }
                thr = std::sqrt(max_d2);
            } else {
                // Similarity floor admitting every top-k neighbour's
                // projection.
                double min_ip = std::numeric_limits<double>::max();
                for (idx_t r : topk_ids[static_cast<std::size_t>(ti)]) {
                    const double ip =
                        static_cast<double>(vectors.at(r, 2 * s)) * qx +
                        static_cast<double>(vectors.at(r, 2 * s + 1)) * qy;
                    min_ip = std::min(min_ip, ip);
                }
                thr = min_ip;
            }
            densities.push_back(density.densityAt(s, qx, qy));
            thresholds.push_back(thr);
        }

        regressors_[static_cast<std::size_t>(s)].fit(densities, thresholds,
                                                     params.poly_degree);
        min_thr_[static_cast<std::size_t>(s)] =
            *std::min_element(thresholds.begin(), thresholds.end());
        max_thr_[static_cast<std::size_t>(s)] =
            *std::max_element(thresholds.begin(), thresholds.end());
    }
    tabulate();
}

void
ThresholdPolicy::tabulate()
{
    by_count_.assign(regressors_.size(), {});
    for (std::size_t s = 0; s < regressors_.size(); ++s) {
        const SubspaceDensity &map =
            density_->subspace(static_cast<int>(s));
        auto &table = by_count_[s];
        table.resize(static_cast<std::size_t>(map.maxCount()) + 1);
        // The same double division densityAt() performs, so each entry
        // is bitwise the prediction threshold() used to compute.
        for (std::size_t c = 0; c < table.size(); ++c)
            table[c] = regressors_[s].predict(static_cast<double>(c) /
                                              map.cellArea());
    }
}

void
ThresholdPolicy::checkSubspace(int s) const
{
    JUNO_REQUIRE(trained(), "policy not trained");
    JUNO_REQUIRE(s >= 0 && s < numSubspaces(), "subspace " << s);
}

double
ThresholdPolicy::threshold(int s, float x, float y) const
{
    const float xy[2] = {x, y};
    double out;
    thresholds(s, xy, 1, &out);
    return out;
}

void
ThresholdPolicy::thresholds(int s, const float *xy, std::size_t n,
                            double *out) const
{
    checkSubspace(s);
    const auto si = static_cast<std::size_t>(s);
    switch (mode_) {
      case ThresholdMode::kStaticSmall:
        std::fill_n(out, n, min_thr_[si]);
        return;
      case ThresholdMode::kStaticLarge:
        std::fill_n(out, n, max_thr_[si]);
        return;
      case ThresholdMode::kDynamic:
        break;
    }
    const SubspaceDensity &map = density_->subspace(s);
    const double *table = by_count_[si].data();
    for (std::size_t i = 0; i < n; ++i)
        out[i] = table[static_cast<std::size_t>(
            map.countAt(xy[2 * i], xy[2 * i + 1]))];
}

double
ThresholdPolicy::thresholdForCount(int s, idx_t count) const
{
    checkSubspace(s);
    const auto &table = by_count_[static_cast<std::size_t>(s)];
    JUNO_REQUIRE(count >= 0 && static_cast<std::size_t>(count) < table.size(),
                 "count " << count << " outside subspace " << s
                          << "'s density range");
    return table[static_cast<std::size_t>(count)];
}

double
ThresholdPolicy::minThreshold(int s) const
{
    checkSubspace(s);
    return min_thr_[static_cast<std::size_t>(s)];
}

double
ThresholdPolicy::maxThreshold(int s) const
{
    checkSubspace(s);
    return max_thr_[static_cast<std::size_t>(s)];
}

const PolyRegressor &
ThresholdPolicy::regressor(int s) const
{
    checkSubspace(s);
    return regressors_[static_cast<std::size_t>(s)];
}

void
ThresholdPolicy::save(Writer &writer) const
{
    JUNO_REQUIRE(trained(), "save before train");
    writer.writePod<std::int32_t>(metric_ == Metric::kL2 ? 0 : 1);
    writer.writePod<std::int32_t>(static_cast<std::int32_t>(mode_));
    writer.writePod<std::int32_t>(numSubspaces());
    for (const auto &reg : regressors_)
        reg.save(writer);
    writer.writeVector(min_thr_);
    writer.writeVector(max_thr_);
}

void
ThresholdPolicy::load(Reader &reader, const DensityMap &density)
{
    metric_ = reader.readPod<std::int32_t>() == 0
                  ? Metric::kL2
                  : Metric::kInnerProduct;
    mode_ = static_cast<ThresholdMode>(reader.readPod<std::int32_t>());
    const auto count = reader.readPod<std::int32_t>();
    JUNO_REQUIRE(count > 0 && count == density.numSubspaces(),
                 "policy/density subspace count mismatch");
    regressors_.assign(static_cast<std::size_t>(count), {});
    for (auto &reg : regressors_)
        reg.load(reader);
    min_thr_ = reader.readVector<double>();
    max_thr_ = reader.readVector<double>();
    JUNO_REQUIRE(min_thr_.size() == static_cast<std::size_t>(count) &&
                     max_thr_.size() == static_cast<std::size_t>(count),
                 "corrupt threshold ranges");
    density_ = &density;
    tabulate();
}

} // namespace juno
