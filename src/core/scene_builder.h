/**
 * @file
 * Builds the traversable RT scene from the PQ codebooks and provides
 * the coordinate mapping between ANN quantities and ray-tracing
 * quantities (paper Sec. 4.2, Alg. 1 lines 10-11, Fig. 8/9).
 *
 * Layout:
 *  - every codebook entry of subspace s becomes a sphere at
 *    (kappa_s * x_e, kappa_s * y_e, Z_SPACING * s + 1);
 *  - L2 metric: all spheres share the constant radius R, and the
 *    dynamic threshold r maps to tmax = 1 - sqrt(R^2 - (kappa*r)^2);
 *  - inner product: radii are inflated offline to
 *    R'_e = sqrt(R^2 + ||e||^2 kappa^2) so IP(e, q) is recoverable
 *    from thit alone, and a similarity floor tau maps to
 *    tmax = 1 - sqrt(R^2 - ||q||^2 kappa^2 + 2 tau kappa^2).
 *
 * kappa_s is a per-subspace coordinate scale chosen so every useful
 * threshold fits under the constant radius R (L2), keeping runtime
 * scene edits unnecessary exactly as the paper requires.
 *
 * Note: the paper spaces subspace planes at z = 2s + 1 with R <= 1.
 * We use a spacing of 4 so that inner-product radius inflation
 * (R' up to sqrt(2)R) can never leak across neighbouring subspaces,
 * and additionally the hit shader records only the ray's own
 * subspace's spheres (recordRange()).
 */
#ifndef JUNO_CORE_SCENE_BUILDER_H
#define JUNO_CORE_SCENE_BUILDER_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "core/threshold_policy.h"
#include "quant/product_quantizer.h"
#include "rtcore/scene.h"

namespace juno {

/** Codebook-entry scene plus the ANN <-> RT coordinate mapping. */
class JunoScene {
  public:
    /** Distance between consecutive subspace planes along z. */
    static constexpr float kZSpacing = 4.0f;

    struct Params {
        /** Constant sphere radius R (L2 mode); must be <= 1. */
        float gate_radius = 1.0f;
        /** Thresholds are clamped to this fraction of R after scaling. */
        float max_gate_fraction = 0.95f;
        rt::BvhBuildParams bvh;
    };

    /**
     * Places one sphere per (subspace, entry) and builds the BVH.
     * @p policy supplies the per-subspace threshold ranges that
     * determine the coordinate scales kappa_s.
     */
    void build(Metric metric, const ProductQuantizer &pq,
               const ThresholdPolicy &policy, const Params &params);

    /** build() with default Params. */
    void
    build(Metric metric, const ProductQuantizer &pq,
          const ThresholdPolicy &policy)
    {
        build(metric, pq, policy, Params());
    }

    bool built() const { return scene_.built(); }
    Metric metric() const { return metric_; }
    int numSubspaces() const { return num_subspaces_; }
    /** Entry spheres per subspace (the codebook size E). */
    int entries() const { return entries_; }
    float radius() const { return radius_; }
    const rt::Scene &scene() const { return scene_; }

    /** Coordinate scale kappa of subspace @p s. */
    float
    coordScale(int s) const
    {
        JUNO_REQUIRE(s >= 0 && s < num_subspaces_, "subspace " << s);
        return coord_scale_[static_cast<std::size_t>(s)];
    }

    /**
     * The spheres a subspace-@p s packet records (the LUT any-hit
     * program): subspace s's entries, whose prim ids are
     * s * entries() + e, record into slot e; another subspace's sphere
     * records nowhere.
     */
    rt::RecordRange
    recordRange(int s) const
    {
        return {static_cast<std::uint32_t>(s) *
                    static_cast<std::uint32_t>(entries_),
                static_cast<std::uint32_t>(entries_)};
    }

    /**
     * Builds the ray for a query projection (x, y) in *original* units
     * in subspace @p s, gated by @p threshold (L2 radius or IP floor,
     * original units). Returns false when the gate admits no hits.
     * Per-ray set-up, so inline and unchecked: the scene must be built
     * and @p s a valid subspace (checked in debug builds; coordScale()
     * checks it in every build).
     */
    bool
    makeRay(int s, float x, float y, double threshold, rt::Ray &out) const
    {
        JUNO_DCHECK(built(), "scene not built");
        const float tmax = gateTmax(s, x, y, threshold);
        if (std::isinf(tmax) && tmax < 0.0f)
            return false;
        const float k = coord_scale_[static_cast<std::size_t>(s)];
        out.origin = {x * k, y * k, kZSpacing * static_cast<float>(s)};
        out.dir = {0.0f, 0.0f, 1.0f};
        out.tmin = tmin_[static_cast<std::size_t>(s)];
        out.tmax = tmax;
        return true;
    }

    /**
     * tmax value corresponding to @p threshold for a ray already made
     * by makeRay (used for the reward/penalty inner gate). Returns
     * -inf when the gate is empty. Unchecked like makeRay().
     */
    float
    gateTmax(int s, float x, float y, double threshold) const
    {
        JUNO_DCHECK(s >= 0 && s < num_subspaces_, "subspace " << s);
        const float k = coord_scale_[static_cast<std::size_t>(s)];
        const float r2 = radius_ * radius_;
        if (metric_ == Metric::kL2) {
            if (threshold <= 0.0)
                return -std::numeric_limits<float>::infinity();
            // Clamp the scaled radius under R so tmax stays real; the
            // clamp only binds when the user asks for a looser gate
            // than the scene was sized for.
            double r = std::min(threshold * k,
                                static_cast<double>(radius_ *
                                                    max_gate_fraction_));
            return static_cast<float>(1.0 - std::sqrt(r2 - r * r));
        }
        // IP floor tau: thit <= tmax <=> IP >= tau (see file comment).
        const double qn2 = static_cast<double>(x) * x * k * k +
                           static_cast<double>(y) * y * k * k;
        const double arg = r2 - qn2 + 2.0 * threshold * k * k;
        if (arg <= 0.0) {
            // Floor so low that every hit on the inflated spheres
            // passes.
            return 1.0f;
        }
        return static_cast<float>(1.0 - std::sqrt(arg));
    }

    /**
     * L2^2(entry, projection) in original units from a hit time;
     * @p kappa_sqr is coordScale(s) squared for the hit's subspace s,
     * computed once per ray rather than once per hit.
     */
    float
    lutValueL2(float kappa_sqr, float thit) const
    {
        const float one_minus = 1.0f - thit;
        const float d2_scaled = radius_ * radius_ - one_minus * one_minus;
        return d2_scaled / kappa_sqr;
    }

    /**
     * IP(entry, projection) in original units from a hit time;
     * @p kappa_sqr is coordScale(s) squared and @p qnorm_scaled_sqr is
     * ||(kx, ky)||^2 of the ray's origin.
     */
    float
    lutValueIp(float kappa_sqr, float qnorm_scaled_sqr, float thit) const
    {
        const float one_minus = 1.0f - thit;
        const float ip_scaled = 0.5f * (qnorm_scaled_sqr -
                                        radius_ * radius_ +
                                        one_minus * one_minus);
        return ip_scaled / kappa_sqr;
    }

  private:
    Metric metric_ = Metric::kL2;
    int num_subspaces_ = 0;
    int entries_ = 0;
    float radius_ = 1.0f;
    float max_gate_fraction_ = 0.95f;
    std::vector<float> coord_scale_;
    /** Ray tmin per subspace (negative in IP mode). */
    std::vector<float> tmin_;
    rt::Scene scene_;
};

} // namespace juno

#endif // JUNO_CORE_SCENE_BUILDER_H
