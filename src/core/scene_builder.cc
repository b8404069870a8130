#include "core/scene_builder.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace juno {

void
JunoScene::build(Metric metric, const ProductQuantizer &pq,
                 const ThresholdPolicy &policy, const Params &params)
{
    JUNO_REQUIRE(pq.trained(), "product quantizer not trained");
    JUNO_REQUIRE(pq.subDim() == 2,
                 "the RT mapping requires 2-D subspaces (M = 2), got M = "
                     << pq.subDim());
    JUNO_REQUIRE(policy.trained(), "threshold policy not trained");
    JUNO_REQUIRE(policy.numSubspaces() == pq.numSubspaces(),
                 "policy/pq subspace count mismatch");
    JUNO_REQUIRE(params.gate_radius > 0.0f && params.gate_radius <= 1.0f,
                 "gate_radius must be in (0, 1]");
    JUNO_REQUIRE(params.max_gate_fraction > 0.0f &&
                     params.max_gate_fraction < 1.0f,
                 "max_gate_fraction must be in (0, 1)");

    metric_ = metric;
    num_subspaces_ = pq.numSubspaces();
    entries_ = pq.entries();
    radius_ = params.gate_radius;
    max_gate_fraction_ = params.max_gate_fraction;
    coord_scale_.assign(static_cast<std::size_t>(num_subspaces_), 1.0f);
    tmin_.assign(static_cast<std::size_t>(num_subspaces_), 0.0f);
    scene_ = rt::Scene();

    for (int s = 0; s < num_subspaces_; ++s) {
        const FloatMatrix &cb = pq.codebook(s);

        // Choose kappa_s.
        float kappa;
        if (metric == Metric::kL2) {
            // The largest threshold the policy can emit must map under
            // R * max_gate_fraction.
            const double max_thr = std::max(policy.maxThreshold(s), 1e-9);
            kappa = static_cast<float>(
                radius_ * max_gate_fraction_ / max_thr);
        } else {
            // IP gates via tmax, not the sphere surface; kappa only
            // conditions the geometry. Normalise by the largest entry
            // norm so inflated radii stay near sqrt(2) * R.
            float max_norm = 1e-9f;
            for (idx_t e = 0; e < cb.rows(); ++e) {
                const float nx = cb.at(e, 0), ny = cb.at(e, 1);
                max_norm = std::max(max_norm,
                                    std::sqrt(nx * nx + ny * ny));
            }
            kappa = 1.0f / max_norm;
        }
        coord_scale_[static_cast<std::size_t>(s)] = kappa;

        // Place the spheres of subspace s at z = kZSpacing * s + 1.
        const float z = kZSpacing * static_cast<float>(s) + 1.0f;
        float max_radius = radius_;
        for (idx_t e = 0; e < cb.rows(); ++e) {
            rt::Sphere sphere;
            sphere.center = {cb.at(e, 0) * kappa, cb.at(e, 1) * kappa, z};
            if (metric == Metric::kL2) {
                sphere.radius = radius_;
            } else {
                // Offline radius inflation (paper Sec. 4.2, IP support).
                const float norm2 = sphere.center.x * sphere.center.x +
                                    sphere.center.y * sphere.center.y;
                sphere.radius = std::sqrt(radius_ * radius_ + norm2);
            }
            max_radius = std::max(max_radius, sphere.radius);
            // recordRange() relies on this prim numbering.
            const std::uint32_t prim = scene_.addSphere(sphere);
            JUNO_ASSERT(prim == static_cast<std::uint32_t>(
                                    s * entries_ + static_cast<int>(e)),
                        "sphere " << prim << " out of subspace order");
        }

        // The earliest possible entry-root hit time is 1 - max_radius;
        // rays must admit it (negative in IP mode).
        tmin_[static_cast<std::size_t>(s)] = 1.0f - max_radius - 1e-4f;
    }

    scene_.build(params.bvh);
}

} // namespace juno
