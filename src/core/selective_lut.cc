#include "core/selective_lut.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/distance.h"
#include "common/logging.h"
#include "common/simd.h"

namespace juno {

SelectiveLutBuilder::SelectiveLutBuilder(const JunoScene &scene,
                                         const ThresholdPolicy &policy,
                                         const InvertedFileIndex &ivf,
                                         rt::RtDevice &device)
    : scene_(scene), policy_(policy), ivf_(ivf), device_(device)
{
    JUNO_REQUIRE(scene.built(), "scene not built");
    JUNO_REQUIRE(policy.trained(), "policy not trained");
    JUNO_REQUIRE(policy.numSubspaces() == scene.numSubspaces(),
                 "policy/scene subspace count mismatch");
}

SelectiveLut
SelectiveLutBuilder::build(const float *query,
                           const std::vector<Neighbor> &probes,
                           const SelectiveLutParams &params) const
{
    SelectiveLut lut;
    buildInto(query, probes, params, lut);
    return lut;
}

void
SelectiveLutBuilder::buildInto(const float *query,
                               const std::vector<Neighbor> &probes,
                               const SelectiveLutParams &params,
                               SelectiveLut &lut) const
{
    const LutRequest request{query, &probes, &lut};
    buildGroup(&request, 1, params);
}

std::size_t
SelectiveLutBuilder::groupSize(std::size_t nprobs) const
{
    const std::size_t rays_per_subspace =
        scene_.metric() == Metric::kInnerProduct ? 1 : nprobs;
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(simd::kRayLanes) /
               std::max<std::size_t>(rays_per_subspace, 1));
}

void
SelectiveLutBuilder::buildGroup(const LutRequest *group, std::size_t count,
                                const SelectiveLutParams &params) const
{
    const Metric metric = scene_.metric();
    const int subspaces = scene_.numSubspaces();
    const auto dim = static_cast<std::size_t>(ivf_.dim());
    JUNO_REQUIRE(count > 0, "empty LUT group");
    JUNO_REQUIRE(count <= 0xFFFFFFFFu, "LUT group of " << count
                                           << " queries");

    // Shape every member's LUT; L2 residuals are member-major, one
    // block of dim floats per probe.
    std::size_t residual_rows = 0;
    for (std::size_t g = 0; g < count; ++g) {
        SelectiveLut &lut = *group[g].out;
        const std::size_t nprobs = group[g].probes->size();
        JUNO_REQUIRE(nprobs > 0, "no probed clusters");
        lut.shared_across_probes = metric == Metric::kInnerProduct;
        lut.entries = static_cast<std::size_t>(scene_.entries());
        lut.blocks = lut.shared_across_probes ? 1 : nprobs;
        const std::size_t rows =
            static_cast<std::size_t>(subspaces) * lut.blocks;
        JUNO_REQUIRE(rows <= 0xFFFFFFFFu,
                     "LUT of " << rows << " rows overflows a row index");
        lut.delta.resize(rows * lut.entries);
        lut.selected.resize(rows * lut.rowWords());
        lut.inner.resize(params.inner_gate ? rows * lut.rowWords() : 0);
        lut.miss.resize(rows);
        lut.base.assign(nprobs, 0.0f);
        if (metric == Metric::kL2)
            residual_rows += lut.blocks;
    }
    residual_.resize(residual_rows * dim);
    if (metric == Metric::kL2) {
        float *res = residual_.data();
        for (std::size_t g = 0; g < count; ++g)
            for (std::size_t p = 0; p < group[g].out->blocks;
                 ++p, res += dim)
                ivf_.residual(group[g].query,
                              static_cast<cluster_t>((*group[g].probes)[p].id),
                              res);
    }

    // Assemble the ray batch: one ray per (probe, subspace) for L2
    // (projections are cluster residuals), one per subspace for IP.
    // Subspace-major across the whole group, so each subspace's rays
    // of every member (same direction, same origin plane) form one run,
    // traced below as packets of up to simd::kRayLanes lanes.
    // The ray set-up below is inline and unchecked per ray: coordScale()
    // and thresholds() check the subspace once per subspace.
    rays_.clear();
    rows_.clear();
    subspace_rays_.assign(1, 0);
    for (int s = 0; s < subspaces; ++s) {
        const float k = scene_.coordScale(s);
        // The subspace's origins across the group, thresholded in one
        // batch.
        proj_.clear();
        const float *res = residual_.data();
        for (std::size_t g = 0; g < count; ++g) {
            const std::size_t blocks = group[g].out->blocks;
            for (std::size_t p = 0; p < blocks; ++p) {
                const float *proj_src = metric == Metric::kL2
                    ? res + p * dim
                    : group[g].query;
                proj_.push_back(proj_src[2 * s]);
                proj_.push_back(proj_src[2 * s + 1]);
            }
            if (metric == Metric::kL2)
                res += blocks * dim;
        }
        thr_raw_.resize(proj_.size() / 2);
        policy_.thresholds(s, proj_.data(), thr_raw_.size(),
                           thr_raw_.data());
        std::size_t i = 0;
        for (std::size_t g = 0; g < count; ++g) {
            SelectiveLut &lut = *group[g].out;
            const std::size_t entries = lut.entries;
            const std::size_t words = lut.rowWords();
            for (std::size_t p = 0; p < lut.blocks; ++p, ++i) {
                const float x = proj_[2 * i];
                const float y = proj_[2 * i + 1];
                const double thr_raw = thr_raw_[i];
                const double thr =
                    policy_.scaled(s, thr_raw, params.threshold_scale);

                // Miss score for this (probe, subspace): the tightest
                // score an unselected entry could still have (paper: "a
                // large constant"; we charge the gate boundary).
                float miss;
                if (metric == Metric::kL2) {
                    const double m = thr * params.miss_penalty;
                    miss = static_cast<float>(m * m);
                } else {
                    miss = static_cast<float>(thr);
                }
                const std::size_t row =
                    static_cast<std::size_t>(s) * lut.blocks + p;
                lut.miss[row] = miss;

                rt::Ray ray;
                if (!scene_.makeRay(s, x, y, thr, ray)) {
                    // Empty gate: every entry misses.
                    std::fill_n(lut.delta.data() + row * entries, entries,
                                0.0f);
                    std::fill_n(lut.selected.data() + row * words, words,
                                0u);
                    if (params.inner_gate)
                        std::fill_n(lut.inner.data() + row * words, words,
                                    0u);
                    continue;
                }
                simd::LutRow out;
                out.delta = lut.delta.data() + row * entries;
                out.selected = lut.selected.data() + row * words;
                out.miss = miss;
                out.kappa_sqr = k * k;
                out.qnorm_scaled_sqr =
                    (x * k) * (x * k) + (y * k) * (y * k);
                if (params.inner_gate) {
                    out.inner = lut.inner.data() + row * words;
                    // Inner gate at half scale: the reward sphere of the
                    // JUNO-M reward/penalty scheme (paper Sec. 5.4).
                    const double thr_inner = policy_.scaled(
                        s, thr_raw, params.threshold_scale * 0.5);
                    out.tmax_inner = scene_.gateTmax(s, x, y, thr_inner);
                }
                rays_.push_back(ray);
                rows_.push_back(out);
            }
        }
        subspace_rays_.push_back(rays_.size());
    }

    // JUNO-H finalisation term per probe: the IP base score(q,
    // centroid), by the dispatched kernel, plus every subspace's miss
    // in subspace order (selected cells store value - miss).
    for (std::size_t g = 0; g < count; ++g) {
        SelectiveLut &lut = *group[g].out;
        const std::vector<Neighbor> &probes = *group[g].probes;
        lut.offset.resize(probes.size());
        for (std::size_t p = 0; p < probes.size(); ++p) {
            if (metric == Metric::kInnerProduct)
                lut.base[p] = simd::innerProduct(
                    group[g].query,
                    ivf_.centroid(static_cast<cluster_t>(probes[p].id)),
                    ivf_.dim());
            float offset = lut.base[p];
            for (int s = 0; s < subspaces; ++s)
                offset += lut.missFor(p, s);
            lut.offset[p] = offset;
        }
    }

    // Each subspace's rays across the group are traced as packets of
    // up to simd::kRayLanes lanes. The packet walk runs the any-hit
    // shader (paper Alg. 2 RT_HitShader) itself: every hit on one of
    // the subspace's entry spheres stores its thit into the packet's
    // [e][lane] tile, which starts as NaN (no hit); it never stops a
    // ray, since JUNO wants every in-gate entry, not the closest hit.
    // The finish kernel then turns each lane's tile column into its
    // LUT row: value - miss (an exact zero where the ray missed) and
    // the selected and inner flag bits.
    const auto entries = static_cast<std::size_t>(scene_.entries());
    const float radius_sqr = scene_.radius() * scene_.radius();
    const simd::Kernels &kernels = simd::active();
    tile_.resize(static_cast<std::size_t>(simd::kRayLanes) * entries);
    for (int s = 0; s < subspaces; ++s) {
        const std::size_t end = subspace_rays_[static_cast<std::size_t>(s) + 1];
        for (std::size_t first = subspace_rays_[static_cast<std::size_t>(s)];
             first < end; first += simd::kRayLanes) {
            const int n = static_cast<int>(std::min<std::size_t>(
                end - first, simd::kRayLanes));
            std::fill_n(tile_.data(), static_cast<std::size_t>(n) * entries,
                        std::numeric_limits<float>::quiet_NaN());
            device_.traceTile(scene_.scene(), rays_.data() + first, n,
                              scene_.recordRange(s), tile_.data());
            kernels.lut_finish(metric, radius_sqr, tile_.data(), n, entries,
                               rows_.data() + first);
        }
    }
}

} // namespace juno
