#include "core/selective_lut.h"

#include <cmath>
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
}

SparseLut
SelectiveLutBuilder::build(const float *query,
                           const std::vector<Neighbor> &probes,
                           const SelectiveLutParams &params) const
{
    SparseLut lut;
    buildInto(query, probes, params, lut);
    return lut;
}

void
SelectiveLutBuilder::buildInto(const float *query,
                               const std::vector<Neighbor> &probes,
                               const SelectiveLutParams &params,
                               SparseLut &lut) const
{
    const Metric metric = scene_.metric();
    const int subspaces = scene_.numSubspaces();
    const std::size_t nprobs = probes.size();
    JUNO_REQUIRE(nprobs > 0, "no probed clusters");

    lut.shared_across_probes = metric == Metric::kInnerProduct;
    const std::size_t lut_probes = lut.shared_across_probes ? 1 : nprobs;

    // Resize-preserving-capacity: clear inner hit vectors instead of
    // reallocating the nested structure on every query.
    if (lut.hits.size() != lut_probes ||
        (lut_probes > 0 &&
         lut.hits[0].size() != static_cast<std::size_t>(subspaces))) {
        lut.hits.assign(lut_probes,
                        std::vector<std::vector<LutHit>>(
                            static_cast<std::size_t>(subspaces)));
        lut.miss_value.assign(lut_probes,
                              std::vector<float>(
                                  static_cast<std::size_t>(subspaces),
                                  0.0f));
    } else {
        for (auto &per_probe : lut.hits)
            for (auto &per_subspace : per_probe)
                per_subspace.clear();
    }
    lut.base.assign(nprobs, 0.0f);

    // Assemble the ray batch: one ray per (probe, subspace) for L2
    // (projections are cluster residuals), one per subspace for IP.
    // Subspace-major, so each subspace's probe rays (same direction,
    // same origin plane) form one run the device traces as a packet.
    rays_.clear();
    ctxs_.clear();
    const auto dim = static_cast<std::size_t>(ivf_.dim());
    if (metric == Metric::kL2) {
        residual_.resize(lut_probes * dim);
        for (std::size_t p = 0; p < lut_probes; ++p)
            ivf_.residual(query, static_cast<cluster_t>(probes[p].id),
                          residual_.data() + p * dim);
    }
    for (int s = 0; s < subspaces; ++s) {
        const float k = scene_.coordScale(s);
        for (std::size_t p = 0; p < lut_probes; ++p) {
            const float *proj_src = metric == Metric::kL2
                ? residual_.data() + p * dim
                : query;
            const float x = proj_src[2 * s];
            const float y = proj_src[2 * s + 1];
            const double thr_raw = policy_.threshold(s, x, y);
            const double thr =
                policy_.scaled(s, thr_raw, params.threshold_scale);

            // Miss score for this (probe, subspace): the tightest score
            // an unselected entry could still have (paper: "a large
            // constant"; we charge the gate boundary).
            float miss;
            if (metric == Metric::kL2) {
                const double m = thr * params.miss_penalty;
                miss = static_cast<float>(m * m);
            } else {
                miss = static_cast<float>(thr);
            }
            lut.miss_value[p][static_cast<std::size_t>(s)] = miss;

            rt::Ray ray;
            if (!scene_.makeRay(s, x, y, thr, ray))
                continue; // empty gate: every entry misses
            RayCtx ctx;
            ctx.probe = static_cast<std::uint32_t>(p);
            ctx.subspace = s;
            ctx.kappa_sqr = k * k;
            ctx.qnorm_scaled_sqr = (x * k) * (x * k) + (y * k) * (y * k);
            if (params.inner_gate) {
                // Inner gate at half scale: the reward sphere of the
                // JUNO-M reward/penalty scheme (paper Sec. 5.4).
                const double thr_inner = policy_.scaled(
                    s, thr_raw, params.threshold_scale * 0.5);
                ctx.tmax_inner = scene_.gateTmax(s, x, y, thr_inner);
            } else {
                ctx.tmax_inner =
                    -std::numeric_limits<float>::infinity();
            }
            ray.payload = ctxs_.size();
            rays_.push_back(ray);
            ctxs_.push_back(ctx);
        }
    }

    // IP base term: score(q, centroid) added per probed cluster,
    // computed by the dispatched (AVX2 when available) kernel.
    if (metric == Metric::kInnerProduct) {
        for (std::size_t p = 0; p < nprobs; ++p)
            lut.base[p] = simd::innerProduct(
                query, ivf_.centroid(static_cast<cluster_t>(probes[p].id)),
                ivf_.dim());
    }

    // The any-hit shader (paper Alg. 2 RT_HitShader): recover the score
    // from thit, record the entry. Always returns true: JUNO wants
    // every in-gate entry, not the closest hit.
    const bool is_l2 = metric == Metric::kL2;
    device_.launch(scene_.scene(), rays_, [&](const rt::Ray &ray,
                                              const rt::Hit &hit) {
        const RayCtx &ctx = ctxs_[static_cast<std::size_t>(ray.payload)];
        int sphere_s;
        entry_t e;
        JunoScene::unpackId(hit.user_id, sphere_s, e);
        // Geometric isolation makes cross-subspace hits impossible;
        // verify anyway (cheap) and drop any that would appear.
        if (sphere_s != ctx.subspace)
            return true;

        LutHit lh;
        lh.entry = e;
        lh.thit = hit.thit;
        lh.inner = hit.thit <= ctx.tmax_inner;
        if (is_l2)
            lh.value = scene_.lutValueL2(ctx.kappa_sqr, hit.thit);
        else
            lh.value = scene_.lutValueIp(ctx.kappa_sqr,
                                         ctx.qnorm_scaled_sqr, hit.thit);
        lut.hits[ctx.probe][static_cast<std::size_t>(ctx.subspace)]
            .push_back(lh);
        return true;
    });
}

} // namespace juno
