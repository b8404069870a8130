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
    const Metric metric = scene_.metric();
    const int subspaces = scene_.numSubspaces();
    const std::size_t nprobs = probes.size();
    JUNO_REQUIRE(nprobs > 0, "no probed clusters");

    lut.shared_across_probes = metric == Metric::kInnerProduct;
    const std::size_t lut_probes = lut.shared_across_probes ? 1 : nprobs;
    lut.entries = static_cast<std::size_t>(scene_.entries());
    lut.blocks = lut_probes;

    // The shader leaves each hit's thit in its delta cell; NaN marks
    // the cells no ray reached until the finishing pass.
    const std::size_t rows = static_cast<std::size_t>(subspaces) * lut_probes;
    const std::size_t cells = rows * lut.entries;
    JUNO_REQUIRE(cells <= 0xFFFFFFFFu, "LUT of " << cells
                                           << " cells overflows a ray payload");
    lut.delta.assign(cells, std::numeric_limits<float>::quiet_NaN());
    lut.selected.resize(cells);
    lut.inner.resize(params.inner_gate ? cells : 0);
    lut.miss.resize(rows);
    row_ctx_.assign(rows, RowCtx{});
    lut.selected_count.assign(lut_probes, 0);
    lut.base.assign(nprobs, 0.0f);

    // Assemble the ray batch: one ray per (probe, subspace) for L2
    // (projections are cluster residuals), one per subspace for IP.
    // Subspace-major, so each subspace's probe rays (same direction,
    // same origin plane) form one run the device traces as a packet.
    rays_.clear();
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
            const std::size_t row =
                static_cast<std::size_t>(s) * lut_probes + p;
            lut.miss[row] = miss;

            rt::Ray ray;
            if (!scene_.makeRay(s, x, y, thr, ray))
                continue; // empty gate: every entry misses
            RowCtx &rc = row_ctx_[row];
            rc.kappa_sqr = k * k;
            rc.qnorm_scaled_sqr = (x * k) * (x * k) + (y * k) * (y * k);
            if (params.inner_gate) {
                // Inner gate at half scale: the reward sphere of the
                // JUNO-M reward/penalty scheme (paper Sec. 5.4).
                const double thr_inner = policy_.scaled(
                    s, thr_raw, params.threshold_scale * 0.5);
                rc.tmax_inner = scene_.gateTmax(s, x, y, thr_inner);
            }
            // The payload packs the subspace (high word, as in the
            // sphere ids) and the row's first cell (low word).
            ray.payload = JunoScene::packId(s, 0) | lut.cell(p, s, 0);
            rays_.push_back(ray);
        }
    }

    // JUNO-H finalisation term per probe: the IP base score(q,
    // centroid), by the dispatched kernel, plus every subspace's miss
    // in subspace order (selected cells store value - miss).
    lut.offset.resize(nprobs);
    for (std::size_t p = 0; p < nprobs; ++p) {
        if (metric == Metric::kInnerProduct)
            lut.base[p] = simd::innerProduct(
                query, ivf_.centroid(static_cast<cluster_t>(probes[p].id)),
                ivf_.dim());
        float offset = lut.base[p];
        for (int s = 0; s < subspaces; ++s)
            offset += lut.missFor(p, s);
        lut.offset[p] = offset;
    }

    // The any-hit shader (paper Alg. 2 RT_HitShader): record thit in
    // the entry's cell. Always returns true: JUNO wants every in-gate
    // entry, not the closest hit.
    float *thit_cells = lut.delta.data();
    device_.launch(scene_.scene(), rays_, [&](const rt::Ray &ray,
                                              const rt::Hit &hit) {
        int sphere_s;
        entry_t e;
        JunoScene::unpackId(hit.user_id, sphere_s, e);
        // Geometric isolation makes cross-subspace hits impossible;
        // verify anyway (cheap) and drop any that would appear.
        if (sphere_s != static_cast<int>(ray.payload >> 32))
            return true;
        thit_cells[(ray.payload & 0xFFFFFFFFu) + e] = hit.thit;
        return true;
    });

    // Finish every row in one vectorisable pass: recover each hit's
    // score from thit with the same float ops as a per-hit conversion
    // (so the same bits), and write value - miss, the selected flag
    // and the inner flag; cells without a hit get exact zeros.
    const std::size_t entries = lut.entries;
    const auto finish = [&](auto value_of) {
        for (std::size_t r = 0; r < rows; ++r) {
            const RowCtx &rc = row_ctx_[r];
            const float miss = lut.miss[r];
            float *delta = lut.delta.data() + r * entries;
            float *selected = lut.selected.data() + r * entries;
            if (params.inner_gate)
                for (std::size_t e = 0; e < entries; ++e)
                    lut.inner[r * entries + e] =
                        delta[e] <= rc.tmax_inner ? 1.0f : 0.0f;
            std::size_t count = 0;
            for (std::size_t e = 0; e < entries; ++e) {
                const float t = delta[e];
                // Converted unconditionally: the loop stays branch-free.
                const float d = value_of(rc, t) - miss;
                const bool hit = !std::isnan(t);
                delta[e] = hit ? d : 0.0f;
                selected[e] = hit ? 1.0f : 0.0f;
                count += hit ? 1 : 0;
            }
            lut.selected_count[r % lut_probes] += count;
        }
    };
    if (metric == Metric::kL2)
        finish([&](const RowCtx &rc, float t) {
            return scene_.lutValueL2(rc.kappa_sqr, t);
        });
    else
        finish([&](const RowCtx &rc, float t) {
            return scene_.lutValueIp(rc.kappa_sqr, rc.qnorm_scaled_sqr, t);
        });
}

} // namespace juno
