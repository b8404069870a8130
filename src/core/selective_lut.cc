#include "core/selective_lut.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

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
        const std::size_t cells = rows * lut.entries;
        JUNO_REQUIRE(rows <= 0xFFFFFFFFu,
                     "LUT of " << rows << " rows overflows a row index");
        lut.delta.resize(cells);
        lut.selected.resize(cells);
        lut.inner.resize(params.inner_gate ? cells : 0);
        lut.miss.resize(rows);
        lut.selected_count.assign(lut.blocks, 0);
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
    // of every member (same direction, same origin plane) form one run
    // the device traces as packets of up to simd::kRayLanes lanes.
    rays_.clear();
    ray_ctx_.clear();
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
                    const std::size_t cell0 = row * entries;
                    std::fill_n(lut.delta.data() + cell0, entries, 0.0f);
                    std::fill_n(lut.selected.data() + cell0, entries, 0.0f);
                    if (params.inner_gate)
                        std::fill_n(lut.inner.data() + cell0, entries, 0.0f);
                    continue;
                }
                RayCtx rc;
                rc.member = static_cast<std::uint32_t>(g);
                rc.row = static_cast<std::uint32_t>(row);
                rc.kappa_sqr = k * k;
                rc.qnorm_scaled_sqr = (x * k) * (x * k) + (y * k) * (y * k);
                if (params.inner_gate) {
                    // Inner gate at half scale: the reward sphere of the
                    // JUNO-M reward/penalty scheme (paper Sec. 5.4).
                    const double thr_inner = policy_.scaled(
                        s, thr_raw, params.threshold_scale * 0.5);
                    rc.tmax_inner = scene_.gateTmax(s, x, y, thr_inner);
                }
                // The payload carries the subspace in its high word, as
                // the sphere ids do.
                ray.payload = JunoScene::packId(s, 0);
                rays_.push_back(ray);
                ray_ctx_.push_back(rc);
            }
        }
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

    // The any-hit shader (paper Alg. 2 RT_HitShader) runs once per
    // (packet, sphere) and stores the hit lanes' thit with one masked
    // store into a rays x E tile: packet rays[first, first + n) owns
    // tile[first * E, (first + n) * E), laid out [e][lane]. NaN marks
    // the cells no ray reached. It always returns "stop no lane":
    // JUNO wants every in-gate entry, not the closest hit.
    const auto entries = static_cast<std::size_t>(scene_.entries());
    tile_.assign(rays_.size() * entries,
                 std::numeric_limits<float>::quiet_NaN());
    packet_lanes_.assign(rays_.size(), 0);
    const simd::Kernels &kernels = simd::active();
    float *tile = tile_.data();
    device_.launch(scene_.scene(), rays_, [&](std::size_t first, int n,
                                              const rt::PacketHit &hit) {
        int sphere_s;
        entry_t e;
        JunoScene::unpackId(hit.user_id, sphere_s, e);
        // A packet's rays share their origin plane, hence their
        // subspace. Geometric isolation makes cross-subspace hits
        // impossible; verify anyway (cheap) and drop any that would
        // appear.
        if (sphere_s != static_cast<int>(rays_[first].payload >> 32))
            return 0u;
        float *dst = tile + first * entries +
                     static_cast<std::size_t>(e) * static_cast<std::size_t>(n);
        if (n == 1) {
            // A lone ray: one scalar store (its thit slot was just
            // written as a scalar, which a vector reload would stall on).
            *dst = hit.thit[0];
        } else {
            packet_lanes_[first] = static_cast<std::uint8_t>(n);
            kernels.store_lanes(hit.thit, hit.mask, dst);
        }
        return 0u;
    });

    // Finish every traced row in one vectorisable pass per ray: read
    // the ray's tile column (stride n), recover each hit's score from
    // thit with the same float ops as a per-hit conversion (so the same
    // bits), and write value - miss, the selected flag and the inner
    // flag into the LUT of the ray's own query; cells without a hit get
    // exact zeros.
    const auto finish = [&](auto value_of) {
        const auto finishRow = [&](const RayCtx &rc, const float *col,
                                   auto stride) {
            SelectiveLut &lut = *group[rc.member].out;
            const std::size_t r = rc.row;
            const float miss = lut.miss[r];
            float *delta = lut.delta.data() + r * entries;
            float *selected = lut.selected.data() + r * entries;
            if (params.inner_gate)
                for (std::size_t e = 0; e < entries; ++e)
                    lut.inner[r * entries + e] =
                        col[e * stride] <= rc.tmax_inner ? 1.0f : 0.0f;
            std::size_t hits = 0;
            for (std::size_t e = 0; e < entries; ++e) {
                const float t = col[e * stride];
                // Converted unconditionally: the loop stays branch-free.
                const float d = value_of(rc, t) - miss;
                const bool hit = !std::isnan(t);
                delta[e] = hit ? d : 0.0f;
                selected[e] = hit ? 1.0f : 0.0f;
                hits += hit ? 1 : 0;
            }
            lut.selected_count[r % lut.blocks] += hits;
        };
        for (std::size_t first = 0; first < rays_.size();) {
            // A packet with no delivery left only NaN in its region,
            // which reads the same at stride 1 ray by ray.
            const std::size_t n =
                std::max<std::size_t>(packet_lanes_[first], 1);
            for (std::size_t lane = 0; lane < n; ++lane) {
                const float *col = tile + first * entries + lane;
                const RayCtx &rc = ray_ctx_[first + lane];
                // Lone rays read a contiguous column; a compile-time
                // stride keeps their loads packed.
                if (n == 1)
                    finishRow(rc, col,
                              std::integral_constant<std::size_t, 1>());
                else
                    finishRow(rc, col, n);
            }
            first += n;
        }
    };
    if (metric == Metric::kL2)
        finish([&](const RayCtx &rc, float t) {
            return scene_.lutValueL2(rc.kappa_sqr, t);
        });
    else
        finish([&](const RayCtx &rc, float t) {
            return scene_.lutValueIp(rc.kappa_sqr, rc.qnorm_scaled_sqr, t);
        });
}

} // namespace juno
