/**
 * @file
 * Threshold-based selective L2-LUT construction on the RT substrate
 * (paper Sec. 4.2, Alg. 2).
 *
 * For each probed cluster and each 2-D subspace, a ray is cast from
 * the query's (residual) projection towards the entry spheres of that
 * subspace; tmax encodes the dynamic threshold, and the any-hit shader
 * converts thit to the exact entry/projection score without touching
 * the sphere coordinates. The result is a *sparse* LUT: only entries
 * inside the region of interest carry values.
 */
#ifndef JUNO_CORE_SELECTIVE_LUT_H
#define JUNO_CORE_SELECTIVE_LUT_H

#include <vector>

#include "common/topk.h"
#include "core/scene_builder.h"
#include "core/threshold_policy.h"
#include "ivf/ivf.h"
#include "rtcore/device.h"

namespace juno {

/** One selected entry with its recovered score and hit metadata. */
struct LutHit {
    entry_t entry = 0;
    /** L2^2 or IP score in original units, recovered from thit. */
    float value = 0.0f;
    /** Raw hit time (kept for analysis benches). */
    float thit = 0.0f;
    /** True when the hit also passes the inner (half) gate (JUNO-M). */
    bool inner = false;
};

/** Sparse per-query LUT produced by the RT pass. */
struct SparseLut {
    /**
     * hits[p][s]: selected entries of subspace s for probe ordinal p.
     * When shared_across_probes (inner-product mode: the LUT does not
     * depend on the probed cluster), only hits[0] is populated.
     */
    std::vector<std::vector<std::vector<LutHit>>> hits;
    /** miss_value[p][s]: score assigned to a subspace with no hit. */
    std::vector<std::vector<float>> miss_value;
    /** base[p]: cluster-level score offset (IP centroid term). */
    std::vector<float> base;
    bool shared_across_probes = false;

    const std::vector<std::vector<LutHit>> &
    forProbe(std::size_t p) const
    {
        return hits[shared_across_probes ? 0 : p];
    }

    float
    missFor(std::size_t p, int s) const
    {
        return miss_value[shared_across_probes ? 0 : p]
                         [static_cast<std::size_t>(s)];
    }
};

/** Tuning of the selective construction. */
struct SelectiveLutParams {
    /** User scaling factor in [0, 1] (paper Fig. 7(b) knob). */
    double threshold_scale = 1.0;
    /**
     * Multiplier on the miss score: L2 misses are charged
     * (threshold * penalty)^2, IP misses get the floor value.
     */
    double miss_penalty = 1.0;
    /** Record the inner half-gate flag (needed by JUNO-M). */
    bool inner_gate = true;
};

/** Builds sparse LUTs by launching rays on an RtDevice. */
class SelectiveLutBuilder {
  public:
    /** All referenced objects must outlive the builder. */
    SelectiveLutBuilder(const JunoScene &scene, const ThresholdPolicy &policy,
                        const InvertedFileIndex &ivf, rt::RtDevice &device);

    /**
     * Runs the RT pass for one query.
     * @param query the raw query vector (D floats);
     * @param probes filtering-stage output (best-first clusters);
     * @param params scale/penalty knobs.
     */
    SparseLut build(const float *query, const std::vector<Neighbor> &probes,
                    const SelectiveLutParams &params) const;

    /**
     * Allocation-free variant: fills @p out in place, reusing its
     * nested buffers (the search hot path calls this once per query).
     */
    void buildInto(const float *query, const std::vector<Neighbor> &probes,
                   const SelectiveLutParams &params, SparseLut &out) const;

  private:
    /** Per-ray context addressed by the ray payload. */
    struct RayCtx {
        std::uint32_t probe = 0;
        std::int32_t subspace = 0;
        /** kappa_s^2 of the ray's subspace (JunoScene::lutValue*). */
        float kappa_sqr = 1.0f;
        /** ||scaled origin xy||^2; inverts thit into an IP. */
        float qnorm_scaled_sqr = 0.0f;
        /** Inner (half) gate in thit units (JUNO-M reward sphere). */
        float tmax_inner = 0.0f;
    };

    const JunoScene &scene_;
    const ThresholdPolicy &policy_;
    const InvertedFileIndex &ivf_;
    rt::RtDevice &device_;
    // Scratch reused across queries (single-threaded hot path).
    mutable std::vector<rt::Ray> rays_;
    mutable std::vector<RayCtx> ctxs_;
    mutable std::vector<float> residual_;
};

} // namespace juno

#endif // JUNO_CORE_SELECTIVE_LUT_H
