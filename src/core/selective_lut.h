/**
 * @file
 * Threshold-based selective L2-LUT construction on the RT substrate
 * (paper Sec. 4.2, Alg. 2).
 *
 * For each probed cluster and each 2-D subspace, a ray is cast from
 * the query's (residual) projection towards the entry spheres of that
 * subspace; tmax encodes the dynamic threshold, the packet walk
 * stores a packet's hit times with one masked store per sphere into a
 * scratch tile (the any-hit shader), and the dispatched finish kernel
 * converts each ray's thit column to the exact entry/projection scores
 * of its LUT row without touching the sphere coordinates. The result is a *selective* LUT: only entries
 * inside the region of interest carry values.
 */
#ifndef JUNO_CORE_SELECTIVE_LUT_H
#define JUNO_CORE_SELECTIVE_LUT_H

#include <cstdint>
#include <vector>

#include "common/simd.h"
#include "common/topk.h"
#include "core/scene_builder.h"
#include "core/threshold_policy.h"
#include "ivf/ivf.h"
#include "rtcore/device.h"

namespace juno {

/**
 * Per-query selective LUT produced by the RT pass: one dense block the
 * any-hit shader writes in place and the distance stage streams.
 *
 * Rows are subspace-major [s][p], so the rows of one subspace's probe
 * packet are adjacent. The delta cell (p, s, e) sits at
 * (s * blocks + blockOf(p)) * entries + e, and probe p's delta rows
 * repeat at stride rowStride(). The flags are bit rows in the same row
 * order, rowWords() words each (cell e at bit e % 32 of word e / 32,
 * bits past entries 0), repeating at wordStride(); read them with
 * selectedAt() and innerAt(). Unselected cells hold an exact 0 delta
 * and clear flag bits. In inner-product mode the LUT does not depend
 * on the probed cluster: one block is stored and every probe reads it.
 */
struct SelectiveLut {
    std::size_t entries = 0; ///< cells per row (the codebook size E)
    /** Probe blocks stored: nprobe for L2, 1 for IP. */
    std::size_t blocks = 0;
    bool shared_across_probes = false;
    /** value - miss on selected cells (JUNO-H rows). */
    std::vector<float> delta;
    /** Bit rows, set on selected cells (JUNO-L; every mode's hits). */
    std::vector<std::uint32_t> selected;
    /**
     * Bit rows, set where the hit also passes the inner (half) gate
     * (JUNO-M); empty when built without SelectiveLutParams::inner_gate.
     */
    std::vector<std::uint32_t> inner;
    /** miss[s * blocks + b]: score charged to a subspace with no hit. */
    std::vector<float> miss;
    /** base[p]: cluster-level score offset (IP centroid term). */
    std::vector<float> base;
    /** offset[p]: base[p] plus missFor(p, s) summed in subspace order. */
    std::vector<float> offset;

    std::size_t
    blockOf(std::size_t p) const
    {
        return shared_across_probes ? 0 : p;
    }

    /** Distance between consecutive subspace rows of one probe. */
    std::size_t rowStride() const { return blocks * entries; }

    std::size_t
    cell(std::size_t p, int s, entry_t e) const
    {
        return (static_cast<std::size_t>(s) * blocks + blockOf(p)) * entries +
               e;
    }

    /** Words of one flag row: ceil(entries / 32). */
    std::size_t rowWords() const { return (entries + 31) / 32; }

    /** Distance in words between consecutive flag rows of one probe. */
    std::size_t wordStride() const { return blocks * rowWords(); }

    /** First flag word of probe @p p's subspace-@p s row. */
    std::size_t
    wordRow(std::size_t p, int s) const
    {
        return (static_cast<std::size_t>(s) * blocks + blockOf(p)) *
               rowWords();
    }

    /** Whether the RT gate selected cell (p, s, e). */
    bool
    selectedAt(std::size_t p, int s, entry_t e) const
    {
        return flagAt(selected, p, s, e);
    }

    /** Whether cell (p, s, e) passed the inner gate (needs inner rows). */
    bool
    innerAt(std::size_t p, int s, entry_t e) const
    {
        return flagAt(inner, p, s, e);
    }

    bool
    flagAt(const std::vector<std::uint32_t> &bits, std::size_t p, int s,
           entry_t e) const
    {
        return ((bits[wordRow(p, s) + e / 32] >> (e % 32)) & 1u) != 0;
    }

    float
    missFor(std::size_t p, int s) const
    {
        return miss[static_cast<std::size_t>(s) * blocks + blockOf(p)];
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

/** One query of a group build (SelectiveLutBuilder::buildGroup). */
struct LutRequest {
    /** The raw query vector (D floats). */
    const float *query = nullptr;
    /** Filtering-stage output (best-first clusters); non-empty. */
    const std::vector<Neighbor> *probes = nullptr;
    /** Refilled in place, reusing its buffers. */
    SelectiveLut *out = nullptr;
};

/** Builds selective LUTs by launching rays on an RtDevice. */
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
    SelectiveLut build(const float *query,
                       const std::vector<Neighbor> &probes,
                       const SelectiveLutParams &params) const;

    /**
     * Allocation-free variant: refills @p out in place, reusing its
     * buffers. A group of one (buildGroup).
     */
    void buildInto(const float *query, const std::vector<Neighbor> &probes,
                   const SelectiveLutParams &params,
                   SelectiveLut &out) const;

    /**
     * Queries whose rays fill one packet when each probes @p nprobs
     * clusters: max(1, simd::kRayLanes / rays per subspace), where a
     * query casts nprobs rays per subspace under L2 and one under IP.
     */
    std::size_t groupSize(std::size_t nprobs) const;

    /**
     * Runs the RT pass of @p count queries in one launch (the search
     * hot path calls this once per group). Each subspace's rays of
     * every query are emitted together, so the device packs rays of
     * several queries into one packet. Each SelectiveLut is
     * bitwise-equal to the one buildInto() gives for its query alone,
     * and each ray's traversal counters are its own.
     */
    void buildGroup(const LutRequest *group, std::size_t count,
                    const SelectiveLutParams &params) const;

  private:
    const JunoScene &scene_;
    const ThresholdPolicy &policy_;
    const InvertedFileIndex &ivf_;
    rt::RtDevice &device_;
    // Scratch reused across groups (single-threaded hot path).
    mutable std::vector<rt::Ray> rays_;
    /** rows_[i]: the LUT row rays_[i] fills. */
    mutable std::vector<simd::LutRow> rows_;
    /** Subspace s's rays are rays_[subspace_rays_[s], [s + 1]). */
    mutable std::vector<std::size_t> subspace_rays_;
    /** L2 residuals of every member's probes, member-major. */
    mutable std::vector<float> residual_;
    /** One subspace's ray origins (x, y) across the group, and their
     * unscaled thresholds. */
    mutable std::vector<float> proj_;
    mutable std::vector<double> thr_raw_;
    /** One packet's hit times, [e][lane] (buildGroup). */
    mutable std::vector<float> tile_;
};

} // namespace juno

#endif // JUNO_CORE_SELECTIVE_LUT_H
