/**
 * @file
 * SIMD kernel layer with runtime CPU-feature dispatch.
 *
 * The paper's filtering and ADC-scoring kernels run on wide
 * data-parallel GPU hardware; on the CPU substitution they bottom out
 * here. A dispatch table of function pointers is selected once at
 * startup from CPUID (AVX2+FMA when available, a scalar reference
 * otherwise) and every hot kernel — single-pair reductions, batched
 * row scoring, the register-blocked GEMM tile, the interleaved ADC
 * scan and flag count, the 4-bit fast scan and the sparse candidate
 * compaction — calls through it.
 *
 * Contracts:
 *  - The scalar table is the bit-exact reference: its results never
 *    change across compilers or flags (fixed accumulation order; the
 *    build pins -ffp-contract=off on simd.cc so -mfma builds cannot
 *    fuse its mul+add pairs into FMAs).
 *  - The AVX2 float reductions may differ from scalar within normal
 *    FP reassociation tolerance (tests allow 1e-4 relative).
 *  - The interleaved ADC scan is bitwise identical across tables:
 *    each point's accumulation order over subspaces is the same in
 *    every path. The interleaved flag count is integer arithmetic, so
 *    it is identical too.
 *  - Candidate compaction emits the same candidates in the same
 *    (ascending ordinal) order in every path.
 *  - The dense sphere gate writes the same cells with the same
 *    hit-time bits and returns the same hit count in every table;
 *    per sphere it equals the single-ray rt::intersectSphere math.
 *  - The selective-LUT finish writes bitwise identical rows and hit
 *    counts in every table.
 *
 * Override for testing: set `JUNO_SIMD=scalar`, `JUNO_SIMD=avx2` or
 * `JUNO_SIMD=avx512` in the environment before first use, or call
 * simd::setLevel() at runtime (benches flip levels to print
 * scalar-vs-dispatched rows).
 */
#ifndef JUNO_COMMON_SIMD_H
#define JUNO_COMMON_SIMD_H

#include <cstdint>
#include <vector>

#include "common/topk.h"
#include "common/types.h"

namespace juno {
namespace rt {
struct Ray;
struct Sphere;
} // namespace rt

namespace simd {

/**
 * Lane count of the ray-packet kernels: one AVX-512 register, two
 * AVX2 halves. A packet may gather the rays of several queries
 * (SelectiveLutBuilder::buildGroup).
 */
constexpr int kRayLanes = 16;

/** Lanes of one AVX2 half of a packet. */
constexpr int kRayHalfLanes = 8;

/**
 * Longest LUT row (entries) the AVX-512 interleaved ADC scan holds in
 * registers and reads by permutes; longer rows are gathered. Past 128
 * entries the permutes and blends per code cost more than one gather
 * lane (on a 4-vCPU AVX-512 Xeon the permute scan ran 0.7-0.9x the
 * gather scan at 192 and 256 entries, 1.1-1.4x at 128).
 */
constexpr idx_t kAdcPermuteMaxEntries = 128;

/**
 * Structure-of-arrays ray packet for the packet BVH walk
 * (rtcore/packet_walk.cc): lane i is the ray origin o[i], direction
 * d[i], inv[i] = 1 / d[i] per axis, valid interval [tmin[i], tmax[i]].
 * Unused lanes may hold anything finite; the kernels mask them off.
 */
struct alignas(64) RayLanes {
    float ox[kRayLanes], oy[kRayLanes], oz[kRayLanes];
    float dx[kRayLanes], dy[kRayLanes], dz[kRayLanes];
    float ix[kRayLanes], iy[kRayLanes], iz[kRayLanes];
    float tmin[kRayLanes], tmax[kRayLanes];
};

/**
 * One ray's LUT row for Kernels::lut_finish: where its cells go
 * (`entries` floats of delta, ceil(entries / 32) words of each flag
 * row, cell e at bit e % 32 of word e / 32) and the ray's constants of
 * the thit-to-score conversion.
 */
struct LutRow {
    float *delta = nullptr;
    std::uint32_t *selected = nullptr;
    /** Null: the row has no inner-gate flags (JUNO-M only). */
    std::uint32_t *inner = nullptr;
    /** Score charged to a miss; selected cells store value - miss. */
    float miss = 0.0f;
    /** kappa_s^2 of the row's subspace. */
    float kappa_sqr = 1.0f;
    /** ||scaled origin xy||^2 (inner product only). */
    float qnorm_scaled_sqr = 0.0f;
    /** Inner (half) gate in thit units. */
    float tmax_inner = 0.0f;
};

/** Instruction-set tier of a dispatch table. */
enum class Level {
    kScalar = 0, ///< portable reference, bit-exact contract
    kAvx2 = 1,   ///< AVX2 + FMA (x86-64)
    kAvx512 = 2, ///< AVX-512 F/BW/VL: in-register ADC lookup, ray lanes
};

/**
 * One dispatchable kernel set. All pointers are always non-null; the
 * AVX2 table falls back to scalar entries on hosts without AVX2.
 */
struct Kernels {
    /** Human-readable tier name ("scalar", "avx2"). */
    const char *name;

    /** Squared L2 distance between two d-dim vectors. */
    float (*l2_sqr)(const float *a, const float *b, idx_t d);
    /** Inner product between two d-dim vectors. */
    float (*inner_product)(const float *a, const float *b, idx_t d);
    /** Squared L2 norm of a d-dim vector. */
    float (*l2_norm_sqr)(const float *a, idx_t d);

    /**
     * Batched row scoring against one query: out[i] = kernel(q,
     * rows + i*d) for n contiguous d-dim rows. Register-blocks the
     * query loads across several rows (the pairwiseScores /
     * computeLut inner tile).
     */
    void (*l2_sqr_batch)(const float *q, const float *rows, idx_t n,
                         idx_t d, float *out);
    void (*inner_product_batch)(const float *q, const float *rows, idx_t n,
                                idx_t d, float *out);

    /**
     * Row-major GEMM c = a * b with a (m x k), b (k x n), c (m x n),
     * all dense and non-overlapping; c is fully overwritten. The AVX2
     * version uses a 4x16 register-blocked FMA tile.
     */
    void (*gemm)(const float *a, const float *b, float *c, idx_t m,
                 idx_t k, idx_t n);

    /**
     * Streaming ADC scan (paper stage D) over a list-resident
     * interleaved code layout (quant/interleaved_codes.h): points live
     * in blocks of 32, subspace-major within a block (blocks[s * 32 + j]
     * is point block_base + j's subspace-s code), so the scan walks
     * memory sequentially with no id gather. out[i] = base +
     * sum_s lut[s * lut_stride + code(i, s)] for i < n; accumulation
     * order per point is one add per subspace in subspace order, so
     * results are bitwise identical in every table (and to an id-gather
     * loop that starts from base and adds the same terms in the same
     * order). Tail blocks are zero-padded by the layout builder. Every
     * code is below @p entries, the row length (<= lut_stride): the
     * AVX-512 table holds rows of up to kAdcPermuteMaxEntries entries
     * in registers and looks codes up with permutes, and gathers from
     * longer rows.
     */
    void (*adc_scan_interleaved)(const float *lut, idx_t lut_stride,
                                 idx_t entries, int subspaces,
                                 const entry_t *blocks, std::size_t n,
                                 float base, float *out);

    /**
     * Flag count over the same interleaved layout and bit rows of
     * @p entries cells (ceil(entries / 32) words, cell e at bit e % 32
     * of word e / 32; row s at bits + s * word_stride):
     * out[i] = sum_s bit(row s, code(i, s)) for i < n. Integer sums, so
     * every table returns the same counts; the AVX tables keep a row of
     * up to 16 (AVX-512) or 8 (AVX2) words in one register and pick
     * each code's word with a permute, and gather from longer rows.
     */
    void (*flag_count_interleaved)(const std::uint32_t *bits,
                                   idx_t word_stride, idx_t entries,
                                   int subspaces, const entry_t *blocks,
                                   std::size_t n, std::int32_t *out);

    /**
     * 4-bit fast scan (FAISS-style): nibble-packed interleaved codes
     * (16 bytes per block and subspace; byte j = point j low nibble,
     * point j+16 high nibble) scored against a u8 quantised LUT
     * (subspaces x 16), accumulated in u16 lanes:
     * qsums[i] = sum_s lut[s * 16 + code(i, s)]. Integer arithmetic,
     * so every table returns identical sums; the AVX2/AVX-512 paths
     * keep the LUT in registers and scan via byte shuffles. The
     * caller reconstructs float scores as bias + scale * qsum
     * (quant/interleaved_codes.h) and owns overflow avoidance
     * (subspaces <= 256).
     */
    void (*fastscan_pq4)(const std::uint8_t *packed, int subspaces,
                         const std::uint8_t *lut, std::size_t n,
                         std::uint16_t *qsums);

    /**
     * Sparse candidate compaction (distance-calculation finalise):
     * appends {list[i], acc[i] + offset} to @p out for every i < n
     * with hits[i] != 0, in ascending i. The AVX2 path skips
     * untouched ordinals eight at a time, which is the common case
     * under JUNO's selective LUT.
     */
    void (*compact_candidates)(const float *acc, const std::int32_t *hits,
                               const idx_t *list, std::size_t n,
                               float offset, std::vector<Neighbor> &out);

    /**
     * Dense sphere gate (rt::RtDevice::traceTile's lone rays and its
     * no-RT path): tests @p ray against spheres [0, count) of
     * @p spheres (the scene's own array, from the record's first prim
     * on), with the spheres in the lanes (16 per step at AVX-512, 8 at
     * AVX2, transposed from the array in registers), and stores the
     * hit time of every sphere e it hits at out[e * stride]; no other
     * cell is written. Returns the hits. Per sphere this is exactly
     * rt::intersectSphere (entry root, exit root when the entry is
     * before tmin, no fused multiply-adds), so cells and counts agree
     * across tables. A @p stride of n fills lane i of an [e][lane]
     * tile of n lanes from out = tile + i.
     */
    std::uint32_t (*sphere_gate)(const rt::Ray &ray,
                                 const rt::Sphere *spheres,
                                 std::size_t count, float *out,
                                 std::size_t stride);

    /**
     * Selective-LUT finish (SelectiveLutBuilder): converts one
     * packet's tile of hit times into the LUT rows of its @p lanes
     * rays. tile[e * lanes + i] is lane i's hit time on entry e, NaN
     * where its ray missed; for e < entries, rows[i] receives
     *   delta[e]       = value(t) - miss on a hit, 0 otherwise,
     *   selected bit e = 1 on a hit, 0 otherwise,
     *   inner bit e    = 1 where t <= tmax_inner, 0 otherwise (when
     *                    inner is non-null),
     * with value(t) JunoScene::lutValueL2 / lutValueIp's float
     * operations for @p metric (radius_sqr = R * R), and hits[i] is
     * lane i's hit count. Every flag word is written whole (bits past
     * entries are 0). The AVX paths gather each lane's column and store
     * their compare masks as the flag bits.
     */
    void (*lut_finish)(Metric metric, float radius_sqr, const float *tile,
                       int lanes, std::size_t entries, const LutRow *rows,
                       std::uint32_t *hits);
};

/** True when this host can execute the @p level table natively. */
bool supported(Level level);

/** Best level this host supports (kAvx512 > kAvx2 > kScalar). */
Level bestSupported();

/** Table for an explicit level (benches compare tables directly). */
const Kernels &table(Level level);

/**
 * The active dispatch table. Selected once on first use: the
 * JUNO_SIMD environment override if set and supported, otherwise
 * bestSupported().
 */
const Kernels &active();

/** Level of the active table. */
Level level();

/**
 * Re-points the active table (tests/benches). Returns false — and
 * leaves the dispatch unchanged — when the host can't execute
 * @p level.
 */
bool setLevel(Level level);

/** Name of @p level ("scalar"/"avx2"). */
const char *levelName(Level level);

/**
 * Parses a JUNO_SIMD-style spec ("scalar", "avx2", "" / "auto" for
 * best-supported). Returns bestSupported() on unknown spec (with a
 * warning) so a typo can't silently change results.
 */
Level parseLevel(const char *spec);

// ---- Convenience wrappers over the active table ----

inline float
l2Sqr(const float *a, const float *b, idx_t d)
{
    return active().l2_sqr(a, b, d);
}

inline float
innerProduct(const float *a, const float *b, idx_t d)
{
    return active().inner_product(a, b, d);
}

inline float
l2NormSqr(const float *a, idx_t d)
{
    return active().l2_norm_sqr(a, d);
}

/** Dispatched score under @p metric (see common/types.h ordering). */
inline float
score(Metric metric, const float *a, const float *b, idx_t d)
{
    return metric == Metric::kL2 ? l2Sqr(a, b, d) : innerProduct(a, b, d);
}

/** Batched dispatched score over n contiguous rows. */
inline void
scoreBatch(Metric metric, const float *q, const float *rows, idx_t n,
           idx_t d, float *out)
{
    if (metric == Metric::kL2)
        active().l2_sqr_batch(q, rows, n, d, out);
    else
        active().inner_product_batch(q, rows, n, d, out);
}

inline void
adcScanInterleaved(const float *lut, idx_t lut_stride, idx_t entries,
                   int subspaces, const entry_t *blocks, std::size_t n,
                   float base, float *out)
{
    active().adc_scan_interleaved(lut, lut_stride, entries, subspaces,
                                  blocks, n, base, out);
}

inline void
flagCountInterleaved(const std::uint32_t *bits, idx_t word_stride,
                     idx_t entries, int subspaces, const entry_t *blocks,
                     std::size_t n, std::int32_t *out)
{
    active().flag_count_interleaved(bits, word_stride, entries, subspaces,
                                    blocks, n, out);
}

inline void
fastScanPq4(const std::uint8_t *packed, int subspaces,
            const std::uint8_t *lut, std::size_t n, std::uint16_t *qsums)
{
    active().fastscan_pq4(packed, subspaces, lut, n, qsums);
}

inline void
compactCandidates(const float *acc, const std::int32_t *hits,
                  const idx_t *list, std::size_t n, float offset,
                  std::vector<Neighbor> &out)
{
    active().compact_candidates(acc, hits, list, n, offset, out);
}

} // namespace simd
} // namespace juno

#endif // JUNO_COMMON_SIMD_H
