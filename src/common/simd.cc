#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "common/ray_lanes.h"
#include "rtcore/geometry.h"

namespace juno {
namespace simd {
namespace {

// ====================================================================
// Scalar reference table. Fixed accumulation order: four independent
// accumulators over 4-wide strips, combined as (a0+a1)+(a2+a3). This
// is the bit-exact contract every other table is tested against.
// ====================================================================

float
l2SqrScalar(const float *a, const float *b, idx_t d)
{
    float acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
    idx_t i = 0;
    for (; i + 4 <= d; i += 4) {
        const float d0 = a[i] - b[i];
        const float d1 = a[i + 1] - b[i + 1];
        const float d2 = a[i + 2] - b[i + 2];
        const float d3 = a[i + 3] - b[i + 3];
        acc0 += d0 * d0;
        acc1 += d1 * d1;
        acc2 += d2 * d2;
        acc3 += d3 * d3;
    }
    for (; i < d; ++i) {
        const float diff = a[i] - b[i];
        acc0 += diff * diff;
    }
    return (acc0 + acc1) + (acc2 + acc3);
}

float
innerProductScalar(const float *a, const float *b, idx_t d)
{
    float acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
    idx_t i = 0;
    for (; i + 4 <= d; i += 4) {
        acc0 += a[i] * b[i];
        acc1 += a[i + 1] * b[i + 1];
        acc2 += a[i + 2] * b[i + 2];
        acc3 += a[i + 3] * b[i + 3];
    }
    for (; i < d; ++i)
        acc0 += a[i] * b[i];
    return (acc0 + acc1) + (acc2 + acc3);
}

float
l2NormSqrScalar(const float *a, idx_t d)
{
    return innerProductScalar(a, a, d);
}

void
l2SqrBatchScalar(const float *q, const float *rows, idx_t n, idx_t d,
                 float *out)
{
    for (idx_t i = 0; i < n; ++i)
        out[i] = l2SqrScalar(q, rows + static_cast<std::size_t>(i) *
                                        static_cast<std::size_t>(d),
                             d);
}

void
innerProductBatchScalar(const float *q, const float *rows, idx_t n, idx_t d,
                        float *out)
{
    for (idx_t i = 0; i < n; ++i)
        out[i] = innerProductScalar(
            q,
            rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d),
            d);
}

void
gemmScalar(const float *a, const float *b, float *c, idx_t m, idx_t k,
           idx_t n)
{
    std::memset(c, 0,
                static_cast<std::size_t>(m) * static_cast<std::size_t>(n) *
                    sizeof(float));
    // i-k-j loop order: streams B rows, accumulates into C rows.
    for (idx_t i = 0; i < m; ++i) {
        const float *arow = a + static_cast<std::size_t>(i) *
                                    static_cast<std::size_t>(k);
        float *crow = c + static_cast<std::size_t>(i) *
                              static_cast<std::size_t>(n);
        for (idx_t kk = 0; kk < k; ++kk) {
            const float aik = arow[kk];
            if (aik == 0.0f)
                continue;
            const float *brow = b + static_cast<std::size_t>(kk) *
                                        static_cast<std::size_t>(n);
            for (idx_t j = 0; j < n; ++j)
                crow[j] += aik * brow[j];
        }
    }
}

void
adcScanInterleavedScalar(const float *lut, idx_t lut_stride,
                         idx_t /*entries*/, int subspaces,
                         const entry_t *blocks, std::size_t n, float base,
                         float *out)
{
    const auto stride = static_cast<std::size_t>(lut_stride);
    const std::size_t block_stride =
        32u * static_cast<std::size_t>(subspaces);
    for (std::size_t i = 0; i < n; ++i) {
        const entry_t *blk = blocks + (i / 32) * block_stride;
        const std::size_t j = i % 32;
        float acc = base;
        for (int s = 0; s < subspaces; ++s)
            acc += lut[static_cast<std::size_t>(s) * stride +
                       blk[static_cast<std::size_t>(s) * 32 + j]];
        out[i] = acc;
    }
}

/** Bit @p code of a flag row (cell e at bit e % 32 of word e / 32). */
inline std::int32_t
flagBit(const std::uint32_t *row, entry_t code)
{
    return static_cast<std::int32_t>((row[code >> 5] >> (code & 31)) & 1u);
}

void
flagCountInterleavedScalar(const std::uint32_t *bits, idx_t word_stride,
                           idx_t /*entries*/, int subspaces,
                           const entry_t *blocks, std::size_t n,
                           std::int32_t *out)
{
    const auto stride = static_cast<std::size_t>(word_stride);
    const std::size_t block_stride =
        32u * static_cast<std::size_t>(subspaces);
    for (std::size_t i = 0; i < n; ++i) {
        const entry_t *blk = blocks + (i / 32) * block_stride;
        const std::size_t j = i % 32;
        std::int32_t count = 0;
        for (int s = 0; s < subspaces; ++s)
            count += flagBit(bits + static_cast<std::size_t>(s) * stride,
                             blk[static_cast<std::size_t>(s) * 32 + j]);
        out[i] = count;
    }
}

void
fastScanPq4Scalar(const std::uint8_t *packed, int subspaces,
                  const std::uint8_t *lut, std::size_t n,
                  std::uint16_t *qsums)
{
    const std::size_t block_stride =
        16u * static_cast<std::size_t>(subspaces);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t *blk = packed + (i / 32) * block_stride;
        const std::size_t lane = i & 15;
        const bool high = (i % 32) >= 16;
        std::uint16_t acc = 0;
        for (int s = 0; s < subspaces; ++s) {
            const std::uint8_t byte =
                blk[static_cast<std::size_t>(s) * 16 + lane];
            const std::uint8_t code =
                high ? byte >> 4 : byte & 0x0F;
            acc = static_cast<std::uint16_t>(
                acc + lut[static_cast<std::size_t>(s) * 16 + code]);
        }
        qsums[i] = acc;
    }
}

void
compactCandidatesScalar(const float *acc, const std::int32_t *hits,
                        const idx_t *list, std::size_t n, float offset,
                        std::vector<Neighbor> &out)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (hits[i] != 0)
            out.push_back({list[i], acc[i] + offset});
    }
}

/** Spheres [e0, count) one at a time: the scalar table, the AVX2 tail. */
std::uint32_t
sphereGateCells(const rt::Ray &ray, const rt::Sphere *spheres,
                std::size_t e0, std::size_t count, float *out,
                std::size_t stride)
{
    std::uint32_t hits = 0;
    for (std::size_t e = e0; e < count; ++e) {
        float t;
        if (rt::intersectSphere(ray, spheres[e], t)) {
            out[e * stride] = t;
            ++hits;
        }
    }
    return hits;
}

// The vector gates load spheres as four floats: centre x, y, z, radius.
static_assert(sizeof(rt::Sphere) == 4 * sizeof(float) &&
                  offsetof(rt::Sphere, radius) == 3 * sizeof(float),
              "rt::Sphere is not four packed floats");

std::uint32_t
sphereGateScalar(const rt::Ray &ray, const rt::Sphere *spheres,
                 std::size_t count, float *out, std::size_t stride)
{
    return sphereGateCells(ray, spheres, 0, count, out, stride);
}

/**
 * One LUT cell from its hit time: JunoScene::lutValueL2 / lutValueIp
 * for @p metric minus the row's miss, in those functions' float
 * operations. @p ip_base is qnorm_scaled_sqr - radius_sqr.
 */
inline float
lutDelta(Metric metric, float radius_sqr, float ip_base, const LutRow &row,
         float t)
{
    const float one_minus = 1.0f - t;
    const float sq = one_minus * one_minus;
    const float value = metric == Metric::kL2
        ? (radius_sqr - sq) / row.kappa_sqr
        : 0.5f * (ip_base + sq) / row.kappa_sqr;
    return value - row.miss;
}

/**
 * Cells [e0, entries) of one lane's row, reading its tile column at
 * stride @p lanes: the whole row in the scalar table, the tail past the
 * last full vector in the others. A cell that starts a flag word clears
 * it; a tail that starts mid-word ORs into the word the vector steps
 * stored.
 */
void
lutFinishCells(Metric metric, float radius_sqr, const float *col,
               std::size_t lanes, std::size_t e0, std::size_t entries,
               const LutRow &row)
{
    const float ip_base = row.qnorm_scaled_sqr - radius_sqr;
    for (std::size_t e = e0; e < entries; ++e) {
        const float t = col[e * lanes];
        // Converted unconditionally: the loop stays branch-free.
        const float d = lutDelta(metric, radius_sqr, ip_base, row, t);
        const bool hit = !std::isnan(t);
        const std::size_t w = e / 32;
        const std::uint32_t bit = 1u << (e % 32);
        const std::uint32_t keep = e % 32 == 0 ? 0u : ~0u;
        row.delta[e] = hit ? d : 0.0f;
        row.selected[w] = (row.selected[w] & keep) | (hit ? bit : 0u);
        if (row.inner != nullptr)
            row.inner[w] = (row.inner[w] & keep) |
                           (t <= row.tmax_inner ? bit : 0u);
    }
}

void
lutFinishScalar(Metric metric, float radius_sqr, const float *tile,
                int lanes, std::size_t entries, const LutRow *rows)
{
    for (int i = 0; i < lanes; ++i)
        lutFinishCells(metric, radius_sqr, tile + i,
                       static_cast<std::size_t>(lanes), 0, entries, rows[i]);
}

const Kernels kScalarTable = {
    "scalar",
    &l2SqrScalar,
    &innerProductScalar,
    &l2NormSqrScalar,
    &l2SqrBatchScalar,
    &innerProductBatchScalar,
    &gemmScalar,
    &adcScanInterleavedScalar,
    &flagCountInterleavedScalar,
    &fastScanPq4Scalar,
    &compactCandidatesScalar,
    &sphereGateScalar,
    &lutFinishScalar,
};

#if JUNO_SIMD_X86
// ====================================================================
// AVX2 + FMA table. Compiled with per-function target attributes so
// the library still builds and runs on pre-AVX2 hosts; the dispatch
// below only installs it after a CPUID check.
// ====================================================================

JUNO_TARGET_AVX2 inline float
hsum8(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    lo = _mm_add_ps(lo, hi);
    __m128 shuf = _mm_movehdup_ps(lo);
    __m128 sums = _mm_add_ps(lo, shuf);
    shuf = _mm_movehl_ps(shuf, sums);
    sums = _mm_add_ss(sums, shuf);
    return _mm_cvtss_f32(sums);
}

JUNO_TARGET_AVX2 float
l2SqrAvx2(const float *a, const float *b, idx_t d)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    idx_t i = 0;
    for (; i + 16 <= d; i += 16) {
        const __m256 d0 =
            _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
        const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                                        _mm256_loadu_ps(b + i + 8));
        acc0 = _mm256_fmadd_ps(d0, d0, acc0);
        acc1 = _mm256_fmadd_ps(d1, d1, acc1);
    }
    for (; i + 8 <= d; i += 8) {
        const __m256 d0 =
            _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
        acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    }
    float acc = hsum8(_mm256_add_ps(acc0, acc1));
    for (; i < d; ++i) {
        const float diff = a[i] - b[i];
        acc += diff * diff;
    }
    return acc;
}

JUNO_TARGET_AVX2 float
innerProductAvx2(const float *a, const float *b, idx_t d)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    idx_t i = 0;
    for (; i + 16 <= d; i += 16) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                               _mm256_loadu_ps(b + i + 8), acc1);
    }
    for (; i + 8 <= d; i += 8)
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
    float acc = hsum8(_mm256_add_ps(acc0, acc1));
    for (; i < d; ++i)
        acc += a[i] * b[i];
    return acc;
}

JUNO_TARGET_AVX2 float
l2NormSqrAvx2(const float *a, idx_t d)
{
    return innerProductAvx2(a, a, d);
}

/**
 * Batched L2 over contiguous rows. d == 2 (JUNO's mandatory subspace
 * width) packs four rows per vector; the general path register-blocks
 * four rows so each query cacheline load is reused fourfold.
 */
JUNO_TARGET_AVX2 void
l2SqrBatchAvx2(const float *q, const float *rows, idx_t n, idx_t d,
               float *out)
{
    idx_t i = 0;
    if (d == 2) {
        const __m256 qq = _mm256_setr_ps(q[0], q[1], q[0], q[1], q[0], q[1],
                                         q[0], q[1]);
        const __m256i even =
            _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
        for (; i + 4 <= n; i += 4) {
            const __m256 r = _mm256_loadu_ps(rows + 2 * i);
            const __m256 diff = _mm256_sub_ps(r, qq);
            const __m256 sq = _mm256_mul_ps(diff, diff);
            // Pair-sum: add the lane-swapped copy, keep even lanes.
            const __m256 sum = _mm256_add_ps(
                sq, _mm256_permute_ps(sq, 0xB1));
            const __m256 packed = _mm256_permutevar8x32_ps(sum, even);
            _mm_storeu_ps(out + i, _mm256_castps256_ps128(packed));
        }
        for (; i < n; ++i) {
            const float dx = rows[2 * i] - q[0];
            const float dy = rows[2 * i + 1] - q[1];
            out[i] = dx * dx + dy * dy;
        }
        return;
    }
    // Two-row register blocking; each row runs the *same* strip/tail
    // accumulation schedule as l2SqrAvx2, so a batch row is bitwise
    // identical to the single-pair kernel of this table (consumers mix
    // the two freely: brute-force scans batch, inverted lists do not).
    for (; i + 2 <= n; i += 2) {
        const float *r0 = rows + static_cast<std::size_t>(i) *
                                     static_cast<std::size_t>(d);
        const float *r1 = r0 + d;
        __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
        __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
        idx_t j = 0;
        for (; j + 16 <= d; j += 16) {
            const __m256 qv0 = _mm256_loadu_ps(q + j);
            const __m256 qv1 = _mm256_loadu_ps(q + j + 8);
            const __m256 d00 =
                _mm256_sub_ps(qv0, _mm256_loadu_ps(r0 + j));
            const __m256 d01 =
                _mm256_sub_ps(qv1, _mm256_loadu_ps(r0 + j + 8));
            const __m256 d10 =
                _mm256_sub_ps(qv0, _mm256_loadu_ps(r1 + j));
            const __m256 d11 =
                _mm256_sub_ps(qv1, _mm256_loadu_ps(r1 + j + 8));
            a00 = _mm256_fmadd_ps(d00, d00, a00);
            a01 = _mm256_fmadd_ps(d01, d01, a01);
            a10 = _mm256_fmadd_ps(d10, d10, a10);
            a11 = _mm256_fmadd_ps(d11, d11, a11);
        }
        for (; j + 8 <= d; j += 8) {
            const __m256 qv = _mm256_loadu_ps(q + j);
            const __m256 d00 =
                _mm256_sub_ps(qv, _mm256_loadu_ps(r0 + j));
            const __m256 d10 =
                _mm256_sub_ps(qv, _mm256_loadu_ps(r1 + j));
            a00 = _mm256_fmadd_ps(d00, d00, a00);
            a10 = _mm256_fmadd_ps(d10, d10, a10);
        }
        float s0 = hsum8(_mm256_add_ps(a00, a01));
        float s1 = hsum8(_mm256_add_ps(a10, a11));
        for (; j < d; ++j) {
            const float d0 = q[j] - r0[j];
            const float d1 = q[j] - r1[j];
            s0 += d0 * d0;
            s1 += d1 * d1;
        }
        out[i] = s0;
        out[i + 1] = s1;
    }
    for (; i < n; ++i)
        out[i] = l2SqrAvx2(q,
                           rows + static_cast<std::size_t>(i) *
                                      static_cast<std::size_t>(d),
                           d);
}

JUNO_TARGET_AVX2 void
innerProductBatchAvx2(const float *q, const float *rows, idx_t n, idx_t d,
                      float *out)
{
    idx_t i = 0;
    if (d == 2) {
        const __m256 qq = _mm256_setr_ps(q[0], q[1], q[0], q[1], q[0], q[1],
                                         q[0], q[1]);
        const __m256i even =
            _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
        for (; i + 4 <= n; i += 4) {
            const __m256 prod =
                _mm256_mul_ps(_mm256_loadu_ps(rows + 2 * i), qq);
            const __m256 sum = _mm256_add_ps(
                prod, _mm256_permute_ps(prod, 0xB1));
            const __m256 packed = _mm256_permutevar8x32_ps(sum, even);
            _mm_storeu_ps(out + i, _mm256_castps256_ps128(packed));
        }
        for (; i < n; ++i)
            out[i] = rows[2 * i] * q[0] + rows[2 * i + 1] * q[1];
        return;
    }
    // Mirrors innerProductAvx2's accumulation schedule per row (see
    // the l2 batch kernel for why bitwise row equality matters).
    for (; i + 2 <= n; i += 2) {
        const float *r0 = rows + static_cast<std::size_t>(i) *
                                     static_cast<std::size_t>(d);
        const float *r1 = r0 + d;
        __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
        __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
        idx_t j = 0;
        for (; j + 16 <= d; j += 16) {
            const __m256 qv0 = _mm256_loadu_ps(q + j);
            const __m256 qv1 = _mm256_loadu_ps(q + j + 8);
            a00 = _mm256_fmadd_ps(qv0, _mm256_loadu_ps(r0 + j), a00);
            a01 = _mm256_fmadd_ps(qv1, _mm256_loadu_ps(r0 + j + 8), a01);
            a10 = _mm256_fmadd_ps(qv0, _mm256_loadu_ps(r1 + j), a10);
            a11 = _mm256_fmadd_ps(qv1, _mm256_loadu_ps(r1 + j + 8), a11);
        }
        for (; j + 8 <= d; j += 8) {
            const __m256 qv = _mm256_loadu_ps(q + j);
            a00 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r0 + j), a00);
            a10 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r1 + j), a10);
        }
        float s0 = hsum8(_mm256_add_ps(a00, a01));
        float s1 = hsum8(_mm256_add_ps(a10, a11));
        for (; j < d; ++j) {
            s0 += q[j] * r0[j];
            s1 += q[j] * r1[j];
        }
        out[i] = s0;
        out[i + 1] = s1;
    }
    for (; i < n; ++i)
        out[i] = innerProductAvx2(q,
                                  rows + static_cast<std::size_t>(i) *
                                             static_cast<std::size_t>(d),
                                  d);
}

/** 4x16 register-blocked FMA tile; B rows stream, C stays in registers. */
JUNO_TARGET_AVX2 void
gemmAvx2(const float *a, const float *b, float *c, idx_t m, idx_t k,
         idx_t n)
{
    const auto kk_sz = static_cast<std::size_t>(k);
    const auto n_sz = static_cast<std::size_t>(n);
    std::memset(c, 0, static_cast<std::size_t>(m) * n_sz * sizeof(float));
    idx_t i = 0;
    for (; i + 4 <= m; i += 4) {
        const float *a0 = a + static_cast<std::size_t>(i) * kk_sz;
        const float *a1 = a0 + kk_sz;
        const float *a2 = a1 + kk_sz;
        const float *a3 = a2 + kk_sz;
        float *c0 = c + static_cast<std::size_t>(i) * n_sz;
        float *c1 = c0 + n_sz;
        float *c2 = c1 + n_sz;
        float *c3 = c2 + n_sz;
        idx_t j = 0;
        for (; j + 16 <= n; j += 16) {
            __m256 v00 = _mm256_setzero_ps(), v01 = _mm256_setzero_ps();
            __m256 v10 = _mm256_setzero_ps(), v11 = _mm256_setzero_ps();
            __m256 v20 = _mm256_setzero_ps(), v21 = _mm256_setzero_ps();
            __m256 v30 = _mm256_setzero_ps(), v31 = _mm256_setzero_ps();
            for (idx_t kk = 0; kk < k; ++kk) {
                const float *brow =
                    b + static_cast<std::size_t>(kk) * n_sz + j;
                const __m256 b0 = _mm256_loadu_ps(brow);
                const __m256 b1 = _mm256_loadu_ps(brow + 8);
                const __m256 w0 = _mm256_set1_ps(a0[kk]);
                const __m256 w1 = _mm256_set1_ps(a1[kk]);
                const __m256 w2 = _mm256_set1_ps(a2[kk]);
                const __m256 w3 = _mm256_set1_ps(a3[kk]);
                v00 = _mm256_fmadd_ps(w0, b0, v00);
                v01 = _mm256_fmadd_ps(w0, b1, v01);
                v10 = _mm256_fmadd_ps(w1, b0, v10);
                v11 = _mm256_fmadd_ps(w1, b1, v11);
                v20 = _mm256_fmadd_ps(w2, b0, v20);
                v21 = _mm256_fmadd_ps(w2, b1, v21);
                v30 = _mm256_fmadd_ps(w3, b0, v30);
                v31 = _mm256_fmadd_ps(w3, b1, v31);
            }
            _mm256_storeu_ps(c0 + j, v00);
            _mm256_storeu_ps(c0 + j + 8, v01);
            _mm256_storeu_ps(c1 + j, v10);
            _mm256_storeu_ps(c1 + j + 8, v11);
            _mm256_storeu_ps(c2 + j, v20);
            _mm256_storeu_ps(c2 + j + 8, v21);
            _mm256_storeu_ps(c3 + j, v30);
            _mm256_storeu_ps(c3 + j + 8, v31);
        }
        for (; j < n; ++j) {
            float s0 = 0, s1 = 0, s2 = 0, s3 = 0;
            for (idx_t kk = 0; kk < k; ++kk) {
                const float bv = b[static_cast<std::size_t>(kk) * n_sz + j];
                s0 += a0[kk] * bv;
                s1 += a1[kk] * bv;
                s2 += a2[kk] * bv;
                s3 += a3[kk] * bv;
            }
            c0[j] = s0;
            c1[j] = s1;
            c2[j] = s2;
            c3[j] = s3;
        }
    }
    for (; i < m; ++i) {
        const float *arow = a + static_cast<std::size_t>(i) * kk_sz;
        float *crow = c + static_cast<std::size_t>(i) * n_sz;
        for (idx_t kk = 0; kk < k; ++kk) {
            const __m256 w = _mm256_set1_ps(arow[kk]);
            const float *brow = b + static_cast<std::size_t>(kk) * n_sz;
            idx_t j = 0;
            for (; j + 8 <= n; j += 8)
                _mm256_storeu_ps(
                    crow + j,
                    _mm256_fmadd_ps(w, _mm256_loadu_ps(brow + j),
                                    _mm256_loadu_ps(crow + j)));
            for (; j < n; ++j)
                crow[j] += arow[kk] * brow[j];
        }
    }
}

/**
 * Interleaved streaming scan: the subspace-major 32-point blocks put
 * the 8 gather indices of a step in one contiguous 128-bit load, so
 * no code transpose is needed and the code stream is a pure
 * sequential read. Four accumulator chains (one per 8-point group of
 * the block) hide the gather+add latency.
 * Per-point accumulation order matches scalar exactly.
 */
JUNO_TARGET_AVX2 void
adcScanInterleavedAvx2(const float *lut, idx_t lut_stride,
                       idx_t /*entries*/, int subspaces,
                       const entry_t *blocks, std::size_t n, float base,
                       float *out)
{
    const auto stride = static_cast<std::size_t>(lut_stride);
    const std::size_t block_stride =
        32u * static_cast<std::size_t>(subspaces);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const entry_t *blk = blocks + (i / 32) * block_stride;
        __m256 acc0 = _mm256_set1_ps(base);
        __m256 acc1 = _mm256_set1_ps(base);
        __m256 acc2 = _mm256_set1_ps(base);
        __m256 acc3 = _mm256_set1_ps(base);
        for (int s = 0; s < subspaces; ++s) {
            const float *lrow =
                lut + static_cast<std::size_t>(s) * stride;
            const entry_t *row = blk + static_cast<std::size_t>(s) * 32;
            const __m256i e0 = _mm256_cvtepu16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row)));
            const __m256i e1 = _mm256_cvtepu16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row + 8)));
            const __m256i e2 = _mm256_cvtepu16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row + 16)));
            const __m256i e3 = _mm256_cvtepu16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row + 24)));
            acc0 = _mm256_add_ps(acc0,
                                 _mm256_i32gather_ps(lrow, e0, 4));
            acc1 = _mm256_add_ps(acc1,
                                 _mm256_i32gather_ps(lrow, e1, 4));
            acc2 = _mm256_add_ps(acc2,
                                 _mm256_i32gather_ps(lrow, e2, 4));
            acc3 = _mm256_add_ps(acc3,
                                 _mm256_i32gather_ps(lrow, e3, 4));
        }
        _mm256_storeu_ps(out + i, acc0);
        _mm256_storeu_ps(out + i + 8, acc1);
        _mm256_storeu_ps(out + i + 16, acc2);
        _mm256_storeu_ps(out + i + 24, acc3);
    }
    if (i < n) {
        // Partial tail block: 8-wide groups, then per-point scalar
        // with the same per-point accumulation order.
        const entry_t *blk = blocks + (i / 32) * block_stride;
        const std::size_t rem = n - i;
        std::size_t j = 0;
        for (; j + 8 <= rem; j += 8) {
            __m256 acc = _mm256_set1_ps(base);
            for (int s = 0; s < subspaces; ++s) {
                const float *lrow =
                    lut + static_cast<std::size_t>(s) * stride;
                const __m256i ev =
                    _mm256_cvtepu16_epi32(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(
                            blk + static_cast<std::size_t>(s) * 32 +
                            j)));
                acc = _mm256_add_ps(acc,
                                    _mm256_i32gather_ps(lrow, ev, 4));
            }
            _mm256_storeu_ps(out + i + j, acc);
        }
        for (; j < rem; ++j) {
            float acc = base;
            for (int s = 0; s < subspaces; ++s)
                acc += lut[static_cast<std::size_t>(s) * stride +
                           blk[static_cast<std::size_t>(s) * 32 + j]];
            out[i + j] = acc;
        }
    }
}

/**
 * Interleaved flag count, a 32-point block per step: a flag row of up
 * to 8 words sits in one register and vpermd picks each code's word
 * (code >> 5); longer rows are gathered. A shift by code & 31 and an
 * AND leave the flag, added into four 8-point counters. The tail block
 * is zero-padded by the layout, so it is counted whole and stored in
 * part.
 */
JUNO_TARGET_AVX2 void
flagCountInterleavedAvx2(const std::uint32_t *bits, idx_t word_stride,
                         idx_t entries, int subspaces,
                         const entry_t *blocks, std::size_t n,
                         std::int32_t *out)
{
    const auto stride = static_cast<std::size_t>(word_stride);
    const auto words = static_cast<int>((entries + 31) / 32);
    const bool in_register = words <= 8;
    const __m256i row_mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(words), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const __m256i low5 = _mm256_set1_epi32(31);
    const __m256i one = _mm256_set1_epi32(1);
    const std::size_t block_stride =
        32u * static_cast<std::size_t>(subspaces);
    for (std::size_t i = 0; i < n; i += 32) {
        const entry_t *blk = blocks + (i / 32) * block_stride;
        __m256i acc[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                          _mm256_setzero_si256(), _mm256_setzero_si256()};
        for (int s = 0; s < subspaces; ++s) {
            const auto *row = reinterpret_cast<const int *>(
                bits + static_cast<std::size_t>(s) * stride);
            const __m256i rowv = in_register
                ? _mm256_maskload_epi32(row, row_mask)
                : _mm256_setzero_si256();
            const entry_t *codes = blk + static_cast<std::size_t>(s) * 32;
            for (int g = 0; g < 4; ++g) {
                const __m256i code = _mm256_cvtepu16_epi32(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(codes + 8 * g)));
                const __m256i word_index = _mm256_srli_epi32(code, 5);
                const __m256i word = in_register
                    ? _mm256_permutevar8x32_epi32(rowv, word_index)
                    : _mm256_i32gather_epi32(row, word_index, 4);
                acc[g] = _mm256_add_epi32(
                    acc[g],
                    _mm256_and_si256(
                        _mm256_srlv_epi32(word, _mm256_and_si256(code, low5)),
                        one));
            }
        }
        alignas(32) std::int32_t counts[32];
        for (int g = 0; g < 4; ++g)
            _mm256_store_si256(reinterpret_cast<__m256i *>(counts + 8 * g),
                               acc[g]);
        std::memcpy(out + i, counts,
                    std::min<std::size_t>(32, n - i) * sizeof(std::int32_t));
    }
}

/**
 * 4-bit in-register fast scan: one 16-byte load yields the nibble
 * codes of all 32 points of a (block, subspace) pair, the u8 LUT row
 * is broadcast into both ymm lanes, and a single pshufb scores the
 * whole block. Scores accumulate into u16 even/odd lanes (no
 * overflow for subspaces <= 256) and are re-interleaved into point
 * order on store. Integer arithmetic throughout: results are
 * identical to the scalar reference bit for bit.
 */
JUNO_TARGET_AVX2 void
fastScanPq4Avx2(const std::uint8_t *packed, int subspaces,
                const std::uint8_t *lut, std::size_t n,
                std::uint16_t *qsums)
{
    const __m128i nib = _mm_set1_epi8(0x0F);
    const __m256i byte_mask = _mm256_set1_epi16(0x00FF);
    const std::size_t block_stride =
        16u * static_cast<std::size_t>(subspaces);
    for (std::size_t i = 0; i < n; i += 32) {
        const std::uint8_t *blk = packed + (i / 32) * block_stride;
        __m256i acc_even = _mm256_setzero_si256();
        __m256i acc_odd = _mm256_setzero_si256();
        for (int s = 0; s < subspaces; ++s) {
            const __m128i raw = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(
                    blk + static_cast<std::size_t>(s) * 16));
            const __m256i lutv =
                _mm256_broadcastsi128_si256(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(
                        lut + static_cast<std::size_t>(s) * 16)));
            const __m128i lo = _mm_and_si128(raw, nib);
            const __m128i hi =
                _mm_and_si128(_mm_srli_epi16(raw, 4), nib);
            // Lane 0 indexes points 0-15, lane 1 points 16-31; pshufb
            // shuffles each lane against the same 16-byte LUT row.
            const __m256i scores = _mm256_shuffle_epi8(
                lutv, _mm256_set_m128i(hi, lo));
            acc_even = _mm256_add_epi16(
                acc_even, _mm256_and_si256(scores, byte_mask));
            acc_odd = _mm256_add_epi16(acc_odd,
                                       _mm256_srli_epi16(scores, 8));
        }
        // acc_even u16 lanes hold even-numbered points of each 16-point
        // half, acc_odd the odd ones; unpack restores point order.
        const __m256i lo16 = _mm256_unpacklo_epi16(acc_even, acc_odd);
        const __m256i hi16 = _mm256_unpackhi_epi16(acc_even, acc_odd);
        const __m256i q0 = _mm256_permute2x128_si256(lo16, hi16, 0x20);
        const __m256i q1 = _mm256_permute2x128_si256(lo16, hi16, 0x31);
        if (i + 32 <= n) {
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(qsums + i), q0);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(qsums + i + 16), q1);
        } else {
            alignas(32) std::uint16_t tmp[32];
            _mm256_store_si256(reinterpret_cast<__m256i *>(tmp), q0);
            _mm256_store_si256(reinterpret_cast<__m256i *>(tmp + 16),
                               q1);
            std::memcpy(qsums + i, tmp,
                        (n - i) * sizeof(std::uint16_t));
        }
    }
}

/** Skips blocks of 8 untouched ordinals with one compare+movemask. */
JUNO_TARGET_AVX2 void
compactCandidatesAvx2(const float *acc, const std::int32_t *hits,
                      const idx_t *list, std::size_t n, float offset,
                      std::vector<Neighbor> &out)
{
    const __m256i zero = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i h = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(hits + i));
        const int zero_mask = _mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(h, zero)));
        unsigned live = static_cast<unsigned>(~zero_mask) & 0xFFu;
        while (live != 0) {
            const unsigned lane =
                static_cast<unsigned>(__builtin_ctz(live));
            live &= live - 1;
            out.push_back({list[i + lane], acc[i + lane] + offset});
        }
    }
    for (; i < n; ++i) {
        if (hits[i] != 0)
            out.push_back({list[i], acc[i] + offset});
    }
}

/**
 * The eight spheres from @p s as centre and radius planes: four loads
 * of two spheres each, then a 4x8 transpose in registers.
 */
JUNO_TARGET_AVX2 inline void
loadSpheresAvx2(const rt::Sphere *s, __m256 &cx, __m256 &cy, __m256 &cz,
                __m256 &r)
{
    const auto *f = reinterpret_cast<const float *>(s);
    const __m256 s01 = _mm256_loadu_ps(f), s23 = _mm256_loadu_ps(f + 8),
                 s45 = _mm256_loadu_ps(f + 16), s67 = _mm256_loadu_ps(f + 24);
    // Spheres j (low half) and j + 4 (high half) of each 128-bit lane.
    const __m256 s04 = _mm256_permute2f128_ps(s01, s45, 0x20);
    const __m256 s15 = _mm256_permute2f128_ps(s01, s45, 0x31);
    const __m256 s26 = _mm256_permute2f128_ps(s23, s67, 0x20);
    const __m256 s37 = _mm256_permute2f128_ps(s23, s67, 0x31);
    const __m256 xy01 = _mm256_unpacklo_ps(s04, s15); // x0 x1 y0 y1
    const __m256 zr01 = _mm256_unpackhi_ps(s04, s15); // z0 z1 r0 r1
    const __m256 xy23 = _mm256_unpacklo_ps(s26, s37);
    const __m256 zr23 = _mm256_unpackhi_ps(s26, s37);
    cx = _mm256_shuffle_ps(xy01, xy23, 0x44);
    cy = _mm256_shuffle_ps(xy01, xy23, 0xEE);
    cz = _mm256_shuffle_ps(zr01, zr23, 0x44);
    r = _mm256_shuffle_ps(zr01, zr23, 0xEE);
}

/**
 * Eight spheres per step in the lanes, the ray broadcast, through
 * sphereLanesAvx2 (the packet walk's sphere test). Hit lanes are
 * stored with one masked store at stride 1 and one by one otherwise;
 * the tail goes through the scalar cells.
 */
JUNO_TARGET_AVX2 std::uint32_t
sphereGateAvx2(const rt::Ray &ray, const rt::Sphere *spheres,
               std::size_t count, float *out, std::size_t stride)
{
    const float a_scalar = ray.dir.lengthSqr();
    const bool unit = a_scalar == 1.0f;
    const __m256 all = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
    const __m256 ox = _mm256_set1_ps(ray.origin.x),
                 oy = _mm256_set1_ps(ray.origin.y),
                 oz = _mm256_set1_ps(ray.origin.z);
    const __m256 dx = _mm256_set1_ps(ray.dir.x), dy = _mm256_set1_ps(ray.dir.y),
                 dz = _mm256_set1_ps(ray.dir.z);
    const __m256 a = _mm256_set1_ps(a_scalar);
    const __m256 tmin = _mm256_set1_ps(ray.tmin);
    const __m256 tmax = _mm256_set1_ps(ray.tmax);
    std::uint32_t hits = 0;
    const std::size_t full = count / 8 * 8;
    for (std::size_t e = 0; e < full; e += 8) {
        __m256 cx, cy, cz, r, t;
        loadSpheresAvx2(spheres + e, cx, cy, cz, r);
        std::uint32_t hit = sphereLanesAvx2(
            all, unit, _mm256_sub_ps(ox, cx), _mm256_sub_ps(oy, cy),
            _mm256_sub_ps(oz, cz), dx, dy, dz, a, _mm256_mul_ps(r, r), tmin,
            tmax, t);
        if (hit == 0)
            continue;
        hits += static_cast<std::uint32_t>(__builtin_popcount(hit));
        if (stride == 1) {
            _mm256_maskstore_ps(out + e, laneMaskAvx2(hit), t);
            continue;
        }
        alignas(32) float lanes[8];
        _mm256_store_ps(lanes, t);
        for (; hit != 0; hit &= hit - 1u) {
            const unsigned i = static_cast<unsigned>(__builtin_ctz(hit));
            out[(e + i) * stride] = lanes[i];
        }
    }
    return hits + sphereGateCells(ray, spheres, full, count, out, stride);
}

/**
 * Eight cells per step: each lane's tile column is gathered (or loaded,
 * for a one-lane packet) and converted with lutDelta's operations as
 * separate multiplies, adds and divides; the tail goes through the
 * scalar cells.
 */
JUNO_TARGET_AVX2 void
lutFinishAvx2(Metric metric, float radius_sqr, const float *tile,
              int lanes, std::size_t entries, const LutRow *rows)
{
    const auto stride = static_cast<std::size_t>(lanes);
    const __m256i index = _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(lanes));
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 r2 = _mm256_set1_ps(radius_sqr);
    const std::size_t full = entries / 8 * 8;
    for (int i = 0; i < lanes; ++i) {
        const LutRow &row = rows[i];
        const float *col = tile + i;
        const __m256 kappa_sqr = _mm256_set1_ps(row.kappa_sqr);
        const __m256 miss = _mm256_set1_ps(row.miss);
        const __m256 ip_base =
            _mm256_set1_ps(row.qnorm_scaled_sqr - radius_sqr);
        const __m256 tmax_inner = _mm256_set1_ps(row.tmax_inner);
        // Flag words fill eight bits per step; a word is stored when
        // full or when the vector steps end (the scalar tail ORs the
        // rest of it).
        std::uint32_t selected = 0, inner = 0;
        for (std::size_t e = 0; e < full; e += 8) {
            const __m256 t = lanes == 1
                ? _mm256_loadu_ps(col + e)
                : _mm256_i32gather_ps(col + e * stride, index, 4);
            const __m256 one_minus = _mm256_sub_ps(one, t);
            const __m256 sq = _mm256_mul_ps(one_minus, one_minus);
            const __m256 value = metric == Metric::kL2
                ? _mm256_div_ps(_mm256_sub_ps(r2, sq), kappa_sqr)
                : _mm256_div_ps(
                      _mm256_mul_ps(half, _mm256_add_ps(ip_base, sq)),
                      kappa_sqr);
            const __m256 hit = _mm256_cmp_ps(t, t, _CMP_ORD_Q);
            _mm256_storeu_ps(row.delta + e,
                             _mm256_and_ps(hit, _mm256_sub_ps(value, miss)));
            const std::size_t shift = e % 32;
            selected |= static_cast<std::uint32_t>(_mm256_movemask_ps(hit))
                        << shift;
            if (row.inner != nullptr)
                inner |= static_cast<std::uint32_t>(_mm256_movemask_ps(
                             _mm256_cmp_ps(t, tmax_inner, _CMP_LE_OQ)))
                         << shift;
            if (shift == 24 || e + 8 == full) {
                row.selected[e / 32] = selected;
                if (row.inner != nullptr)
                    row.inner[e / 32] = inner;
                selected = inner = 0;
            }
        }
        lutFinishCells(metric, radius_sqr, col, stride, full, entries, row);
    }
}

const Kernels kAvx2Table = {
    "avx2",
    &l2SqrAvx2,
    &innerProductAvx2,
    &l2NormSqrAvx2,
    &l2SqrBatchAvx2,
    &innerProductBatchAvx2,
    &gemmAvx2,
    &adcScanInterleavedAvx2,
    &flagCountInterleavedAvx2,
    &fastScanPq4Avx2,
    &compactCandidatesAvx2,
    &sphereGateAvx2,
    &lutFinishAvx2,
};

/** Lanes [0, count) of a 16-lane mask; all 16 when count >= 16. */
inline __mmask16
firstLanes(std::size_t count)
{
    return static_cast<__mmask16>(count >= 16 ? 0xFFFFu
                                              : (1u << count) - 1u);
}

/** Sixteen codes of one (block, subspace) row as 32-bit lanes. */
JUNO_TARGET_AVX512 inline __m512i
loadCodes16(const entry_t *codes)
{
    return _mm512_maskz_cvtepu16_epi32(
        static_cast<__mmask16>(-1),
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(codes)));
}

/**
 * LUT terms of sixteen codes from a row held in 2 * kPairs registers
 * (cells 16r .. 16r + 15 in row[r]): vpermt2ps looks each code up in
 * a 32-cell pair on its low five bits, and mask blends on code bits 5
 * and 6 keep the pair the code falls in. Halves are resolved before
 * they are joined, so at most log2(kPairs) + 1 terms are live.
 */
template <int kPairs>
JUNO_TARGET_AVX512 inline __m512
permuteLookup(const __m512 *row, __m512i code)
{
    if constexpr (kPairs == 1) {
        return _mm512_permutex2var_ps(row[0], code, row[1]);
    } else {
        // Code bit that splits the lower kPairs / 2 pairs from the upper.
        constexpr int bit = kPairs == 2 ? 5 : 6;
        const __m512 lower = permuteLookup<kPairs / 2>(row, code);
        const __m512 upper = permuteLookup<kPairs / 2>(row + kPairs, code);
        return _mm512_mask_blend_ps(
            _mm512_test_epi32_mask(code, _mm512_set1_epi32(1 << bit)), lower,
            upper);
    }
}

/**
 * Interleaved scan of rows of at most 32 * kPairs entries without
 * gathers, a 32-point block per step. One 512-bit load holds the
 * block's 32 codes of a subspace; an AND and a shift split them into
 * the even and the odd points' codes, each looked up in the row held
 * in registers (masked loads, zero past entries) by permuteLookup and
 * added to its chain, which starts at base, in subspace order. Two
 * vpermt2ps restore point order on store; the zero-padded tail block
 * is scanned whole and stored under a mask.
 */
template <int kPairs>
JUNO_TARGET_AVX512 void
adcScanPermute(const float *lut, std::size_t stride, std::size_t entries,
               int subspaces, const entry_t *blocks, std::size_t n,
               float base, float *out)
{
    const std::size_t block_stride =
        32u * static_cast<std::size_t>(subspaces);
    __mmask16 row_mask[2 * kPairs];
    for (int r = 0; r < 2 * kPairs; ++r) {
        const std::size_t e0 = 16 * static_cast<std::size_t>(r);
        row_mask[r] = e0 < entries ? firstLanes(entries - e0) : 0;
    }
    const __m512i low16 = _mm512_set1_epi32(0xFFFF);
    const __m512i first_half = _mm512_setr_epi32(
        0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
    const __m512i second_half = _mm512_setr_epi32(
        8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
    for (std::size_t i = 0; i < n; i += 32) {
        const entry_t *blk = blocks + (i / 32) * block_stride;
        __m512 even = _mm512_set1_ps(base);
        __m512 odd = _mm512_set1_ps(base);
        for (int s = 0; s < subspaces; ++s) {
            const float *lrow = lut + static_cast<std::size_t>(s) * stride;
            __m512 row[2 * kPairs];
            for (int r = 0; r < 2 * kPairs; ++r)
                row[r] = _mm512_maskz_loadu_ps(row_mask[r], lrow + 16 * r);
            const __m512i codes = _mm512_loadu_si512(
                blk + static_cast<std::size_t>(s) * 32);
            even = _mm512_add_ps(
                even,
                permuteLookup<kPairs>(row, _mm512_and_si512(codes, low16)));
            odd = _mm512_add_ps(
                odd, permuteLookup<kPairs>(
                         row, _mm512_maskz_srli_epi32(
                                  static_cast<__mmask16>(-1), codes, 16)));
        }
        _mm512_mask_storeu_ps(out + i, firstLanes(n - i),
                              _mm512_permutex2var_ps(even, first_half, odd));
        if (n - i > 16)
            _mm512_mask_storeu_ps(
                out + i + 16, firstLanes(n - i - 16),
                _mm512_permutex2var_ps(even, second_half, odd));
    }
}

/**
 * Interleaved scan. Rows of up to kAdcPermuteMaxEntries cells take the
 * gather-free adcScanPermute; longer rows gather 16 points at a time:
 * the block layout feeds each 16-wide gather's indices with one 256-bit
 * load, and two independent chains cover a whole 32-point block per
 * subspace step.
 */
JUNO_TARGET_AVX512 void
adcScanInterleavedAvx512(const float *lut, idx_t lut_stride, idx_t entries,
                         int subspaces, const entry_t *blocks,
                         std::size_t n, float base, float *out)
{
    static_assert(kAdcPermuteMaxEntries == 32 * 4,
                  "adcScanPermute holds at most four 32-cell pairs");
    const auto stride = static_cast<std::size_t>(lut_stride);
    if (entries <= kAdcPermuteMaxEntries) {
        const auto scan = entries <= 32  ? adcScanPermute<1>
                          : entries <= 64 ? adcScanPermute<2>
                                          : adcScanPermute<4>;
        scan(lut, stride, static_cast<std::size_t>(entries), subspaces,
             blocks, n, base, out);
        return;
    }
    const std::size_t block_stride =
        32u * static_cast<std::size_t>(subspaces);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const entry_t *blk = blocks + (i / 32) * block_stride;
        __m512 acc0 = _mm512_set1_ps(base);
        __m512 acc1 = _mm512_set1_ps(base);
        for (int s = 0; s < subspaces; ++s) {
            const float *lrow =
                lut + static_cast<std::size_t>(s) * stride;
            const entry_t *row = blk + static_cast<std::size_t>(s) * 32;
            const __m512i e0 = loadCodes16(row);
            const __m512i e1 = loadCodes16(row + 16);
            acc0 = _mm512_add_ps(
                acc0, _mm512_mask_i32gather_ps(_mm512_setzero_ps(),
                                               0xFFFF, e0, lrow, 4));
            acc1 = _mm512_add_ps(
                acc1, _mm512_mask_i32gather_ps(_mm512_setzero_ps(),
                                               0xFFFF, e1, lrow, 4));
        }
        _mm512_storeu_ps(out + i, acc0);
        _mm512_storeu_ps(out + i + 16, acc1);
    }
    if (i < n)
        // i is block-aligned, so the AVX2 path sees a fresh block.
        adcScanInterleavedAvx2(lut, lut_stride, entries, subspaces,
                               blocks + (i / 32) * block_stride, n - i,
                               base, out + i);
}

/**
 * flagCountInterleavedAvx2 with sixteen points per step: a flag row of
 * up to 16 words sits in one register for vpermd, longer rows are
 * gathered; the tail block's counts are stored under a mask.
 */
JUNO_TARGET_AVX512 void
flagCountInterleavedAvx512(const std::uint32_t *bits, idx_t word_stride,
                           idx_t entries, int subspaces,
                           const entry_t *blocks, std::size_t n,
                           std::int32_t *out)
{
    const auto stride = static_cast<std::size_t>(word_stride);
    const auto words = static_cast<std::size_t>((entries + 31) / 32);
    const bool in_register = words <= 16;
    const __mmask16 row_mask = firstLanes(words);
    // The maskz forms with every lane set: GCC 12's unmasked forms
    // read an undefined source and trip -Wmaybe-uninitialized.
    const auto all = static_cast<__mmask16>(-1);
    const __m512i low5 = _mm512_set1_epi32(31);
    const __m512i one = _mm512_set1_epi32(1);
    const std::size_t block_stride =
        32u * static_cast<std::size_t>(subspaces);
    for (std::size_t i = 0; i < n; i += 32) {
        const entry_t *blk = blocks + (i / 32) * block_stride;
        __m512i acc[2] = {_mm512_setzero_si512(), _mm512_setzero_si512()};
        for (int s = 0; s < subspaces; ++s) {
            const std::uint32_t *row =
                bits + static_cast<std::size_t>(s) * stride;
            const __m512i rowv = in_register
                ? _mm512_maskz_loadu_epi32(row_mask, row)
                : _mm512_setzero_si512();
            const entry_t *codes = blk + static_cast<std::size_t>(s) * 32;
            for (int g = 0; g < 2; ++g) {
                const __m512i code = loadCodes16(codes + 16 * g);
                const __m512i word_index =
                    _mm512_maskz_srli_epi32(all, code, 5);
                const __m512i word = in_register
                    ? _mm512_maskz_permutexvar_epi32(all, word_index, rowv)
                    : _mm512_mask_i32gather_epi32(_mm512_setzero_si512(),
                                                  all, word_index, row, 4);
                acc[g] = _mm512_add_epi32(
                    acc[g],
                    _mm512_and_si512(
                        _mm512_maskz_srlv_epi32(
                            all, word, _mm512_and_si512(code, low5)),
                        one));
            }
        }
        for (int g = 0; g < 2; ++g) {
            const std::size_t first = i + 16 * static_cast<std::size_t>(g);
            if (first < n)
                _mm512_mask_storeu_epi32(out + first, firstLanes(n - first),
                                         acc[g]);
        }
    }
}

/**
 * 4-bit fast scan over two blocks (64 points) per step: the four
 * 128-bit lanes of the 512-bit shuffle hold both nibble halves of
 * both blocks against the same broadcast LUT row.
 */
JUNO_TARGET_AVX512 void
fastScanPq4Avx512(const std::uint8_t *packed, int subspaces,
                  const std::uint8_t *lut, std::size_t n,
                  std::uint16_t *qsums)
{
    const __m128i nib = _mm_set1_epi8(0x0F);
    const __m512i byte_mask = _mm512_set1_epi16(0x00FF);
    // Restore point order across the four 128-bit lanes on store.
    const __m512i perm0 = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
    const __m512i perm1 = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
    const std::size_t block_stride =
        16u * static_cast<std::size_t>(subspaces);
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        const std::uint8_t *b0 = packed + (i / 32) * block_stride;
        const std::uint8_t *b1 = b0 + block_stride;
        __m512i acc_even = _mm512_setzero_si512();
        __m512i acc_odd = _mm512_setzero_si512();
        for (int s = 0; s < subspaces; ++s) {
            const __m128i r0 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(
                    b0 + static_cast<std::size_t>(s) * 16));
            const __m128i r1 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(
                    b1 + static_cast<std::size_t>(s) * 16));
            const __m512i lutv = _mm512_maskz_broadcast_i32x4(
                static_cast<__mmask16>(-1),
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    lut + static_cast<std::size_t>(s) * 16)));
            const __m128i l0 = _mm_and_si128(r0, nib);
            const __m128i h0 =
                _mm_and_si128(_mm_srli_epi16(r0, 4), nib);
            const __m128i l1 = _mm_and_si128(r1, nib);
            const __m128i h1 =
                _mm_and_si128(_mm_srli_epi16(r1, 4), nib);
            const __m512i idx = _mm512_maskz_inserti64x4(
                static_cast<__mmask8>(-1),
                _mm512_maskz_inserti64x4(static_cast<__mmask8>(-1),
                                         _mm512_setzero_si512(),
                                         _mm256_set_m128i(h0, l0), 0),
                _mm256_set_m128i(h1, l1), 1);
            const __m512i scores = _mm512_shuffle_epi8(lutv, idx);
            acc_even = _mm512_add_epi16(
                acc_even, _mm512_and_si512(scores, byte_mask));
            acc_odd = _mm512_add_epi16(acc_odd,
                                       _mm512_srli_epi16(scores, 8));
        }
        const __m512i lo16 = _mm512_unpacklo_epi16(acc_even, acc_odd);
        const __m512i hi16 = _mm512_unpackhi_epi16(acc_even, acc_odd);
        _mm512_storeu_si512(
            qsums + i, _mm512_permutex2var_epi64(lo16, perm0, hi16));
        _mm512_storeu_si512(
            qsums + i + 32,
            _mm512_permutex2var_epi64(lo16, perm1, hi16));
    }
    if (i < n)
        fastScanPq4Avx2(packed + (i / 32) * block_stride, subspaces, lut,
                        n - i, qsums + i);
}

/**
 * The first @p n (at most 16) spheres from @p s as centre and radius
 * planes: four masked loads of four spheres each (spheres past @p n
 * are not read and read as 0), then a 4x16 transpose in registers.
 */
JUNO_TARGET_AVX512 inline void
loadSpheresAvx512(const rt::Sphere *s, std::size_t n, __m512 &cx,
                  __m512 &cy, __m512 &cz, __m512 &r)
{
    const auto *f = reinterpret_cast<const float *>(s);
    const std::size_t floats = 4 * std::min<std::size_t>(n, 16);
    __m512 quad[4];
    for (std::size_t q = 0; q < 4; ++q)
        quad[q] = _mm512_maskz_loadu_ps(
            firstLanes(floats > 16 * q ? floats - 16 * q : 0), f + 16 * q);
    // Components x, y of spheres 0-7 (8-15), then z, r.
    const __m512i xy = _mm512_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28, 1, 5,
                                         9, 13, 17, 21, 25, 29);
    const __m512i zr = _mm512_setr_epi32(2, 6, 10, 14, 18, 22, 26, 30, 3, 7,
                                         11, 15, 19, 23, 27, 31);
    const __m512 xy_lo = _mm512_permutex2var_ps(quad[0], xy, quad[1]);
    const __m512 zr_lo = _mm512_permutex2var_ps(quad[0], zr, quad[1]);
    const __m512 xy_hi = _mm512_permutex2var_ps(quad[2], xy, quad[3]);
    const __m512 zr_hi = _mm512_permutex2var_ps(quad[2], zr, quad[3]);
    const __m512i first = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 16, 17,
                                            18, 19, 20, 21, 22, 23);
    const __m512i second = _mm512_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15,
                                             24, 25, 26, 27, 28, 29, 30, 31);
    cx = _mm512_permutex2var_ps(xy_lo, first, xy_hi);
    cy = _mm512_permutex2var_ps(xy_lo, second, xy_hi);
    cz = _mm512_permutex2var_ps(zr_lo, first, zr_hi);
    r = _mm512_permutex2var_ps(zr_lo, second, zr_hi);
}

/**
 * sphereGateAvx2 sixteen spheres per step through sphereLanesAvx512,
 * with the tail as one masked step (masked-off spheres are neither
 * loaded nor stored); hit lanes at stride > 1 are scattered.
 */
JUNO_TARGET_AVX512 std::uint32_t
sphereGateAvx512(const rt::Ray &ray, const rt::Sphere *spheres,
                 std::size_t count, float *out, std::size_t stride)
{
    const float a_scalar = ray.dir.lengthSqr();
    const bool unit = a_scalar == 1.0f;
    const __m512 ox = _mm512_set1_ps(ray.origin.x),
                 oy = _mm512_set1_ps(ray.origin.y),
                 oz = _mm512_set1_ps(ray.origin.z);
    const __m512 dx = _mm512_set1_ps(ray.dir.x), dy = _mm512_set1_ps(ray.dir.y),
                 dz = _mm512_set1_ps(ray.dir.z);
    const __m512 a = _mm512_set1_ps(a_scalar);
    const __m512 tmin = _mm512_set1_ps(ray.tmin);
    const __m512 tmax = _mm512_set1_ps(ray.tmax);
    const __m512i index = _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15),
        _mm512_set1_epi32(static_cast<int>(stride)));
    std::uint32_t hits = 0;
    for (std::size_t e = 0; e < count; e += 16) {
        __m512 cx, cy, cz, r, t;
        loadSpheresAvx512(spheres + e, count - e, cx, cy, cz, r);
        const __mmask16 hit = sphereLanesAvx512(
            firstLanes(count - e), unit, _mm512_sub_ps(ox, cx),
            _mm512_sub_ps(oy, cy), _mm512_sub_ps(oz, cz), dx, dy, dz, a,
            _mm512_mul_ps(r, r), tmin, tmax, t);
        if (stride == 1)
            _mm512_mask_storeu_ps(out + e, hit, t);
        else
            _mm512_mask_i32scatter_ps(out + e * stride, hit, index, t, 4);
        hits += static_cast<std::uint32_t>(__builtin_popcount(hit));
    }
    return hits;
}

/**
 * lutFinishAvx2 sixteen cells per step, with the tail as one masked
 * step: masked-off cells are neither gathered nor stored.
 */
JUNO_TARGET_AVX512 void
lutFinishAvx512(Metric metric, float radius_sqr, const float *tile,
                int lanes, std::size_t entries, const LutRow *rows)
{
    const __m512i index = _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15),
        _mm512_set1_epi32(lanes));
    const __m512 one = _mm512_set1_ps(1.0f);
    const __m512 half = _mm512_set1_ps(0.5f);
    const __m512 r2 = _mm512_set1_ps(radius_sqr);
    const auto stride = static_cast<std::size_t>(lanes);
    for (int i = 0; i < lanes; ++i) {
        const LutRow &row = rows[i];
        const float *col = tile + i;
        const __m512 kappa_sqr = _mm512_set1_ps(row.kappa_sqr);
        const __m512 miss = _mm512_set1_ps(row.miss);
        const __m512 ip_base =
            _mm512_set1_ps(row.qnorm_scaled_sqr - radius_sqr);
        const __m512 tmax_inner = _mm512_set1_ps(row.tmax_inner);
        // Sixteen flag bits per step: the compare masks themselves; a
        // word is stored when full or at the row's end.
        std::uint32_t selected = 0, inner = 0;
        for (std::size_t e = 0; e < entries; e += 16) {
            const __mmask16 valid = firstLanes(entries - e);
            const __m512 t = lanes == 1
                ? _mm512_maskz_loadu_ps(valid, col + e)
                : _mm512_mask_i32gather_ps(_mm512_setzero_ps(), valid,
                                           index, col + e * stride, 4);
            const __m512 one_minus = _mm512_sub_ps(one, t);
            const __m512 sq = _mm512_mul_ps(one_minus, one_minus);
            const __m512 value = metric == Metric::kL2
                ? _mm512_div_ps(_mm512_sub_ps(r2, sq), kappa_sqr)
                : _mm512_div_ps(
                      _mm512_mul_ps(half, _mm512_add_ps(ip_base, sq)),
                      kappa_sqr);
            const __mmask16 hit =
                _mm512_mask_cmp_ps_mask(valid, t, t, _CMP_ORD_Q);
            _mm512_mask_storeu_ps(
                row.delta + e, valid,
                _mm512_maskz_sub_ps(hit, value, miss));
            const std::size_t shift = e % 32;
            selected |= static_cast<std::uint32_t>(hit) << shift;
            if (row.inner != nullptr)
                inner |= static_cast<std::uint32_t>(_mm512_mask_cmp_ps_mask(
                             valid, t, tmax_inner, _CMP_LE_OQ))
                         << shift;
            if (shift == 16 || e + 16 >= entries) {
                row.selected[e / 32] = selected;
                if (row.inner != nullptr)
                    row.inner[e / 32] = inner;
                selected = inner = 0;
            }
        }
    }
}

/**
 * AVX2 table with the wider interleaved scan, flag count and fast scan
 * kernels, the sixteen-sphere gate and the sixteen-cell LUT finish
 * swapped in.
 */
const Kernels kAvx512Table = {
    "avx512",
    &l2SqrAvx2,
    &innerProductAvx2,
    &l2NormSqrAvx2,
    &l2SqrBatchAvx2,
    &innerProductBatchAvx2,
    &gemmAvx2,
    &adcScanInterleavedAvx512,
    &flagCountInterleavedAvx512,
    &fastScanPq4Avx512,
    &compactCandidatesAvx2,
    &sphereGateAvx512,
    &lutFinishAvx512,
};
#endif // JUNO_SIMD_X86

std::atomic<const Kernels *> g_active{nullptr};

const Kernels *
selectInitial()
{
    const char *env = std::getenv("JUNO_SIMD");
    return &table(parseLevel(env));
}

} // namespace

bool
supported(Level lvl)
{
    switch (lvl) {
      case Level::kScalar:
        return true;
      case Level::kAvx2:
#if JUNO_SIMD_X86
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma") &&
               __builtin_cpu_supports("popcnt");
#else
        return false;
#endif
      case Level::kAvx512:
#if JUNO_SIMD_X86
        return supported(Level::kAvx2) &&
               __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512vl");
#else
        return false;
#endif
    }
    return false;
}

Level
bestSupported()
{
    if (supported(Level::kAvx512))
        return Level::kAvx512;
    return supported(Level::kAvx2) ? Level::kAvx2 : Level::kScalar;
}

const Kernels &
table(Level lvl)
{
#if JUNO_SIMD_X86
    if (lvl == Level::kAvx512 && supported(Level::kAvx512))
        return kAvx512Table;
    if (lvl != Level::kScalar && supported(Level::kAvx2))
        return kAvx2Table;
#else
    (void)lvl;
#endif
    return kScalarTable;
}

const Kernels &
active()
{
    const Kernels *t = g_active.load(std::memory_order_acquire);
    if (t == nullptr) {
        // First use; a concurrent first use selects the same table, so
        // the race is benign.
        t = selectInitial();
        g_active.store(t, std::memory_order_release);
    }
    return *t;
}

Level
level()
{
    const Kernels *t = &active();
#if JUNO_SIMD_X86
    if (t == &kAvx512Table)
        return Level::kAvx512;
    if (t == &kAvx2Table)
        return Level::kAvx2;
#endif
    (void)t;
    return Level::kScalar;
}

bool
setLevel(Level lvl)
{
    if (!supported(lvl))
        return false;
    g_active.store(&table(lvl), std::memory_order_release);
    return true;
}

const char *
levelName(Level lvl)
{
    switch (lvl) {
      case Level::kScalar:
        return "scalar";
      case Level::kAvx2:
        return "avx2";
      case Level::kAvx512:
        return "avx512";
    }
    return "?";
}

Level
parseLevel(const char *spec)
{
    if (spec == nullptr || *spec == '\0')
        return bestSupported();
    const std::string s(spec);
    if (s == "auto")
        return bestSupported();
    if (s == "scalar")
        return Level::kScalar;
    if (s == "avx2" || s == "avx512") {
        const Level want =
            s == "avx2" ? Level::kAvx2 : Level::kAvx512;
        if (supported(want))
            return want;
        warn("JUNO_SIMD=" + s +
             " requested but this host does not support it; using "
             "best supported level");
        return std::min(bestSupported(), want);
    }
    warn("unknown JUNO_SIMD value '" + s +
         "' (expected scalar|avx2|avx512|auto); using best supported "
         "level");
    return bestSupported();
}

} // namespace simd
} // namespace juno
