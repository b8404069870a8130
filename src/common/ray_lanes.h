/**
 * @file
 * Per-level ray-packet lane operations of the packet-walk kernel
 * (rtcore/packet_walk.cc), which inlines them into one BVH walk per
 * dispatch level, plus the target macros the dispatch table's SIMD
 * kernels (common/simd.cc) are compiled with. Library-internal: only
 * those two files and the kernel tests include it.
 *
 * Each level type loads a simd::RayLanes packet once and offers
 *  - box(active, lo, hi): the active lanes whose ray interval overlaps
 *    the box, per lane exactly rt::Aabb::hitBy;
 *  - sphere(active, centre, radius, t): the active lanes that hit the
 *    sphere, per lane exactly rt::intersectSphere, with their hit
 *    times in t;
 *  - store(t, mask, dst): dst[i] = t[i] for every lane i in mask; the
 *    other dst slots are neither read nor written;
 *  - count(mask): the lanes in mask, without a libgcc call,
 * and returns the same masks and hit-time bits at every level. The
 * scalar type visits only the active lanes, the AVX2 type runs two
 * kRayHalfLanes halves and skips a half with no active lane, and the
 * AVX-512 type holds all kRayLanes lanes of every ray component in
 * registers.
 *
 * The SIMD sphere tests go through one helper per tier,
 * sphereLanesAvx2 / sphereLanesAvx512, which the dense gate
 * (simd::Kernels::sphere_gate) calls too with the ray broadcast and
 * the spheres in the lanes.
 */
#ifndef JUNO_COMMON_RAY_LANES_H
#define JUNO_COMMON_RAY_LANES_H

#include <cmath>
#include <cstdint>
#include <utility>

#include "common/simd.h"
#include "rtcore/geometry.h"

#if defined(__x86_64__) || defined(__i386__)
#define JUNO_SIMD_X86 1
#include <immintrin.h>
/**
 * Compiles one function for AVX2+FMA without -mavx2 on the whole TU;
 * popcnt rides along (every AVX2 host has it) so lane counts stay in
 * one instruction.
 */
#define JUNO_TARGET_AVX2 __attribute__((target("avx2,fma,popcnt")))
/** Same for the AVX-512 subset the 16-wide kernels need. */
#define JUNO_TARGET_AVX512                                                  \
    __attribute__((target("avx512f,avx512bw,avx512vl,avx2,fma,popcnt")))
#else
#define JUNO_SIMD_X86 0
#endif

namespace juno {
namespace simd {

/**
 * Lanes set in @p mask. Written out (SWAR) because __builtin_popcount
 * becomes a libgcc call on a baseline x86-64 target.
 */
inline int
laneCountScalar(std::uint32_t mask)
{
    mask = mask - ((mask >> 1) & 0x55555555u);
    mask = (mask & 0x33333333u) + ((mask >> 2) & 0x33333333u);
    mask = (mask + (mask >> 4)) & 0x0F0F0F0Fu;
    return static_cast<int>((mask * 0x01010101u) >> 24);
}

/**
 * Scalar lanes: rt::Aabb::hitBy (written out) and rt::intersectSphere
 * (called) per lane.
 */
class ScalarRayLanes {
  public:
    struct Times {
        float t[kRayLanes];
    };

    explicit ScalarRayLanes(const RayLanes &rays) : r_(rays) {}

    std::uint32_t
    box(std::uint32_t active, float lo_x, float lo_y, float lo_z,
        float hi_x, float hi_y, float hi_z) const
    {
        std::uint32_t hit = 0;
        for (std::uint32_t m = active; m != 0; m &= m - 1u) {
            const int i = __builtin_ctz(m);
            float t0 = r_.tmin[i], t1 = r_.tmax[i];
            if (slab(lo_x, hi_x, r_.ox[i], r_.ix[i], t0, t1) &&
                slab(lo_y, hi_y, r_.oy[i], r_.iy[i], t0, t1) &&
                slab(lo_z, hi_z, r_.oz[i], r_.iz[i], t0, t1))
                hit |= 1u << i;
        }
        return hit;
    }

    std::uint32_t
    sphere(std::uint32_t active, float cx, float cy, float cz,
           float radius, Times &thit) const
    {
        rt::Sphere sphere;
        sphere.center = {cx, cy, cz};
        sphere.radius = radius;
        std::uint32_t hit = 0;
        for (std::uint32_t m = active; m != 0; m &= m - 1u) {
            const int i = __builtin_ctz(m);
            rt::Ray ray;
            ray.origin = {r_.ox[i], r_.oy[i], r_.oz[i]};
            ray.dir = {r_.dx[i], r_.dy[i], r_.dz[i]};
            ray.tmin = r_.tmin[i];
            ray.tmax = r_.tmax[i];
            if (rt::intersectSphere(ray, sphere, thit.t[i]))
                hit |= 1u << i;
        }
        return hit;
    }

    static void
    store(const Times &thit, std::uint32_t mask, float *dst)
    {
        for (; mask != 0; mask &= mask - 1u) {
            const int i = __builtin_ctz(mask);
            dst[i] = thit.t[i];
        }
    }

    static int count(std::uint32_t mask) { return laneCountScalar(mask); }

  private:
    /**
     * One axis of rt::Aabb::hitBy verbatim (same operations, order and
     * early exits).
     */
    static bool
    slab(float lo, float hi, float origin, float inv, float &t0, float &t1)
    {
        float a0 = (lo - origin) * inv;
        float a1 = (hi - origin) * inv;
        if (a0 > a1)
            std::swap(a0, a1);
        // min/max with NaN-suppression: if a is NaN keep t.
        t0 = a0 > t0 ? a0 : t0;
        t1 = a1 < t1 ? a1 : t1;
        return !(t0 > t1);
    }

    const RayLanes &r_;
};

#if JUNO_SIMD_X86

/** Lane i all-ones where bit i of @p mask (eight lanes) is set. */
JUNO_TARGET_AVX2 inline __m256i
laneMaskAvx2(std::uint32_t mask)
{
    const __m256i bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    return _mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_set1_epi32(static_cast<int>(mask)), bit),
        bit);
}

/**
 * rt::intersectSphere on eight ray/sphere pairs, one per lane, with
 * separate multiplies and adds (no FMA) in the scalar evaluation
 * order: oc = origin - centre, d the direction, a = |d|^2, r2 the
 * squared radius (the float product radius * radius) and [tmin, tmax]
 * the interval. The packet walk broadcasts the sphere and the dense
 * gate broadcasts the ray; both call this. Ordered compares are false
 * on NaN, so a NaN discriminant passes as it does in the scalar code.
 * Two skips keep every counted lane's bits: x / 1.0f is x exactly (a
 * quiet NaN passes through unchanged), so with @p unit (a is 1 in
 * every lane of @p act) the divisions are skipped, as for JUNO's unit
 * +z rays; and the exit root is computed only when a lane of @p act
 * (all-ones lanes) has its entry root before tmin. Returns the hit
 * mask of the eight lanes, their hit times in @p thit; lanes outside
 * @p act are unspecified.
 */
JUNO_TARGET_AVX2 inline std::uint32_t
sphereLanesAvx2(__m256 act, bool unit, __m256 ocx, __m256 ocy, __m256 ocz,
                __m256 dx, __m256 dy, __m256 dz, __m256 a, __m256 r2,
                __m256 tmin, __m256 tmax, __m256 &thit)
{
    const __m256 half_b = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(ocx, dx), _mm256_mul_ps(ocy, dy)),
        _mm256_mul_ps(ocz, dz));
    const __m256 c = _mm256_sub_ps(
        _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(ocx, ocx),
                                    _mm256_mul_ps(ocy, ocy)),
                      _mm256_mul_ps(ocz, ocz)),
        r2);
    const __m256 disc =
        _mm256_sub_ps(_mm256_mul_ps(half_b, half_b), _mm256_mul_ps(a, c));
    const __m256 sqrt_disc = _mm256_sqrt_ps(disc);
    const __m256 neg_half_b = _mm256_xor_ps(half_b, _mm256_set1_ps(-0.0f));
    __m256 t = _mm256_sub_ps(neg_half_b, sqrt_disc);
    if (!unit)
        t = _mm256_div_ps(t, a);
    const __m256 exit_lanes =
        _mm256_and_ps(act, _mm256_cmp_ps(t, tmin, _CMP_LT_OQ));
    if (!_mm256_testz_ps(exit_lanes, exit_lanes)) {
        __m256 t_exit = _mm256_add_ps(neg_half_b, sqrt_disc);
        if (!unit)
            t_exit = _mm256_div_ps(t_exit, a);
        t = _mm256_blendv_ps(t, t_exit, exit_lanes);
    }
    const __m256 miss = _mm256_or_ps(
        _mm256_cmp_ps(disc, _mm256_setzero_ps(), _CMP_LT_OQ),
        _mm256_or_ps(_mm256_cmp_ps(t, tmin, _CMP_LT_OQ),
                     _mm256_cmp_ps(t, tmax, _CMP_GT_OQ)));
    thit = t;
    return static_cast<std::uint32_t>(~_mm256_movemask_ps(miss) & 0xFF);
}

/** Two eight-lane halves; a half with no active lane is skipped. */
class Avx2RayLanes {
  public:
    struct Times {
        __m256 half[2];
    };

    explicit Avx2RayLanes(const RayLanes &rays) : r_(rays) {}

    JUNO_TARGET_AVX2 std::uint32_t
    box(std::uint32_t active, float lo_x, float lo_y, float lo_z,
        float hi_x, float hi_y, float hi_z) const
    {
        std::uint32_t hit = 0;
        for (int h = 0; h < 2; ++h) {
            const int lane0 = h * kRayHalfLanes;
            if ((active >> lane0 & 0xFFu) == 0)
                continue;
            __m256 t0 = _mm256_load_ps(r_.tmin + lane0);
            __m256 t1 = _mm256_load_ps(r_.tmax + lane0);
            slab(lo_x, hi_x, r_.ox + lane0, r_.ix + lane0, t0, t1);
            slab(lo_y, hi_y, r_.oy + lane0, r_.iy + lane0, t0, t1);
            slab(lo_z, hi_z, r_.oz + lane0, r_.iz + lane0, t0, t1);
            hit |= static_cast<std::uint32_t>(_mm256_movemask_ps(
                       _mm256_cmp_ps(t0, t1, _CMP_LE_OQ)))
                   << lane0;
        }
        return hit & active;
    }

    JUNO_TARGET_AVX2 std::uint32_t
    sphere(std::uint32_t active, float cx, float cy, float cz,
           float radius, Times &thit) const
    {
        std::uint32_t hit = 0;
        for (int h = 0; h < 2; ++h) {
            const int lane0 = h * kRayHalfLanes;
            const std::uint32_t half = active >> lane0 & 0xFFu;
            if (half != 0)
                hit |= sphereHalf(lane0, half, cx, cy, cz, radius,
                                  thit.half[h])
                       << lane0;
            else
                thit.half[h] = _mm256_setzero_ps(); // never stored
        }
        return hit & active;
    }

    /**
     * vmaskmovps writes only the selected lanes and does not fault on
     * the others; a half with no selected lane is not touched at all.
     */
    JUNO_TARGET_AVX2 static void
    store(const Times &thit, std::uint32_t mask, float *dst)
    {
        for (int h = 0; h < 2; ++h) {
            const std::uint32_t half = mask >> (h * kRayHalfLanes) & 0xFFu;
            if (half != 0)
                _mm256_maskstore_ps(dst + h * kRayHalfLanes,
                                    laneMaskAvx2(half), thit.half[h]);
        }
    }

    JUNO_TARGET_AVX2 static int
    count(std::uint32_t mask)
    {
        return __builtin_popcount(mask);
    }

  private:
    /**
     * One axis of rt::Aabb::hitBy on eight lanes. max_ps(a, b) is
     * `a > b ? a : b` and min_ps(a, b) is `a < b ? a : b`, operand for
     * operand the scalar selects, so NaN slabs are suppressed exactly
     * as in hitBy. The early exits of hitBy need no counterpart: t0
     * only grows and t1 only shrinks, so a lane that fails one axis
     * fails the final compare.
     */
    JUNO_TARGET_AVX2 static void
    slab(float lo, float hi, const float *origin, const float *inv,
         __m256 &t0, __m256 &t1)
    {
        const __m256 o = _mm256_load_ps(origin);
        const __m256 v = _mm256_load_ps(inv);
        const __m256 a0 =
            _mm256_mul_ps(_mm256_sub_ps(_mm256_set1_ps(lo), o), v);
        const __m256 a1 =
            _mm256_mul_ps(_mm256_sub_ps(_mm256_set1_ps(hi), o), v);
        // if (a0 > a1) swap(a0, a1): near = a1 < a0 ? a1 : a0.
        const __m256 near = _mm256_min_ps(a1, a0);
        const __m256 far = _mm256_max_ps(a0, a1);
        t0 = _mm256_max_ps(near, t0);
        t1 = _mm256_min_ps(far, t1);
    }

    /**
     * sphereLanesAvx2 on the eight lanes from @p lane0 (@p active: the
     * half's lane mask) against one sphere. Returns the hit mask of
     * the eight lanes.
     */
    JUNO_TARGET_AVX2 std::uint32_t
    sphereHalf(int lane0, std::uint32_t active, float cx, float cy,
               float cz, float radius, __m256 &thit) const
    {
        const __m256 dx = _mm256_load_ps(r_.dx + lane0);
        const __m256 dy = _mm256_load_ps(r_.dy + lane0);
        const __m256 dz = _mm256_load_ps(r_.dz + lane0);
        const __m256 a = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
            _mm256_mul_ps(dz, dz));
        const __m256 act = _mm256_castsi256_ps(laneMaskAvx2(active));
        const bool unit = _mm256_testz_ps(
            act, _mm256_cmp_ps(a, _mm256_set1_ps(1.0f), _CMP_NEQ_UQ));
        return sphereLanesAvx2(
            act, unit,
            _mm256_sub_ps(_mm256_load_ps(r_.ox + lane0), _mm256_set1_ps(cx)),
            _mm256_sub_ps(_mm256_load_ps(r_.oy + lane0), _mm256_set1_ps(cy)),
            _mm256_sub_ps(_mm256_load_ps(r_.oz + lane0), _mm256_set1_ps(cz)),
            dx, dy, dz, a, _mm256_set1_ps(radius * radius),
            _mm256_load_ps(r_.tmin + lane0), _mm256_load_ps(r_.tmax + lane0),
            thit);
    }

    const RayLanes &r_;
};

/** All sixteen lanes; the zero-masking forms with a full mask (as in
 * simd.cc) avoid GCC 12's -Wuninitialized false positive on the
 * unmasked 512-bit min/max/sqrt intrinsics. */
constexpr __mmask16 kAllLanes16 = 0xFFFF;

/**
 * sphereLanesAvx2 on sixteen lanes, the compares producing k-masks:
 * the same operations in the same order, so the same bits. Returns the
 * lanes of @p act that hit.
 */
JUNO_TARGET_AVX512 inline __mmask16
sphereLanesAvx512(__mmask16 act, bool unit, __m512 ocx, __m512 ocy,
                  __m512 ocz, __m512 dx, __m512 dy, __m512 dz, __m512 a,
                  __m512 r2, __m512 tmin, __m512 tmax, __m512 &thit)
{
    const __m512 half_b = _mm512_add_ps(
        _mm512_add_ps(_mm512_mul_ps(ocx, dx), _mm512_mul_ps(ocy, dy)),
        _mm512_mul_ps(ocz, dz));
    const __m512 c = _mm512_sub_ps(
        _mm512_add_ps(_mm512_add_ps(_mm512_mul_ps(ocx, ocx),
                                    _mm512_mul_ps(ocy, ocy)),
                      _mm512_mul_ps(ocz, ocz)),
        r2);
    const __m512 disc =
        _mm512_sub_ps(_mm512_mul_ps(half_b, half_b), _mm512_mul_ps(a, c));
    const __m512 sqrt_disc = _mm512_maskz_sqrt_ps(kAllLanes16, disc);
    // Sign flip by integer xor: vxorps on zmm needs AVX512DQ.
    const __m512 neg_half_b = _mm512_castsi512_ps(_mm512_xor_si512(
        _mm512_castps_si512(half_b), _mm512_set1_epi32(INT32_MIN)));
    __m512 t = _mm512_sub_ps(neg_half_b, sqrt_disc);
    if (!unit)
        t = _mm512_div_ps(t, a);
    const __mmask16 exit_lanes =
        _mm512_mask_cmp_ps_mask(act, t, tmin, _CMP_LT_OQ);
    if (exit_lanes != 0) {
        __m512 t_exit = _mm512_add_ps(neg_half_b, sqrt_disc);
        if (!unit)
            t_exit = _mm512_div_ps(t_exit, a);
        t = _mm512_mask_blend_ps(exit_lanes, t, t_exit);
    }
    const __mmask16 miss =
        _mm512_cmp_ps_mask(disc, _mm512_setzero_ps(), _CMP_LT_OQ) |
        _mm512_cmp_ps_mask(t, tmin, _CMP_LT_OQ) |
        _mm512_cmp_ps_mask(t, tmax, _CMP_GT_OQ);
    thit = t;
    return static_cast<__mmask16>(act & ~miss);
}

/**
 * All sixteen lanes of every ray component in zmm registers, loaded
 * once per packet; Avx2RayLanes' operations in the same order, with
 * the compares producing k-masks. |d|^2 and its unit-lane mask depend
 * only on the ray, so they are computed once here rather than per
 * sphere (the same operations, so the same bits).
 */
class Avx512RayLanes {
  public:
    using Times = __m512;

    JUNO_TARGET_AVX512 explicit Avx512RayLanes(const RayLanes &r)
        : ox_(_mm512_load_ps(r.ox)), oy_(_mm512_load_ps(r.oy)),
          oz_(_mm512_load_ps(r.oz)), dx_(_mm512_load_ps(r.dx)),
          dy_(_mm512_load_ps(r.dy)), dz_(_mm512_load_ps(r.dz)),
          ix_(_mm512_load_ps(r.ix)), iy_(_mm512_load_ps(r.iy)),
          iz_(_mm512_load_ps(r.iz)), tmin_(_mm512_load_ps(r.tmin)),
          tmax_(_mm512_load_ps(r.tmax)),
          a_(_mm512_add_ps(_mm512_add_ps(_mm512_mul_ps(dx_, dx_),
                                         _mm512_mul_ps(dy_, dy_)),
                           _mm512_mul_ps(dz_, dz_))),
          non_unit_(_mm512_cmp_ps_mask(a_, _mm512_set1_ps(1.0f),
                                       _CMP_NEQ_UQ))
    {
    }

    JUNO_TARGET_AVX512 std::uint32_t
    box(std::uint32_t active, float lo_x, float lo_y, float lo_z,
        float hi_x, float hi_y, float hi_z) const
    {
        __m512 t0 = tmin_;
        __m512 t1 = tmax_;
        slab(lo_x, hi_x, ox_, ix_, t0, t1);
        slab(lo_y, hi_y, oy_, iy_, t0, t1);
        slab(lo_z, hi_z, oz_, iz_, t0, t1);
        return _mm512_mask_cmp_ps_mask(static_cast<__mmask16>(active), t0,
                                       t1, _CMP_LE_OQ);
    }

    JUNO_TARGET_AVX512 std::uint32_t
    sphere(std::uint32_t active, float cx, float cy, float cz,
           float radius, Times &thit) const
    {
        const auto act = static_cast<__mmask16>(active);
        return sphereLanesAvx512(
            act, (act & non_unit_) == 0,
            _mm512_sub_ps(ox_, _mm512_set1_ps(cx)),
            _mm512_sub_ps(oy_, _mm512_set1_ps(cy)),
            _mm512_sub_ps(oz_, _mm512_set1_ps(cz)), dx_, dy_, dz_, a_,
            _mm512_set1_ps(radius * radius), tmin_, tmax_, thit);
    }

    /** Masked store straight from the mask register (k-mask). */
    JUNO_TARGET_AVX512 static void
    store(const Times &thit, std::uint32_t mask, float *dst)
    {
        _mm512_mask_storeu_ps(dst, static_cast<__mmask16>(mask), thit);
    }

    JUNO_TARGET_AVX512 static int
    count(std::uint32_t mask)
    {
        return __builtin_popcount(mask);
    }

  private:
    /**
     * One axis of rt::Aabb::hitBy on sixteen lanes: Avx2RayLanes::slab's
     * operand order, whose min/max select rules vminps / vmaxps keep at
     * 512 bits.
     */
    JUNO_TARGET_AVX512 static void
    slab(float lo, float hi, __m512 o, __m512 inv, __m512 &t0, __m512 &t1)
    {
        const __m512 a0 =
            _mm512_mul_ps(_mm512_sub_ps(_mm512_set1_ps(lo), o), inv);
        const __m512 a1 =
            _mm512_mul_ps(_mm512_sub_ps(_mm512_set1_ps(hi), o), inv);
        const __m512 near = _mm512_maskz_min_ps(kAllLanes16, a1, a0);
        const __m512 far = _mm512_maskz_max_ps(kAllLanes16, a0, a1);
        t0 = _mm512_maskz_max_ps(kAllLanes16, near, t0);
        t1 = _mm512_maskz_min_ps(kAllLanes16, far, t1);
    }

    __m512 ox_, oy_, oz_, dx_, dy_, dz_, ix_, iy_, iz_, tmin_, tmax_;
    /** |d|^2 per lane, and the lanes where it is not exactly 1. */
    __m512 a_;
    __mmask16 non_unit_;
};

#endif // JUNO_SIMD_X86

} // namespace simd
} // namespace juno

#endif // JUNO_COMMON_RAY_LANES_H
