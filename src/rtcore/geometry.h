/**
 * @file
 * Geometric primitives for the software ray-tracing engine that stands
 * in for NVIDIA RT cores (DESIGN.md Sec. 2).
 *
 * Conventions follow OptiX: a ray has an origin, a direction, and a
 * valid interval [tmin, tmax]; an intersection is reported at the
 * parametric time thit of the first root inside the interval. JUNO
 * (paper Sec. 4.2) encodes its dynamic distance threshold purely in
 * tmax and recovers distances from thit, so these semantics are the
 * load-bearing part of the substitution.
 */
#ifndef JUNO_RTCORE_GEOMETRY_H
#define JUNO_RTCORE_GEOMETRY_H

#include <algorithm>
#include <cmath>
#include <limits>

namespace juno {
namespace rt {

/** Minimal 3-vector. */
struct Vec3 {
    float x = 0, y = 0, z = 0;

    Vec3 operator+(const Vec3 &o) const { return {x + o.x, y + o.y, z + o.z}; }
    Vec3 operator-(const Vec3 &o) const { return {x - o.x, y - o.y, z - o.z}; }
    Vec3 operator*(float s) const { return {x * s, y * s, z * s}; }

    float dot(const Vec3 &o) const { return x * o.x + y * o.y + z * o.z; }
    float lengthSqr() const { return dot(*this); }
    float length() const { return std::sqrt(lengthSqr()); }
};

/**
 * Sphere primitive. A hit names it by its prim id, its index in the
 * scene (JUNO numbers entry e of subspace s as s * E + e).
 */
struct Sphere {
    Vec3 center;
    float radius = 0;
};

/** A ray with an OptiX-style valid interval. */
struct Ray {
    Vec3 origin;
    /** Direction; need not be unit length, but JUNO always uses +z. */
    Vec3 dir{0, 0, 1};
    float tmin = 0.0f;
    float tmax = std::numeric_limits<float>::max();
};

/** Axis-aligned bounding box. */
struct Aabb {
    Vec3 lo{std::numeric_limits<float>::max(),
            std::numeric_limits<float>::max(),
            std::numeric_limits<float>::max()};
    Vec3 hi{std::numeric_limits<float>::lowest(),
            std::numeric_limits<float>::lowest(),
            std::numeric_limits<float>::lowest()};

    bool
    valid() const
    {
        return lo.x <= hi.x && lo.y <= hi.y && lo.z <= hi.z;
    }

    void
    grow(const Vec3 &p)
    {
        lo.x = std::min(lo.x, p.x);
        lo.y = std::min(lo.y, p.y);
        lo.z = std::min(lo.z, p.z);
        hi.x = std::max(hi.x, p.x);
        hi.y = std::max(hi.y, p.y);
        hi.z = std::max(hi.z, p.z);
    }

    void
    grow(const Aabb &b)
    {
        grow(b.lo);
        grow(b.hi);
    }

    /** Bounding box of a sphere. */
    static Aabb
    of(const Sphere &s)
    {
        Aabb b;
        b.grow(Vec3{s.center.x - s.radius, s.center.y - s.radius,
                    s.center.z - s.radius});
        b.grow(Vec3{s.center.x + s.radius, s.center.y + s.radius,
                    s.center.z + s.radius});
        return b;
    }

    Vec3
    centroid() const
    {
        return {(lo.x + hi.x) * 0.5f, (lo.y + hi.y) * 0.5f,
                (lo.z + hi.z) * 0.5f};
    }

    /** Surface area (for the SAH build heuristic). */
    float
    surfaceArea() const
    {
        if (!valid())
            return 0.0f;
        const float dx = hi.x - lo.x, dy = hi.y - lo.y, dz = hi.z - lo.z;
        return 2.0f * (dx * dy + dy * dz + dz * dx);
    }

    /**
     * Slab test: true when the ray interval [tmin, tmax] overlaps the
     * box. @p inv_dir holds 1/dir per axis (+-inf for zero axes, which
     * the IEEE interval arithmetic below handles correctly).
     */
    bool
    hitBy(const Ray &ray, const Vec3 &inv_dir) const
    {
        float t0 = ray.tmin, t1 = ray.tmax;

        float tx0 = (lo.x - ray.origin.x) * inv_dir.x;
        float tx1 = (hi.x - ray.origin.x) * inv_dir.x;
        if (tx0 > tx1)
            std::swap(tx0, tx1);
        // min/max with NaN-suppression: if tx is NaN keep t.
        t0 = tx0 > t0 ? tx0 : t0;
        t1 = tx1 < t1 ? tx1 : t1;
        if (t0 > t1)
            return false;

        float ty0 = (lo.y - ray.origin.y) * inv_dir.y;
        float ty1 = (hi.y - ray.origin.y) * inv_dir.y;
        if (ty0 > ty1)
            std::swap(ty0, ty1);
        t0 = ty0 > t0 ? ty0 : t0;
        t1 = ty1 < t1 ? ty1 : t1;
        if (t0 > t1)
            return false;

        float tz0 = (lo.z - ray.origin.z) * inv_dir.z;
        float tz1 = (hi.z - ray.origin.z) * inv_dir.z;
        if (tz0 > tz1)
            std::swap(tz0, tz1);
        t0 = tz0 > t0 ? tz0 : t0;
        t1 = tz1 < t1 ? tz1 : t1;
        return t0 <= t1;
    }
};

/**
 * Ray/sphere intersection. Returns true and sets @p thit to the first
 * root inside [tmin, tmax] when the ray hits @p s.
 *
 * For JUNO rays (unit +z direction, sphere plane one unit ahead,
 * radius R) this yields thit = 1 - sqrt(R^2 - d^2) with d the 2-D
 * distance between query projection and entry — the identity the paper
 * uses to reconstruct distances without memory reads (Fig. 9 left).
 */
inline bool
intersectSphere(const Ray &ray, const Sphere &s, float &thit)
{
    const Vec3 oc = ray.origin - s.center;
    const float a = ray.dir.lengthSqr();
    const float half_b = oc.dot(ray.dir);
    const float c = oc.lengthSqr() - s.radius * s.radius;
    const float disc = half_b * half_b - a * c;
    if (disc < 0.0f)
        return false;
    const float sqrt_disc = std::sqrt(disc);
    // Entry root first, exit root if the entry is before tmin.
    float t = (-half_b - sqrt_disc) / a;
    if (t < ray.tmin)
        t = (-half_b + sqrt_disc) / a;
    if (t < ray.tmin || t > ray.tmax)
        return false;
    thit = t;
    return true;
}

} // namespace rt
} // namespace juno

#endif // JUNO_RTCORE_GEOMETRY_H
