/**
 * @file
 * The single-ray oracles the ray-tracing paths are tested against: one
 * ray tested against every sphere of a scene with rt::intersectSphere,
 * in prim order, with no tree (oracleTrace); and one ray walked through
 * a BVH with the scalar rt::Aabb::hitBy and rt::intersectSphere in the
 * packet walk's node order (oracleWalk), whose counters a packet's must
 * sum to. Shared by test_bvh and test_scene_device.
 */
#ifndef JUNO_TESTS_RT_ORACLE_H
#define JUNO_TESTS_RT_ORACLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rtcore/bvh.h"

namespace juno {
namespace rt {

/** One hit: the sphere's prim id and the ray's hit time. */
struct OracleHit {
    std::uint32_t prim;
    float thit;
};

/** Every hit of one ray, in prim order, and what finding them took. */
struct OracleTrace {
    std::vector<OracleHit> hits;
    /** One ray, one prim test per sphere, its hits; no nodes. */
    TraversalStats stats;
};

inline OracleTrace
oracleTrace(const Ray &ray, const std::vector<Sphere> &spheres)
{
    OracleTrace out;
    out.stats.rays = 1;
    out.stats.prim_tests = spheres.size();
    for (std::uint32_t prim = 0; prim < spheres.size(); ++prim) {
        float thit;
        if (intersectSphere(ray, spheres[prim], thit))
            out.hits.push_back({prim, thit});
    }
    out.stats.hits = out.hits.size();
    return out;
}

/**
 * Writes @p trace's hits on the spheres of @p record into lane @p lane
 * of a [slot][lane] tile of @p lanes lanes, the cells a walk of that
 * packet must write. Returns how many cells it wrote.
 */
inline std::size_t
recordOracle(const OracleTrace &trace, RecordRange record, std::size_t lanes,
             std::size_t lane, float *tile)
{
    std::size_t written = 0;
    for (const OracleHit &hit : trace.hits) {
        const std::uint32_t slot = hit.prim - record.first;
        if (slot < record.count) {
            tile[slot * lanes + lane] = hit.thit;
            ++written;
        }
    }
    return written;
}

/**
 * The scalar single-ray BVH walk: @p bvh's nodes depth-first, right
 * subtree first (the packet walk's order), rt::Aabb::hitBy (which
 * leaves at the first slab that empties the interval) and
 * rt::intersectSphere, recording hits on @p record's spheres into the
 * one-lane @p tile. Adds the ray's counters to @p stats.
 */
inline void
oracleWalk(const Bvh &bvh, const std::vector<Sphere> &spheres,
           const Ray &ray, RecordRange record, float *tile,
           TraversalStats &stats)
{
    ++stats.rays;
    if (bvh.empty())
        return;
    const Vec3 inv_dir{1.0f / ray.dir.x, 1.0f / ray.dir.y,
                       1.0f / ray.dir.z};
    std::vector<std::int32_t> stack{0};
    while (!stack.empty()) {
        const Bvh::Node &node = bvh.nodes()[static_cast<std::size_t>(
            stack.back())];
        stack.pop_back();
        ++stats.node_visits;
        ++stats.aabb_tests;
        if (!node.bounds.hitBy(ray, inv_dir))
            continue;
        if (!node.isLeaf()) {
            stack.push_back(node.left);
            stack.push_back(node.right);
            continue;
        }
        for (std::int32_t i = 0; i < node.count; ++i) {
            const std::uint32_t prim =
                bvh.primOrder()[static_cast<std::size_t>(node.first + i)];
            ++stats.prim_tests;
            float thit;
            if (!intersectSphere(ray, spheres[prim], thit))
                continue;
            ++stats.hits;
            const std::uint32_t slot = prim - record.first;
            if (slot < record.count)
                tile[slot] = thit;
        }
    }
}

} // namespace rt
} // namespace juno

#endif // JUNO_TESTS_RT_ORACLE_H
