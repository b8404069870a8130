/**
 * @file
 * The single-ray oracle the ray-tracing walks are tested against: one
 * ray tested against every sphere of a scene with rt::intersectSphere,
 * in prim order, with no tree. Shared by test_bvh and test_scene_device.
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

} // namespace rt
} // namespace juno

#endif // JUNO_TESTS_RT_ORACLE_H
