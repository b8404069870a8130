/**
 * @file
 * The packet-walk kernel (Bvh::traceTile): one BVH walk per dispatch
 * level, each with that level's lane operations (common/ray_lanes.h)
 * inlined, so a packet costs one call rather than one per node, sphere
 * and hit.
 */
#include "common/logging.h"
#include "common/ray_lanes.h"
#include "rtcore/bvh.h"

namespace juno {
namespace rt {
namespace {

/**
 * Loads @p count (1..simd::kRayLanes) rays into packet lanes, with
 * inv = 1 / dir per axis. Unused lanes repeat ray 0.
 */
void
loadLanes(const Ray *rays, int count, simd::RayLanes &lanes)
{
    for (int i = 0; i < simd::kRayLanes; ++i) {
        const Ray &ray = rays[i < count ? i : 0];
        lanes.ox[i] = ray.origin.x;
        lanes.oy[i] = ray.origin.y;
        lanes.oz[i] = ray.origin.z;
        lanes.dx[i] = ray.dir.x;
        lanes.dy[i] = ray.dir.y;
        lanes.dz[i] = ray.dir.z;
        lanes.ix[i] = 1.0f / ray.dir.x;
        lanes.iy[i] = 1.0f / ray.dir.y;
        lanes.iz[i] = 1.0f / ray.dir.z;
        lanes.tmin[i] = ray.tmin;
        lanes.tmax[i] = ray.tmax;
    }
}

/** What one walk reads: the tree, its leaf order and the spheres. */
struct WalkInput {
    const Bvh::Node *nodes;
    const std::uint32_t *prim_order;
    const Sphere *spheres;
    const simd::RayLanes *packet;
    int count;
    RecordRange record;
    float *tile;
};

/**
 * The walk of Bvh::traceTile over the lane operations @p Lanes. Always
 * inlined into its level's entry below, whose target attribute lets the
 * lane operations inline into it in turn.
 */
template <typename Lanes>
[[gnu::always_inline]] inline void
walk(const WalkInput &in, TraversalStats &stats)
{
    const Lanes lanes(*in.packet);
    const auto lane_count = static_cast<std::size_t>(in.count);
    std::uint64_t node_visits = 0, prim_tests = 0, hits = 0;
    struct Entry {
        std::int32_t node;
        std::uint32_t mask;
    };
    // Explicit stack; depth 64 covers > 10^9 primitives.
    Entry stack[64];
    int top = 0;
    stack[top++] = {0, (1u << in.count) - 1u};
    while (top > 0) {
        const Entry entry = stack[--top];
        const Bvh::Node &node = in.nodes[entry.node];
        node_visits += static_cast<std::uint64_t>(Lanes::count(entry.mask));
        const std::uint32_t in_box = lanes.box(
            entry.mask, node.bounds.lo.x, node.bounds.lo.y,
            node.bounds.lo.z, node.bounds.hi.x, node.bounds.hi.y,
            node.bounds.hi.z);
        if (in_box == 0)
            continue;
        if (!node.isLeaf()) {
            stack[top++] = {node.left, in_box};
            stack[top++] = {node.right, in_box};
            continue;
        }
        const auto tested = static_cast<std::uint64_t>(Lanes::count(in_box));
        for (std::int32_t i = 0; i < node.count; ++i) {
            const std::uint32_t prim = in.prim_order[node.first + i];
            const Sphere &sphere = in.spheres[prim];
            prim_tests += tested;
            typename Lanes::Times thit;
            const std::uint32_t hit =
                lanes.sphere(in_box, sphere.center.x, sphere.center.y,
                             sphere.center.z, sphere.radius, thit);
            if (hit == 0)
                continue;
            hits += static_cast<std::uint64_t>(Lanes::count(hit));
            // JUNO's any-hit program: record thit, never terminate.
            const std::uint32_t slot = prim - in.record.first;
            if (slot < in.record.count)
                Lanes::store(thit, hit, in.tile + slot * lane_count);
        }
    }
    stats.node_visits += node_visits;
    stats.aabb_tests += node_visits;
    stats.prim_tests += prim_tests;
    stats.hits += hits;
}

void
walkScalar(const WalkInput &in, TraversalStats &stats)
{
    walk<simd::ScalarRayLanes>(in, stats);
}

#if JUNO_SIMD_X86
JUNO_TARGET_AVX2 void
walkAvx2(const WalkInput &in, TraversalStats &stats)
{
    walk<simd::Avx2RayLanes>(in, stats);
}

JUNO_TARGET_AVX512 void
walkAvx512(const WalkInput &in, TraversalStats &stats)
{
    walk<simd::Avx512RayLanes>(in, stats);
}
#endif

} // namespace

void
Bvh::traceTile(const Ray *rays, int count,
               const std::vector<Sphere> &spheres, RecordRange record,
               float *tile, TraversalStats &stats) const
{
    JUNO_DCHECK(count >= 1 && count <= simd::kRayLanes,
                "packet of " << count << " rays");
    stats.rays += static_cast<std::uint64_t>(count);
    if (nodes_.empty())
        return;
    simd::RayLanes packet;
    const WalkInput in{nodes_.data(), prim_order_.data(), spheres.data(),
                       &packet, count, record, tile};
    loadLanes(rays, count, packet);
    switch (simd::level()) {
#if JUNO_SIMD_X86
      case simd::Level::kAvx512:
        walkAvx512(in, stats);
        return;
      case simd::Level::kAvx2:
        walkAvx2(in, stats);
        return;
#endif
      default:
        walkScalar(in, stats);
        return;
    }
}

} // namespace rt
} // namespace juno
