/**
 * @file
 * Bounding volume hierarchy over sphere primitives.
 *
 * This is the software model of the RT core's two hardware units
 * (paper Sec. 2.2): the AABB interval test and the BVH tree traversal.
 * The builder uses binned SAH (the standard GPU BVH build heuristic);
 * traversal is stack-based and counts node visits / primitive tests so
 * experiments can reason about traversal cost the way the paper
 * reasons about RT-core throughput (Fig. 14(b)).
 *
 * Two walks share one tree: traverse() traces one ray, traversePacket()
 * traces up to simd::kRayLanes coherent rays in lockstep (the way an
 * RT core keeps a warp's rays together) through the dispatched
 * ray-packet kernels, and runs the any-hit program once per sphere
 * with the mask of lanes that hit it. Per ray, both report the same
 * hits in the same order and the same counters.
 */
#ifndef JUNO_RTCORE_BVH_H
#define JUNO_RTCORE_BVH_H

#include <cstdint>
#include <vector>

#include "common/simd.h"
#include "common/types.h"
#include "rtcore/geometry.h"

namespace juno {
namespace rt {

/** Counters accumulated during traversal; the RT cost model input. */
struct TraversalStats {
    std::uint64_t rays = 0;
    std::uint64_t node_visits = 0;
    std::uint64_t aabb_tests = 0;
    std::uint64_t prim_tests = 0;
    std::uint64_t hits = 0;

    void
    merge(const TraversalStats &o)
    {
        rays += o.rays;
        node_visits += o.node_visits;
        aabb_tests += o.aabb_tests;
        prim_tests += o.prim_tests;
        hits += o.hits;
    }

    void reset() { *this = TraversalStats{}; }
};

/**
 * One any-hit delivery of the packet walk: a sphere and the lanes of
 * the packet whose rays hit it (an RT core runs the any-hit program
 * for a warp's rays in SIMT the same way).
 */
struct PacketHit {
    /** Index of the sphere in the scene. */
    std::uint32_t prim_id = 0;
    /** The sphere's user_id. */
    std::uint64_t user_id = 0;
    /** Lanes that hit (bit i = lane i); never 0. */
    std::uint32_t mask = 0;
    /**
     * simd::kRayLanes hit times; thit[i] is lane i's for every i in
     * mask, other slots are unspecified.
     */
    const float *thit = nullptr;
};

/** How the BVH builder splits nodes. */
enum class SplitPolicy {
    /** Binned surface-area heuristic (default; what GPUs use). */
    kBinnedSah,
    /** Median split on the widest axis (cheaper build, worse tree). */
    kMedian,
};

/** Build settings. */
struct BvhBuildParams {
    SplitPolicy policy = SplitPolicy::kBinnedSah;
    int sah_bins = 16;
    int max_leaf_size = 4;
};

/**
 * Static BVH. Primitives are referenced by index into the sphere array
 * supplied at build time; the array must outlive and stay unchanged
 * while the BVH is used.
 */
class Bvh {
  public:
    /** Flat node: internal nodes store children, leaves a prim range. */
    struct Node {
        Aabb bounds;
        /** Index of left child; right child is left + 1-adjacent. */
        std::int32_t left = -1;
        std::int32_t right = -1;
        /** Leaf payload: [first, first+count) into prim_order_. */
        std::int32_t first = 0;
        std::int32_t count = 0;

        bool isLeaf() const { return count > 0; }
    };

    /** Builds over @p spheres. Empty input produces an empty BVH. */
    void build(const std::vector<Sphere> &spheres,
               const BvhBuildParams &params = {});

    bool empty() const { return nodes_.empty(); }
    std::size_t nodeCount() const { return nodes_.size(); }
    const std::vector<Node> &nodes() const { return nodes_; }

    /** Maximum leaf depth (root = 0); log-scale in N for a good build. */
    int depth() const;

    /** Sum of leaf SAH cost, for build-quality comparisons. */
    double sahCost() const;

    /**
     * Traverses with an any-hit program. @p fn is called as
     * fn(const Hit&) -> bool for every primitive intersection inside
     * the ray interval; returning false terminates the traversal early
     * (OptiX's optixTerminateRay). Hit order is *not* sorted by t, as
     * with real any-hit shaders.
     */
    template <typename AnyHitFn>
    void
    traverse(const Ray &ray, const std::vector<Sphere> &spheres,
             TraversalStats &stats, AnyHitFn &&fn) const
    {
        ++stats.rays;
        if (nodes_.empty())
            return;
        const Vec3 inv_dir{1.0f / ray.dir.x, 1.0f / ray.dir.y,
                           1.0f / ray.dir.z};
        // Explicit stack; depth 64 covers > 10^9 primitives.
        std::int32_t stack[64];
        int top = 0;
        stack[top++] = 0;
        while (top > 0) {
            const Node &node = nodes_[static_cast<std::size_t>(stack[--top])];
            ++stats.node_visits;
            ++stats.aabb_tests;
            if (!node.bounds.hitBy(ray, inv_dir))
                continue;
            if (node.isLeaf()) {
                for (std::int32_t i = 0; i < node.count; ++i) {
                    const std::uint32_t prim = prim_order_[
                        static_cast<std::size_t>(node.first + i)];
                    ++stats.prim_tests;
                    float thit;
                    if (intersectSphere(ray, spheres[prim], thit)) {
                        ++stats.hits;
                        Hit hit;
                        hit.prim_id = prim;
                        hit.user_id = spheres[prim].user_id;
                        hit.thit = thit;
                        if (!fn(static_cast<const Hit &>(hit)))
                            return;
                    }
                }
            } else {
                stack[top++] = node.left;
                stack[top++] = node.right;
            }
        }
    }

    /**
     * Packet traversal of @p count rays (1..simd::kRayLanes): one
     * depth-first walk in traverse()'s node order, carrying a mask of
     * the lanes whose ray reached each node. Box and sphere tests run
     * on all masked lanes at once through the active simd table.
     *
     * The any-hit program runs once per sphere that any lane hits, as
     * fn(const PacketHit&) -> std::uint32_t, and returns the mask of
     * lanes to terminate; only lanes in PacketHit::mask can stop.
     *
     * A lane visits exactly the nodes traverse() visits for its ray,
     * in the same order, so per ray the hit sequence (prim_id and thit
     * bits) and every counter equal traverse()'s.
     */
    template <typename AnyHitFn>
    void
    traversePacket(const Ray *rays, int count,
                   const std::vector<Sphere> &spheres,
                   TraversalStats &stats, AnyHitFn &&fn) const
    {
        stats.rays += static_cast<std::uint64_t>(count);
        if (nodes_.empty())
            return;
        simd::RayLanes lanes;
        loadLanes(rays, count, lanes);
        const simd::Kernels &kernels = simd::active();
        alignas(64) float thit[simd::kRayLanes] = {};
        // Lanes not yet terminated by the any-hit program.
        std::uint32_t live = (1u << count) - 1u;
        struct Entry {
            std::int32_t node;
            std::uint32_t mask;
        };
        Entry stack[64];
        int top = 0;
        stack[top++] = {0, live};
        while (top > 0) {
            const Entry entry = stack[--top];
            const std::uint32_t mask = entry.mask & live;
            if (mask == 0)
                continue;
            const Node &node = nodes_[static_cast<std::size_t>(entry.node)];
            const auto active =
                static_cast<std::uint64_t>(__builtin_popcount(mask));
            stats.node_visits += active;
            stats.aabb_tests += active;
            std::uint32_t in_box = kernels.ray_box_lanes(
                lanes, mask, node.bounds.lo.x, node.bounds.lo.y,
                node.bounds.lo.z, node.bounds.hi.x, node.bounds.hi.y,
                node.bounds.hi.z);
            if (in_box == 0)
                continue;
            if (!node.isLeaf()) {
                stack[top++] = {node.left, in_box};
                stack[top++] = {node.right, in_box};
                continue;
            }
            for (std::int32_t i = 0; i < node.count && in_box != 0; ++i) {
                const std::uint32_t prim = prim_order_[
                    static_cast<std::size_t>(node.first + i)];
                const Sphere &sphere = spheres[prim];
                stats.prim_tests +=
                    static_cast<std::uint64_t>(__builtin_popcount(in_box));
                const std::uint32_t hit = kernels.ray_sphere_lanes(
                    lanes, in_box, sphere.center.x, sphere.center.y,
                    sphere.center.z, sphere.radius, thit);
                if (hit == 0)
                    continue;
                stats.hits +=
                    static_cast<std::uint64_t>(__builtin_popcount(hit));
                PacketHit h;
                h.prim_id = prim;
                h.user_id = sphere.user_id;
                h.mask = hit;
                h.thit = thit;
                const std::uint32_t stop =
                    static_cast<std::uint32_t>(
                        fn(static_cast<const PacketHit &>(h))) &
                    hit;
                live &= ~stop;
                in_box &= ~stop;
            }
        }
    }

    /**
     * Reference traversal: brute-force linear scan over all spheres.
     * Models OptiX's CUDA-core fallback on GPUs without RT cores
     * (paper Fig. 14(a)) and serves as the correctness oracle.
     */
    template <typename AnyHitFn>
    static void
    traverseLinear(const Ray &ray, const std::vector<Sphere> &spheres,
                   TraversalStats &stats, AnyHitFn &&fn)
    {
        ++stats.rays;
        for (std::uint32_t prim = 0; prim < spheres.size(); ++prim) {
            ++stats.prim_tests;
            float thit;
            if (intersectSphere(ray, spheres[prim], thit)) {
                ++stats.hits;
                Hit hit;
                hit.prim_id = prim;
                hit.user_id = spheres[prim].user_id;
                hit.thit = thit;
                if (!fn(static_cast<const Hit &>(hit)))
                    return;
            }
        }
    }

  private:
    /**
     * Loads @p count (1..simd::kRayLanes) rays into packet lanes, with
     * inv = 1 / dir as traverse() computes it. Unused lanes repeat
     * ray 0.
     */
    static void loadLanes(const Ray *rays, int count,
                          simd::RayLanes &lanes);

    std::int32_t buildRecursive(std::vector<Aabb> &prim_bounds,
                                std::int32_t first, std::int32_t count,
                                const BvhBuildParams &params);

    std::vector<Node> nodes_;
    /** Permutation of primitive ids referenced by leaves. */
    std::vector<std::uint32_t> prim_order_;
};

} // namespace rt
} // namespace juno

#endif // JUNO_RTCORE_BVH_H
