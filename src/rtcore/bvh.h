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
 * Two walks share one tree: traverse() traces one ray and runs a
 * caller's any-hit program per hit; traceTile(), the packet-walk
 * kernel (rtcore/packet_walk.cc), traces up to simd::kRayLanes
 * coherent rays in lockstep (the way an RT core keeps a warp's rays
 * together) and runs JUNO's any-hit program itself: it records each
 * hit's thit into a tile and never terminates a ray. Per ray, both
 * find the same hits with the same thit bits and the same counters.
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
 * The spheres a packet walk records (Bvh::traceTile): scene prim ids
 * [first, first + count); prim first + e records into the tile's slot
 * e. The walk traces and counts every other sphere but records none.
 */
struct RecordRange {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
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
     * The packet-walk kernel: traces @p count rays (1..simd::kRayLanes;
     * coherent ones, like one subspace's probe rays, share most nodes)
     * in one depth-first walk in traverse()'s node order, carrying the
     * mask of lanes whose ray reached each node, with the box and
     * sphere tests of common/ray_lanes.h at the active dispatch level
     * inlined. Every hit of lane i on a recorded
     * sphere (prim first + e of @p record) stores its thit at
     * tile[e * count + i] with one masked store per sphere; no other
     * cell is written, and no lane terminates. Counters per ray equal
     * traverse()'s, so the tile holds exactly the thit bits traverse()
     * reports for each ray's recorded hits. A single ray takes
     * traverse() itself.
     */
    void traceTile(const Ray *rays, int count,
                   const std::vector<Sphere> &spheres, RecordRange record,
                   float *tile, TraversalStats &stats) const;

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
