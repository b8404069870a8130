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
 * The one walk is traceTile() (rtcore/packet_walk.cc): it traces up to
 * simd::kRayLanes coherent rays in lockstep (the way an RT core keeps a
 * warp's rays together) and runs JUNO's any-hit program itself: it
 * records each hit's thit into a tile and never terminates a ray. A
 * lone ray takes a scalar single-ray walk in the same node order; per
 * ray, both find the same hits with the same thit bits and the same
 * counters.
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
     * The packet-walk kernel: traces @p count rays (1..simd::kRayLanes;
     * coherent ones, like one subspace's probe rays, share most nodes)
     * in one depth-first walk (right subtree first), carrying the
     * mask of lanes whose ray reached each node, with the box and
     * sphere tests of common/ray_lanes.h at the active dispatch level
     * inlined. Every hit of lane i on a recorded sphere (prim
     * first + e of @p record) stores its thit at tile[e * count + i]
     * with one masked store per sphere; no other cell is written, and
     * no lane terminates. A single ray takes a scalar walk in the same
     * node order (Aabb::hitBy, intersectSphere). Counters are per ray:
     * a ray's node visits, box tests, sphere tests and hits do not
     * depend on the packet it rides in, and its cells hold the thit
     * bits intersectSphere() gives for its recorded hits.
     */
    void traceTile(const Ray *rays, int count,
                   const std::vector<Sphere> &spheres, RecordRange record,
                   float *tile, TraversalStats &stats) const;

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
