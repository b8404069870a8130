#include "rtcore/bvh.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace juno {
namespace rt {
namespace {

/** Widest axis of a box: 0=x, 1=y, 2=z. */
int
widestAxis(const Aabb &b)
{
    const float dx = b.hi.x - b.lo.x;
    const float dy = b.hi.y - b.lo.y;
    const float dz = b.hi.z - b.lo.z;
    if (dx >= dy && dx >= dz)
        return 0;
    return dy >= dz ? 1 : 2;
}

float
axisOf(const Vec3 &v, int axis)
{
    return axis == 0 ? v.x : axis == 1 ? v.y : v.z;
}

} // namespace

void
Bvh::build(const std::vector<Sphere> &spheres, const BvhBuildParams &params)
{
    nodes_.clear();
    prim_order_.clear();
    if (spheres.empty())
        return;
    JUNO_REQUIRE(params.max_leaf_size > 0, "max_leaf_size must be positive");
    JUNO_REQUIRE(params.sah_bins > 1, "sah_bins must exceed 1");

    prim_order_.resize(spheres.size());
    std::iota(prim_order_.begin(), prim_order_.end(), 0u);

    std::vector<Aabb> prim_bounds(spheres.size());
    for (std::size_t i = 0; i < spheres.size(); ++i)
        prim_bounds[i] = Aabb::of(spheres[i]);

    nodes_.reserve(spheres.size() * 2);
    buildRecursive(prim_bounds, 0, static_cast<std::int32_t>(spheres.size()),
                   params);
}

std::int32_t
Bvh::buildRecursive(std::vector<Aabb> &prim_bounds, std::int32_t first,
                    std::int32_t count, const BvhBuildParams &params)
{
    const std::int32_t node_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();

    Aabb bounds;
    Aabb centroid_bounds;
    for (std::int32_t i = first; i < first + count; ++i) {
        const Aabb &pb =
            prim_bounds[prim_order_[static_cast<std::size_t>(i)]];
        bounds.grow(pb);
        centroid_bounds.grow(pb.centroid());
    }
    nodes_[static_cast<std::size_t>(node_id)].bounds = bounds;

    const int axis = widestAxis(centroid_bounds);
    const float axis_lo = axisOf(centroid_bounds.lo, axis);
    const float axis_hi = axisOf(centroid_bounds.hi, axis);
    const bool degenerate = axis_hi - axis_lo <= 0.0f;

    if (count <= params.max_leaf_size || degenerate) {
        auto &node = nodes_[static_cast<std::size_t>(node_id)];
        node.first = first;
        node.count = count;
        return node_id;
    }

    auto begin = prim_order_.begin() + first;
    auto end = begin + count;
    std::int32_t mid = count / 2;

    if (params.policy == SplitPolicy::kMedian) {
        std::nth_element(begin, begin + mid, end,
                         [&](std::uint32_t a, std::uint32_t b) {
                             return axisOf(prim_bounds[a].centroid(), axis) <
                                    axisOf(prim_bounds[b].centroid(), axis);
                         });
    } else {
        // Binned SAH: bucket centroids, evaluate the SAH at each of the
        // bins-1 candidate planes, take the cheapest.
        const int bins = params.sah_bins;
        std::vector<std::int32_t> bin_count(static_cast<std::size_t>(bins),
                                            0);
        std::vector<Aabb> bin_bounds(static_cast<std::size_t>(bins));
        const float inv_extent =
            static_cast<float>(bins) / (axis_hi - axis_lo);
        auto bin_of = [&](std::uint32_t prim) {
            const float c = axisOf(prim_bounds[prim].centroid(), axis);
            int b = static_cast<int>((c - axis_lo) * inv_extent);
            return std::clamp(b, 0, bins - 1);
        };
        for (auto it = begin; it != end; ++it) {
            const int b = bin_of(*it);
            ++bin_count[static_cast<std::size_t>(b)];
            bin_bounds[static_cast<std::size_t>(b)].grow(prim_bounds[*it]);
        }

        // Sweep from the right to precompute suffix areas/counts.
        std::vector<float> right_area(static_cast<std::size_t>(bins), 0.0f);
        std::vector<std::int32_t> right_count(
            static_cast<std::size_t>(bins), 0);
        Aabb acc;
        std::int32_t acc_count = 0;
        for (int b = bins - 1; b >= 1; --b) {
            acc.grow(bin_bounds[static_cast<std::size_t>(b)]);
            acc_count += bin_count[static_cast<std::size_t>(b)];
            right_area[static_cast<std::size_t>(b)] = acc.surfaceArea();
            right_count[static_cast<std::size_t>(b)] = acc_count;
        }

        // Sweep from the left, evaluating each split plane.
        float best_cost = std::numeric_limits<float>::max();
        int best_plane = -1;
        Aabb left_acc;
        std::int32_t left_count = 0;
        for (int b = 0; b < bins - 1; ++b) {
            left_acc.grow(bin_bounds[static_cast<std::size_t>(b)]);
            left_count += bin_count[static_cast<std::size_t>(b)];
            const std::int32_t rc =
                right_count[static_cast<std::size_t>(b + 1)];
            if (left_count == 0 || rc == 0)
                continue;
            const float cost =
                left_acc.surfaceArea() * static_cast<float>(left_count) +
                right_area[static_cast<std::size_t>(b + 1)] *
                    static_cast<float>(rc);
            if (cost < best_cost) {
                best_cost = cost;
                best_plane = b;
            }
        }

        if (best_plane < 0) {
            // All centroids in one bin; fall back to a median split.
            std::nth_element(
                begin, begin + mid, end,
                [&](std::uint32_t a, std::uint32_t b) {
                    return axisOf(prim_bounds[a].centroid(), axis) <
                           axisOf(prim_bounds[b].centroid(), axis);
                });
        } else {
            auto split_it = std::partition(
                begin, end, [&](std::uint32_t prim) {
                    return bin_of(prim) <= best_plane;
                });
            mid = static_cast<std::int32_t>(split_it - begin);
            if (mid == 0 || mid == count)
                mid = count / 2; // pathological partition; force balance
        }
    }

    const std::int32_t left =
        buildRecursive(prim_bounds, first, mid, params);
    const std::int32_t right =
        buildRecursive(prim_bounds, first + mid, count - mid, params);
    auto &node = nodes_[static_cast<std::size_t>(node_id)];
    node.left = left;
    node.right = right;
    node.count = 0;
    return node_id;
}

int
Bvh::depth() const
{
    if (nodes_.empty())
        return 0;
    // Iterative DFS carrying depth.
    std::vector<std::pair<std::int32_t, int>> stack{{0, 0}};
    int max_depth = 0;
    while (!stack.empty()) {
        auto [id, d] = stack.back();
        stack.pop_back();
        max_depth = std::max(max_depth, d);
        const Node &node = nodes_[static_cast<std::size_t>(id)];
        if (!node.isLeaf()) {
            stack.push_back({node.left, d + 1});
            stack.push_back({node.right, d + 1});
        }
    }
    return max_depth;
}

double
Bvh::sahCost() const
{
    if (nodes_.empty())
        return 0.0;
    const float root_area = nodes_[0].bounds.surfaceArea();
    if (root_area <= 0.0f)
        return 0.0;
    double cost = 0.0;
    for (const Node &node : nodes_) {
        const double p = node.bounds.surfaceArea() / root_area;
        cost += node.isLeaf() ? p * node.count : p;
    }
    return cost;
}

} // namespace rt
} // namespace juno
