/**
 * @file
 * OptiX-like launch facade over the software ray tracer.
 *
 * The paper evaluates JUNO on three GPUs (Sec. 6.4): RTX 4090 (Gen-3
 * RT cores), A40 (Gen-2) and A100 (no RT cores; OptiX silently falls
 * back to CUDA-core traversal). RtDevice models exactly that choice:
 * an execution mode (BVH vs. linear fallback) plus a throughput cost
 * model so Fig. 14's sensitivity study can be regenerated from the
 * traversal counters.
 */
#ifndef JUNO_RTCORE_DEVICE_H
#define JUNO_RTCORE_DEVICE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "rtcore/scene.h"

namespace juno {
namespace rt {

/** Where "traversal" executes. */
enum class ExecMode {
    /** Hardware-style BVH traversal (RT cores present). */
    kRtCore,
    /** Linear primitive scan (OptiX CUDA-core fallback, A100). */
    kCudaFallback,
};

/**
 * Relative cost weights of traversal operations, used to translate
 * counter totals into modelled time for a hypothetical device. The
 * defaults are unit-less relatives; what matters for Fig. 14(b) is the
 * *ratio* between devices, controlled by rt_throughput.
 */
struct RtCostModel {
    std::string name = "generic";
    /** Cost per BVH node visit (AABB test + traversal step). */
    double node_visit_cost = 1.0;
    /** Cost per primitive intersection test. */
    double prim_test_cost = 2.0;
    /** Cost to set up one ray. */
    double ray_setup_cost = 4.0;
    /** RT throughput multiplier (Gen-3 = 2x Gen-2 per the Ada paper). */
    double rt_throughput = 1.0;

    /** Modelled cost of a traversal counter total. */
    double
    cost(const TraversalStats &stats) const
    {
        const double raw =
            static_cast<double>(stats.node_visits) * node_visit_cost +
            static_cast<double>(stats.prim_tests) * prim_test_cost +
            static_cast<double>(stats.rays) * ray_setup_cost;
        return raw / rt_throughput;
    }
};

/** Cost model presets for the paper's three evaluation GPUs. */
RtCostModel costModelRtx4090();
RtCostModel costModelA40();
RtCostModel costModelA100();

/** Launch outcome: counters plus wall time. */
struct LaunchResult {
    TraversalStats stats;
    double seconds = 0.0;
};

/**
 * Stateless launcher: binds an execution mode and accumulates global
 * statistics across launches (like a CUDA context would).
 */
class RtDevice {
  public:
    explicit RtDevice(ExecMode mode = ExecMode::kRtCore) : mode_(mode) {}

    ExecMode mode() const { return mode_; }
    void setMode(ExecMode mode) { mode_ = mode; }

    const TraversalStats &totalStats() const { return total_; }
    void resetStats() { total_.reset(); }

    /**
     * Folds counters from another device into this one. Parallel
     * search workers launch on private devices and merge here after
     * their chunk, so totals stay exact without contended atomics.
     */
    void mergeStats(const TraversalStats &stats) { total_.merge(stats); }

    /**
     * Traces every ray in @p rays against @p scene and returns
     * per-launch counters and wall time. The any-hit program runs once
     * per (packet, sphere) as
     *
     *     fn(std::size_t first, int n, const PacketHit &hit)
     *         -> std::uint32_t
     *
     * where rays[first, first + n) is the packet, lane i of @p hit is
     * rays[first + i], and the result is the mask of lanes to
     * terminate (only lanes in hit.mask can stop). perRay() adapts a
     * per-ray program.
     *
     * In kRtCore mode each run of consecutive rays that share a
     * direction and an origin plane (coherentRun) is traced as packets
     * of up to simd::kRayLanes lanes, whatever query each ray serves
     * (SelectiveLutBuilder::buildGroup packs several); a lone ray, and
     * every ray in kCudaFallback mode, takes its single-ray walk and
     * is delivered as a one-lane packet. Either way each ray's hits arrive in
     * Bvh::traverse order and the counters are per ray, independent
     * of the packing.
     */
    template <typename AnyHitFn>
    LaunchResult
    launch(const Scene &scene, const std::vector<Ray> &rays, AnyHitFn &&fn)
    {
        Timer timer;
        LaunchResult result;
        for (std::size_t i = 0; i < rays.size();) {
            const std::size_t n =
                mode_ == ExecMode::kRtCore ? coherentRun(rays, i) : 1;
            if (n == 1) {
                traceOne(scene, rays[i], i, result.stats, fn);
            } else {
                scene.tracePacket(rays.data() + i, static_cast<int>(n),
                                  result.stats, [&](const PacketHit &hit) {
                                      return fn(i, static_cast<int>(n),
                                                hit);
                                  });
            }
            i += n;
        }
        result.seconds = timer.seconds();
        total_.merge(result.stats);
        return result;
    }

  private:
    /**
     * Length of the packet starting at rays[first]: the consecutive
     * rays that share its direction and origin z (for JUNO's +z rays,
     * its subspace plane), capped at simd::kRayLanes.
     */
    static std::size_t coherentRun(const std::vector<Ray> &rays,
                                   std::size_t first);

    /** Single-ray walk of rays[index], delivering one-lane packets. */
    template <typename AnyHitFn>
    void
    traceOne(const Scene &scene, const Ray &ray, std::size_t index,
             TraversalStats &stats, AnyHitFn &fn) const
    {
        alignas(64) float thit[simd::kRayLanes] = {};
        const auto deliver = [&](const Hit &hit) {
            thit[0] = hit.thit;
            PacketHit h;
            h.prim_id = hit.prim_id;
            h.user_id = hit.user_id;
            h.mask = 1u;
            h.thit = thit;
            return (static_cast<std::uint32_t>(
                        fn(index, 1, static_cast<const PacketHit &>(h))) &
                    1u) == 0;
        };
        if (mode_ == ExecMode::kRtCore)
            scene.trace(ray, stats, deliver);
        else
            scene.traceLinear(ray, stats, deliver);
    }

    ExecMode mode_;
    TraversalStats total_;
};

/**
 * Adapts a per-ray any-hit program fn(std::size_t ray, const Hit&) ->
 * bool (false terminates that ray; @p ray indexes the launched array)
 * to RtDevice::launch's packet signature. It runs once per hit lane,
 * lanes in ascending order.
 */
template <typename RayHitFn>
auto
perRay(RayHitFn &&fn)
{
    return [fn = std::forward<RayHitFn>(fn)](
               std::size_t first, int, const PacketHit &hit) mutable {
        std::uint32_t stop = 0;
        for (std::uint32_t m = hit.mask; m != 0; m &= m - 1u) {
            const int lane = __builtin_ctz(m);
            Hit h;
            h.prim_id = hit.prim_id;
            h.user_id = hit.user_id;
            h.thit = hit.thit[lane];
            if (!fn(first + static_cast<std::size_t>(lane),
                    static_cast<const Hit &>(h)))
                stop |= 1u << lane;
        }
        return stop;
    };
}

} // namespace rt
} // namespace juno

#endif // JUNO_RTCORE_DEVICE_H
