/**
 * @file
 * OptiX-like launch facade over the software ray tracer.
 *
 * The paper evaluates JUNO on three GPUs (Sec. 6.4): RTX 4090 (Gen-3
 * RT cores), A40 (Gen-2) and A100 (no RT cores; OptiX silently falls
 * back to CUDA-core traversal). RtDevice models exactly that choice:
 * an execution mode (BVH walk vs. a scan of the ray's own subspace on
 * CUDA cores) plus a throughput cost model so Fig. 14's sensitivity
 * study can be regenerated from the traversal counters.
 */
#ifndef JUNO_RTCORE_DEVICE_H
#define JUNO_RTCORE_DEVICE_H

#include <string>

#include "rtcore/scene.h"

namespace juno {
namespace rt {

/** Where "traversal" executes. */
enum class ExecMode {
    /** Hardware-style BVH traversal (RT cores present). */
    kRtCore,
    /**
     * No RT core (A100): each ray is tested against the recorded
     * spheres only, on CUDA cores, without a BVH.
     */
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
     * Traces one packet of @p count rays (1..simd::kRayLanes) and
     * records their hits into @p tile the way Bvh::traceTile does:
     * lane i's thit on prim record.first + e lands in
     * tile[e * count + i], and no other cell is written. kRtCore runs
     * the packet-walk kernel. kCudaFallback fills the same cells by
     * testing each ray against the record.count recorded spheres
     * alone: it counts count rays, count * record.count prim tests,
     * the written cells as hits, and no node visits or box tests. The
     * counters go to totalStats(). This is the device's one entry
     * point: every program traces through it.
     */
    void traceTile(const Scene &scene, const Ray *rays, int count,
                   RecordRange record, float *tile);

  private:
    ExecMode mode_;
    TraversalStats total_;
};

} // namespace rt
} // namespace juno

#endif // JUNO_RTCORE_DEVICE_H
