#include "rtcore/device.h"

#include "common/logging.h"
#include "common/simd.h"

namespace juno {
namespace rt {

void
RtDevice::traceTile(const Scene &scene, const Ray *rays, int count,
                    RecordRange record, float *tile)
{
    TraversalStats stats;
    if (mode_ == ExecMode::kRtCore && count > 1) {
        scene.traceTile(rays, count, record, tile, stats);
    } else {
        // The dense gate: a lone ray, or any ray without an RT core, is
        // tested against the recorded spheres (one subspace's entries)
        // alone, sixteen spheres per step at AVX-512. Packets under
        // kRtCore stay on the walk because its counters model the RT
        // core's work, not because it is faster: on the CPU the gate
        // wins at every occupancy measured (DESIGN.md, "Walk or gate").
        JUNO_DCHECK(scene.built(), "scene not built");
        JUNO_DCHECK(record.first + record.count <= scene.sphereCount(),
                    "record range past the scene");
        const Sphere *spheres = scene.spheres().data() + record.first;
        const simd::Kernels &kernels = simd::active();
        const auto lanes = static_cast<std::size_t>(count);
        for (std::size_t i = 0; i < lanes; ++i)
            stats.hits += kernels.sphere_gate(rays[i], spheres, record.count,
                                              tile + i, lanes);
        stats.rays = lanes;
        stats.prim_tests = lanes * record.count;
    }
    total_.merge(stats);
}

RtCostModel
costModelRtx4090()
{
    RtCostModel m;
    m.name = "RTX4090";
    // Ada (Gen-3) RT cores: 2x Gen-2 throughput (NVIDIA Ada whitepaper).
    m.rt_throughput = 2.0;
    return m;
}

RtCostModel
costModelA40()
{
    RtCostModel m;
    m.name = "A40";
    m.rt_throughput = 1.0; // Gen-2 baseline
    return m;
}

RtCostModel
costModelA100()
{
    RtCostModel m;
    m.name = "A100";
    // No RT cores: the ray's subspace is scanned on CUDA cores, one
    // sphere test per entry and no node visits, and each software step
    // is slower than a hardware step; 0.25 reflects the paper's
    // observation that the A100 loses to RT-core GPUs at high quality
    // despite strong CUDA throughput.
    m.rt_throughput = 0.25;
    return m;
}

} // namespace rt
} // namespace juno
