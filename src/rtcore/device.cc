#include "rtcore/device.h"

#include "common/logging.h"

namespace juno {
namespace rt {

void
RtDevice::traceTile(const Scene &scene, const Ray *rays, int count,
                    RecordRange record, float *tile)
{
    TraversalStats stats;
    if (mode_ == ExecMode::kRtCore) {
        scene.traceTile(rays, count, record, tile, stats);
    } else {
        // No RT core: the recorded spheres (one subspace's entries)
        // are the only ones a ray is tested against.
        JUNO_DCHECK(record.first + record.count <= scene.sphereCount(),
                    "record range past the scene");
        const Sphere *spheres = scene.spheres().data() + record.first;
        const auto lanes = static_cast<std::size_t>(count);
        std::uint64_t hits = 0;
        for (std::size_t e = 0; e < record.count; ++e)
            for (std::size_t i = 0; i < lanes; ++i) {
                float thit;
                if (intersectSphere(rays[i], spheres[e], thit)) {
                    tile[e * lanes + i] = thit;
                    ++hits;
                }
            }
        stats.rays = lanes;
        stats.prim_tests = lanes * record.count;
        stats.hits = hits;
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
