#include "rtcore/device.h"

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
        const auto lanes = static_cast<std::size_t>(count);
        for (std::size_t i = 0; i < lanes; ++i)
            scene.traceLinear(rays[i], stats, [&](const Hit &hit) {
                const std::uint32_t slot = hit.prim_id - record.first;
                if (slot < record.count)
                    tile[slot * lanes + i] = hit.thit;
                return true;
            });
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
    // No RT cores: traversal runs on CUDA cores. The fallback executes
    // linear primitive tests, and each software step is slower than a
    // hardware step; 0.25 reflects the paper's observation that the
    // A100 loses to RT-core GPUs at high quality despite strong CUDA
    // throughput.
    m.rt_throughput = 0.25;
    return m;
}

} // namespace rt
} // namespace juno
