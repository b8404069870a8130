#include "rtcore/device.h"

#include <algorithm>

namespace juno {
namespace rt {

std::size_t
RtDevice::coherentRun(const std::vector<Ray> &rays, std::size_t first)
{
    const Ray &head = rays[first];
    const std::size_t end =
        std::min(rays.size(),
                 first + static_cast<std::size_t>(simd::kRayLanes));
    std::size_t i = first + 1;
    while (i < end && rays[i].dir.x == head.dir.x &&
           rays[i].dir.y == head.dir.y && rays[i].dir.z == head.dir.z &&
           rays[i].origin.z == head.origin.z)
        ++i;
    return i - first;
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
