/**
 * @file
 * Shared configuration for the figure-reproduction benches.
 *
 * Scales are reduced from the paper's 1M/100M points to fit a
 * single-core CPU host (see DESIGN.md substitution table); the *shape*
 * of each result (who wins, where crossovers fall) is what each bench
 * reproduces, not absolute numbers. Set JUNO_BENCH_SCALE=large in the
 * environment to run closer to paper scale.
 */
#ifndef JUNO_BENCH_BENCH_COMMON_H
#define JUNO_BENCH_BENCH_COMMON_H

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dataset/synthetic.h"
#include "engine/search_request.h"
#include "rtcore/device.h"

namespace juno {
namespace bench {

/** True when the JUNO_BENCH_SCALE=large environment override is set. */
inline bool
largeScale()
{
    const char *env = std::getenv("JUNO_BENCH_SCALE");
    return env != nullptr && std::strcmp(env, "large") == 0;
}

/** Number of base points for the "1M-class" datasets. */
inline idx_t
scale1M()
{
    return largeScale() ? 200000 : 20000;
}

/** Number of base points for the "100M-class" datasets. */
inline idx_t
scale100M()
{
    return largeScale() ? 500000 : 60000;
}

/** Queries per evaluation. */
inline idx_t
queryCount()
{
    return largeScale() ? 200 : 64;
}

/** DEEP1M-like spec (D=96, L2): the paper's default study dataset. */
inline SyntheticSpec
deepSpec(idx_t n = scale1M())
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kDeepLike;
    spec.num_points = n;
    spec.num_queries = queryCount();
    spec.components = 512;
    spec.noise_scale = 4.0f;
    spec.seed = 20240404;
    return spec;
}

/** SIFT1M-like spec (D=128, L2). */
inline SyntheticSpec
siftSpec(idx_t n = scale1M())
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kSiftLike;
    spec.num_points = n;
    spec.num_queries = queryCount();
    spec.components = 512;
    spec.noise_scale = 4.0f;
    spec.seed = 20240405;
    return spec;
}

/** TTI1M-like spec (D=200, inner product). */
inline SyntheticSpec
ttiSpec(idx_t n = scale1M())
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kTtiLike;
    spec.num_points = n;
    spec.num_queries = queryCount();
    spec.components = 512;
    spec.noise_scale = 4.0f;
    spec.seed = 20240406;
    return spec;
}

/**
 * Worker threads for batched searches (JUNO_BENCH_THREADS override;
 * default 1 so figures stay comparable to the paper's per-query runs).
 */
inline int
benchThreads()
{
    const char *env = std::getenv("JUNO_BENCH_THREADS");
    if (env == nullptr)
        return 1;
    const int v = std::atoi(env);
    return v > 0 ? v : 1;
}

/** Default SearchOptions of the QPS benches. */
inline SearchOptions
searchOptions(idx_t k)
{
    SearchOptions options;
    options.k = k;
    options.threads = benchThreads();
    return options;
}

/** Worker counts of the thread-scaling tables (effective QPS). */
inline std::vector<int>
threadScalingCounts()
{
    return {1, 2, 4};
}

/** IVF cluster count scaled to dataset size (paper: IVF4096 at 1M). */
inline int
clustersFor(idx_t n)
{
    if (n >= 200000)
        return 1024;
    if (n >= 50000)
        return 512;
    return 256;
}

/**
 * QPS with the RT-LUT stage re-priced under the RTX 4090 cost model:
 * @p rt_seconds of the measured wall time (@p queries at @p qps) run
 * at the 4090's traversal throughput over the software fallback's
 * (rt_throughput 2.0 vs 0.25, see rtcore/device.h); the other stages
 * keep their measured times. A modelled column, not a measured CPU
 * speed-up.
 */
inline double
qpsRt4090(double queries, double qps, double rt_seconds)
{
    const double accel = rt::costModelRtx4090().rt_throughput /
                         rt::costModelA100().rt_throughput;
    const double total = queries / qps;
    return queries / (total - rt_seconds + rt_seconds / accel);
}

} // namespace bench
} // namespace juno

#endif // JUNO_BENCH_BENCH_COMMON_H
