/**
 * @file
 * Extra ablation (DESIGN.md Sec. 5): BVH build-policy quality. The RT
 * substrate defaults to binned SAH, the heuristic GPU builders use;
 * this bench compares SAH vs median splits on the actual JUNO entry
 * scene in build time, tree cost, and traversal work per query ray.
 */
#include <cstdio>

#include "bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "harness/reporter.h"
#include "rtcore/bvh.h"

using namespace juno;
using namespace juno::rt;

int
main()
{
    printBanner("Extra: BVH split-policy ablation on a JUNO-like entry "
                "scene");

    // A JUNO-like scene: S subspace planes of E unit spheres each,
    // clustered in xy like real codebook entries.
    const int subspaces = 48, entries = bench::largeScale() ? 256 : 128;
    Rng rng(4242);
    std::vector<Sphere> spheres;
    for (int s = 0; s < subspaces; ++s) {
        for (int e = 0; e < entries; ++e) {
            Sphere sphere;
            const bool clustered = rng.uniform() < 0.7;
            const float spread = clustered ? 0.2f : 0.9f;
            sphere.center = {
                static_cast<float>(rng.gaussian(0.0, spread)),
                static_cast<float>(rng.gaussian(0.0, spread)),
                4.0f * static_cast<float>(s) + 1.0f};
            sphere.radius = 1.0f;
            spheres.push_back(sphere);
        }
    }

    // Query rays mimicking JUNO's: +z, one per subspace, tight tmax.
    std::vector<Ray> rays;
    for (int trial = 0; trial < 2000; ++trial) {
        Ray ray;
        const int s = static_cast<int>(rng.below(subspaces));
        ray.origin = {static_cast<float>(rng.gaussian(0.0, 0.3)),
                      static_cast<float>(rng.gaussian(0.0, 0.3)),
                      4.0f * static_cast<float>(s)};
        ray.dir = {0, 0, 1};
        ray.tmax = 1.0f - 0.6f; // ~gate radius 0.8
        rays.push_back(ray);
    }

    TablePrinter table({"policy", "build_ms", "sah_cost", "depth",
                        "node_visits/ray", "prim_tests/ray", "hits/ray"});
    for (SplitPolicy policy : {SplitPolicy::kBinnedSah,
                               SplitPolicy::kMedian}) {
        Bvh bvh;
        BvhBuildParams params;
        params.policy = policy;
        Timer build_timer;
        bvh.build(spheres, params);
        const double build_ms = build_timer.millis();

        TraversalStats stats;
        // Lone rays (one-ray packets) that record no sphere: only the
        // counters are read.
        for (const auto &ray : rays)
            bvh.traceTile(&ray, 1, spheres, {}, nullptr, stats);
        const double per_ray = 1.0 / static_cast<double>(rays.size());
        table.addRow(
            {policy == SplitPolicy::kBinnedSah ? "binned SAH" : "median",
             TablePrinter::num(build_ms), TablePrinter::num(bvh.sahCost()),
             std::to_string(bvh.depth()),
             TablePrinter::num(static_cast<double>(stats.node_visits) *
                               per_ray),
             TablePrinter::num(static_cast<double>(stats.prim_tests) *
                               per_ray),
             TablePrinter::num(static_cast<double>(stats.hits) * per_ray)});
    }
    table.print();
    std::printf("\nreading: on JUNO's z-layered entry planes the two "
                "policies converge to nearly the\nsame tree (the scene "
                "is built once offline either way, paper Alg. 1); SAH "
                "is the\nsafe default because it never traverses worse "
                "and wins on irregular scenes.\n");
    return 0;
}
