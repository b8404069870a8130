/**
 * @file
 * Reproduces paper Fig. 13(b): static-small vs static-large vs dynamic
 * threshold strategies (SIFT-like, JUNO-H). The static thresholds are
 * the minimum and maximum of the dynamic policy's training range,
 * exactly as the paper selects them.
 *
 * Expected shape: the large static threshold reaches high recall but
 * low QPS (every ray triggers many hit shaders); the small one is fast
 * but recall-starved; the dynamic strategy dominates both.
 */
#include <cstdio>

#include "bench_common.h"
#include "core/juno_index.h"
#include "harness/reporter.h"
#include "harness/workload.h"

using namespace juno;

int
main()
{
    printBanner("Fig. 13(b): static vs dynamic threshold (SIFT-like, "
                "JUNO-H)");
    const auto spec = bench::siftSpec();
    Workload workload(spec, 100);

    JunoParams jp = junoPresetH();
    jp.clusters = bench::clustersFor(spec.num_points);
    jp.pq_entries = 128;
    jp.max_training_points = 10000;
    jp.policy.ref_samples = 4000;
    JunoIndex index(workload.metric(), workload.base(), jp);

    TablePrinter table({"strategy", "nprobs", "R1@100 [95% CI]", "QPS",
                        "rt_hits_per_query"});
    const struct {
        const char *label;
        ThresholdMode mode;
    } strategies[] = {
        {"R-Small (static min)", ThresholdMode::kStaticSmall},
        {"R-Large (static max)", ThresholdMode::kStaticLarge},
        {"R-Dynamic (density-regressed)", ThresholdMode::kDynamic},
    };
    for (const auto &strategy : strategies) {
        index.setThresholdMode(strategy.mode);
        for (idx_t np : {8, 32, 128}) {
            if (np > index.ivf().numClusters())
                break;
            index.setNprobs(np);
            index.device().resetStats();
            const auto point =
                evaluate(workload, index, bench::searchOptions(100));
            const double hits_per_query =
                static_cast<double>(index.rtStats().hits) /
                static_cast<double>(workload.queries().rows());
            table.addRow({strategy.label, std::to_string(np),
                          TablePrinter::recall(point.recall1_at_k,
                                               point.recall1_ci),
                          TablePrinter::num(point.qps),
                          TablePrinter::num(hits_per_query)});
        }
    }
    table.print();
    std::printf("\npaper: the dynamic strategy beats both static "
                "extremes on the quality/throughput\nfrontier — the "
                "large static radius triggers excess hit shaders, the "
                "small one starves\nrecall and forces more probed "
                "clusters.\n");
    return 0;
}
