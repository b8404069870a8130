/**
 * @file
 * Reproduces paper Fig. 14:
 *  (a) JUNO without RT acceleration (the A100 situation: each ray
 *      tested against its own subspace's E entries on CUDA cores, no
 *      BVH; ExecMode::kCudaFallback) against the FAISS-style baseline.
 *      The paper finds that the algorithmic enhancement alone still
 *      wins at low quality but loses at high quality;
 *  (b) sensitivity to RT-core throughput via the traversal cost model
 *      (RTX 4090 Gen-3 = 2x A40 Gen-2; A100 = CUDA-core subspace
 *      scan).
 */
#include <cstdio>

#include "baseline/ivfpq_index.h"
#include "bench_common.h"
#include "core/juno_index.h"
#include "harness/reporter.h"
#include "harness/workload.h"
#include "rtcore/device.h"

using namespace juno;

int
main()
{
    printBanner("Fig. 14(a): JUNO w/o RT acceleration vs baseline "
                "(SIFT-like)");
    const auto spec = bench::siftSpec();
    Workload workload(spec, 100);
    const int clusters = bench::clustersFor(spec.num_points);

    IvfPqIndex::Params bp;
    bp.clusters = clusters;
    bp.pq_subspaces = 64;
    bp.pq_entries = 128;
    bp.use_hnsw_router = true; // paper: best baseline is PQ16+HNSW
    bp.max_training_points = 10000;
    IvfPqIndex baseline(workload.metric(), workload.base(), bp);

    JunoParams jp;
    jp.clusters = clusters;
    jp.pq_entries = 128;
    jp.max_training_points = 10000;
    jp.policy.ref_samples = 4000;
    JunoIndex index(workload.metric(), workload.base(), jp);

    TablePrinter table({"index", "nprobs", "R1@100 [95% CI]", "QPS"});
    for (idx_t np : {4, 16, 64}) {
        if (np > clusters)
            break;
        baseline.setNprobs(np);
        const auto b =
            evaluate(workload, baseline, bench::searchOptions(100));
        table.addRow({"FAISS(+HNSW)", std::to_string(np),
                      TablePrinter::recall(b.recall1_at_k, b.recall1_ci),
                      TablePrinter::num(b.qps)});
    }
    for (bool rt : {true, false}) {
        index.setUseRtCore(rt);
        for (SearchMode mode : {SearchMode::kHitCount,
                                SearchMode::kExactDistance}) {
            index.setSearchMode(mode);
            for (idx_t np : {4, 16, 64}) {
                if (np > clusters)
                    break;
                index.setNprobs(np);
                const auto p =
                    evaluate(workload, index, bench::searchOptions(100));
                std::string name = std::string(searchModeName(mode)) +
                                   (rt ? "(BVH)" : "(no RT: subspace scan)");
                table.addRow({name, std::to_string(np),
                              TablePrinter::recall(p.recall1_at_k,
                                                   p.recall1_ci),
                              TablePrinter::num(p.qps)});
            }
        }
    }
    table.print();
    std::printf("\npaper: without RT cores JUNO still wins at low "
                "quality (pure algorithmic sparsity)\nbut falls behind "
                "at high quality.\n");

    printBanner("Fig. 14(b): modelled speed-up vs RT-core generation");
    // Collect one traversal-counter profile and price it per device.
    index.setUseRtCore(true);
    index.setSearchMode(SearchMode::kExactDistance);
    index.setNprobs(32);
    index.device().resetStats();
    index.resetStageTimers();
    evaluate(workload, index, bench::searchOptions(100));
    const auto stats = index.rtStats();
    const double non_rt_seconds =
        index.stageTimers().seconds("filter") +
        index.stageTimers().seconds("scan");

    // Calibrate model units so the A40 preset matches the measured RT
    // stage time, then rescale per device.
    const double measured_rt = index.stageTimers().seconds("rt_lut");
    const auto a40 = rt::costModelA40();
    const double unit = measured_rt / a40.cost(stats);

    TablePrinter model_table({"device", "rt_throughput",
                              "modelled_rt_ms", "modelled_total_ms",
                              "modelled_qps_ratio_vs_A40"});
    // Two passes: totals first so every ratio uses the A40 reference.
    const auto models = {rt::costModelRtx4090(), rt::costModelA40(),
                         rt::costModelA100()};
    double a40_total = 0.0;
    for (const auto &model : models) {
        if (model.name == "A40")
            a40_total = model.cost(stats) * unit + non_rt_seconds;
    }
    for (const auto &model : models) {
        const double rt_seconds = model.cost(stats) * unit;
        const double total = rt_seconds + non_rt_seconds;
        model_table.addRow(
            {model.name, TablePrinter::num(model.rt_throughput),
             TablePrinter::num(rt_seconds * 1e3),
             TablePrinter::num(total * 1e3),
             TablePrinter::num(a40_total / total)});
    }
    model_table.print();
    std::printf("\npaper: Ada's Gen-3 RT cores (2x Gen-2 throughput) "
                "give RTX 4090 ~1.5x higher\nimprovement than A40; "
                "the A100 pays a software-traversal tax.\n");
    return 0;
}
