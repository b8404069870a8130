/**
 * @file
 * Reproduces paper Fig. 14:
 *  (a) JUNO without RT acceleration (the A100 situation: each ray
 *      tested against its own subspace's E entries on CUDA cores, no
 *      BVH; ExecMode::kCudaFallback, the SIMD dense gate) against the
 *      FAISS-style baseline. The paper finds that the algorithmic
 *      enhancement alone still wins at low quality but loses at high
 *      quality. Each row's QPS is the median of kRepeats timed passes,
 *      reported with its quartiles;
 *  (b) sensitivity to RT-core throughput via the traversal cost model
 *      (RTX 4090 Gen-3 = 2x A40 Gen-2; A100 = CUDA-core subspace
 *      scan).
 */
#include <cstdio>
#include <string>

#include "baseline/ivfpq_index.h"
#include "bench_common.h"
#include "common/stats.h"
#include "core/juno_index.h"
#include "harness/reporter.h"
#include "harness/workload.h"
#include "rtcore/device.h"

using namespace juno;

namespace {

/** Timed passes per Fig. 14(a) row; the QPS reported is their median. */
constexpr int kRepeats = 5;

/**
 * Evaluates @p index kRepeats times and adds one row: its R1@100 (the
 * same every pass) and the median QPS with its quartiles.
 */
void
addTimedRow(TablePrinter &table, const std::string &name, idx_t np,
            Workload &workload, AnnIndex &index)
{
    QuantileSketch qps;
    EvalPoint point;
    for (int r = 0; r < kRepeats; ++r) {
        point = evaluate(workload, index, bench::searchOptions(100));
        qps.add(point.qps);
    }
    table.addRow({name, std::to_string(np),
                  TablePrinter::recall(point.recall1_at_k, point.recall1_ci),
                  TablePrinter::num(qps.median()),
                  TablePrinter::num(qps.q1()) + "-" +
                      TablePrinter::num(qps.q3())});
}

} // namespace

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

    TablePrinter table(
        {"index", "nprobs", "R1@100 [95% CI]", "QPS_median", "QPS_q1-q3"});
    for (idx_t np : {4, 16, 64}) {
        if (np > clusters)
            break;
        baseline.setNprobs(np);
        addTimedRow(table, "FAISS(+HNSW)", np, workload, baseline);
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
                addTimedRow(table,
                            std::string(searchModeName(mode)) +
                                (rt ? "(BVH)" : "(no RT: dense gate)"),
                            np, workload, index);
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
