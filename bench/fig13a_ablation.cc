/**
 * @file
 * Reproduces paper Fig. 13(a): JUNO's speed-up over the FAISS-style
 * baseline at fixed recall targets, with each optimization ablated:
 *  - full JUNO (best of the three modes, pipelined),
 *  - w/o pipelining (strictly sequential stages),
 *  - w/o hit-count selection (always exact distances).
 *
 * QPS uses the RTX 4090 re-pricing of the RT stage (see
 * fig12_qps_recall.cc header), a modelled column: on the CPU the dense
 * sphere gate beats the BVH walk at today's geometry (DESIGN.md, "Walk
 * or gate"), so JUNO's measured RT stage shows no RT-core speed-up of
 * its own. The paper's shape is: hit-count
 * selection drives the low-recall advantage and is harmless to ablate
 * at the highest recall (it cannot reach that quality anyway), while
 * pipelining contributes across the range.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/ivfpq_index.h"
#include "bench_common.h"
#include "core/juno_index.h"
#include "harness/reporter.h"
#include "harness/workload.h"

using namespace juno;

namespace {

struct Operating {
    double recall = 0.0;
    WilsonInterval recall_ci; ///< 95% interval over the queries
    double qps = 0.0;
};

/** One pass over the nprobs sweep, collecting operating points. */
template <typename IndexT>
std::vector<Operating>
collect(Workload &workload, IndexT &index, bool reprice_rt)
{
    const double q_count =
        static_cast<double>(workload.queries().rows());
    std::vector<Operating> points;
    for (idx_t np : {1, 2, 4, 8, 16, 32, 64}) {
        if (np > index.ivf().numClusters())
            break;
        index.setNprobs(np);
        const auto point =
            evaluate(workload, index, bench::searchOptions(100));
        const double qps = reprice_rt
            ? bench::qpsRt4090(q_count, point.qps,
                               point.timers.seconds("rt_lut"))
            : point.qps;
        points.push_back({point.recall1_at_k, point.recall1_ci, qps});
    }
    return points;
}

/** Best QPS among cached points whose recall reaches @p target. */
Operating
bestAtRecall(const std::vector<Operating> &points, double target)
{
    Operating best;
    for (const auto &p : points)
        if (p.recall >= target && p.qps > best.qps)
            best = p;
    return best;
}

} // namespace

int
main()
{
    printBanner("Fig. 13(a): speed-up breakdown vs FAISS baseline "
                "(DEEP-like, QPS_rt4090)");
    const auto spec = bench::deepSpec();
    Workload workload(spec, 100);
    const int clusters = bench::clustersFor(spec.num_points);

    IvfPqIndex::Params bp;
    bp.clusters = clusters;
    bp.pq_subspaces = 48;
    bp.pq_entries = 256;
    bp.max_training_points = 10000;
    IvfPqIndex baseline(workload.metric(), workload.base(), bp);
    const auto base_points = collect(workload, baseline, false);

    JunoParams jp;
    jp.clusters = clusters;
    jp.pq_entries = 256;
    jp.max_training_points = 10000;
    jp.policy.ref_samples = 4000;
    JunoIndex index(workload.metric(), workload.base(), jp);

    // Collect one sweep per (mode, pipelined) configuration.
    struct ModeSweep {
        SearchMode mode;
        bool pipelined;
        std::vector<Operating> points;
    };
    std::vector<ModeSweep> sweeps;
    for (SearchMode mode : {SearchMode::kExactDistance,
                            SearchMode::kRewardPenalty,
                            SearchMode::kHitCount}) {
        for (bool pipelined : {true, false}) {
            index.setSearchMode(mode);
            index.setPipelined(pipelined);
            index.setThresholdScale(mode == SearchMode::kExactDistance
                                        ? 1.0
                                        : 0.7);
            sweeps.push_back(
                {mode, pipelined, collect(workload, index, true)});
        }
    }

    auto best_of = [&](bool allow_hitcount, bool pipelined,
                       double target) {
        Operating best;
        for (const auto &sweep : sweeps) {
            if (sweep.pipelined != pipelined)
                continue;
            if (!allow_hitcount &&
                sweep.mode != SearchMode::kExactDistance)
                continue;
            const auto got = bestAtRecall(sweep.points, target);
            if (got.qps > best.qps)
                best = got;
        }
        return best;
    };

    // Each chosen point's R1@100 with its 95% interval: the target
    // is met by the point estimate, which the interval qualifies.
    TablePrinter table({"recall target", "FAISS_qps", "JUNO_qps",
                        "JUNO_wo_pipeline_qps", "JUNO_wo_hitcount_qps",
                        "speedup", "speedup_wo_pipe", "speedup_wo_hc",
                        "FAISS_R1@100", "JUNO_R1@100",
                        "JUNO_wo_pipeline_R1@100",
                        "JUNO_wo_hitcount_R1@100"});
    for (double target : {0.95, 0.9, 0.8, 0.65}) {
        const auto base = bestAtRecall(base_points, target);
        if (base.qps == 0.0)
            continue;
        const auto full = best_of(true, true, target);
        const auto wo_pipe = best_of(true, false, target);
        const auto wo_hc = best_of(false, true, target);
        table.addRow(
            {TablePrinter::num(target), TablePrinter::num(base.qps),
             TablePrinter::num(full.qps), TablePrinter::num(wo_pipe.qps),
             TablePrinter::num(wo_hc.qps),
             TablePrinter::num(full.qps / base.qps),
             TablePrinter::num(wo_pipe.qps / base.qps),
             TablePrinter::num(wo_hc.qps / base.qps),
             TablePrinter::recall(base.recall, base.recall_ci),
             TablePrinter::recall(full.recall, full.recall_ci),
             TablePrinter::recall(wo_pipe.recall, wo_pipe.recall_ci),
             TablePrinter::recall(wo_hc.recall, wo_hc.recall_ci)});
    }
    table.print();
    std::printf("\npaper: hit-count selection drives the low-recall "
                "advantage; its ablation is harmless\nat the top recall "
                "band. Pipelining contributes across the range (bounded "
                "on a\nsingle-core host; see DESIGN.md).\n");
    std::printf("\nJUNO columns re-price the measured rt_lut stage under "
                "the RTX 4090 model; they\nare modelled, not a measured "
                "CPU speed-up: on the CPU the dense sphere gate beats\n"
                "the BVH walk at today's geometry (DESIGN.md, \"Walk or "
                "gate\").\n");
    return 0;
}
