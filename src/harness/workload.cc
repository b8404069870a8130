#include "harness/workload.h"

#include "common/timer.h"

namespace juno {

Workload::Workload(const SyntheticSpec &spec, idx_t gt_k)
    : data_(makeDataset(spec)),
      gt_(computeGroundTruth(data_.metric, data_.base.view(),
                             data_.queries.view(), gt_k))
{
}

EvalPoint
evaluate(Workload &workload, AnnIndex &index, const SearchOptions &options,
         idx_t recall_m)
{
    index.resetStageTimers();
    Timer timer;
    const auto results =
        index.search(SearchRequest(workload.queries(), options));
    const double seconds = timer.seconds();

    EvalPoint point;
    point.index_name = index.name();
    point.k = options.k;
    point.threads = index.lastSearchThreads();
    point.qps = seconds > 0.0
        ? static_cast<double>(workload.queries().rows()) / seconds
        : 0.0;
    const auto queries = results.size();
    point.recall1_at_k = recall1AtK(workload.groundTruth(), results);
    point.recall1_ci = recallInterval(point.recall1_at_k, queries);
    if (recall_m > 0) {
        point.recallm_at_k =
            recallMAtK(workload.groundTruth(), results, recall_m);
        point.recallm_ci = recallInterval(
            point.recallm_at_k,
            queries * static_cast<std::size_t>(recall_m));
    }
    point.timers = index.stageTimers();
    return point;
}

EvalPoint
evaluate(Workload &workload, AnnIndex &index, idx_t k, idx_t recall_m)
{
    SearchOptions options;
    options.k = k;
    return evaluate(workload, index, options, recall_m);
}

std::vector<EvalPoint>
evaluateThreadScaling(Workload &workload, AnnIndex &index, idx_t k,
                      const std::vector<int> &thread_counts, idx_t recall_m)
{
    std::vector<EvalPoint> points;
    points.reserve(thread_counts.size());
    for (int threads : thread_counts) {
        SearchOptions options;
        options.k = k;
        options.threads = threads;
        // point.threads carries the *effective* worker count from the
        // engine, which may be lower than requested on tiny batches.
        points.push_back(evaluate(workload, index, options, recall_m));
    }
    return points;
}

} // namespace juno
