/**
 * @file
 * Shared evaluation workload: a synthetic dataset, its ground truth,
 * and the QPS/recall measurement loop every bench reuses.
 */
#ifndef JUNO_HARNESS_WORKLOAD_H
#define JUNO_HARNESS_WORKLOAD_H

#include <string>

#include "baseline/index.h"
#include "dataset/ground_truth.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"

namespace juno {

/** Dataset + ground truth bundle. */
class Workload {
  public:
    /** Generates the dataset and computes exact top-@p gt_k truth. */
    Workload(const SyntheticSpec &spec, idx_t gt_k = 100);

    const Dataset &dataset() const { return data_; }
    const GroundTruth &groundTruth() const { return gt_; }
    Metric metric() const { return data_.metric; }
    FloatMatrixView base() const { return data_.base.view(); }
    FloatMatrixView queries() const { return data_.queries.view(); }
    const std::string &name() const { return data_.name; }

  private:
    Dataset data_;
    GroundTruth gt_;
};

/** One measured operating point of an index. */
struct EvalPoint {
    std::string index_name;
    double qps = 0.0;
    double recall1_at_k = 0.0;  ///< R1@k
    WilsonInterval recall1_ci;  ///< R1@k's 95% interval over the queries
    double recallm_at_k = 0.0;  ///< Rm@(10k): only when gt_k >= m
    WilsonInterval recallm_ci;  ///< Rm@k's interval over queries x m
    idx_t k = 0;
    int threads = 1;            ///< workers used by the batch
    StageTimers timers;
};

/**
 * Times index.search over the workload queries with @p options and
 * scores recall. QPS is effective batch throughput: query count over
 * end-to-end wall time, so it reflects the thread count in @p options.
 * @param recall_m when > 0 also computes Rm@k (requires gt_k >= m).
 */
EvalPoint evaluate(Workload &workload, AnnIndex &index,
                   const SearchOptions &options, idx_t recall_m = 0);

/** Single-threaded convenience overload (R1@k uses this k). */
EvalPoint evaluate(Workload &workload, AnnIndex &index, idx_t k,
                   idx_t recall_m = 0);

/**
 * Measures the same operating point at several worker counts
 * (default 1/2/4), for the thread-scaling tables the QPS benches
 * report. Results are bitwise identical across entries by the query
 * engine's determinism guarantee; only QPS moves.
 */
std::vector<EvalPoint> evaluateThreadScaling(
    Workload &workload, AnnIndex &index, idx_t k,
    const std::vector<int> &thread_counts = {1, 2, 4},
    idx_t recall_m = 0);

} // namespace juno

#endif // JUNO_HARNESS_WORKLOAD_H
