/**
 * @file
 * Two-stage producer/consumer pipeline modelling the paper's RT-core /
 * Tensor-core co-run (Sec. 5.3, Fig. 11(a)).
 *
 * On the paper's GPU, the L2-LUT construction (RT cores) of batch i
 * overlaps the distance calculation (Tensor cores) of batch i-1 under
 * a 9:1 MPS partition. Here the two stages run on two threads with a
 * bounded hand-off queue. The harness reports measured wall time plus
 * per-stage busy time so the analytic bound max(stage1, stage2) vs.
 * stage1 + stage2 can be compared even on single-core hosts (see
 * DESIGN.md substitution table).
 */
#ifndef JUNO_CORE_PIPELINE_H
#define JUNO_CORE_PIPELINE_H

#include <functional>

#include "common/types.h"

namespace juno {

/** Timing outcome of a pipeline run. */
struct PipelineResult {
    double stage1_seconds = 0.0; ///< cumulative busy time of stage 1
    double stage2_seconds = 0.0; ///< cumulative busy time of stage 2
    double wall_seconds = 0.0;   ///< end-to-end wall time
    /** Analytic co-run lower bound: max of stage busy times. */
    double
    modelledPipelinedSeconds() const
    {
        return stage1_seconds > stage2_seconds ? stage1_seconds
                                               : stage2_seconds;
    }
    /** Analytic solo-run time: sum of stage busy times. */
    double
    modelledSequentialSeconds() const
    {
        return stage1_seconds + stage2_seconds;
    }
};

/**
 * Bound of the pipelined hand-off queue; with one item in each stage,
 * at most kPipelineDepth + 2 items are live at once.
 */
constexpr std::size_t kPipelineDepth = 2;

/**
 * Runs items [0, n) through stage1 then stage2.
 *
 * stage1 runs on the caller thread and stage2 on a worker, connected
 * by a queue bounded at kPipelineDepth, so stage2(i) overlaps
 * stage1(i+1). Both stages must be safe to run concurrently with each
 * other (stage1(i) never runs concurrently with stage1(j), likewise
 * stage2). With n <= 1 there is nothing to overlap, so the item runs
 * inline on the caller thread.
 */
PipelineResult runTwoStagePipeline(idx_t n,
                                   const std::function<void(idx_t)> &stage1,
                                   const std::function<void(idx_t)> &stage2);

} // namespace juno

#endif // JUNO_CORE_PIPELINE_H
