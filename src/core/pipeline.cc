#include "core/pipeline.h"

#include <condition_variable>
#include <deque>
#include <thread>

#include "common/thread_annotations.h"
#include "common/timer.h"

namespace juno {

PipelineResult
runTwoStagePipeline(idx_t n, const std::function<void(idx_t)> &stage1,
                    const std::function<void(idx_t)> &stage2)
{
    PipelineResult result;
    Timer wall;

    if (n <= 1) {
        for (idx_t i = 0; i < n; ++i) {
            Timer t1;
            stage1(i);
            result.stage1_seconds += t1.seconds();
            Timer t2;
            stage2(i);
            result.stage2_seconds += t2.seconds();
        }
        result.wall_seconds = wall.seconds();
        return result;
    }

    // Bounded hand-off queue of ready items (kPipelineDepth keeps at
    // most one batch in flight per stage, like the MPS co-run). Local
    // state, so the capability analysis cannot attach guarded_by
    // annotations; the explicit wait loops still keep every access
    // inside a lock scope TSan can vouch for.
    Mutex mutex;
    std::condition_variable cv;
    std::deque<idx_t> ready;
    bool done = false;

    double stage2_busy = 0.0;
    std::thread consumer([&] {
        while (true) {
            idx_t item;
            {
                CvLock lock(mutex);
                while (ready.empty() && !done)
                    cv.wait(lock.native());
                if (ready.empty())
                    return;
                item = ready.front();
                ready.pop_front();
            }
            cv.notify_all();
            Timer t2;
            stage2(item);
            stage2_busy += t2.seconds();
        }
    });

    for (idx_t i = 0; i < n; ++i) {
        Timer t1;
        stage1(i);
        result.stage1_seconds += t1.seconds();
        {
            CvLock lock(mutex);
            while (ready.size() >= kPipelineDepth)
                cv.wait(lock.native());
            ready.push_back(i);
        }
        cv.notify_all();
    }
    {
        MutexLock lock(mutex);
        done = true;
    }
    cv.notify_all();
    consumer.join();
    result.stage2_seconds = stage2_busy;
    result.wall_seconds = wall.seconds();
    return result;
}

} // namespace juno
