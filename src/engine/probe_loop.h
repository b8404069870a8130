/**
 * @file
 * The probe loop of the IVF family: the one plan -> scan driver that
 * IVF-Flat, IVFPQ and JUNO run every query through (DESIGN.md "The
 * probe loop of the IVF family"). An index supplies its filter, its
 * LUT build and "scan one list into the top-k"; the driver owns the
 * probe budget, both deadline cuts, the hot-list cache slot, the
 * IO-aware scan order and the cache's trace instants. With no cache
 * attached the plan is the filter's order and no syscall is made.
 */
#ifndef JUNO_ENGINE_PROBE_LOOP_H
#define JUNO_ENGINE_PROBE_LOOP_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/topk.h"
#include "common/types.h"
#include "engine/search_context.h"
#include "serve/hot_list_cache.h"

namespace juno {

class InterleavedLists;

/** One probed list in scan order. */
struct PlannedProbe {
    cluster_t list = 0;
    /** Rank of the list in the filter's output (0 = best). */
    std::size_t rank = 0;
    /** The list's pinned copy on a cache hit; null otherwise. */
    HotListCache::EntryPtr pinned;
};

/** One query's probes: the filter's output (best first, only the
 * best after a plan-time cut) and the order the scan visits them. */
struct ProbePlan {
    std::vector<Neighbor> probes;
    std::vector<PlannedProbe> order;
};

/**
 * An index's attachable hot-list cache. set() may swap it under
 * concurrent searches: in-flight chunks keep their shared_ptr.
 */
class HotListSlot {
  public:
    /** Attaches a cache of @p bytes over @p num_lists lists (0
     * detaches); true, the setMemoryBudget() contract. */
    bool set(std::int64_t bytes, idx_t num_lists);

    std::shared_ptr<HotListCache>
    get() const
    {
        return std::atomic_load(&cache_);
    }

  private:
    std::shared_ptr<HotListCache> cache_;
};

/** The driver of one search chunk; lives on searchChunk's stack. */
class ProbeLoop {
  public:
    /**
     * Loads @p slot's cache once for the chunk. With a cache, a miss
     * whose first page of @p planes mincore reports non-resident gets
     * WILLNEED hints and moves to the cold tail of the plan.
     */
    explicit ProbeLoop(SearchContext &ctx, const HotListSlot *slot = nullptr,
                       const InterleavedLists *planes = nullptr);

    /** The chunk's cache (scans offer cold lists to it), or null. */
    HotListCache *cache() const { return cache_.get(); }

    /**
     * Plans query @p qi: @p filter(budget, plan.probes) picks the
     * scaled budget of @p nprobs lists; a plan past the deadline keeps
     * only the best; plan.order lists cache hits, resident misses,
     * then cold misses (the filter's order without a cache).
     */
    template <typename Filter>
    void
    plan(idx_t qi, idx_t nprobs, ProbePlan &plan, Filter &&filter)
    {
        filter(ctx_.scaledNprobes(nprobs), plan.probes);
        order(qi, plan);
    }

    /**
     * Calls @p scan_list(const PlannedProbe &) per list of @p plan
     * until a between-list deadline cut. Touches only the deadline
     * and query @p qi's flag, so another thread than plan()'s may run
     * it (JUNO's pipelined consumer).
     */
    template <typename ScanList>
    void
    scan(idx_t qi, const ProbePlan &plan, ScanList &&scan_list) const
    {
        const std::size_t n = plan.order.size();
        for (std::size_t p = 0; p < n; ++p) {
            if (p > 0 && ctx_.pastDeadline()) {
                ctx_.markDegraded(qi);
                return;
            }
            scan_list(plan.order[p]);
        }
    }

  private:
    void order(idx_t qi, ProbePlan &plan);

    SearchContext &ctx_;
    std::shared_ptr<HotListCache> cache_;
    const InterleavedLists *planes_;
    /** Ranks of cache misses, and of the mincore-cold ones among them. */
    std::vector<std::size_t> misses_;
    std::vector<std::size_t> cold_;
};

} // namespace juno

#endif // JUNO_ENGINE_PROBE_LOOP_H
