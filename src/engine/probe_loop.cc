#include "engine/probe_loop.h"

#include "common/logging.h"
#include "common/mmap_blob.h"
#include "quant/interleaved_codes.h"

namespace juno {

bool
HotListSlot::set(std::int64_t bytes, idx_t num_lists)
{
    JUNO_REQUIRE(bytes >= 0, "negative memory budget");
    std::shared_ptr<HotListCache> next;
    if (bytes > 0)
        next = std::make_shared<HotListCache>(
            static_cast<std::size_t>(bytes), num_lists);
    std::atomic_store(&cache_, next);
    return true;
}

ProbeLoop::ProbeLoop(SearchContext &ctx, const HotListSlot *slot,
                     const InterleavedLists *planes)
    : ctx_(ctx), planes_(planes)
{
    if (slot != nullptr) {
        cache_ = slot->get();
        if (cache_ != nullptr && !cache_->enabled())
            cache_.reset();
    }
}

void
ProbeLoop::order(idx_t qi, ProbePlan &plan)
{
    auto &probes = plan.probes;
    // Plan-time cut: a query that starts past its deadline keeps only
    // its best probe.
    if (probes.size() > 1 && ctx_.pastDeadline()) {
        probes.resize(1);
        ctx_.markDegraded(qi);
    }
    auto &order = plan.order;
    order.clear();
    const auto listOf = [&probes](std::size_t r) {
        return static_cast<cluster_t>(probes[r].id);
    };
    if (cache_ == nullptr) {
        for (std::size_t r = 0; r < probes.size(); ++r)
            order.push_back({listOf(r), r, nullptr});
        return;
    }

    // Pinned lists scan first, straight out of heap copies. This is a
    // pure reordering: the top-k is scan-order independent (TopK
    // tie-breaks by id; the fast-scan block bound skips only strictly
    // worse blocks).
    misses_.clear();
    cold_.clear();
    for (std::size_t r = 0; r < probes.size(); ++r) {
        if (auto entry = cache_->find(listOf(r)))
            order.push_back({listOf(r), r, std::move(entry)});
        else
            misses_.push_back(r);
    }
    // A miss whose pages the OS still holds scans next (fault-free
    // anyway); a truly cold miss gets its WILLNEED issued *now* and
    // scans last, so its page-ins proceed while the warm scans run.
    // One-page mincore probe: a list's extent pages in and out
    // together, so the first page stands for the whole extent.
    // Unknown (-1) counts as cold.
    const bool mapped = planes_ != nullptr && planes_->planesMapped();
    for (const std::size_t r : misses_) {
        const cluster_t c = listOf(r);
        if (!mapped ||
            memResidentFraction(planes_->listBlocks(c), 1) >= 1.0) {
            order.push_back({c, r, nullptr});
            continue;
        }
        memAdvise(planes_->listBlocks(c), planes_->listBlocksBytes(c),
                  MemAdvice::kWillNeed);
        if (planes_->packed4())
            memAdvise(planes_->listPacked(c), planes_->listPackedBytes(c),
                      MemAdvice::kWillNeed);
        cold_.push_back(r);
    }
    for (const std::size_t r : cold_)
        order.push_back({listOf(r), r, nullptr});

    if (ctx_.trace != nullptr) {
        const auto misses = static_cast<double>(misses_.size());
        ctx_.trace->instant("hot_cache", "hits",
                            static_cast<double>(probes.size()) - misses,
                            "misses", misses);
        ctx_.trace->instant("cold_probes", "mincore_cold",
                            static_cast<double>(cold_.size()));
    }
}

} // namespace juno
