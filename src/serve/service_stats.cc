#include "serve/service_stats.h"

#include <cstdio>
#include <functional>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace juno {

ResourceUsage
readResourceUsage()
{
    ResourceUsage u;
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru {};
    if (::getrusage(RUSAGE_SELF, &ru) == 0) {
        u.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
        u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
        // ru_maxrss is the high-water mark (KiB on Linux, bytes on
        // macOS) — a fallback if /proc is unavailable below.
#if defined(__APPLE__)
        u.rss_bytes = static_cast<std::size_t>(ru.ru_maxrss);
#else
        u.rss_bytes = static_cast<std::size_t>(ru.ru_maxrss) * 1024;
#endif
    }
#endif
#if defined(__linux__)
    // Current (not peak) RSS: field 2 of /proc/self/statm, in pages.
    if (std::FILE *f = std::fopen("/proc/self/statm", "r")) {
        unsigned long long vm_pages = 0, rss_pages = 0;
        if (std::fscanf(f, "%llu %llu", &vm_pages, &rss_pages) == 2)
            u.rss_bytes = static_cast<std::size_t>(rss_pages) *
                          static_cast<std::size_t>(
                              ::sysconf(_SC_PAGESIZE));
        std::fclose(f);
    }
#endif
    return u;
}

ServiceStats::Shard &
ServiceStats::localShard()
{
    const std::size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return shards_[h % kShards];
}

void
ServiceStats::recordCompletion(double queue_us, double batch_us,
                               double search_us, double total_us)
{
    Shard &shard = localShard();
    {
        MutexLock lock(shard.mutex);
        shard.queue_us.add(queue_us);
        shard.batch_us.add(batch_us);
        shard.search_us.add(search_us);
        shard.total_us.add(total_us);
    }
    completed_.fetch_add(1);
}

void
ServiceStats::recordCompletions(const std::vector<double> &queue_us,
                                const std::vector<double> &batch_us,
                                const std::vector<double> &search_us,
                                const std::vector<double> &total_us)
{
    const std::size_t n = total_us.size();
    if (n == 0)
        return;
    Shard &shard = localShard();
    {
        MutexLock lock(shard.mutex);
        shard.queue_us.add(queue_us);
        shard.batch_us.add(batch_us);
        shard.search_us.add(search_us);
        shard.total_us.add(total_us);
    }
    completed_.fetch_add(n);
}

void
ServiceStats::recordBatch(std::size_t size)
{
    batches_.fetch_add(1);
    batched_requests_.fetch_add(size);
}

QuantileSummary
ServiceStats::componentSummary(Component component) const
{
    QuantileSketch merged;
    for (const Shard &shard : shards_) {
        MutexLock lock(shard.mutex);
        switch (component) {
        case Component::kQueue:
            merged.merge(shard.queue_us);
            break;
        case Component::kBatch:
            merged.merge(shard.batch_us);
            break;
        case Component::kSearch:
            merged.merge(shard.search_us);
            break;
        case Component::kTotal:
            merged.merge(shard.total_us);
            break;
        }
    }
    return merged.summary();
}

ServiceStats::Snapshot
ServiceStats::snapshot() const
{
    QuantileSketch queue_us, batch_us, search_us, total_us;
    for (const Shard &shard : shards_) {
        MutexLock lock(shard.mutex);
        queue_us.merge(shard.queue_us);
        batch_us.merge(shard.batch_us);
        search_us.merge(shard.search_us);
        total_us.merge(shard.total_us);
    }
    Snapshot snap;
    snap.submitted = submitted_.load();
    snap.completed = completed_.load();
    snap.failed = failed_.load();
    snap.rejected_full = rejected_full_.load();
    snap.rejected_stopped = rejected_stopped_.load();
    snap.rejected_expired = rejected_expired_.load();
    snap.expired = expired_.load();
    snap.degraded = degraded_.load();
    snap.degraded_batches = degraded_batches_.load();
    snap.batches = batches_.load();
    const std::uint64_t batched = batched_requests_.load();
    snap.mean_batch = snap.batches == 0
                          ? 0.0
                          : static_cast<double>(batched) /
                                static_cast<double>(snap.batches);
    snap.queue_us = queue_us.summary();
    snap.batch_us = batch_us.summary();
    snap.search_us = search_us.summary();
    snap.total_us = total_us.summary();
    snap.live_inserts = live_inserts_.load();
    snap.live_removes = live_removes_.load();
    snap.live_upserts = live_upserts_.load();
    snap.live_rejected = live_rejected_.load();
    return snap;
}

} // namespace juno
