/**
 * @file
 * Admission-controlled hot-list cache for out-of-core serving.
 *
 * A snapshot opened in mmap mode pages its scan payloads in on
 * demand, which is perfect until the index outgrows RAM: then the OS
 * evicts whatever it likes, and a probe of an evicted inverted list
 * stalls the synchronous scan on page faults. HotListCache applies
 * the classic cache-hierarchy discipline to inverted lists instead of
 * cache lines:
 *
 *  - frequency tracking: every probe of a list bumps its counter
 *    (periodically halved, so the history ages and traffic shifts
 *    re-rank the lists);
 *  - admission control: after a cold scan the list's payload is
 *    *offered*; it is copied out of the mmap view into pinned heap
 *    memory only if it fits the byte budget, evicting strictly
 *    less-frequent residents — a one-hit-wonder can never displace a
 *    proven-hot list (TinyLFU-style admission);
 *  - pinning: cached copies live in ordinary heap memory the
 *    serving process owns, immune to eviction of the file mapping,
 *    and scans of cached lists run fault-free while madvise
 *    prefetches cover the cold tail.
 *
 * The cache is bitwise-transparent: a cached payload is a verbatim
 * copy of the bytes the scan kernels would have read from the
 * mapping, so cached and uncached searches return identical results
 * (the ooc bench and CTest parity gates enforce this).
 *
 * Thread safety: all members are guarded by one mutex; entries are
 * handed out as shared_ptr so an evicted list stays valid for
 * in-flight readers. Lock hold times are micro-scale against
 * milli-scale scans (one find() per probed list, one offer() per
 * cold list).
 */
#ifndef JUNO_SERVE_HOT_LIST_CACHE_H
#define JUNO_SERVE_HOT_LIST_CACHE_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"

namespace juno {

/**
 * One pinned inverted list: up to two flat payload planes whose
 * meaning the owning index defines. IVFPQ pins the interleaved
 * entry_t blocks (primary) and the nibble-packed PQ4 plane
 * (secondary); IVF-Flat pins the list's point rows re-materialised
 * contiguously in list order (primary only).
 */
struct CachedList {
    std::vector<std::uint8_t> primary;
    std::vector<std::uint8_t> secondary;

    std::size_t bytes() const { return primary.size() + secondary.size(); }

    template <typename T>
    const T *
    primaryAs() const
    {
        return reinterpret_cast<const T *>(primary.data());
    }

    template <typename T>
    const T *
    secondaryAs() const
    {
        return reinterpret_cast<const T *>(secondary.data());
    }
};

/** Admission-controlled, byte-budgeted cache of hot inverted lists. */
class HotListCache {
  public:
    using EntryPtr = std::shared_ptr<const CachedList>;

    /** Point-in-time counters (ServiceStats / bench reporting). */
    struct Counters {
        std::uint64_t lookups = 0;  ///< find() calls
        std::uint64_t hits = 0;     ///< find() returned a pinned entry
        std::uint64_t misses = 0;   ///< find() returned null
        std::uint64_t admitted = 0; ///< offers copied into the cache
        std::uint64_t evicted = 0;  ///< residents displaced
        /** Offers larger than the whole budget (can never fit). */
        std::uint64_t rejected_capacity = 0;
        /** Offers colder than every eviction victim (admission said no). */
        std::uint64_t rejected_policy = 0;
        std::size_t pinned_bytes = 0;   ///< resident payload bytes
        std::size_t resident_lists = 0; ///< resident entry count
        std::size_t budget_bytes = 0;   ///< configured budget
    };

    /**
     * @p budget_bytes caps the pinned payload total; 0 disables the
     * cache entirely (find() always misses without counting, offer()
     * is a no-op — the pure-mmap path). @p num_lists sizes the
     * frequency table (list ids must stay below it).
     */
    HotListCache(std::size_t budget_bytes, idx_t num_lists);

    bool enabled() const { return budget_ > 0; }
    std::size_t budget() const { return budget_; }

    /**
     * Records an access to @p list and returns its pinned entry, or
     * null when the list is not resident. The returned entry stays
     * valid after eviction (shared ownership).
     */
    EntryPtr find(cluster_t list) JUNO_EXCLUDES(mutex_);

    /**
     * Offers a cold list's payload for admission after its scan. The
     * planes are copied (pinned) only when the admission policy
     * accepts: the payload fits the budget, possibly after evicting
     * strictly less-frequent residents. Null planes of size 0 are
     * valid (single-plane owners).
     */
    void offer(cluster_t list, const void *primary, std::size_t primary_bytes,
               const void *secondary, std::size_t secondary_bytes)
        JUNO_EXCLUDES(mutex_);

    Counters counters() const JUNO_EXCLUDES(mutex_);

  private:
    /** Accesses between halvings of every frequency counter. */
    std::uint64_t ageInterval() const JUNO_REQUIRES(mutex_);
    void ageLocked() JUNO_REQUIRES(mutex_);

    const std::size_t budget_;
    mutable Mutex mutex_;
    std::vector<std::uint32_t> freq_ JUNO_GUARDED_BY(mutex_);
    std::unordered_map<cluster_t, std::shared_ptr<const CachedList>>
        entries_ JUNO_GUARDED_BY(mutex_);
    std::size_t pinned_bytes_ JUNO_GUARDED_BY(mutex_) = 0;
    std::uint64_t accesses_since_age_ JUNO_GUARDED_BY(mutex_) = 0;
    Counters counters_ JUNO_GUARDED_BY(mutex_);
};

} // namespace juno

#endif // JUNO_SERVE_HOT_LIST_CACHE_H
