#include "serve/hot_list_cache.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/fault_injection.h"
#include "common/logging.h"

namespace juno {

HotListCache::HotListCache(std::size_t budget_bytes, idx_t num_lists)
    : budget_(budget_bytes)
{
    JUNO_REQUIRE(num_lists >= 0, "negative list count");
    if (budget_ > 0)
        freq_.assign(static_cast<std::size_t>(num_lists), 0);
    counters_.budget_bytes = budget_;
}

std::uint64_t
HotListCache::ageInterval() const
{
    // Halve every counter once the table has seen roughly eight
    // accesses per list: long enough for frequencies to mean
    // something, short enough that a traffic shift re-ranks the
    // lists within a few thousand queries.
    return std::max<std::uint64_t>(1024, 8 * freq_.size());
}

void
HotListCache::ageLocked()
{
    for (auto &f : freq_)
        f >>= 1;
}

HotListCache::EntryPtr
HotListCache::find(cluster_t list)
{
    if (!enabled())
        return nullptr;
    MutexLock lock(mutex_);
    const auto idx = static_cast<std::size_t>(list);
    JUNO_ASSERT(idx < freq_.size(), "list " << list << " of "
                                            << freq_.size());
    ++counters_.lookups;
    if (freq_[idx] < std::numeric_limits<std::uint32_t>::max())
        ++freq_[idx];
    if (++accesses_since_age_ >= ageInterval()) {
        accesses_since_age_ = 0;
        ageLocked();
    }
    const auto it = entries_.find(list);
    if (it == entries_.end()) {
        ++counters_.misses;
        return nullptr;
    }
    ++counters_.hits;
    return it->second;
}

void
HotListCache::offer(cluster_t list, const void *primary,
                    std::size_t primary_bytes, const void *secondary,
                    std::size_t secondary_bytes)
{
    if (!enabled())
        return;
    // Chaos hook: an injected admission failure degrades to "don't
    // cache this list" — the scan that made the offer already has the
    // data, so a flaky cache must never fail a query.
    try {
        fault::inject("cache.admit");
    } catch (const FaultInjectedError &) {
        return;
    }
    const std::size_t bytes = primary_bytes + secondary_bytes;
    if (bytes == 0)
        return;
    MutexLock lock(mutex_);
    const auto idx = static_cast<std::size_t>(list);
    JUNO_ASSERT(idx < freq_.size(), "list " << list << " of "
                                            << freq_.size());
    if (entries_.count(list) != 0)
        return; // raced with another scanner's offer
    if (bytes > budget_) {
        ++counters_.rejected_capacity;
        return;
    }
    // Evict strictly-colder residents until the offer fits; give up
    // (keep the residents) the moment the coldest survivor is at
    // least as hot as the candidate — admission never lets a
    // one-hit-wonder displace proven traffic.
    const std::uint32_t candidate_freq = freq_[idx];
    while (pinned_bytes_ + bytes > budget_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (victim == entries_.end() ||
                freq_[static_cast<std::size_t>(it->first)] <
                    freq_[static_cast<std::size_t>(victim->first)])
                victim = it;
        }
        JUNO_ASSERT(victim != entries_.end(),
                    "budget accounting out of sync");
        if (freq_[static_cast<std::size_t>(victim->first)] >=
            candidate_freq) {
            ++counters_.rejected_policy;
            return;
        }
        pinned_bytes_ -= victim->second->bytes();
        entries_.erase(victim); // in-flight readers hold their ptr
        ++counters_.evicted;
    }
    auto entry = std::make_shared<CachedList>();
    entry->primary.assign(
        static_cast<const std::uint8_t *>(primary),
        static_cast<const std::uint8_t *>(primary) + primary_bytes);
    if (secondary_bytes > 0)
        entry->secondary.assign(
            static_cast<const std::uint8_t *>(secondary),
            static_cast<const std::uint8_t *>(secondary) +
                secondary_bytes);
    pinned_bytes_ += bytes;
    entries_.emplace(list, std::move(entry));
    ++counters_.admitted;
}

HotListCache::Counters
HotListCache::counters() const
{
    MutexLock lock(mutex_);
    Counters c = counters_;
    c.pinned_bytes = pinned_bytes_;
    c.resident_lists = entries_.size();
    c.budget_bytes = budget_;
    return c;
}

} // namespace juno
