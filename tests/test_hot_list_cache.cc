/**
 * @file
 * Out-of-core serving tests: the admission-controlled HotListCache in
 * isolation (budgets, admission, eviction, entry lifetime, byte-size
 * parsing), the madvise/mincore helpers, and the end-to-end contract
 * that matters most — cached and uncached searches of mapped IVFPQ
 * and IVF-Flat snapshots return bitwise-identical results across
 * thread counts and under every budget, including budgets too small
 * to pin a single list.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/ivfflat_index.h"
#include "baseline/ivfpq_index.h"
#include "common/mmap_blob.h"
#include "dataset/synthetic.h"
#include "registry/index_factory.h"
#include "serve/hot_list_cache.h"

namespace juno {
namespace {

std::string
tempPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

Dataset
makeData()
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kDeepLike;
    spec.num_points = 1500;
    spec.num_queries = 12;
    spec.dim = 12;
    spec.components = 10;
    spec.seed = 606;
    return makeDataset(spec);
}

SearchResults
searchWith(AnnIndex &index, FloatMatrixView queries, idx_t k,
           int threads)
{
    SearchRequest request(queries, k);
    request.options.threads = threads;
    return index.search(request);
}

// ---------------------------------------------------------------------
// Cache unit tier
// ---------------------------------------------------------------------

TEST(HotListCache, BudgetZeroDisablesEverything)
{
    HotListCache cache(0, 16);
    EXPECT_FALSE(cache.enabled());
    EXPECT_EQ(cache.budget(), 0u);

    const std::vector<std::uint8_t> payload(64, 0xAB);
    cache.offer(3, payload.data(), payload.size(), nullptr, 0);
    EXPECT_EQ(cache.find(3), nullptr);

    const auto c = cache.counters();
    EXPECT_EQ(c.admitted, 0u);
    EXPECT_EQ(c.pinned_bytes, 0u);
    EXPECT_EQ(c.resident_lists, 0u);
}

TEST(HotListCache, ListLargerThanBudgetIsRejectedNotPartiallyPinned)
{
    HotListCache cache(100, 8);
    const std::vector<std::uint8_t> big(200, 0x11);
    cache.find(0); // make it the hottest list; size still wins
    cache.offer(0, big.data(), big.size(), nullptr, 0);
    EXPECT_EQ(cache.find(0), nullptr);

    const auto c = cache.counters();
    EXPECT_EQ(c.rejected_capacity, 1u);
    EXPECT_EQ(c.admitted, 0u);
    EXPECT_EQ(c.pinned_bytes, 0u);
}

TEST(HotListCache, AdmitsVerbatimCopiesOfBothPlanes)
{
    HotListCache cache(1024, 8);
    std::vector<std::uint8_t> primary(96);
    std::vector<std::uint8_t> secondary(32);
    for (std::size_t i = 0; i < primary.size(); ++i)
        primary[i] = static_cast<std::uint8_t>(i * 7);
    for (std::size_t i = 0; i < secondary.size(); ++i)
        secondary[i] = static_cast<std::uint8_t>(255 - i);

    cache.find(5);
    cache.offer(5, primary.data(), primary.size(), secondary.data(),
                secondary.size());
    const auto entry = cache.find(5);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->primary, primary);
    EXPECT_EQ(entry->secondary, secondary);
    EXPECT_EQ(entry->bytes(), primary.size() + secondary.size());

    const auto c = cache.counters();
    EXPECT_EQ(c.admitted, 1u);
    EXPECT_EQ(c.resident_lists, 1u);
    EXPECT_EQ(c.pinned_bytes, primary.size() + secondary.size());
}

TEST(HotListCache, EvictionUnderChurnRespectsBudgetAndFrequency)
{
    // Budget fits exactly two 64-byte lists. List 0 is made clearly
    // hot; churning cold lists through must never displace it and the
    // pinned total must never exceed the budget.
    HotListCache cache(128, 32);
    const std::vector<std::uint8_t> payload(64, 0x5A);
    for (int i = 0; i < 16; ++i)
        cache.find(0);
    cache.offer(0, payload.data(), payload.size(), nullptr, 0);
    ASSERT_NE(cache.find(0), nullptr);

    for (cluster_t list = 1; list < 20; ++list) {
        cache.find(list);
        cache.offer(list, payload.data(), payload.size(), nullptr, 0);
        const auto c = cache.counters();
        EXPECT_LE(c.pinned_bytes, 128u);
        EXPECT_LE(c.resident_lists, 2u);
    }

    // The hot list survived the churn; the cold slots cycled.
    EXPECT_NE(cache.find(0), nullptr);
    const auto c = cache.counters();
    EXPECT_GE(c.admitted, 2u);
    EXPECT_GE(c.evicted + c.rejected_policy, 1u);
}

TEST(HotListCache, EvictedEntryStaysValidForInFlightReaders)
{
    HotListCache cache(64, 8);
    std::vector<std::uint8_t> payload(64);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i);
    cache.find(1);
    cache.offer(1, payload.data(), payload.size(), nullptr, 0);
    const auto held = cache.find(1);
    ASSERT_NE(held, nullptr);

    // Displace list 1 with a hotter list of the same size.
    for (int i = 0; i < 8; ++i)
        cache.find(2);
    cache.offer(2, payload.data(), payload.size(), nullptr, 0);
    EXPECT_EQ(cache.find(1), nullptr);

    // The held shared_ptr still reads the original bytes.
    EXPECT_EQ(held->primary, payload);
}

// TSan regression stress: readers, writers and the implicit evictions
// all funnel through one mutex; under budget pressure every offer()
// can displace what a concurrent find() just handed out. The entry
// lifetime contract under fire: a held EntryPtr keeps its exact bytes
// after eviction, budget and counter invariants hold at every
// concurrent counters() sample.
TEST(HotListCache, ConcurrentFindOfferEvictChurn)
{
    constexpr int kThreads = 4;
    constexpr int kOpsPer = 800;
    constexpr std::size_t kListBytes = 64;
    // Budget fits two lists: constant eviction churn.
    HotListCache cache(2 * kListBytes, 16);

    // Each list's payload is filled with its own id, so a reader can
    // verify a handed-out entry end-to-end no matter when the list
    // was evicted underneath it.
    auto payloadFor = [](cluster_t list) {
        return std::vector<std::uint8_t>(
            kListBytes, static_cast<std::uint8_t>(list));
    };

    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> validated{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < kOpsPer; ++i) {
                // Skewed traffic: low thread ids hammer low lists so
                // admission has real frequency differences to act on.
                const auto list =
                    static_cast<cluster_t>((t + i) % (4 + 3 * t));
                const auto entry = cache.find(list);
                if (entry != nullptr) {
                    // Held entries stay bitwise-intact across any
                    // concurrent eviction (shared ownership).
                    ASSERT_EQ(entry->primary, payloadFor(list));
                    validated.fetch_add(1);
                } else {
                    const auto payload = payloadFor(list);
                    cache.offer(list, payload.data(), payload.size(),
                                nullptr, 0);
                }
                if (i % 64 == 0) {
                    const auto c = cache.counters();
                    EXPECT_LE(c.pinned_bytes, 2 * kListBytes);
                    EXPECT_LE(c.resident_lists, 2u);
                    EXPECT_EQ(c.hits + c.misses, c.lookups);
                }
            }
        });
    go.store(true);
    for (auto &t : threads)
        t.join();

    const auto c = cache.counters();
    EXPECT_EQ(c.lookups,
              static_cast<std::uint64_t>(kThreads) * kOpsPer);
    EXPECT_EQ(c.hits + c.misses, c.lookups);
    EXPECT_EQ(c.hits, validated.load());
    EXPECT_LE(c.pinned_bytes, 2 * kListBytes);
    // The churn actually exercised the eviction path.
    EXPECT_GE(c.admitted, 2u);
    EXPECT_GE(c.evicted + c.rejected_policy, 1u);
}

// ---------------------------------------------------------------------
// madvise / mincore helper tier
// ---------------------------------------------------------------------

TEST(MemAdvise, EmptyAndNullRangesAreSafeNoOps)
{
    EXPECT_FALSE(memAdvise(nullptr, 0, MemAdvice::kWillNeed));
    EXPECT_EQ(memResidentFraction(nullptr, 0), -1.0);
}

TEST(MemAdvise, MappedBlobAdviseAndResidency)
{
    const auto path = tempPath("advise.bin");
    {
        std::ofstream out(path, std::ios::binary);
        std::vector<char> bytes(3 * 4096, 'x');
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }
    const auto blob = MappedBlob::map(path);
    ASSERT_NE(blob, nullptr);

    // Advice is best-effort: assert it does not crash and that the
    // clamping keeps out-of-range sections harmless.
    blob->advise(0, blob->size(), MemAdvice::kWillNeed);
    blob->advise(blob->size() + 4096, 64, MemAdvice::kWillNeed);
    blob->advise(0, blob->size(), MemAdvice::kRandom);

    // Touch every page, then residency must read as fully resident on
    // platforms with mincore (or be unsupported, never out of range).
    std::size_t sum = 0;
    for (std::size_t i = 0; i < blob->size(); i += 512)
        sum += blob->data()[i];
    EXPECT_GT(sum, 0u);
    const double resident = blob->residentFraction(0, blob->size());
    EXPECT_TRUE(resident == -1.0 ||
                (resident >= 0.0 && resident <= 1.0));

    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// End-to-end parity tier: cached vs uncached searches must be
// bitwise identical, for mapped snapshots, across thread counts.
// ---------------------------------------------------------------------

void
expectBudgetParity(const std::string &spec)
{
    SCOPED_TRACE(spec);
    const auto ds = makeData();
    auto built = buildIndex(Metric::kL2, ds.base.view(), spec);
    const auto path = tempPath("ooc_parity.juno");
    built->save(path);
    auto index = openIndex(path); // mmap mode by default

    // The uncached reference (budget 0 detaches: pure mmap).
    ASSERT_TRUE(index->setMemoryBudget(0));
    EXPECT_EQ(index->hotListCache(), nullptr);
    const auto expected = searchWith(*index, ds.queries.view(), 15, 1);

    for (const std::int64_t budget : {64LL, 64LL << 10, 16LL << 20}) {
        SCOPED_TRACE("budget " + std::to_string(budget));
        ASSERT_TRUE(index->setMemoryBudget(budget));
        const auto cache = index->hotListCache();
        ASSERT_NE(cache, nullptr);
        EXPECT_EQ(cache->budget(), static_cast<std::size_t>(budget));
        // Two passes: the first runs cold and populates the cache,
        // the second serves hits. Both must match, on 1 and 4
        // threads.
        for (int pass = 0; pass < 2; ++pass) {
            EXPECT_EQ(searchWith(*index, ds.queries.view(), 15, 1),
                      expected);
            EXPECT_EQ(searchWith(*index, ds.queries.view(), 15, 4),
                      expected);
        }
        // A 64-byte budget is smaller than any list: everything must
        // have been rejected, never partially pinned.
        if (budget == 64) {
            const auto c = cache->counters();
            EXPECT_EQ(c.admitted, 0u);
            EXPECT_EQ(c.pinned_bytes, 0u);
        }
    }

    // Detaching returns to the pure-mmap path, still at parity.
    ASSERT_TRUE(index->setMemoryBudget(0));
    EXPECT_EQ(index->hotListCache(), nullptr);
    EXPECT_EQ(searchWith(*index, ds.queries.view(), 15, 1), expected);

    std::remove(path.c_str());
}

TEST(OutOfCoreParity, IvfPqFastScanMappedSnapshot)
{
    expectBudgetParity("ivfpq:nlist=16,m=6,entries=16,nprobe=6");
}

TEST(OutOfCoreParity, IvfPqFloatTierMappedSnapshot)
{
    expectBudgetParity("ivfpq:nlist=16,m=6,entries=32,nprobe=6");
}

TEST(OutOfCoreParity, IvfFlatMappedSnapshot)
{
    expectBudgetParity("ivfflat:nlist=16,nprobe=6");
}

TEST(OutOfCoreParity, InMemoryIndexAlsoSupportsBudgets)
{
    // The cache engages whether or not the planes are mapped (an
    // in-memory index gains nothing but must stay correct).
    const auto ds = makeData();
    auto index = buildIndex(Metric::kL2, ds.base.view(),
                            "ivfpq:nlist=16,m=6,entries=16,nprobe=6");
    const auto expected = searchWith(*index, ds.queries.view(), 10, 1);
    ASSERT_TRUE(index->setMemoryBudget(1 << 20));
    EXPECT_EQ(searchWith(*index, ds.queries.view(), 10, 1), expected);
    EXPECT_EQ(searchWith(*index, ds.queries.view(), 10, 1), expected);
}

TEST(OutOfCoreParity, IndexTypesWithoutAnIoAwarePathDecline)
{
    const auto ds = makeData();
    auto flat = buildIndex(Metric::kL2, ds.base.view(), "flat");
    EXPECT_FALSE(flat->setMemoryBudget(1 << 20));
    EXPECT_EQ(flat->hotListCache(), nullptr);
    // Declining must not disturb searching.
    const auto expected = searchWith(*flat, ds.queries.view(), 5, 1);
    EXPECT_EQ(searchWith(*flat, ds.queries.view(), 5, 1), expected);
}

} // namespace
} // namespace juno
