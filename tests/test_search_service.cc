/**
 * @file
 * Tests of the serving layer: request queue dual trigger, service
 * result parity with direct batched search, admission control,
 * drain-on-stop (no lost or double-completed requests) and the
 * ServiceStats SLO accounting.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "baseline/flat_index.h"
#include "baseline/ivfflat_index.h"
#include "baseline/ivfpq_index.h"
#include "common/logging.h"
#include "dataset/synthetic.h"
#include "live/live_index.h"
#include "obs/trace.h"
#include "registry/index_factory.h"
#include "serve/request_queue.h"
#include "serve/search_service.h"
#include "serve/service_stats.h"

namespace juno {
namespace {

using namespace std::chrono_literals;

Dataset
smallDataset()
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kDeepLike;
    spec.num_points = 500;
    spec.num_queries = 40;
    spec.dim = 8;
    spec.seed = 777;
    return makeDataset(spec);
}

/** Flat index whose every chunk sleeps, to back-pressure the queue. */
class SlowFlatIndex : public FlatIndex {
  public:
    SlowFlatIndex(Metric metric, FloatMatrixView points,
                  std::chrono::microseconds delay)
        : FlatIndex(metric, points), delay_(delay)
    {
    }

  protected:
    void
    searchChunk(const SearchChunk &chunk, SearchContext &ctx) override
    {
        std::this_thread::sleep_for(delay_);
        FlatIndex::searchChunk(chunk, ctx);
    }

  private:
    std::chrono::microseconds delay_;
};

// ---- BoundedMpmcQueue ----

TEST(RequestQueue, FullQueueRejects)
{
    BoundedMpmcQueue<int> queue(2);
    EXPECT_EQ(queue.tryPush(1), PushResult::kOk);
    EXPECT_EQ(queue.tryPush(2), PushResult::kOk);
    EXPECT_EQ(queue.tryPush(3), PushResult::kFull);
    EXPECT_EQ(queue.size(), 2u);
}

TEST(RequestQueue, ClosedQueueRejectsAndDrains)
{
    BoundedMpmcQueue<int> queue(8);
    queue.tryPush(1);
    queue.tryPush(2);
    queue.close();
    EXPECT_EQ(queue.tryPush(3), PushResult::kClosed);
    std::vector<int> batch;
    // Everything accepted before close() is still drained...
    EXPECT_TRUE(queue.popBatch(batch, 8, 0us));
    EXPECT_EQ(batch, (std::vector<int>{1, 2}));
    // ...then consumers get the shutdown signal.
    EXPECT_FALSE(queue.popBatch(batch, 8, 0us));
}

TEST(RequestQueue, BatchFullTriggerClosesEarly)
{
    BoundedMpmcQueue<int> queue(64);
    for (int i = 0; i < 10; ++i)
        queue.tryPush(std::move(i));
    std::vector<int> batch;
    // A full batch must not wait out the linger window.
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(queue.popBatch(batch, 4, 500ms));
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(batch.size(), 4u);
    EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_LT(elapsed, 400ms);
}

TEST(RequestQueue, LingerTriggerDispatchesPartialBatch)
{
    BoundedMpmcQueue<int> queue(64);
    queue.tryPush(7);
    std::vector<int> batch;
    // One item, batch of 64: only the linger timeout can close it.
    EXPECT_TRUE(queue.popBatch(batch, 64, 1ms));
    EXPECT_EQ(batch, (std::vector<int>{7}));
}

TEST(RequestQueue, LingerWaitUntilTimesOutWithoutFill)
{
    BoundedMpmcQueue<int> queue(64);
    queue.tryPush(1);
    queue.tryPush(2);
    std::vector<int> batch;
    // Two items, target 8, no producers: only the wait_until timeout
    // branch can end the linger wait. The batch must dispatch with
    // exactly the backlog, after (roughly) the full linger window.
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(queue.popBatch(batch, 8, 30ms));
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(batch, (std::vector<int>{1, 2}));
    EXPECT_GE(elapsed, 25ms); // timed out, did not return early
    EXPECT_LT(elapsed, 500ms);
}

TEST(RequestQueue, DrainUnderChurnLosesNothing)
{
    BoundedMpmcQueue<int> queue(32);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 500;
    std::atomic<long long> popped_sum{0};
    std::atomic<int> popped_count{0};

    std::vector<std::thread> consumers;
    for (int c = 0; c < 2; ++c)
        consumers.emplace_back([&] {
            std::vector<int> batch;
            while (queue.popBatch(batch, 7, 100us)) {
                for (const int v : batch)
                    popped_sum.fetch_add(v);
                popped_count.fetch_add(static_cast<int>(batch.size()));
            }
        });

    long long pushed_sum = 0;
    int pushed_count = 0;
    std::mutex push_mutex;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p)
        producers.emplace_back([&, p] {
            long long my_sum = 0;
            int my_count = 0;
            for (int i = 0; i < kPerProducer; ++i) {
                const int v = p * kPerProducer + i;
                // Spin on kFull: churn means the queue oscillates
                // between full and drained the whole run.
                while (queue.tryPush(int(v)) == PushResult::kFull)
                    std::this_thread::yield();
                my_sum += v;
                ++my_count;
            }
            std::lock_guard<std::mutex> lock(push_mutex);
            pushed_sum += my_sum;
            pushed_count += my_count;
        });
    for (auto &t : producers)
        t.join();
    queue.close();
    for (auto &t : consumers)
        t.join();

    // Conservation through churn: every accepted item popped exactly
    // once (count and checksum both match).
    EXPECT_EQ(popped_count.load(), pushed_count);
    EXPECT_EQ(popped_sum.load(), pushed_sum);
    EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueue, ConsumerWakesOnLatePush)
{
    BoundedMpmcQueue<int> queue(8);
    std::vector<int> batch;
    std::thread producer([&] {
        std::this_thread::sleep_for(10ms);
        queue.tryPush(42);
    });
    EXPECT_TRUE(queue.popBatch(batch, 4, 0us));
    producer.join();
    EXPECT_EQ(batch, (std::vector<int>{42}));
}

// ---- ServiceStats ----

TEST(ServiceStats, CountersAndQuantiles)
{
    ServiceStats stats;
    stats.recordAccepted();
    stats.recordAccepted();
    stats.recordRejectedFull();
    stats.recordRejectedStopped();
    stats.recordCompletion(10.0, 1.0, 100.0, 111.0);
    stats.recordCompletion(20.0, 2.0, 200.0, 222.0);
    stats.recordBatch(2);

    const auto snap = stats.snapshot();
    EXPECT_EQ(snap.submitted, 2u);
    EXPECT_EQ(snap.completed, 2u);
    EXPECT_EQ(snap.rejected_full, 1u);
    EXPECT_EQ(snap.rejected_stopped, 1u);
    EXPECT_EQ(snap.batches, 1u);
    EXPECT_DOUBLE_EQ(snap.mean_batch, 2.0);
    EXPECT_EQ(snap.total_us.count, 2u);
    EXPECT_DOUBLE_EQ(snap.queue_us.p50, 15.0);
    EXPECT_DOUBLE_EQ(snap.total_us.max, 222.0);
    EXPECT_DOUBLE_EQ(snap.search_us.mean, 150.0);
}

TEST(ServiceStats, MergesRecordsFromManyThreads)
{
    ServiceStats stats;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50;
    std::vector<std::thread> recorders;
    for (int t = 0; t < kThreads; ++t)
        recorders.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i)
                stats.recordCompletion(1.0, 1.0, 1.0, 3.0);
        });
    for (auto &r : recorders)
        r.join();
    const auto snap = stats.snapshot();
    // No record may be lost to sharding.
    EXPECT_EQ(snap.completed,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(snap.total_us.count,
              static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_DOUBLE_EQ(snap.total_us.p99, 3.0);
}

// ---- SearchService ----

/** Serves every query of @p ds through @p service and checks each
 * result against @p direct bit for bit. */
void
expectServedEqualsDirect(SearchService &service, const Dataset &ds, idx_t k,
                         const SearchResults &direct)
{
    std::vector<std::future<ResultList>> futures;
    for (idx_t q = 0; q < ds.queries.rows(); ++q) {
        futures.push_back(service.submit(ds.queries.view().row(q), k));
        ASSERT_TRUE(futures.back().valid()) << "query " << q;
    }
    for (idx_t q = 0; q < ds.queries.rows(); ++q)
        EXPECT_EQ(futures[static_cast<std::size_t>(q)].get(),
                  direct[static_cast<std::size_t>(q)])
            << "query " << q;
}

TEST(SearchService, ResultsMatchDirectBatchSearch)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    const idx_t k = 10;
    const auto direct = index.search(ds.queries.view(), k);

    ServiceConfig config;
    config.max_batch = 8;
    config.linger = 200us;
    SearchService service(index, config);
    service.start();
    expectServedEqualsDirect(service, ds, k, direct);
    service.stop();

    const auto snap = service.snapshot();
    EXPECT_EQ(snap.submitted,
              static_cast<std::uint64_t>(ds.queries.rows()));
    EXPECT_EQ(snap.completed, snap.submitted);
    EXPECT_GE(snap.batches, 1u);
    EXPECT_EQ(snap.total_us.count,
              static_cast<std::size_t>(ds.queries.rows()));
}

TEST(SearchService, MemoryBudgetAttachesAtStartOrLeavesIndexAlone)
{
    const auto ds = smallDataset();
    const std::string path =
        std::string(::testing::TempDir()) + "/service_budget.juno";
    buildIndex(ds.metric, ds.base.view(),
               "ivfpq:nlist=8,m=4,entries=16,nprobe=4")
        ->save(path);
    auto index = openIndex(path); // zero-copy mmap by default
    const auto *ivfpq = dynamic_cast<const IvfPqIndex *>(index.get());
    ASSERT_NE(ivfpq, nullptr);
    ASSERT_TRUE(ivfpq->interleaved().planesMapped());
    ASSERT_EQ(index->hotListCache(), nullptr);
    const idx_t k = 10;
    const auto direct = index->search(ds.queries.view(), k);

    {
        // > 0: start() attaches a cache of exactly that budget, and the
        // cached path serves the same bits as the direct search.
        ServiceConfig config;
        config.memory_budget_bytes = 1 << 20;
        SearchService service(*index, config);
        service.start();
        const auto cache = index->hotListCache();
        ASSERT_NE(cache, nullptr);
        EXPECT_EQ(cache->counters().budget_bytes, std::size_t{1} << 20);
        expectServedEqualsDirect(service, ds, k, direct);
        service.stop();
        EXPECT_GT(service.snapshot().cache.lookups, 0u);
    }

    {
        // 0 (the default): a cache the owner attached stays as it is.
        ASSERT_TRUE(index->setMemoryBudget(64 << 10));
        const auto attached = index->hotListCache();
        ASSERT_NE(attached, nullptr);
        ServiceConfig config;
        config.memory_budget_bytes = 0;
        SearchService service(*index, config);
        service.start();
        EXPECT_EQ(index->hotListCache(), attached);
        EXPECT_EQ(attached->budget(), std::size_t{64} << 10);
        expectServedEqualsDirect(service, ds, k, direct);
        service.stop();
        EXPECT_EQ(index->hotListCache(), attached);
    }
    index.reset();
    std::remove(path.c_str());
}

TEST(SearchService, ConcurrentClientsGetCorrectResults)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    const idx_t k = 5;
    const auto direct = index.search(ds.queries.view(), k);

    ServiceConfig config;
    config.max_batch = 16;
    config.linger = 100us;
    SearchService service(index, config);
    service.start();

    constexpr int kClients = 4;
    constexpr int kRounds = 5;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&] {
            for (int round = 0; round < kRounds; ++round)
                for (idx_t q = 0; q < ds.queries.rows(); ++q) {
                    auto f =
                        service.submit(ds.queries.view().row(q), k);
                    try {
                        if (f.get() != direct[static_cast<std::size_t>(q)])
                            mismatches.fetch_add(1);
                    } catch (const RejectedError &) {
                        mismatches.fetch_add(1);
                    }
                }
        });
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
    service.stop();
    EXPECT_EQ(service.stats().completed(),
              static_cast<std::uint64_t>(kClients * kRounds) *
                  static_cast<std::uint64_t>(ds.queries.rows()));
}

TEST(SearchService, MixedKPerRequestTruncatesCorrectly)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    const auto direct = index.search(ds.queries.view(), 12);

    ServiceConfig config;
    config.max_batch = 64;
    config.linger = 2ms; // queries land in one mixed-k batch
    SearchService service(index, config);
    service.start();

    std::vector<std::future<ResultList>> futures;
    std::vector<idx_t> ks;
    for (idx_t q = 0; q < ds.queries.rows(); ++q) {
        const idx_t k = 1 + (q % 12);
        ks.push_back(k);
        futures.push_back(service.submit(ds.queries.view().row(q), k));
    }
    for (idx_t q = 0; q < ds.queries.rows(); ++q) {
        const auto got = futures[static_cast<std::size_t>(q)].get();
        const auto &full = direct[static_cast<std::size_t>(q)];
        const auto k = ks[static_cast<std::size_t>(q)];
        ASSERT_EQ(static_cast<idx_t>(got.size()), k) << "query " << q;
        for (idx_t i = 0; i < k; ++i)
            EXPECT_EQ(got[static_cast<std::size_t>(i)],
                      full[static_cast<std::size_t>(i)])
                << "query " << q << " rank " << i;
    }
}

TEST(SearchService, KZeroYieldsEmptyListAndHugeKClamps)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    SearchService service(index, {});
    service.start();
    auto empty = service.submit(ds.queries.view().row(0), 0);
    auto all = service.submit(ds.queries.view().row(0),
                              index.size() + 50);
    EXPECT_TRUE(empty.get().empty());
    EXPECT_EQ(static_cast<idx_t>(all.get().size()), index.size());
}

TEST(SearchService, AdmissionControlRejectsWhenFull)
{
    const auto ds = smallDataset();
    // ~5 ms per dispatched chunk: the dispatcher cannot keep up with
    // a burst, so the 2-deep queue must shed.
    SlowFlatIndex index(ds.metric, ds.base.view(), 5ms);
    ServiceConfig config;
    config.max_batch = 1; // drain one at a time
    config.linger = 0us;
    config.queue_capacity = 2;
    SearchService service(index, config);
    service.start();

    constexpr int kBurst = 30;
    std::vector<std::future<ResultList>> accepted;
    int rejected = 0;
    for (int i = 0; i < kBurst; ++i) {
        RejectReason reason = RejectReason::kNone;
        auto f = service.submit(ds.queries.view().row(0), 3, &reason);
        ASSERT_TRUE(f.valid()); // rejection returns a throwing future,
                                // never an invalid one
        if (reason == RejectReason::kNone) {
            accepted.push_back(std::move(f));
        } else {
            EXPECT_EQ(reason, RejectReason::kQueueFull);
            ++rejected;
            try {
                f.get();
                ADD_FAILURE() << "rejected future must throw";
            } catch (const RejectedError &e) {
                EXPECT_EQ(e.reason(), RejectReason::kQueueFull);
            }
        }
    }
    EXPECT_GT(rejected, 0); // the burst must overflow a 2-deep queue
    for (auto &f : accepted)
        EXPECT_EQ(f.get().size(), 3u); // accepted work still completes
    service.stop();

    const auto snap = service.snapshot();
    EXPECT_EQ(snap.submitted, static_cast<std::uint64_t>(
                                  accepted.size()));
    EXPECT_EQ(snap.rejected_full,
              static_cast<std::uint64_t>(rejected));
    EXPECT_EQ(snap.completed, snap.submitted);
    EXPECT_EQ(snap.submitted + snap.rejected_full,
              static_cast<std::uint64_t>(kBurst));
}

TEST(SearchService, StopDrainsEveryAcceptedRequest)
{
    const auto ds = smallDataset();
    SlowFlatIndex index(ds.metric, ds.base.view(), 1ms);
    ServiceConfig config;
    config.max_batch = 4;
    config.linger = 50us;
    config.queue_capacity = 256;
    SearchService service(index, config);
    service.start();

    std::vector<std::future<ResultList>> futures;
    for (int i = 0; i < 64; ++i) {
        auto f = service.submit(
            ds.queries.view().row(i % ds.queries.rows()), 5);
        ASSERT_TRUE(f.valid());
        futures.push_back(std::move(f));
    }
    // Stop immediately: the backlog must be completed, not dropped.
    service.stop();
    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
        EXPECT_EQ(f.get().size(), 5u); // get() would throw on a lost
                                       // (broken) promise
    }
    const auto snap = service.snapshot();
    EXPECT_EQ(snap.submitted, 64u);
    EXPECT_EQ(snap.completed, 64u); // each exactly once
}

/** Flat index whose search always throws (engine-failure path). */
class FailingIndex : public FlatIndex {
  public:
    using FlatIndex::FlatIndex;

  protected:
    void
    searchChunk(const SearchChunk &, SearchContext &) override
    {
        fatal("injected engine failure");
    }
};

TEST(SearchService, EngineFailurePropagatesAndIsAccounted)
{
    const auto ds = smallDataset();
    FailingIndex index(ds.metric, ds.base.view());
    ServiceConfig config;
    config.max_batch = 8;
    SearchService service(index, config);
    service.start();
    std::vector<std::future<ResultList>> futures;
    for (int i = 0; i < 12; ++i)
        futures.push_back(service.submit(ds.queries.view().row(0), 3));
    for (auto &f : futures) {
        ASSERT_TRUE(f.valid());
        EXPECT_THROW(f.get(), ConfigError); // the engine's error, not
                                            // broken_promise
    }
    service.stop();
    const auto snap = service.snapshot();
    // Conservation still closes: every accepted request settled, as a
    // failure.
    EXPECT_EQ(snap.submitted, 12u);
    EXPECT_EQ(snap.failed, 12u);
    EXPECT_EQ(snap.completed, 0u);
    EXPECT_EQ(snap.completed + snap.failed, snap.submitted);
}

TEST(SearchService, SubmitAfterStopIsRejected)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    SearchService service(index, {});
    service.start();
    service.stop();
    RejectReason reason = RejectReason::kNone;
    auto f = service.submit(ds.queries.view().row(0), 5, &reason);
    ASSERT_TRUE(f.valid());
    EXPECT_EQ(reason, RejectReason::kStopped);
    try {
        f.get();
        ADD_FAILURE() << "post-stop future must throw";
    } catch (const RejectedError &e) {
        EXPECT_EQ(e.reason(), RejectReason::kStopped);
    }
    EXPECT_EQ(service.stats().rejectedStopped(), 1u);
    service.stop(); // idempotent
}

TEST(SearchService, ConcurrentStopIsSafe)
{
    const auto ds = smallDataset();
    SlowFlatIndex index(ds.metric, ds.base.view(), 500us);
    ServiceConfig config;
    config.max_batch = 4;
    SearchService service(index, config);
    service.start();
    std::vector<std::future<ResultList>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(
            service.submit(ds.queries.view().row(0), 3));
    std::vector<std::thread> stoppers;
    for (int i = 0; i < 3; ++i)
        stoppers.emplace_back([&] { service.stop(); });
    for (auto &t : stoppers)
        t.join();
    // Every stop() returned => drain finished; all futures ready.
    for (auto &f : futures) {
        if (f.valid()) {
            EXPECT_EQ(f.wait_for(0s), std::future_status::ready);
        }
    }
}

TEST(SearchService, NoBatchingConfigStillServesEverything)
{
    // max_batch = 1 is the bench_serve baseline; it must be correct,
    // just slower.
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    const auto direct = index.search(ds.queries.view(), 7);
    ServiceConfig config;
    config.max_batch = 1;
    config.linger = 0us;
    SearchService service(index, config);
    service.start();
    std::vector<std::future<ResultList>> futures;
    for (idx_t q = 0; q < ds.queries.rows(); ++q)
        futures.push_back(service.submit(ds.queries.view().row(q), 7));
    for (idx_t q = 0; q < ds.queries.rows(); ++q)
        EXPECT_EQ(futures[static_cast<std::size_t>(q)].get(),
                  direct[static_cast<std::size_t>(q)]);
    service.stop();
    const auto snap = service.snapshot();
    EXPECT_DOUBLE_EQ(snap.mean_batch, 1.0);
    EXPECT_EQ(snap.batches,
              static_cast<std::uint64_t>(ds.queries.rows()));
}

/**
 * A service borrowing a LiveIndex routes its merge traces to the
 * service's tracer; destroying the service must detach it, so the
 * index's next merge does not reach the destroyed tracer. A tracer the
 * index was configured with stays attached.
 */
TEST(SearchService, BorrowedLiveIndexMergesAfterServiceIsGone)
{
    const Dataset ds = smallDataset();
    const float *q0 = ds.queries.row(0);
    const std::vector<float> vec(q0, q0 + ds.base.cols());

    LiveConfig cfg;
    cfg.auto_merge = false;
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);
    auto service = std::make_unique<SearchService>(live, ServiceConfig{});
    ASSERT_TRUE(service->liveEnabled());
    service->start();
    service.reset();
    ASSERT_EQ(live.insert(vec.data(), 9000), MutateStatus::kOk);
    EXPECT_TRUE(live.mergeNow());

    Tracer own;
    cfg.tracer = &own;
    LiveIndex traced(ds.metric, ds.base.view(), "flat", cfg);
    service = std::make_unique<SearchService>(traced, ServiceConfig{});
    service.reset();
    ASSERT_EQ(traced.insert(vec.data(), 9000), MutateStatus::kOk);
    EXPECT_TRUE(traced.mergeNow());
    EXPECT_EQ(own.sampledCount(), 1u);
}

TEST(SearchService, DestroyedWhileBorrowedLiveIndexMerges)
{
    // The TSan leg runs this: the background merge holds the service's
    // tracer while ~SearchService runs, so the destructor must wait the
    // merge out before the tracer dies.
    const Dataset ds = smallDataset();
    LiveConfig cfg;
    cfg.merge_threshold = 4;
    // Keeps the merge in flight well past the moment the test sees it.
    cfg.before_publish = [] { std::this_thread::sleep_for(50ms); };
    LiveIndex live(ds.metric, ds.base.view(), "flat", cfg);
    auto service = std::make_unique<SearchService>(live, ServiceConfig{});
    service->start();
    for (idx_t i = 0; i < cfg.merge_threshold; ++i)
        ASSERT_EQ(live.insert(ds.queries.row(i), 9000 + i),
                  MutateStatus::kOk);
    const auto give_up = std::chrono::steady_clock::now() + 10s;
    while (!live.liveStats().merging &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(100us);
    ASSERT_TRUE(live.liveStats().merging);
    service.reset();

    EXPECT_EQ(live.liveStats().merges, 1u);
    ASSERT_EQ(live.insert(ds.queries.row(cfg.merge_threshold), 9100),
              MutateStatus::kOk);
    EXPECT_TRUE(live.mergeNow());
    EXPECT_EQ(live.liveStats().merges, 2u);
}

TEST(SearchService, RejectsBadConfigAndDoubleStart)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    ServiceConfig bad;
    bad.max_batch = 0;
    EXPECT_THROW({ SearchService s(index, bad); }, ConfigError);
    ServiceConfig bad_q;
    bad_q.queue_capacity = 0;
    EXPECT_THROW({ SearchService s(index, bad_q); }, ConfigError);
    ServiceConfig bad_budget;
    bad_budget.memory_budget_bytes = -1;
    EXPECT_THROW({ SearchService s(index, bad_budget); }, ConfigError);

    SearchService service(index, {});
    service.start();
    EXPECT_THROW(service.start(), ConfigError);
    service.stop();
    EXPECT_THROW(service.start(), ConfigError);

    std::vector<float> wrong(static_cast<std::size_t>(index.dim()) + 1,
                             0.0f);
    SearchService service2(index, {});
    service2.start();
    EXPECT_THROW(service2.submit(wrong, 3), ConfigError);
}

// TSan regression stress: submitters, a snapshot() poller and racing
// stoppers all hit the service at once. snapshot() reads base_usage_,
// which start() writes — the read must go through lifecycle_mutex_ (a
// plain read here was this layer's one real pre-annotation race).
// Conservation under fire: every valid future settles exactly once
// and submitted == completed + failed after the drain.
TEST(SearchService, ConcurrentSubmitStopSnapshot)
{
    const auto ds = smallDataset();
    SlowFlatIndex index(ds.metric, ds.base.view(), 200us);
    ServiceConfig config;
    config.max_batch = 4;
    config.linger = 50us;
    config.queue_capacity = 64; // small: exercise rejected_full too
    SearchService service(index, config);
    service.start();

    constexpr int kSubmitters = 3;
    constexpr int kPerThread = 60;
    std::mutex futures_mutex;
    std::vector<std::future<ResultList>> futures;
    std::atomic<bool> go{false};
    std::atomic<bool> done{false};

    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t)
        submitters.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < kPerThread; ++i) {
                RejectReason reason = RejectReason::kNone;
                auto f = service.submit(
                    ds.queries.view().row((t + i) % ds.queries.rows()),
                    3, &reason);
                if (reason == RejectReason::kNone) {
                    std::lock_guard<std::mutex> lock(futures_mutex);
                    futures.push_back(std::move(f));
                }
            }
        });
    std::thread poller([&] {
        while (!done.load()) {
            const auto snap = service.snapshot();
            // Mid-flight the counters may trail each other, but
            // settled never exceeds accepted.
            EXPECT_LE(snap.completed + snap.failed, snap.submitted);
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 2; ++t)
        stoppers.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            // Let some traffic through, then slam the door mid-burst.
            std::this_thread::sleep_for(2ms);
            service.stop();
        });

    go.store(true);
    for (auto &t : submitters)
        t.join();
    for (auto &t : stoppers)
        t.join();
    service.stop();
    done.store(true);
    poller.join();

    // Drain guarantee: every accepted request settled exactly once.
    std::size_t settled = 0;
    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
        try {
            f.get();
        } catch (const std::exception &) {
            // engine failures still count as settled
        }
        ++settled;
    }
    const auto snap = service.snapshot();
    EXPECT_EQ(snap.submitted, settled);
    EXPECT_EQ(snap.completed + snap.failed, snap.submitted);
    // Whatever was shed was shed at the door, with a counted reason.
    const std::uint64_t total =
        static_cast<std::uint64_t>(kSubmitters) * kPerThread;
    EXPECT_EQ(snap.submitted + snap.rejected_full + snap.rejected_stopped,
              total);
}

// ---- Deadline semantics ----

TEST(SearchServiceDeadline, ExpiredAtSubmitIsRejected)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    SearchService service(index, {});
    service.start();

    RejectReason reason = RejectReason::kNone;
    auto f = service.submit(ds.queries.view().row(0), 5,
                            SearchService::Clock::now() - 1ms, &reason);
    ASSERT_TRUE(f.valid());
    EXPECT_EQ(reason, RejectReason::kExpired);
    try {
        f.get();
        ADD_FAILURE() << "expired-at-submit future must throw";
    } catch (const RejectedError &e) {
        EXPECT_EQ(e.reason(), RejectReason::kExpired);
    }
    service.stop();

    const auto snap = service.snapshot();
    EXPECT_EQ(snap.rejected_expired, 1u);
    EXPECT_EQ(snap.submitted, 0u); // shed at the door, never accepted
}

TEST(SearchServiceDeadline, ExpiredInQueueIsShedBeforeSearch)
{
    const auto ds = smallDataset();
    // 20 ms per dispatched batch: anything behind the first request
    // with a ~1 ms deadline is guaranteed stale at dequeue.
    SlowFlatIndex index(ds.metric, ds.base.view(), 20ms);
    ServiceConfig config;
    config.max_batch = 1;
    config.linger = 0us;
    config.queue_capacity = 64;
    SearchService service(index, config);
    service.start();

    // Occupy the dispatcher, then enqueue doomed work behind it.
    auto head = service.submit(ds.queries.view().row(0), 3);
    constexpr int kDoomed = 4;
    std::vector<std::future<ResultList>> doomed;
    for (int i = 0; i < kDoomed; ++i)
        doomed.push_back(
            service.submit(ds.queries.view().row(0), 3,
                           SearchService::Clock::now() + 1ms));
    EXPECT_EQ(head.get().size(), 3u);
    int expired = 0;
    for (auto &f : doomed) {
        try {
            // A shed request may still complete if it won the race to
            // the dispatcher; what it may never do is get lost.
            f.get();
        } catch (const RejectedError &e) {
            EXPECT_EQ(e.reason(), RejectReason::kExpired);
            ++expired;
        }
    }
    service.stop();

    const auto snap = service.snapshot();
    EXPECT_EQ(snap.expired, static_cast<std::uint64_t>(expired));
    EXPECT_GT(expired, 0); // the 20 ms head start dooms the backlog
    // Conservation with the expired leg.
    EXPECT_EQ(snap.submitted,
              snap.completed + snap.failed + snap.expired);
}

TEST(SearchServiceDeadline, MidScanCutoffIsDeterministicFirstProbe)
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kDeepLike;
    spec.num_points = 2000;
    spec.num_queries = 8;
    spec.dim = 16;
    spec.seed = 42;
    const auto ds = makeDataset(spec);

    IvfFlatIndex::Params params;
    params.clusters = 32;
    params.nprobs = 8;
    IvfFlatIndex index(ds.metric, ds.base.view(), params);

    // A deadline already in the past when the scan starts cuts every
    // query off after its FIRST probe list (the check runs between
    // lists, never before the first): exactly nprobe=1 results, all
    // flagged degraded — partial but valid and deterministic.
    std::vector<std::uint8_t> degraded;
    SearchRequest request(ds.queries.view(), 10);
    request.options.deadline = SearchService::Clock::now() - 1s;
    request.options.degraded = &degraded;
    const auto cut = index.search(request);

    index.setNprobs(1);
    const auto one_probe = index.search(ds.queries.view(), 10);

    ASSERT_EQ(degraded.size(),
              static_cast<std::size_t>(ds.queries.rows()));
    for (idx_t q = 0; q < ds.queries.rows(); ++q) {
        EXPECT_EQ(cut[static_cast<std::size_t>(q)],
                  one_probe[static_cast<std::size_t>(q)])
            << "query " << q;
        EXPECT_FALSE(cut[static_cast<std::size_t>(q)].empty());
        EXPECT_EQ(degraded[static_cast<std::size_t>(q)], 1)
            << "query " << q;
    }
}

TEST(SearchServiceDeadline, DefaultDeadlineZeroMeansNone)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    const auto direct = index.search(ds.queries.view(), 5);
    ServiceConfig config;
    config.default_deadline_ms = 0.0; // explicit: no deadline
    SearchService service(index, config);
    service.start();
    std::vector<std::future<ResultList>> futures;
    for (idx_t q = 0; q < ds.queries.rows(); ++q)
        futures.push_back(service.submit(ds.queries.view().row(q), 5));
    for (idx_t q = 0; q < ds.queries.rows(); ++q) {
        auto got = futures[static_cast<std::size_t>(q)].get();
        EXPECT_EQ(got, direct[static_cast<std::size_t>(q)]);
        EXPECT_FALSE(got.degraded); // parity: nothing engaged
    }
    service.stop();
    const auto snap = service.snapshot();
    EXPECT_EQ(snap.expired, 0u);
    EXPECT_EQ(snap.rejected_expired, 0u);
    EXPECT_EQ(snap.degraded, 0u);
}

// TSan stress: deadlined submits (a mix of generous, instantly-stale
// and already-expired) race stop(). Conservation must close with the
// expired leg and every future must settle exactly once.
TEST(SearchServiceDeadline, RacingDeadlinesAndStopConserveRequests)
{
    const auto ds = smallDataset();
    SlowFlatIndex index(ds.metric, ds.base.view(), 200us);
    ServiceConfig config;
    config.max_batch = 4;
    config.linger = 50us;
    config.queue_capacity = 64;
    SearchService service(index, config);
    service.start();

    constexpr int kSubmitters = 3;
    constexpr int kPerThread = 60;
    std::mutex futures_mutex;
    std::vector<std::future<ResultList>> futures;
    std::atomic<bool> go{false};

    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t)
        submitters.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < kPerThread; ++i) {
                const auto now = SearchService::Clock::now();
                const auto deadline =
                    i % 3 == 0   ? now - 1ms       // expired at submit
                    : i % 3 == 1 ? now + 300us     // stale in queue
                                 : now + 1s;       // comfortably live
                RejectReason reason = RejectReason::kNone;
                auto f = service.submit(
                    ds.queries.view().row((t + i) % ds.queries.rows()),
                    3, deadline, &reason);
                if (reason == RejectReason::kNone) {
                    std::lock_guard<std::mutex> lock(futures_mutex);
                    futures.push_back(std::move(f));
                }
            }
        });
    std::thread stopper([&] {
        while (!go.load())
            std::this_thread::yield();
        std::this_thread::sleep_for(2ms);
        service.stop();
    });

    go.store(true);
    for (auto &t : submitters)
        t.join();
    stopper.join();
    service.stop();

    std::size_t settled = 0;
    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
        try {
            f.get();
        } catch (const std::exception &) {
            // expired / engine-failed still count as settled
        }
        ++settled;
    }
    const auto snap = service.snapshot();
    EXPECT_EQ(snap.submitted, settled);
    EXPECT_EQ(snap.submitted,
              snap.completed + snap.failed + snap.expired);
}

} // namespace
} // namespace juno
