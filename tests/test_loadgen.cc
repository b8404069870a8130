/**
 * @file
 * Tests of the serving harnesses' load generator: exact request
 * counts in the closed loop, backpressure retries, open-loop shedding,
 * engine failures surfacing as a failed conservation gate instead of
 * a terminated process, and the paced writer's delete and freshness
 * contracts.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "baseline/flat_index.h"
#include "common/logging.h"
#include "dataset/synthetic.h"
#include "harness/loadgen.h"
#include "live/live_index.h"
#include "registry/index_factory.h"
#include "serve/search_service.h"

namespace juno {
namespace {

using namespace std::chrono_literals;

constexpr const char *kSpec = "ivfflat:nlist=16,nprobe=16,iters=4";

Dataset
smallDataset()
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kDeepLike;
    spec.num_points = 500;
    spec.num_queries = 40;
    spec.dim = 8;
    spec.seed = 919;
    return makeDataset(spec);
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

LoadConfig
readsOf(const Dataset &ds, int clients, int window)
{
    LoadConfig load;
    load.queries = ds.queries.view();
    load.k = 5;
    load.clients = clients;
    load.window = window;
    return load;
}

/** Runs @p loop against a fresh service and returns the drained
 * service's snapshot with the clients' tally. */
std::pair<ServiceStats::Snapshot, LoadTally>
drive(AnnIndex &index, const ServiceConfig &config,
      LoadTally (*loop)(SearchService &, const LoadConfig &),
      const LoadConfig &load)
{
    SearchService service(index, config);
    service.start();
    const LoadTally tally = loop(service, load);
    service.stop();
    return {service.snapshot(), tally};
}

TEST(LoadGen, ClosedLoopServesExactlyTheRequestCount)
{
    const auto ds = smallDataset();
    auto index = buildIndex(ds.metric, ds.base.view(), kSpec);
    for (const std::uint64_t requests : {7u, 2u}) {
        LoadConfig load = readsOf(ds, 3, 2);
        load.requests = requests;
        const auto [snap, tally] =
            drive(*index, ServiceConfig{}, runClosedLoop, load);
        EXPECT_EQ(tally.completed, requests);
        EXPECT_EQ(snap.completed, requests);
        EXPECT_TRUE(checkConservation(snap, tally).ok)
            << checkConservation(snap, tally).line;
    }
}

TEST(LoadGen, ClosedLoopRetriesAFullQueue)
{
    const auto ds = smallDataset();
    auto index = buildIndex(ds.metric, ds.base.view(), kSpec);
    ServiceConfig config;
    config.queue_capacity = 1;
    LoadConfig load = readsOf(ds, 3, 4);
    load.requests = 200;
    const auto [snap, tally] = drive(*index, config, runClosedLoop, load);
    EXPECT_EQ(snap.completed, 200u);
    EXPECT_GT(snap.rejected_full, 0u);
    EXPECT_EQ(tally.refused_full, snap.rejected_full);
    const Conservation c = checkConservation(snap, tally);
    EXPECT_TRUE(c.ok) << c.line;
    EXPECT_EQ(c.line.substr(c.line.size() - 3), " OK");
}

TEST(LoadGen, SheddingOpenLoopConserves)
{
    const auto ds = smallDataset();
    auto index = buildIndex(ds.metric, ds.base.view(), kSpec);
    // One queue slot held for a 2 ms linger against 20k arrivals/s:
    // most arrivals are refused at the door, and the 1 ms deadline
    // sheds some accepted ones in the queue.
    ServiceConfig config;
    config.queue_capacity = 1;
    config.linger = 2ms;
    config.default_deadline_ms = 1.0;
    LoadConfig load = readsOf(ds, 2, 1);
    load.rate = 20000.0;
    load.seconds = 0.2;
    const auto [snap, tally] = drive(*index, config, runOpenLoop, load);
    EXPECT_GT(snap.rejected_full, 0u);
    EXPECT_EQ(tally.completed, snap.completed);
    EXPECT_GT(snap.expired, 0u);
    EXPECT_EQ(tally.shed_in_queue, snap.expired);
    const Conservation c = checkConservation(snap, tally);
    EXPECT_TRUE(c.ok) << c.line;
}

TEST(LoadGen, EngineFailureFailsTheGateWithoutTerminating)
{
    const auto ds = smallDataset();
    FailingIndex index(ds.metric, ds.base.view());
    LoadConfig load = readsOf(ds, 2, 3);
    load.requests = 10;
    const auto [snap, tally] =
        drive(index, ServiceConfig{}, runClosedLoop, load);
    EXPECT_EQ(tally.errors, 10u);
    EXPECT_EQ(snap.failed, 10u);
    const Conservation c = checkConservation(snap, tally);
    EXPECT_FALSE(c.ok);
    EXPECT_NE(c.line.find("VIOLATION"), std::string::npos) << c.line;
}

TEST(LoadGen, PacedWriterDeletesOnlyItsOwnIdsAndProbesBecomeVisible)
{
    const auto ds = smallDataset();
    LiveConfig lcfg;
    lcfg.merge_threshold = 64;
    SearchService service(std::make_unique<LiveIndex>(
                              ds.metric, ds.base.view(), kSpec, lcfg),
                          ServiceConfig{});
    service.start();
    WriterConfig writes;
    writes.insert_rate = 2000.0;
    writes.delete_rate = 1500.0;
    writes.probe_every = 4;
    writes.probes = ds.queries.view();
    writes.k = 10;
    PacedWriter writer(service, ds.base.view(), writes);
    std::this_thread::sleep_for(300ms);
    const WriterResult wr = writer.finish();

    EXPECT_GT(wr.inserts, 0u);
    EXPECT_GT(wr.removes, 0u);
    EXPECT_GT(wr.probes, 0u);
    EXPECT_EQ(wr.probes_missed, 0u);
    EXPECT_EQ(wr.lag_us.count(), wr.probes);
    // Every base id is still live: removing it now succeeds.
    for (idx_t id = 0; id < ds.base.rows(); ++id)
        ASSERT_EQ(service.remove(id), MutateStatus::kOk) << id;
    service.stop();
    const auto snap = service.snapshot();
    EXPECT_EQ(snap.live_removes,
              wr.removes + static_cast<std::uint64_t>(ds.base.rows()));
    const Conservation c = checkConservation(snap, wr.reads);
    EXPECT_TRUE(c.ok) << c.line;
}

} // namespace
} // namespace juno
