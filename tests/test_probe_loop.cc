/**
 * @file
 * Tests of the IVF family's probe loop (engine/probe_loop.h), run over
 * one table of index configurations: IVF-Flat, IVFPQ on the PQ4 fast
 * scan and on the float tier, IVFPQ PQ4 reopened by mmap with a hot-list
 * cache of half its scan payload, and JUNO-H / JUNO-M with pipelining
 * off and on. For every row:
 *
 *  - a deadline already past flags every query degraded and returns
 *    exactly what nprobe_scale = 0.01 returns: the best probe alone
 *    (the cached row pins that the plan-time cut keeps the best probe,
 *    not the first resident one);
 *  - nprobe_scale = 0.5 at nprobe 8 is bitwise nprobe 4;
 *  - no deadline at scale 1.0 flags nothing.
 *
 * A traced batch with a cache attached records the driver's
 * `hot_cache` and `cold_probes` instants for IVF-Flat and IVFPQ.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baseline/ivfflat_index.h"
#include "baseline/ivfpq_index.h"
#include "core/juno_index.h"
#include "dataset/synthetic.h"
#include "obs/trace.h"
#include "registry/index_factory.h"
#include "serve/hot_list_cache.h"

namespace juno {
namespace {

constexpr idx_t kK = 10;

Dataset
makeData()
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kDeepLike;
    spec.num_points = 2000;
    spec.num_queries = 16;
    spec.dim = 16;
    spec.components = 3; // clusters spill across lists
    spec.seed = 1601;
    return makeDataset(spec);
}

struct Row {
    const char *name;
    const char *spec;
    /** Reopen the snapshot by mmap with a cache of half the payload. */
    bool mapped_half_budget = false;
};

constexpr const char *kJuno =
    "juno:nlist=16,entries=32,nprobe=8,grid=30,psamples=60,prefs=800,"
    "ptopk=40";

const std::vector<Row> &
rows()
{
    static const std::vector<Row> table = {
        {"ivfflat", "ivfflat:nlist=16,nprobe=8"},
        {"ivfpq_pq4", "ivfpq:nlist=16,m=8,entries=16,nprobe=8"},
        {"ivfpq_float", "ivfpq:nlist=16,m=8,entries=32,nprobe=8"},
        {"ivfpq_pq4_mmap_half_budget",
         "ivfpq:nlist=16,m=8,entries=16,nprobe=8", true},
        {"juno_h", "mode=h,pipelined=0"},
        {"juno_h_pipelined", "mode=h,pipelined=1"},
        {"juno_m", "mode=m,pipelined=0"},
        {"juno_m_pipelined", "mode=m,pipelined=1"},
    };
    return table;
}

std::string
specOf(const Row &row)
{
    const std::string spec = row.spec;
    return spec.rfind("mode=", 0) == 0 ? std::string(kJuno) + "," + spec
                                       : spec;
}

std::string
tempPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

/** Bytes of every list's scan payload (both planes). */
std::int64_t
payloadBytes(const IvfPqIndex &index)
{
    std::size_t total = 0;
    const auto &planes = index.interleaved();
    for (idx_t c = 0; c < index.ivf().numClusters(); ++c)
        total += planes.listBlocksBytes(static_cast<cluster_t>(c)) +
                 planes.listPackedBytes(static_cast<cluster_t>(c));
    return static_cast<std::int64_t>(total);
}

std::unique_ptr<AnnIndex>
openRow(const Row &row, const Dataset &ds)
{
    auto built = buildIndex(Metric::kL2, ds.base.view(), specOf(row));
    if (!row.mapped_half_budget)
        return built;
    const auto path = tempPath(std::string(row.name) + ".juno");
    built->save(path);
    auto index = openIndex(path); // mmap mode by default
    std::remove(path.c_str());    // the mapping keeps the pages alive
    const auto &pq = dynamic_cast<const IvfPqIndex &>(*index);
    EXPECT_TRUE(index->setMemoryBudget(payloadBytes(pq) / 2));
    return index;
}

void
setNprobe(AnnIndex &index, idx_t nprobe)
{
    if (auto *flat = dynamic_cast<IvfFlatIndex *>(&index))
        flat->setNprobs(nprobe);
    else if (auto *pq = dynamic_cast<IvfPqIndex *>(&index))
        pq->setNprobs(nprobe);
    else
        dynamic_cast<JunoIndex &>(index).setNprobs(nprobe);
}

SearchResults
search(AnnIndex &index, const Dataset &ds, SearchOptions options,
       std::vector<std::uint8_t> *degraded = nullptr)
{
    options.k = kK;
    options.degraded = degraded;
    return index.search(SearchRequest(ds.queries.view(), options));
}

std::size_t
countFlags(const std::vector<std::uint8_t> &flags)
{
    std::size_t n = 0;
    for (const auto f : flags)
        n += f != 0 ? 1 : 0;
    return n;
}

TEST(ProbeLoop, PastDeadlineKeepsOnlyTheBestProbe)
{
    const auto ds = makeData();
    const auto queries = static_cast<std::size_t>(ds.queries.rows());
    for (const Row &row : rows()) {
        SCOPED_TRACE(row.name);
        auto index = openRow(row, ds);
        SearchOptions best_only;
        best_only.nprobe_scale = 0.01;
        std::vector<std::uint8_t> flags;
        const auto expected = search(*index, ds, best_only, &flags);
        EXPECT_EQ(countFlags(flags), 0u);
        // A full pass warms the cached row, so some queries' best
        // lists are misses while later probes are hits.
        search(*index, ds, {});

        for (const int threads : {1, 4}) {
            SearchOptions late;
            late.threads = threads;
            late.deadline =
                std::chrono::steady_clock::now() - std::chrono::seconds(1);
            const auto got = search(*index, ds, late, &flags);
            EXPECT_EQ(countFlags(flags), queries) << "threads " << threads;
            ASSERT_EQ(got.size(), queries);
            for (std::size_t q = 0; q < queries; ++q) {
                EXPECT_FALSE(got[q].empty()) << "query " << q;
                EXPECT_EQ(got[q], expected[q])
                    << "threads " << threads << " query " << q;
            }
        }
    }
}

TEST(ProbeLoop, HalfScaleAtNprobe8EqualsNprobe4)
{
    const auto ds = makeData();
    for (const Row &row : rows()) {
        SCOPED_TRACE(row.name);
        auto index = openRow(row, ds);
        setNprobe(*index, 4);
        const auto expected = search(*index, ds, {});
        setNprobe(*index, 8);
        SearchOptions half;
        half.nprobe_scale = 0.5;
        EXPECT_EQ(search(*index, ds, half), expected);
        // The full budget scans more lists, so it must differ
        // somewhere; otherwise the check above proves nothing.
        EXPECT_NE(search(*index, ds, {}), expected);
    }
}

TEST(ProbeLoop, NoDeadlineFullScaleFlagsNothing)
{
    const auto ds = makeData();
    for (const Row &row : rows()) {
        SCOPED_TRACE(row.name);
        auto index = openRow(row, ds);
        for (const int threads : {1, 4}) {
            SearchOptions options;
            options.threads = threads;
            std::vector<std::uint8_t> flags;
            search(*index, ds, options, &flags);
            EXPECT_EQ(flags.size(),
                      static_cast<std::size_t>(ds.queries.rows()));
            EXPECT_EQ(countFlags(flags), 0u) << "threads " << threads;
        }
    }
}

/** Instants named @p name in @p trace. */
std::vector<TraceEvent>
instants(const Trace &trace, const std::string &name)
{
    std::vector<TraceEvent> out;
    for (const auto &ev : trace.events())
        if (ev.phase == 'i' && name == ev.name)
            out.push_back(ev);
    return out;
}

TEST(ProbeLoop, CachedBatchesRecordHotCacheAndColdProbeInstants)
{
    const auto ds = makeData();
    const auto queries = static_cast<std::size_t>(ds.queries.rows());
    for (const char *spec : {"ivfflat:nlist=16,nprobe=8",
                             "ivfpq:nlist=16,m=8,entries=16,nprobe=8"}) {
        SCOPED_TRACE(spec);
        auto index = buildIndex(Metric::kL2, ds.base.view(), spec);
        ASSERT_TRUE(index->setMemoryBudget(16 << 20));
        double hits = 0.0;
        // The first pass offers every list; the second finds them.
        for (int pass = 0; pass < 2; ++pass) {
            Trace trace(1, Trace::Clock::now());
            SearchOptions options;
            options.trace = &trace;
            search(*index, ds, options);
            const auto cache = instants(trace, "hot_cache");
            ASSERT_EQ(cache.size(), queries);
            ASSERT_EQ(instants(trace, "cold_probes").size(), queries);
            for (const auto &ev : cache)
                EXPECT_EQ(ev.arg_value[0] + ev.arg_value[1], 8.0);
            if (pass == 1)
                for (const auto &ev : cache)
                    hits += ev.arg_value[0];
        }
        EXPECT_GT(hits, 0.0);
    }

    // No cache, no instants: JUNO declines a budget, and a detached
    // cache restores the plain plan.
    auto juno = buildIndex(Metric::kL2, ds.base.view(), kJuno);
    EXPECT_FALSE(juno->setMemoryBudget(16 << 20));
    auto flat = buildIndex(Metric::kL2, ds.base.view(),
                           "ivfflat:nlist=16,nprobe=8");
    ASSERT_TRUE(flat->setMemoryBudget(0));
    for (AnnIndex *index : {juno.get(), flat.get()}) {
        Trace trace(1, Trace::Clock::now());
        SearchOptions options;
        options.trace = &trace;
        search(*index, ds, options);
        EXPECT_TRUE(instants(trace, "hot_cache").empty());
        EXPECT_TRUE(instants(trace, "cold_probes").empty());
    }
}

} // namespace
} // namespace juno
