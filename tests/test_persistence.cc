/**
 * @file
 * Lifecycle parity tests: every index type must round-trip
 * save() -> openIndex() with bitwise-identical search results to the
 * never-serialized index, in both buffered and mmap modes and across
 * thread counts; spec strings must rebuild equivalent indexes.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baseline/ivfflat_index.h"
#include "common/logging.h"
#include "dataset/synthetic.h"
#include "registry/index_factory.h"
#include "registry/snapshot.h"
#include "serve/search_service.h"

namespace juno {
namespace {

std::string
tempPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

Dataset
makeData(Metric metric)
{
    SyntheticSpec spec;
    spec.kind = metric == Metric::kL2 ? DatasetKind::kDeepLike
                                      : DatasetKind::kTtiLike;
    spec.num_points = 1200;
    spec.num_queries = 10;
    spec.dim = 12;
    spec.components = 10;
    spec.seed = 404;
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

/** Build from @p spec, snapshot, re-open both ways, demand parity. */
void
expectRoundTrip(Metric metric, const std::string &spec)
{
    SCOPED_TRACE(spec);
    const auto ds = makeData(metric);
    auto built = buildIndex(metric, ds.base.view(), spec);
    const auto path = tempPath("roundtrip.juno");
    built->save(path);

    // Canonical spec round-trips as text and describes the rebuild.
    const auto canonical = IndexSpec::parse(built->spec());
    EXPECT_EQ(IndexSpec::parse(canonical.toString()), canonical);

    const auto expected_t1 = searchWith(*built, ds.queries.view(), 20, 1);
    const auto expected_t4 = searchWith(*built, ds.queries.view(), 20, 4);
    // The engine guarantees thread-count invariance; rely on it here
    // so the snapshot comparison below covers both shard shapes.
    EXPECT_EQ(expected_t1, expected_t4);

    for (const bool use_mmap : {false, true}) {
        SCOPED_TRACE(use_mmap ? "mmap" : "buffered");
        SnapshotOptions options;
        options.use_mmap = use_mmap;
        auto reopened = openIndex(path, options);
        EXPECT_EQ(reopened->name(), built->name());
        EXPECT_EQ(reopened->spec(), built->spec());
        EXPECT_EQ(reopened->metric(), built->metric());
        EXPECT_EQ(reopened->size(), built->size());
        EXPECT_EQ(reopened->dim(), built->dim());
        EXPECT_EQ(searchWith(*reopened, ds.queries.view(), 20, 1),
                  expected_t1);
        EXPECT_EQ(searchWith(*reopened, ds.queries.view(), 20, 4),
                  expected_t1);
    }
    std::remove(path.c_str());
}

TEST(Persistence, FlatRoundTrips)
{
    expectRoundTrip(Metric::kL2, "flat");
    expectRoundTrip(Metric::kInnerProduct, "flat");
}

TEST(Persistence, IvfFlatRoundTrips)
{
    expectRoundTrip(Metric::kL2, "ivfflat:nlist=16,nprobe=4");
}

TEST(Persistence, IvfPqRoundTrips)
{
    // 256-entry codebooks: interleaved float-scan tier.
    expectRoundTrip(Metric::kL2,
                    "ivfpq:nlist=16,m=6,entries=32,nprobe=4");
    expectRoundTrip(Metric::kInnerProduct,
                    "ivfpq:nlist=16,m=6,entries=32,nprobe=4");
}

TEST(Persistence, IvfPqFastScanAndRouterRoundTrip)
{
    // entries <= 16 builds the nibble-packed fast-scan plane; hnsw=1
    // adds the centroid router. Both must be restored, not rebuilt.
    expectRoundTrip(
        Metric::kL2,
        "ivfpq:nlist=16,m=6,entries=16,nprobe=4,hnsw=1,hnsw_m=8");
}

TEST(Persistence, RetiredInterleavedKeyIsAConfigError)
{
    // The interleaved layout is the only scan layout of ivfpq and
    // juno; the key that switched it off is gone.
    const auto ds = makeData(Metric::kL2);
    for (const char *spec :
         {"ivfpq:nlist=16,m=6,entries=32,nprobe=4,interleaved=0",
          "juno:nlist=16,entries=32,nprobe=6,interleaved=1"})
        EXPECT_THROW(buildIndex(Metric::kL2, ds.base.view(), spec),
                     ConfigError)
            << spec;
}

TEST(Persistence, IvfPqSnapshotWithoutInterleavedLayoutIsRejected)
{
    // Files written with interleaved=0 carry a 0 layout flag in the
    // meta header; every scan tier now reads the interleaved layout.
    const auto path = tempPath("no_interleaved.juno");
    {
        SnapshotWriter writer(path, "ivfpq:nlist=16,m=6,entries=32");
        Writer &meta = writer.section("meta");
        meta.writePod<std::uint32_t>(1); // format version
        writeMetricTag(meta, Metric::kL2);
        for (const std::int64_t v : {1200, 12, 4}) // points, dim, nprobe
            meta.writePod<std::int64_t>(v);
        // nlist, m, entries, hnsw_m, ef
        for (const std::int32_t v : {16, 6, 32, 16, 64})
            meta.writePod<std::int32_t>(v);
        meta.writePod<std::uint64_t>(31); // seed
        meta.writePod<std::int64_t>(0);   // train
        meta.writePod<std::uint8_t>(0);   // no router
        meta.writePod<std::uint8_t>(0);   // no interleaved layout
        writer.finish();
    }
    try {
        openIndex(path);
        ADD_FAILURE() << "opened a snapshot without the interleaved layout";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("interleaved code layout"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(Persistence, HnswRoundTrips)
{
    expectRoundTrip(Metric::kL2, "hnsw:m=8,efc=40,ef=32");
    expectRoundTrip(Metric::kInnerProduct, "hnsw:m=8,efc=40,ef=32");
}

TEST(Persistence, JunoRoundTrips)
{
    expectRoundTrip(Metric::kL2,
                    "juno:nlist=16,entries=32,nprobe=6,grid=30,"
                    "psamples=60,prefs=800,ptopk=40");
    expectRoundTrip(Metric::kInnerProduct,
                    "juno:nlist=16,entries=32,nprobe=6,mode=m,"
                    "grid=30,psamples=60,prefs=800,ptopk=40");
}

TEST(Persistence, RtExactRoundTrips)
{
    expectRoundTrip(Metric::kL2, "rtexact");
}

TEST(Persistence, SpecRebuildMatchesOriginal)
{
    // buildIndex(spec()) reproduces the index bit-for-bit: the core
    // contract the CLI parity gate and the bench cache rely on.
    const auto ds = makeData(Metric::kL2);
    auto first = buildIndex(Metric::kL2, ds.base.view(),
                            "ivfpq:nlist=16,m=6,entries=16,nprobe=4");
    auto second = buildIndex(Metric::kL2, ds.base.view(), first->spec());
    EXPECT_EQ(first->spec(), second->spec());
    EXPECT_EQ(searchWith(*first, ds.queries.view(), 20, 1),
              searchWith(*second, ds.queries.view(), 20, 1));
}

TEST(Persistence, WrongTypeKnobsAreHarmless)
{
    // openIndex() returns the concrete registered type.
    const auto ds = makeData(Metric::kL2);
    auto built = buildIndex(Metric::kL2, ds.base.view(),
                            "ivfflat:nlist=16,nprobe=4");
    const auto path = tempPath("typed.juno");
    built->save(path);
    auto reopened = openIndex(path);
    EXPECT_NE(dynamic_cast<IvfFlatIndex *>(reopened.get()), nullptr);
    std::remove(path.c_str());
}

TEST(Persistence, ServiceWarmStartsFromSnapshot)
{
    const auto ds = makeData(Metric::kL2);
    auto built = buildIndex(Metric::kL2, ds.base.view(),
                            "ivfflat:nlist=16,nprobe=4");
    const auto path = tempPath("warmstart.juno");
    built->save(path);
    const auto expected = searchWith(*built, ds.queries.view(), 10, 1);

    ServiceConfig config;
    config.max_batch = 4;
    SearchService service(path, config);
    service.start();
    std::vector<std::future<ResultList>> futures;
    for (idx_t q = 0; q < ds.queries.rows(); ++q)
        futures.push_back(service.submit(ds.queries.view().row(q), 10));
    for (std::size_t q = 0; q < futures.size(); ++q) {
        ASSERT_TRUE(futures[q].valid());
        EXPECT_EQ(futures[q].get(), expected[q]);
    }
    service.stop();
    std::remove(path.c_str());
}

TEST(Persistence, UnknownSpecTypeRejected)
{
    const auto ds = makeData(Metric::kL2);
    EXPECT_THROW(buildIndex(Metric::kL2, ds.base.view(), "nosuch"),
                 ConfigError);
    EXPECT_THROW(
        buildIndex(Metric::kL2, ds.base.view(), "ivfflat:bogus=1"),
        ConfigError);
}

} // namespace
} // namespace juno
