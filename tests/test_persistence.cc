/**
 * @file
 * Lifecycle parity tests: every index type must round-trip
 * save() -> openIndex() with bitwise-identical search results to the
 * never-serialized index, in both buffered and mmap modes and across
 * thread counts; spec strings must rebuild equivalent indexes.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baseline/hnsw.h"
#include "baseline/ivfflat_index.h"
#include "baseline/ivfpq_index.h"
#include "common/logging.h"
#include "core/juno_index.h"
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

/**
 * Build from @p spec, apply @p tweak (search-time knob changes), then
 * snapshot, re-open both ways and demand parity.
 */
void
expectRoundTrip(Metric metric, const std::string &spec,
                const std::function<void(AnnIndex &)> &tweak = {})
{
    SCOPED_TRACE(spec);
    const auto ds = makeData(metric);
    auto built = buildIndex(metric, ds.base.view(), spec);

    // Canonical spec round-trips as text and carries every input knob
    // (numbers compared at float precision: spec() prints them
    // round-trip exact).
    const auto canonical = IndexSpec::parse(built->spec());
    EXPECT_EQ(IndexSpec::parse(canonical.toString()), canonical);
    for (const auto &kv : IndexSpec::parse(spec).params) {
        const std::string got = canonical.get(kv.first);
        char *end = nullptr;
        const float want = std::strtof(kv.second.c_str(), &end);
        if (*end == '\0')
            EXPECT_EQ(std::strtof(got.c_str(), nullptr), want) << kv.first;
        else
            EXPECT_EQ(got, kv.second) << kv.first;
    }
    if (tweak) {
        tweak(*built);
        EXPECT_NE(built->spec(), canonical.toString());
    }
    const auto path = tempPath("roundtrip.juno");
    built->save(path);

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
    expectRoundTrip(Metric::kL2, "ivfflat:nlist=16,nprobe=4,iters=5,seed=7");
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
    expectRoundTrip(Metric::kL2, "ivfpq:nlist=16,m=6,entries=32,nprobe=4,"
                                 "hnsw=1,hnsw_m=8,ef=32,seed=7");
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

TEST(Persistence, HnswRoundTrips)
{
    expectRoundTrip(Metric::kL2, "hnsw:m=8,efc=40,ef=32");
    expectRoundTrip(Metric::kInnerProduct, "hnsw:m=8,efc=40,ef=32");
    expectRoundTrip(Metric::kL2, "hnsw:m=8,efc=40,ef=32,seed=5");
}

TEST(Persistence, JunoRoundTrips)
{
    expectRoundTrip(Metric::kL2,
                    "juno:nlist=16,entries=32,nprobe=6,grid=30,"
                    "psamples=60,prefs=800,ptopk=40");
    expectRoundTrip(Metric::kInnerProduct,
                    "juno:nlist=16,entries=32,nprobe=6,mode=m,"
                    "grid=30,psamples=60,prefs=800,ptopk=40");
    expectRoundTrip(Metric::kL2,
                    "juno:nlist=16,entries=32,nprobe=6,mode=l,scale=0.8,"
                    "tmode=small,penalty=0.5,rt=0,pipelined=1,radius=0.8,"
                    "gatefrac=0.9,grid=30,psamples=60,prefs=800,ptopk=40");
}

TEST(Persistence, KnobsChangedAfterBuildRoundTrip)
{
    // save() records the knobs as they are at save time.
    expectRoundTrip(Metric::kL2, "ivfflat:nlist=16,nprobe=4",
                    [](AnnIndex &index) {
                        dynamic_cast<IvfFlatIndex &>(index).setNprobs(9);
                    });
    expectRoundTrip(Metric::kL2, "ivfpq:nlist=16,m=6,entries=32,nprobe=4",
                    [](AnnIndex &index) {
                        dynamic_cast<IvfPqIndex &>(index).setNprobs(9);
                    });
    expectRoundTrip(Metric::kL2, "hnsw:m=8,efc=40,ef=32",
                    [](AnnIndex &index) {
                        dynamic_cast<Hnsw &>(index).setEfSearch(50);
                    });
    expectRoundTrip(Metric::kL2,
                    "juno:nlist=16,entries=32,nprobe=6,grid=30,"
                    "psamples=60,prefs=800,ptopk=40",
                    [](AnnIndex &index) {
                        auto &juno = dynamic_cast<JunoIndex &>(index);
                        juno.setNprobs(9);
                        juno.setThresholdMode(ThresholdMode::kStaticLarge);
                        juno.setMissPenalty(0.25);
                    });
}

/** Copies snapshot @p from to @p to with @p spec as its spec section. */
void
respec(const std::string &from, const std::string &to,
       const std::string &spec)
{
    SnapshotReader reader(from);
    SnapshotWriter writer(to, spec);
    for (const auto &name : reader.sections())
        if (name != "spec") {
            const auto blob = reader.blob(name);
            writer.addBlob(name, blob.data, blob.bytes);
        }
    writer.finish();
}

/**
 * The threshold policy tabulates one entry per density count up to
 * the largest, so a forged count must fail open() as a ConfigError
 * (negative, or beyond the point count), never size an allocation.
 */
TEST(Persistence, TamperedDensityCountIsAConfigError)
{
    const auto ds = makeData(Metric::kL2);
    const auto original = tempPath("density_untampered.juno");
    const auto tampered = tempPath("density_tampered.juno");
    buildIndex(Metric::kL2, ds.base.view(),
               "juno:nlist=16,entries=32,nprobe=6,grid=30,psamples=60,"
               "prefs=800,ptopk=40")
        ->save(original);
    // The first cell count of subspace 0 follows the subspace count,
    // the grid, the box (4 floats), the cell area and the vector size.
    const std::size_t first_count = 4 + 4 + 16 + 8 + 8;
    for (const std::int64_t forged : {std::int64_t{-3},
                                      std::int64_t{1} << 40}) {
        {
            SnapshotReader reader(original);
            SnapshotWriter writer(tampered, reader.spec());
            for (const auto &name : reader.sections()) {
                if (name == "spec")
                    continue;
                const auto blob = reader.blob(name);
                std::vector<std::uint8_t> bytes(blob.data,
                                                blob.data + blob.bytes);
                if (name == "density")
                    std::memcpy(bytes.data() + first_count, &forged,
                                sizeof forged);
                writer.addBlob(name, bytes.data(), bytes.size());
            }
            writer.finish();
        }
        EXPECT_THROW(openIndex(tampered), ConfigError) << forged;
    }
    std::remove(original.c_str());
    std::remove(tampered.c_str());
}

/**
 * The scan indexes LUT rows of E cells by the interleaved codes, so a
 * code of E or more must fail open() as a ConfigError.
 */
TEST(Persistence, TamperedInterleavedCodeIsAConfigError)
{
    const auto ds = makeData(Metric::kL2);
    const auto original = tempPath("ileav_untampered.juno");
    const auto tampered = tempPath("ileav_tampered.juno");
    buildIndex(Metric::kL2, ds.base.view(),
               "juno:nlist=16,entries=32,nprobe=6,grid=30,psamples=60,"
               "prefs=800,ptopk=40")
        ->save(original);
    {
        SnapshotReader reader(original);
        SnapshotWriter writer(tampered, reader.spec());
        for (const auto &name : reader.sections()) {
            if (name == "spec")
                continue;
            const auto blob = reader.blob(name);
            std::vector<std::uint8_t> bytes(blob.data,
                                            blob.data + blob.bytes);
            if (name == "ileav.blocks") {
                const entry_t forged = 32;
                std::memcpy(bytes.data(), &forged, sizeof forged);
            }
            writer.addBlob(name, bytes.data(), bytes.size());
        }
        writer.finish();
    }
    for (const bool use_mmap : {false, true}) {
        SnapshotOptions options;
        options.use_mmap = use_mmap;
        EXPECT_THROW(openIndex(tampered, options), ConfigError) << use_mmap;
    }
    std::remove(original.c_str());
    std::remove(tampered.c_str());
}

TEST(Persistence, TamperedSpecIsAConfigError)
{
    // The spec section is the only stored copy of the knobs and is
    // read from a file, so open() checks every knob it parses.
    struct Case {
        const char *spec;
        std::vector<const char *> forged;
    };
    const std::string juno =
        "juno:nlist=16,entries=32,nprobe=6,grid=30,psamples=60,"
        "prefs=800,ptopk=40";
    const Case cases[] = {
        {"ivfflat:nlist=16,nprobe=4",
         {"ivfflat:nlist=16,nprobe=0", "ivfflat:nlist=16,nprobe=4,bogus=1",
          "ivfflat:nlist=8,nprobe=4"}},
        {"ivfpq:nlist=16,m=6,entries=32,nprobe=4",
         {"ivfpq:nlist=16,m=6,entries=32,nprobe=0",
          "ivfpq:nlist=16,m=3,entries=32,nprobe=4",
          "ivfpq:nlist=16,m=6,entries=16,nprobe=4",
          "ivfpq:nlist=16,m=6,entries=32,nprobe=4,hnsw=1"}},
        {"hnsw:m=8,efc=40,ef=32", {"hnsw:m=1,efc=40", "hnsw:m=8,bogus=1"}},
        {juno.c_str(),
         {"juno:nlist=16,entries=32,nprobe=0",
          "juno:nlist=16,entries=32,mode=x",
          "juno:nlist=16,entries=32,tmode=x",
          "juno:nlist=16,entries=32,scale=1.5",
          "juno:nlist=16,entries=32,penalty=-1",
          "juno:nlist=16,entries=64", "juno:nlist=16,entries=32,bogus=1"}},
    };
    const auto ds = makeData(Metric::kL2);
    const auto original = tempPath("untampered.juno");
    const auto tampered = tempPath("tampered.juno");
    for (const auto &c : cases) {
        buildIndex(Metric::kL2, ds.base.view(), c.spec)->save(original);
        respec(original, tampered, c.spec); // control: the copy opens
        EXPECT_NO_THROW(openIndex(tampered)) << c.spec;
        for (const char *forged : c.forged) {
            respec(original, tampered, forged);
            for (const bool use_mmap : {false, true}) {
                SnapshotOptions options;
                options.use_mmap = use_mmap;
                EXPECT_THROW(openIndex(tampered, options), ConfigError)
                    << forged << (use_mmap ? " (mmap)" : " (buffered)");
            }
        }
    }
    std::remove(original.c_str());
    std::remove(tampered.c_str());
}

TEST(Persistence, FormatOneSnapshotIsRejectedNamingTheVersion)
{
    // Format 1 kept a second, binary copy of the knobs in "meta";
    // format 2 keeps them only in the spec section.
    const auto path = tempPath("format1.juno");
    for (const char *spec : {"ivfflat:nlist=16", "ivfpq:nlist=16,m=6",
                             "hnsw:m=8", "juno:nlist=16"}) {
        {
            SnapshotWriter writer(path, spec);
            writer.section("meta").writePod<std::uint32_t>(1);
            writer.finish();
        }
        for (const bool use_mmap : {false, true}) {
            SnapshotOptions options;
            options.use_mmap = use_mmap;
            try {
                openIndex(path, options);
                ADD_FAILURE() << spec << ": opened a format-1 snapshot";
            } catch (const ConfigError &e) {
                EXPECT_NE(std::string(e.what()).find("format version 1"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    std::remove(path.c_str());
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
