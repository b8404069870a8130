/** @file Tests for binary serialization and index persistence. */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/serialize.h"
#include "core/juno_index.h"
#include "dataset/synthetic.h"
#include "registry/index_factory.h"

namespace juno {
namespace {

std::string
tempPath(const std::string &name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

constexpr char kMagic[8] = {'T', 'E', 'S', 'T', 'M', 'A', 'G', 'C'};

TEST(Serialize, PodAndVectorRoundTrip)
{
    const auto path = tempPath("pods.bin");
    {
        BinaryWriter writer(path, kMagic, 3);
        writer.writePod<std::int32_t>(-7);
        writer.writePod<double>(2.5);
        writer.writeVector(std::vector<float>{1.0f, 2.0f});
        writer.writeString("hello");
    }
    BinaryReader reader(path, kMagic, 3);
    EXPECT_EQ(reader.readPod<std::int32_t>(), -7);
    EXPECT_DOUBLE_EQ(reader.readPod<double>(), 2.5);
    const auto vec = reader.readVector<float>();
    ASSERT_EQ(vec.size(), 2u);
    EXPECT_FLOAT_EQ(vec[1], 2.0f);
    EXPECT_EQ(reader.readString(), "hello");
    std::remove(path.c_str());
}

TEST(Serialize, MatrixRoundTrip)
{
    const auto path = tempPath("matrix.bin");
    FloatMatrix m(3, 4);
    for (idx_t r = 0; r < 3; ++r)
        for (idx_t c = 0; c < 4; ++c)
            m.at(r, c) = static_cast<float>(r * 4 + c);
    {
        BinaryWriter writer(path, kMagic, 1);
        writer.writeMatrix(m.view());
    }
    BinaryReader reader(path, kMagic, 1);
    const auto back = reader.readMatrix();
    ASSERT_EQ(back.rows(), 3);
    ASSERT_EQ(back.cols(), 4);
    EXPECT_FLOAT_EQ(back.at(2, 3), 11.0f);
    std::remove(path.c_str());
}

TEST(Serialize, BadMagicRejected)
{
    const auto path = tempPath("badmagic.bin");
    {
        BinaryWriter writer(path, kMagic, 1);
        writer.writePod<int>(1);
    }
    constexpr char other[8] = {'O', 'T', 'H', 'E', 'R', 'M', 'G', 'C'};
    EXPECT_THROW(BinaryReader(path, other, 1), ConfigError);
    std::remove(path.c_str());
}

TEST(Serialize, WrongVersionRejected)
{
    const auto path = tempPath("badver.bin");
    { BinaryWriter writer(path, kMagic, 1); }
    EXPECT_THROW(BinaryReader(path, kMagic, 2), ConfigError);
    std::remove(path.c_str());
}

TEST(Serialize, TruncationDetected)
{
    const auto path = tempPath("trunc.bin");
    {
        BinaryWriter writer(path, kMagic, 1);
        writer.writePod<std::uint64_t>(1000); // claims 1000 elements
    }
    BinaryReader reader(path, kMagic, 1);
    EXPECT_THROW(reader.readVector<double>(), ConfigError);
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileRejected)
{
    EXPECT_THROW(BinaryReader("/no/such/file.bin", kMagic, 1),
                 ConfigError);
}

TEST(Serialize, EmptyContainersRoundTrip)
{
    // Empty vectors/strings/matrices must round-trip without ever
    // handing a null pointer to the underlying stream.
    BufferWriter writer;
    writer.writeVector(std::vector<float>{});
    writer.writeString("");
    writer.writeMatrix(FloatMatrixView());
    writer.writeVector(std::vector<int>{5});

    BoundedMemReader reader(writer.buffer().data(),
                            writer.buffer().size(), "buffer");
    EXPECT_TRUE(reader.readVector<float>().empty());
    EXPECT_EQ(reader.readString(), "");
    const auto m = reader.readMatrix();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(reader.readVector<int>().at(0), 5);
    EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Serialize, ForgedHugeCountsRejectedWithoutAllocating)
{
    // A forged 2^61 element count must fail the sanity bound before
    // any allocation — including when count * sizeof(T) would wrap.
    for (const std::uint64_t count :
         {std::uint64_t{1} << 61, ~std::uint64_t{0},
          (std::uint64_t{16} << 30) + 1}) {
        BufferWriter writer;
        writer.writePod<std::uint64_t>(count);
        BoundedMemReader vec_reader(writer.buffer().data(),
                                    writer.buffer().size(), "buffer");
        EXPECT_THROW(vec_reader.readVector<double>(), ConfigError);
        BoundedMemReader str_reader(writer.buffer().data(),
                                    writer.buffer().size(), "buffer");
        EXPECT_THROW(str_reader.readString(), ConfigError);
    }
}

TEST(Serialize, TruncatedMemWindowRejected)
{
    BufferWriter writer;
    writer.writeVector(std::vector<double>{1.0, 2.0, 3.0});
    // Cut the window mid-payload: the reader must throw, not zero-fill.
    BoundedMemReader reader(writer.buffer().data(),
                            writer.buffer().size() - 5, "buffer");
    EXPECT_THROW(reader.readVector<double>(), ConfigError);
}

class JunoIndexPersistence : public ::testing::Test {
  protected:
    static Dataset
    makeData()
    {
        SyntheticSpec spec;
        spec.kind = DatasetKind::kDeepLike;
        spec.num_points = 1200;
        spec.num_queries = 10;
        spec.dim = 12;
        spec.components = 10;
        spec.seed = 404;
        return makeDataset(spec);
    }

    static JunoParams
    makeParams()
    {
        JunoParams params = junoPresetM();
        params.clusters = 16;
        params.pq_entries = 32;
        params.nprobs = 6;
        params.threshold_scale = 0.9;
        params.density_grid = 30;
        params.policy.train_samples = 60;
        params.policy.ref_samples = 800;
        params.policy.contain_topk = 40;
        return params;
    }
};

TEST_F(JunoIndexPersistence, SaveLoadRoundTripResults)
{
    const auto ds = makeData();
    JunoIndex original(Metric::kL2, ds.base.view(), makeParams());
    const auto path = tempPath("juno_index.bin");
    original.save(path);

    auto loaded = JunoIndex::load(path);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(loaded->metric(), original.metric());
    EXPECT_EQ(loaded->size(), original.size());
    EXPECT_EQ(loaded->name(), original.name());
    EXPECT_EQ(loaded->params().nprobs, original.params().nprobs);
    EXPECT_EQ(loaded->params().mode, original.params().mode);

    const auto orig_results = original.search(ds.queries.view(), 20);
    const auto load_results = loaded->search(ds.queries.view(), 20);
    EXPECT_EQ(orig_results, load_results);
    std::remove(path.c_str());
}

TEST_F(JunoIndexPersistence, LoadedIndexAcceptsKnobChanges)
{
    const auto ds = makeData();
    JunoIndex original(Metric::kL2, ds.base.view(), makeParams());
    const auto path = tempPath("juno_index2.bin");
    original.save(path);
    auto loaded = JunoIndex::load(path);

    loaded->setSearchMode(SearchMode::kExactDistance);
    loaded->setNprobs(12);
    loaded->setThresholdScale(1.0);
    const auto results = loaded->search(ds.queries.view(), 20);
    EXPECT_EQ(results.size(), 10u);
    for (const auto &row : results)
        EXPECT_FALSE(row.empty());
    std::remove(path.c_str());
}

TEST_F(JunoIndexPersistence, IpIndexRoundTrips)
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kTtiLike;
    spec.num_points = 1000;
    spec.num_queries = 6;
    spec.dim = 12;
    spec.seed = 405;
    const auto ds = makeDataset(spec);

    auto params = makeParams();
    params.mode = SearchMode::kExactDistance;
    JunoIndex original(Metric::kInnerProduct, ds.base.view(), params);
    const auto path = tempPath("juno_index_ip.bin");
    original.save(path);
    auto loaded = JunoIndex::load(path);
    EXPECT_EQ(loaded->metric(), Metric::kInnerProduct);
    EXPECT_EQ(original.search(ds.queries.view(), 10),
              loaded->search(ds.queries.view(), 10));
    std::remove(path.c_str());
}

TEST_F(JunoIndexPersistence, LegacyFormatRejected)
{
    const auto ds = makeData();
    JunoIndex original(Metric::kL2, ds.base.view(), makeParams());
    const auto path = tempPath("juno_legacy.bin");
    // The pre-container "JUNOIDX1" stream, hand-written from the
    // index's public components: a complete file in a format that is
    // no longer read, which must fail as a typed error, not a crash.
    {
        constexpr char magic[8] = {'J', 'U', 'N', 'O', 'I', 'D', 'X', '1'};
        BinaryWriter writer(path, magic, 1);
        const auto &p = original.params();
        writer.writePod<std::int32_t>(0); // L2
        writer.writePod<std::int64_t>(original.size());
        writer.writePod<std::int64_t>(original.dim());
        writer.writePod<std::int32_t>(p.clusters);
        writer.writePod<std::int32_t>(p.pq_entries);
        writer.writePod<std::int64_t>(p.nprobs);
        original.ivf().save(writer);
        original.pq().save(writer);
        writer.writeArray(original.codes().data(),
                          original.codes().count());
    }
    EXPECT_THROW(JunoIndex::load(path), ConfigError);
    EXPECT_THROW(openIndex(path), ConfigError);
    std::remove(path.c_str());
}

TEST_F(JunoIndexPersistence, CorruptFileRejected)
{
    const auto path = tempPath("corrupt_index.bin");
    {
        constexpr char magic[8] = {'J', 'U', 'N', 'O', 'I', 'D', 'X', '1'};
        BinaryWriter writer(path, magic, 1);
        writer.writePod<std::int32_t>(0); // metric, then EOF
    }
    EXPECT_THROW(JunoIndex::load(path), ConfigError);
    std::remove(path.c_str());
}

} // namespace
} // namespace juno
