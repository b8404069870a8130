/**
 * @file
 * Tests of the list-resident interleaved PQ layout and the 4-bit
 * fast-scan path:
 *
 *  - PQ4 (entries == 16) train/encode/decode round-trip;
 *  - the interleaved layout reproduces the row-major codes (both
 *    planes) and the interleaved scan is bitwise equal to a
 *    test-local id-gather scan in every dispatch table, over row
 *    lengths on both sides of the AVX-512 permute limit (256), list
 *    lengths around the 16- and 32-point steps and padded rows;
 *  - the interleaved flag count equals a test-local bit lookup in
 *    every table over the same shapes;
 *  - the fast-scan kernel's quantised sums match a naive nibble
 *    reference bit for bit in every table, and the reconstructed
 *    scores respect the documented error bound;
 *  - an IvfPqIndex returns results bitwise identical to a test-local
 *    id-gather oracle (gatherScan over the row-major codes)
 *    under JUNO_SIMD=scalar;
 *  - the quantised-LUT path holds recall parity within +-0.1% of the
 *    scalar float path at a fig12-style operating point across all
 *    supported kernel tiers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "baseline/ivfpq_index.h"
#include "common/distance.h"
#include "common/rng.h"
#include "common/simd.h"
#include "dataset/ground_truth.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"
#include "quant/interleaved_codes.h"
#include "quant/product_quantizer.h"

namespace juno {
namespace {

/** Restores the active dispatch level when a test scope ends. */
struct LevelGuard {
    simd::Level saved = simd::level();
    ~LevelGuard() { simd::setLevel(saved); }
};

std::vector<simd::Level>
supportedLevels()
{
    std::vector<simd::Level> levels = {simd::Level::kScalar};
    if (simd::supported(simd::Level::kAvx2))
        levels.push_back(simd::Level::kAvx2);
    if (simd::supported(simd::Level::kAvx512))
        levels.push_back(simd::Level::kAvx512);
    return levels;
}

FloatMatrix
randomMatrix(Rng &rng, idx_t rows, idx_t cols)
{
    FloatMatrix m(rows, cols);
    for (idx_t i = 0; i < rows; ++i)
        for (idx_t j = 0; j < cols; ++j)
            m.at(i, j) = rng.uniform(-1.0f, 1.0f);
    return m;
}

TEST(FastScan, Pq4TrainEncodeDecodeRoundTrip)
{
    Rng rng(91);
    const idx_t n = 400, dim = 16;
    const auto vectors = randomMatrix(rng, n, dim);

    PQParams params;
    params.num_subspaces = 8;
    params.entries = 16; // PQ4
    params.seed = 5;
    ProductQuantizer pq;
    pq.train(vectors.view(), params);
    ASSERT_TRUE(pq.trained());
    EXPECT_EQ(pq.entries(), 16);

    const PQCodes codes = pq.encode(vectors.view());
    ASSERT_EQ(codes.num_points, n);
    for (idx_t p = 0; p < n; ++p)
        for (int s = 0; s < codes.num_subspaces; ++s)
            ASSERT_LT(codes.at(p, s), 16) << "PQ4 code out of range";

    // Decode must return each point's nearest codebook entries, so
    // re-encoding the reconstruction is a fixed point.
    for (idx_t p = 0; p < std::min<idx_t>(n, 32); ++p) {
        const auto rec = pq.decode(codes.row(p));
        ASSERT_EQ(rec.size(), static_cast<std::size_t>(dim));
        std::vector<entry_t> again(
            static_cast<std::size_t>(codes.num_subspaces));
        pq.encodeOne(rec.data(), again.data());
        for (int s = 0; s < codes.num_subspaces; ++s)
            EXPECT_EQ(again[static_cast<std::size_t>(s)],
                      codes.at(p, s));
    }

    // 4-bit codebooks are coarse but must still beat the zero-vector
    // predictor on centered data.
    double base_energy = 0.0;
    for (idx_t p = 0; p < n; ++p)
        base_energy += l2NormSqr(vectors.row(p), dim);
    EXPECT_LT(pq.reconstructionError(vectors.view()),
              base_energy / static_cast<double>(n));
}

/** Random codes partitioned into random lists, plus a scan LUT. */
struct ScanFixture {
    PQCodes codes;
    std::vector<std::vector<idx_t>> lists;
    InterleavedLists interleaved;
    FloatMatrix lut;
    int subspaces;
    int entries;

    ScanFixture(int subspaces_in, int entries_in, idx_t num_points,
                int num_lists, std::uint64_t seed)
        : subspaces(subspaces_in), entries(entries_in)
    {
        Rng rng(seed);
        codes.num_points = num_points;
        codes.num_subspaces = subspaces;
        codes.codes.resize(static_cast<std::size_t>(num_points) *
                           static_cast<std::size_t>(subspaces));
        for (auto &c : codes.codes)
            c = static_cast<entry_t>(
                rng.uniform() * static_cast<double>(entries)) %
                static_cast<entry_t>(entries);
        lists.resize(static_cast<std::size_t>(num_lists));
        for (idx_t p = 0; p < num_points; ++p)
            lists[static_cast<std::size_t>(
                      rng.uniform() * num_lists) %
                  static_cast<std::size_t>(num_lists)]
                .push_back(p);
        interleaved.build(lists, codes, entries);
        lut = FloatMatrix(subspaces, entries);
        for (int s = 0; s < subspaces; ++s)
            for (int e = 0; e < entries; ++e)
                lut.at(s, e) = rng.uniform(0.0f, 4.0f);
    }
};

/**
 * The id-gather ADC scan as test code: each listed point's score starts
 * from @p base and adds one LUT term per subspace, in subspace order,
 * read through the point's row-major code row. That is the per-point
 * accumulation order of every adc_scan_interleaved table, so the two
 * agree bit for bit.
 */
std::vector<float>
gatherScan(const FloatMatrix &lut, const PQCodes &codes,
           const std::vector<idx_t> &ids, float base)
{
    std::vector<float> out(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const entry_t *row = codes.row(ids[i]);
        float acc = base;
        for (int s = 0; s < codes.num_subspaces; ++s)
            acc += lut.at(s, row[s]);
        out[i] = acc;
    }
    return out;
}

TEST(FastScan, InterleavedLayoutMatchesRowMajorCodes)
{
    ScanFixture fx(6, 16, 517, 7, 21);
    ASSERT_TRUE(fx.interleaved.built());
    ASSERT_TRUE(fx.interleaved.packed4());
    for (std::size_t c = 0; c < fx.lists.size(); ++c) {
        const auto &list = fx.lists[c];
        const auto cl = static_cast<cluster_t>(c);
        ASSERT_EQ(fx.interleaved.listSize(cl),
                  static_cast<idx_t>(list.size()));
        const entry_t *blocks = fx.interleaved.listBlocks(cl);
        const std::uint8_t *packed = fx.interleaved.listPacked(cl);
        for (std::size_t i = 0; i < list.size(); ++i) {
            const entry_t *row = fx.codes.row(list[i]);
            const std::size_t b = i / 32, j = i % 32;
            for (int s = 0; s < fx.subspaces; ++s) {
                const std::size_t ss = static_cast<std::size_t>(s);
                EXPECT_EQ(
                    blocks[(b * static_cast<std::size_t>(
                                    fx.subspaces) +
                            ss) *
                               32 +
                           j],
                    row[s]);
                const std::uint8_t byte =
                    packed[(b * static_cast<std::size_t>(
                                    fx.subspaces) +
                            ss) *
                               16 +
                           (j & 15)];
                const entry_t nib =
                    j < 16 ? byte & 0x0F : byte >> 4;
                EXPECT_EQ(nib, row[s]);
            }
        }
    }
}

TEST(FastScan, InterleavedScanBitwiseEqualsLegacyGatherEverywhere)
{
    // entries > 16 as well, so the non-packed layout is covered.
    for (int entries : {16, 64}) {
        ScanFixture fx(5, entries, 203, 3, 37);
        const float base = 0.375f;
        for (std::size_t c = 0; c < fx.lists.size(); ++c) {
            const auto &list = fx.lists[c];
            if (list.empty())
                continue;
            const auto ref = gatherScan(fx.lut, fx.codes, list, base);
            for (simd::Level level : supportedLevels()) {
                std::vector<float> got(list.size(), -1.0f);
                simd::table(level).adc_scan_interleaved(
                    fx.lut.data(), fx.lut.cols(), fx.lut.cols(),
                    fx.subspaces,
                    fx.interleaved.listBlocks(
                        static_cast<cluster_t>(c)),
                    list.size(), base, got.data());
                for (std::size_t i = 0; i < list.size(); ++i)
                    ASSERT_EQ(ref[i], got[i])
                        << "entries=" << entries << " level="
                        << simd::levelName(level) << " list=" << c
                        << " i=" << i;
            }
        }
    }
}

/**
 * One list of @p n points with random codes below @p entries, laid out
 * interleaved, plus @p subspaces LUT rows of @p entries cells at a
 * padded stride and their flag bit rows, also padded.
 */
struct ShapeFixture {
    PQCodes codes;
    InterleavedLists interleaved;
    std::size_t stride;
    std::size_t word_stride;
    std::vector<float> lut;
    std::vector<std::uint32_t> bits;

    ShapeFixture(int subspaces, int entries, idx_t n, std::uint64_t seed)
        : stride(static_cast<std::size_t>(entries) + 5),
          word_stride((static_cast<std::size_t>(entries) + 31) / 32 + 3)
    {
        Rng rng(seed);
        codes.num_points = n;
        codes.num_subspaces = subspaces;
        codes.codes.resize(static_cast<std::size_t>(n) *
                           static_cast<std::size_t>(subspaces));
        for (auto &c : codes.codes)
            c = static_cast<entry_t>(rng.below(
                static_cast<std::uint64_t>(entries)));
        std::vector<std::vector<idx_t>> lists(1);
        for (idx_t p = 0; p < n; ++p)
            lists[0].push_back(p);
        interleaved.build(lists, codes, entries);
        // Padding cells and words hold values no code may read.
        lut.assign(static_cast<std::size_t>(subspaces) * stride, 1e30f);
        bits.assign(static_cast<std::size_t>(subspaces) * word_stride,
                    0xFFFFFFFFu);
        for (int s = 0; s < subspaces; ++s) {
            const std::size_t ss = static_cast<std::size_t>(s);
            for (int e = 0; e < entries; ++e)
                lut[ss * stride + static_cast<std::size_t>(e)] =
                    rng.uniform(-2.0f, 2.0f);
            for (std::size_t w = 0; w < (static_cast<std::size_t>(entries) +
                                         31) / 32;
                 ++w)
                bits[ss * word_stride + w] =
                    static_cast<std::uint32_t>(rng.below(1ull << 32));
        }
    }
};

TEST(FastScan, InterleavedScanAndFlagCountBitwiseAcrossShapes)
{
    const int subspaces = 7;
    const float base = -0.625f;
    for (int entries : {16, 40, 128, 200, 256, 300}) {
        for (idx_t n : {1, 15, 31, 32, 33, 100}) {
            const ShapeFixture fx(subspaces, entries, n,
                                  static_cast<std::uint64_t>(entries * n));
            const auto nn = static_cast<std::size_t>(n);
            std::vector<float> want(nn);
            std::vector<std::int32_t> want_count(nn);
            for (std::size_t i = 0; i < nn; ++i) {
                const entry_t *row = fx.codes.row(static_cast<idx_t>(i));
                float acc = base;
                std::int32_t count = 0;
                for (int s = 0; s < subspaces; ++s) {
                    const std::size_t ss = static_cast<std::size_t>(s);
                    acc += fx.lut[ss * fx.stride + row[s]];
                    count += static_cast<std::int32_t>(
                        (fx.bits[ss * fx.word_stride + row[s] / 32] >>
                         (row[s] % 32)) &
                        1u);
                }
                want[i] = acc;
                want_count[i] = count;
            }
            const entry_t *blocks = fx.interleaved.listBlocks(0);
            for (simd::Level level : supportedLevels()) {
                const simd::Kernels &k = simd::table(level);
                // One guard slot past n: no table may store beyond it.
                std::vector<float> got(nn + 1, 7.0f);
                std::vector<std::int32_t> got_count(nn + 1, -7);
                k.adc_scan_interleaved(
                    fx.lut.data(), static_cast<idx_t>(fx.stride), entries,
                    subspaces, blocks, nn, base, got.data());
                k.flag_count_interleaved(
                    fx.bits.data(), static_cast<idx_t>(fx.word_stride),
                    entries, subspaces, blocks, nn, got_count.data());
                for (std::size_t i = 0; i < nn; ++i) {
                    ASSERT_EQ(want[i], got[i])
                        << simd::levelName(level) << " entries=" << entries
                        << " n=" << n << " i=" << i;
                    ASSERT_EQ(want_count[i], got_count[i])
                        << simd::levelName(level) << " entries=" << entries
                        << " n=" << n << " i=" << i;
                }
                EXPECT_EQ(got[nn], 7.0f) << simd::levelName(level);
                EXPECT_EQ(got_count[nn], -7) << simd::levelName(level);
            }
        }
    }
}

TEST(FastScan, FastScanSumsBitwiseIdenticalAcrossTables)
{
    ScanFixture fx(7, 16, 333, 2, 53);
    QuantizedLut qlut;
    quantizeLut(fx.lut, fx.entries, qlut);
    ASSERT_EQ(qlut.subspaces, fx.subspaces);

    for (std::size_t c = 0; c < fx.lists.size(); ++c) {
        const auto &list = fx.lists[c];
        if (list.empty())
            continue;
        const std::uint8_t *packed =
            fx.interleaved.listPacked(static_cast<cluster_t>(c));

        // Naive reference straight from the row-major codes.
        std::vector<std::uint16_t> naive(list.size());
        for (std::size_t i = 0; i < list.size(); ++i) {
            const entry_t *row = fx.codes.row(list[i]);
            std::uint16_t acc = 0;
            for (int s = 0; s < fx.subspaces; ++s)
                acc = static_cast<std::uint16_t>(
                    acc +
                    qlut.table[static_cast<std::size_t>(s) * 16 +
                               row[s]]);
            naive[i] = acc;
        }

        for (simd::Level level : supportedLevels()) {
            std::vector<std::uint16_t> got(list.size(), 0xBEEF);
            simd::table(level).fastscan_pq4(packed, fx.subspaces,
                                            qlut.table.data(),
                                            list.size(), got.data());
            ASSERT_EQ(naive, got)
                << "level=" << simd::levelName(level) << " list=" << c;
        }

        // Reconstruction error bound: subspaces * scale / 2 plus FP
        // slack, against the float LUT scores of the same codes.
        for (std::size_t i = 0; i < list.size(); ++i) {
            const entry_t *row = fx.codes.row(list[i]);
            float exact = 0.0f;
            for (int s = 0; s < fx.subspaces; ++s)
                exact += fx.lut.at(s, row[s]);
            const float approx =
                qlut.bias +
                qlut.scale * static_cast<float>(naive[i]);
            const float bound =
                0.5f * static_cast<float>(fx.subspaces) * qlut.scale +
                1e-4f;
            EXPECT_NEAR(exact, approx, bound);
        }
    }
}

Dataset
fastScanDataset(idx_t num_points, idx_t num_queries)
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kDeepLike;
    spec.num_points = num_points;
    spec.num_queries = num_queries;
    spec.dim = 32;
    spec.seed = 4242;
    return makeDataset(spec);
}

std::vector<std::vector<idx_t>>
idsOf(const SearchResults &results)
{
    std::vector<std::vector<idx_t>> ids(results.size());
    for (std::size_t q = 0; q < results.size(); ++q)
        for (const auto &nb : results[q])
            ids[q].push_back(nb.id);
    return ids;
}

IvfPqIndex::Params
pq4Params()
{
    IvfPqIndex::Params params;
    params.clusters = 16;
    params.pq_subspaces = 16;
    params.pq_entries = 16; // PQ4: fast-scan eligible
    params.nprobs = 4;
    return params;
}

/**
 * The id-gather scan as a test oracle: the index's own filter and LUT
 * rule, then gatherScan over each probed list's ids and the row-major
 * codes.
 */
SearchResults
gatherOracle(const IvfPqIndex &index, FloatMatrixView queries, idx_t k)
{
    const auto &pq = index.pq();
    SearchResults out(static_cast<std::size_t>(queries.rows()));
    FloatMatrix lut;
    VisitedSet visited;
    std::vector<float> residual(static_cast<std::size_t>(index.dim()));
    for (idx_t qi = 0; qi < queries.rows(); ++qi) {
        const float *q = queries.row(qi);
        TopK top(k, index.metric());
        for (const auto &pr : index.probe(q, index.nprobs(), visited)) {
            const cluster_t c = static_cast<cluster_t>(pr.id);
            float base = 0.0f;
            if (index.metric() == Metric::kL2) {
                index.ivf().residual(q, c, residual.data());
                pq.computeLut(Metric::kL2, residual.data(), lut);
            } else {
                pq.computeLut(Metric::kInnerProduct, q, lut);
                base = innerProduct(q, index.ivf().centroid(c),
                                    index.dim());
            }
            const auto &list = index.ivf().list(c);
            const auto scores = gatherScan(lut, index.codes(), list, base);
            for (std::size_t i = 0; i < list.size(); ++i)
                top.push(list[i], scores[i]);
        }
        out[static_cast<std::size_t>(qi)] = top.take();
    }
    return out;
}

TEST(FastScan, InterleavedIndexIdsMatchLegacyGatherUnderScalar)
{
    LevelGuard guard;
    const auto ds = fastScanDataset(600, 20);
    IvfPqIndex index(ds.metric, ds.base.view(), pq4Params());

    // Under the scalar table the index takes the float streaming scan
    // over the interleaved blocks, which is bitwise identical to the
    // id gather: same ids, same scores.
    ASSERT_TRUE(simd::setLevel(simd::Level::kScalar));
    const auto expected = gatherOracle(index, ds.queries.view(), 10);
    const auto got = index.search(ds.queries.view(), 10);
    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t q = 0; q < expected.size(); ++q) {
        ASSERT_FALSE(expected[q].empty());
        EXPECT_EQ(expected[q], got[q]) << "query " << q;
    }
}

TEST(FastScan, QuantizedPathRecallParityAcrossTiers)
{
    if (!simd::supported(simd::Level::kAvx2))
        GTEST_SKIP() << "host has no AVX2; quantised path never taken";
    LevelGuard guard;
    // fig12-style operating point, shrunk: PQ4, nprobs covering a
    // recall plateau, R1@100 on a DEEP-like distribution. 1000
    // queries give the +-0.1% recall tolerance a 0.1% granularity.
    const auto ds = fastScanDataset(4000, 1000);
    const idx_t k = 100;
    const auto gt =
        computeGroundTruth(ds.metric, ds.base.view(), ds.queries.view(),
                           1);
    IvfPqIndex index(ds.metric, ds.base.view(), pq4Params());

    ASSERT_TRUE(simd::setLevel(simd::Level::kScalar));
    const double recall_float =
        recall1AtK(gt, index.search(ds.queries.view(), k));
    for (simd::Level level : supportedLevels()) {
        if (level == simd::Level::kScalar)
            continue;
        ASSERT_TRUE(simd::setLevel(level));
        const double recall_quant =
            recall1AtK(gt, index.search(ds.queries.view(), k));
        EXPECT_NEAR(recall_quant, recall_float, 0.001)
            << "level=" << simd::levelName(level);
    }
}

TEST(FastScan, QuantizedBlockPrefilterKeepsTopKIntact)
{
    if (!simd::supported(simd::Level::kAvx2))
        GTEST_SKIP() << "host has no AVX2; quantised path never taken";
    LevelGuard guard;
    // The block pre-filter may only skip blocks that cannot beat the
    // heap minimum; the returned top-k must equal a full rescoring of
    // the quantised sums. Verify via self-consistency: k=1 results
    // must appear in the k=32 results' head.
    const auto ds = fastScanDataset(1500, 25);
    IvfPqIndex index(ds.metric, ds.base.view(), pq4Params());
    ASSERT_TRUE(simd::setLevel(simd::bestSupported()));
    const auto wide = idsOf(index.search(ds.queries.view(), 32));
    const auto narrow = idsOf(index.search(ds.queries.view(), 1));
    for (std::size_t q = 0; q < narrow.size(); ++q) {
        ASSERT_FALSE(narrow[q].empty());
        EXPECT_EQ(narrow[q][0], wide[q][0]) << "query " << q;
    }
}

} // namespace
} // namespace juno
