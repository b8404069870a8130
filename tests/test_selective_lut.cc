/** @file Tests for the RT-based selective LUT construction. */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "common/distance.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/simd.h"
#include "core/selective_lut.h"
#include "dataset/synthetic.h"

namespace juno {
namespace {

/** Full JUNO offline stack over a small dataset. */
struct Fixture {
    Dataset ds;
    InvertedFileIndex ivf;
    ProductQuantizer pq;
    DensityMap density;
    ThresholdPolicy policy;
    JunoScene scene;
    rt::RtDevice device;
    std::unique_ptr<SelectiveLutBuilder> builder;

    explicit Fixture(Metric metric)
    {
        SyntheticSpec spec;
        spec.kind = metric == Metric::kL2 ? DatasetKind::kDeepLike
                                          : DatasetKind::kTtiLike;
        spec.num_points = 1200;
        spec.num_queries = 10;
        spec.dim = 8;
        spec.components = 10;
        spec.seed = 66;
        ds = makeDataset(spec);

        InvertedFileIndex::Params ivf_params;
        ivf_params.clusters = 12;
        ivf.build(ds.base.view(), ivf_params);

        FloatMatrix residuals(ds.base.rows(), ds.base.cols());
        for (idx_t p = 0; p < ds.base.rows(); ++p)
            ivf.residual(ds.base.row(p), ivf.label(p), residuals.row(p));
        PQParams pq_params;
        pq_params.num_subspaces = 4;
        pq_params.entries = 16;
        pq.train(residuals.view(), pq_params);

        const FloatMatrixView domain =
            metric == Metric::kL2 ? residuals.view() : ds.base.view();
        density.build(domain, 4, 30);
        ThresholdPolicy::Params tp;
        tp.train_samples = 80;
        tp.ref_samples = 600;
        tp.contain_topk = 40;
        policy.train(metric, domain, 4, density, tp);

        scene.build(metric, pq, policy);
        builder = std::make_unique<SelectiveLutBuilder>(scene, policy, ivf,
                                                        device);
    }
};

TEST(SelectiveLut, L2HitsMatchBruteForceSelection)
{
    Fixture fx(Metric::kL2);
    SelectiveLutParams params;
    const float *q = fx.ds.queries.row(0);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 4);
    const auto lut = fx.builder->build(q, probes, params);

    ASSERT_EQ(lut.blocks, 4u);
    EXPECT_FALSE(lut.shared_across_probes);

    std::vector<float> residual(8);
    for (std::size_t p = 0; p < probes.size(); ++p) {
        fx.ivf.residual(q, static_cast<cluster_t>(probes[p].id),
                        residual.data());
        for (int s = 0; s < 4; ++s) {
            const float qx = residual[static_cast<std::size_t>(2 * s)];
            const float qy = residual[static_cast<std::size_t>(2 * s + 1)];
            const double thr = fx.policy.threshold(s, qx, qy);

            std::set<entry_t> expected;
            for (entry_t e = 0; e < 16; ++e) {
                const float *ec = fx.pq.entry(s, e);
                const double dx = ec[0] - qx, dy = ec[1] - qy;
                if (std::sqrt(dx * dx + dy * dy) <= thr * (1.0 - 1e-5))
                    expected.insert(e);
            }
            std::set<entry_t> got;
            for (entry_t e = 0; e < 16; ++e)
                if (lut.selectedAt(p, s, e))
                    got.insert(e);
            // All strictly-inside entries must appear; boundary entries
            // may differ by FP rounding.
            for (entry_t e : expected)
                EXPECT_TRUE(got.count(e))
                    << "probe " << p << " subspace " << s << " entry " << e;
        }
    }
}

TEST(SelectiveLut, L2ValuesAreSquaredSubspaceDistances)
{
    Fixture fx(Metric::kL2);
    const float *q = fx.ds.queries.row(1);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 2);
    const auto lut = fx.builder->build(q, probes, {});

    std::vector<float> residual(8);
    for (std::size_t p = 0; p < probes.size(); ++p) {
        fx.ivf.residual(q, static_cast<cluster_t>(probes[p].id),
                        residual.data());
        for (int s = 0; s < 4; ++s) {
            for (entry_t e = 0; e < 16; ++e) {
                if (!lut.selectedAt(p, s, e))
                    continue;
                const float value =
                    lut.delta[lut.cell(p, s, e)] + lut.missFor(p, s);
                const float *ec = fx.pq.entry(s, e);
                const float dx =
                    ec[0] - residual[static_cast<std::size_t>(2 * s)];
                const float dy =
                    ec[1] - residual[static_cast<std::size_t>(2 * s + 1)];
                EXPECT_NEAR(value, dx * dx + dy * dy,
                            5e-3f * (1.0f + dx * dx + dy * dy));
            }
        }
    }
}

TEST(SelectiveLut, IpSharesLutAcrossProbes)
{
    Fixture fx(Metric::kInnerProduct);
    const float *q = fx.ds.queries.row(0);
    const auto probes = fx.ivf.probe(Metric::kInnerProduct, q, 4);
    const auto lut = fx.builder->build(q, probes, {});
    EXPECT_TRUE(lut.shared_across_probes);
    EXPECT_EQ(lut.blocks, 1u);
    EXPECT_EQ(lut.base.size(), 4u);
    // The base term must equal IP(q, centroid).
    for (std::size_t p = 0; p < probes.size(); ++p)
        EXPECT_NEAR(lut.base[p],
                    innerProduct(q,
                                 fx.ivf.centroid(static_cast<cluster_t>(
                                     probes[p].id)),
                                 8),
                    1e-3f);
}

TEST(SelectiveLut, IpValuesAreSubspaceInnerProducts)
{
    Fixture fx(Metric::kInnerProduct);
    const float *q = fx.ds.queries.row(2);
    const auto probes = fx.ivf.probe(Metric::kInnerProduct, q, 2);
    const auto lut = fx.builder->build(q, probes, {});
    for (int s = 0; s < 4; ++s) {
        for (entry_t e = 0; e < 16; ++e) {
            if (!lut.selectedAt(0, s, e))
                continue;
            const float value =
                lut.delta[lut.cell(0, s, e)] + lut.missFor(0, s);
            const float *ec = fx.pq.entry(s, e);
            const float ip = ec[0] * q[2 * s] + ec[1] * q[2 * s + 1];
            EXPECT_NEAR(value, ip, 5e-2f * (1.0f + std::abs(ip)));
        }
    }
}

TEST(SelectiveLut, SmallerScaleNeverAddsHits)
{
    Fixture fx(Metric::kL2);
    const float *q = fx.ds.queries.row(3);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 3);
    SelectiveLutParams full, half;
    full.threshold_scale = 1.0;
    half.threshold_scale = 0.5;
    const auto lut_full = fx.builder->build(q, probes, full);
    const auto lut_half = fx.builder->build(q, probes, half);
    for (std::size_t p = 0; p < probes.size(); ++p) {
        for (int s = 0; s < 4; ++s) {
            std::set<entry_t> full_set, half_set;
            for (entry_t e = 0; e < 16; ++e) {
                if (lut_full.selectedAt(p, s, e))
                    full_set.insert(e);
                if (lut_half.selectedAt(p, s, e))
                    half_set.insert(e);
            }
            for (entry_t e : half_set)
                EXPECT_TRUE(full_set.count(e));
            EXPECT_LE(half_set.size(), full_set.size());
        }
    }
}

TEST(SelectiveLut, InnerFlagImpliesTighterDistance)
{
    Fixture fx(Metric::kL2);
    const float *q = fx.ds.queries.row(4);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 3);
    SelectiveLutParams params;
    params.inner_gate = true;
    const auto lut = fx.builder->build(q, probes, params);
    for (std::size_t p = 0; p < probes.size(); ++p) {
        for (int s = 0; s < 4; ++s) {
            float max_inner = -1.0f, min_outer = 1e30f;
            for (entry_t e = 0; e < 16; ++e) {
                const std::size_t cell = lut.cell(p, s, e);
                if (!lut.selectedAt(p, s, e)) {
                    // The inner gate lies inside the outer one.
                    EXPECT_FALSE(lut.innerAt(p, s, e));
                    continue;
                }
                const float value = lut.delta[cell] + lut.missFor(p, s);
                if (lut.innerAt(p, s, e))
                    max_inner = std::max(max_inner, value);
                else
                    min_outer = std::min(min_outer, value);
            }
            // Inner hits are all at most as far as any outer-only hit.
            if (max_inner >= 0.0f && min_outer < 1e30f) {
                EXPECT_LE(max_inner, min_outer + 1e-4f);
            }
        }
    }
}

TEST(SelectiveLut, MissValueIsGateBoundaryL2)
{
    Fixture fx(Metric::kL2);
    const float *q = fx.ds.queries.row(5);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 2);
    SelectiveLutParams params;
    params.miss_penalty = 1.0;
    const auto lut = fx.builder->build(q, probes, params);
    std::vector<float> residual(8);
    for (std::size_t p = 0; p < probes.size(); ++p) {
        fx.ivf.residual(q, static_cast<cluster_t>(probes[p].id),
                        residual.data());
        for (int s = 0; s < 4; ++s) {
            const double thr = fx.policy.threshold(
                s, residual[static_cast<std::size_t>(2 * s)],
                residual[static_cast<std::size_t>(2 * s + 1)]);
            EXPECT_NEAR(lut.missFor(p, s), thr * thr, 1e-4 * thr * thr);
        }
    }
}

TEST(SelectiveLut, SparsitySavesWorkVsDenseLut)
{
    // The headline claim: far fewer selected entries than E per
    // subspace on clustered data.
    Fixture fx(Metric::kL2);
    const float *q = fx.ds.queries.row(6);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 4);
    const auto lut = fx.builder->build(q, probes, {});
    std::size_t selected = 0, cells = 0;
    for (std::size_t p = 0; p < lut.blocks; ++p) {
        std::size_t flags = 0;
        for (int s = 0; s < 4; ++s) {
            for (entry_t e = 0; e < 16; ++e)
                flags += lut.selectedAt(p, s, e) ? 1 : 0;
            cells += 16;
        }
        EXPECT_EQ(lut.selected_count[p], flags);
        selected += flags;
    }
    EXPECT_LT(static_cast<double>(selected) / static_cast<double>(cells),
              0.8);
}

std::uint32_t
bitsOf(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

/**
 * Checks query @p q's L2 LUT against the one rebuilt by tracing each of
 * its rays alone, row by row, bit for bit; the single-ray counters
 * accumulate into @p single. Returns how many subspace runs had a
 * refused ray (empty gate) before a traced one, so that lane and probe
 * positions differ.
 */
int
expectSingleRayLut(Fixture &fx, const float *q,
                   const std::vector<Neighbor> &probes,
                   const SelectiveLutParams &params, const SelectiveLut &lut,
                   rt::TraversalStats &single, const std::string &where)
{
    std::vector<float> residual(8);
    std::vector<bool> refused_before(4, false);
    std::vector<bool> shifted(4, false);
    for (std::size_t p = 0; p < probes.size(); ++p) {
        fx.ivf.residual(q, static_cast<cluster_t>(probes[p].id),
                        residual.data());
        std::size_t selected = 0;
        for (int s = 0; s < 4; ++s) {
            const float x = residual[static_cast<std::size_t>(2 * s)];
            const float y = residual[static_cast<std::size_t>(2 * s + 1)];
            const double thr_raw = fx.policy.threshold(s, x, y);
            const double thr =
                fx.policy.scaled(s, thr_raw, params.threshold_scale);
            const double m = thr * params.miss_penalty;
            const auto miss = static_cast<float>(m * m);
            const float tmax_inner = fx.scene.gateTmax(
                s, x, y,
                fx.policy.scaled(s, thr_raw, params.threshold_scale * 0.5));
            const float k = fx.scene.coordScale(s);
            std::vector<float> delta(16, 0.0f);
            std::vector<bool> flag(16, false), inner(16, false);
            rt::Ray ray;
            const auto si = static_cast<std::size_t>(s);
            if (fx.scene.makeRay(s, x, y, thr, ray)) {
                if (refused_before[si])
                    shifted[si] = true;
                // The ray alone: a one-ray packet over its subspace.
                const float nan = std::numeric_limits<float>::quiet_NaN();
                std::vector<float> tile(16, nan);
                fx.scene.scene().traceTile(&ray, 1, fx.scene.recordRange(s),
                                           tile.data(), single);
                for (entry_t e = 0; e < 16; ++e) {
                    const float thit = tile[e];
                    if (std::isnan(thit))
                        continue;
                    delta[e] = fx.scene.lutValueL2(k * k, thit) - miss;
                    flag[e] = true;
                    inner[e] = thit <= tmax_inner;
                    ++selected;
                }
            } else {
                refused_before[si] = true;
            }
            EXPECT_EQ(bitsOf(miss), bitsOf(lut.missFor(p, s)));
            for (entry_t e = 0; e < 16; ++e) {
                const std::size_t cell = lut.cell(p, s, e);
                EXPECT_EQ(bitsOf(delta[e]), bitsOf(lut.delta[cell]))
                    << where << " probe " << p << " subspace " << s
                    << " entry " << e;
                EXPECT_EQ(flag[e], lut.selectedAt(p, s, e));
                EXPECT_EQ(inner[e], lut.innerAt(p, s, e));
            }
        }
        EXPECT_EQ(selected, lut.selected_count[p]);
    }
    int shifted_runs = 0;
    for (bool b : shifted)
        shifted_runs += b ? 1 : 0;
    return shifted_runs;
}

void
expectSameStats(const rt::TraversalStats &want,
                const rt::TraversalStats &got, const std::string &where)
{
    EXPECT_EQ(want.rays, got.rays) << where;
    EXPECT_EQ(want.node_visits, got.node_visits) << where;
    EXPECT_EQ(want.aabb_tests, got.aabb_tests) << where;
    EXPECT_EQ(want.prim_tests, got.prim_tests) << where;
    EXPECT_EQ(want.hits, got.hits) << where;
}

/**
 * Builds the L2 LUTs of the fixture queries two at a time at nprobe =
 * 11 (each subspace's 22 rays traced as one full kRayLanes packet that
 * spans both queries plus a partial one) at every SIMD level, and
 * checks each against its single-ray LUT (expectSingleRayLut) with the
 * same traversal counters. Returns the shifted runs of the last level.
 */
int
expectPacketLutEqualsSingleRayLut(Fixture &fx)
{
    SelectiveLutParams params;
    int shifted_runs = 0;
    const simd::Level saved = simd::level();
    for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2,
                              simd::Level::kAvx512}) {
        if (!simd::setLevel(level))
            continue;
        shifted_runs = 0;
        for (idx_t q0 = 0; q0 + 1 < fx.ds.queries.rows(); q0 += 2) {
            std::vector<Neighbor> probes[2];
            SelectiveLut luts[2];
            LutRequest requests[2];
            for (int g = 0; g < 2; ++g) {
                const float *q = fx.ds.queries.row(q0 + g);
                probes[g] = fx.ivf.probe(Metric::kL2, q, 11);
                EXPECT_EQ(probes[g].size(), 11u);
                requests[g] = {q, &probes[g], &luts[g]};
            }
            fx.device.resetStats();
            fx.builder->buildGroup(requests, 2, params);
            const rt::TraversalStats packed = fx.device.totalStats();

            rt::TraversalStats single;
            for (int g = 0; g < 2; ++g) {
                const std::string where = std::string(simd::levelName(level)) +
                                          " query " +
                                          std::to_string(q0 + g);
                // The query row is recomputed, not read back from
                // requests[g]: GCC 12.2 at -O2 with ASan+UBSan and
                // _GLIBCXX_ASSERTIONS miscompiles that load (late VRP
                // folds the induction-variable offset of requests[g] to
                // the g = 1 value), so g = 0 got query 1's row.
                shifted_runs += expectSingleRayLut(
                    fx, fx.ds.queries.row(q0 + g), probes[g], params,
                    luts[g], single, where);
            }
            expectSameStats(single, packed, simd::levelName(level));
        }
    }
    simd::setLevel(saved);
    return shifted_runs;
}

TEST(SelectiveLut, PacketTracedLutEqualsSingleRayLut)
{
    Fixture fx(Metric::kL2);
    expectPacketLutEqualsSingleRayLut(fx);
}

/**
 * Replaces the fixture's policy by one whose threshold is 0 (makeRay
 * refuses) wherever the residual lands in an empty density cell and
 * positive elsewhere, so some but not all rays have an empty gate.
 */
void
installEmptyGatePolicy(Fixture &fx)
{
    Writer writer;
    writer.writePod<std::int32_t>(0); // L2
    writer.writePod<std::int32_t>(
        static_cast<std::int32_t>(ThresholdMode::kDynamic));
    writer.writePod<std::int32_t>(4);
    std::vector<double> lo, hi;
    for (int s = 0; s < 4; ++s) {
        // threshold = c * log1p(density), clamped to [0, max].
        const double max_thr = fx.policy.maxThreshold(s);
        writer.writeVector(std::vector<double>{0.0, max_thr / 6.0});
        writer.writePod(0.0);
        writer.writePod(max_thr);
        lo.push_back(0.0);
        hi.push_back(max_thr);
    }
    writer.writeVector(lo);
    writer.writeVector(hi);
    Reader reader(writer.buffer().data(), writer.buffer().size(),
                  "hand-built policy");
    fx.policy.load(reader, fx.density);
}

/**
 * Some but not all probe rays of a subspace have an empty gate, so a
 * packet's lanes are not its probes' positions: the LUT must still
 * equal the single-ray one cell for cell.
 */
TEST(SelectiveLut, PartlyEmptyGatesKeepRaysInTheirRows)
{
    Fixture fx(Metric::kL2);
    installEmptyGatePolicy(fx);
    EXPECT_GT(expectPacketLutEqualsSingleRayLut(fx), 0)
        << "no subspace had a refused ray before a traced one";
}

void
expectSameBits(const std::vector<float> &want, const std::vector<float> &got,
               const std::string &where)
{
    ASSERT_EQ(want.size(), got.size()) << where;
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(bitsOf(want[i]), bitsOf(got[i])) << where << " cell " << i;
}

/** Every field of two LUTs, bit for bit. */
void
expectSameLut(const SelectiveLut &want, const SelectiveLut &got,
              const std::string &where)
{
    EXPECT_EQ(want.entries, got.entries) << where;
    EXPECT_EQ(want.blocks, got.blocks) << where;
    EXPECT_EQ(want.shared_across_probes, got.shared_across_probes) << where;
    expectSameBits(want.delta, got.delta, where + " delta");
    EXPECT_EQ(want.selected, got.selected) << where << " selected";
    EXPECT_EQ(want.inner, got.inner) << where << " inner";
    expectSameBits(want.miss, got.miss, where + " miss");
    EXPECT_EQ(want.selected_count, got.selected_count) << where;
    expectSameBits(want.base, got.base, where + " base");
    expectSameBits(want.offset, got.offset, where + " offset");
}

/**
 * Builds kRayLanes queries' LUTs one at a time, then in groups of 2, 3
 * and kRayLanes, at every SIMD level and in both execution modes:
 * every LUT field must be bitwise equal and the rays traced identical.
 * Under kCudaFallback every ray takes the dense gate, so all summed
 * traversal counters must be identical too; under kRtCore a ray that
 * is alone in its packet takes the gate and the others the walk, so
 * the other counters depend on the grouping by design. Probe counts
 * mix 8-probe queries with 1-probe ones (a plan-time deadline cut) and
 * others, so packets span queries at every offset. Returns the rays
 * traced per pass.
 */
std::uint64_t
expectGroupInvariant(Fixture &fx, Metric metric)
{
    const auto n = static_cast<std::size_t>(simd::kRayLanes);
    // Distinct query vectors: the fixture's queries, then base points.
    std::vector<const float *> queries;
    for (idx_t i = 0; i < fx.ds.queries.rows(); ++i)
        queries.push_back(fx.ds.queries.row(i));
    for (idx_t i = 0; queries.size() < n; ++i)
        queries.push_back(fx.ds.base.row(37 * i));
    const std::size_t counts[] = {8, 1, 8, 3, 12, 2, 8, 5};
    std::vector<std::vector<Neighbor>> probes(n);
    for (std::size_t i = 0; i < n; ++i)
        probes[i] = fx.ivf.probe(metric, queries[i],
                                 static_cast<idx_t>(counts[i % 8]));
    SelectiveLutParams params;
    params.inner_gate = true;

    std::uint64_t rays = 0;
    const simd::Level saved = simd::level();
    for (rt::ExecMode mode :
         {rt::ExecMode::kRtCore, rt::ExecMode::kCudaFallback}) {
        for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2,
                                  simd::Level::kAvx512}) {
            if (!simd::setLevel(level))
                continue;
            fx.device.setMode(mode);
            const std::string at =
                std::string(simd::levelName(level)) +
                (mode == rt::ExecMode::kRtCore ? " rt" : " no-rt");
            std::vector<SelectiveLut> alone(n);
            fx.device.resetStats();
            for (std::size_t i = 0; i < n; ++i)
                fx.builder->buildInto(queries[i], probes[i], params,
                                      alone[i]);
            const rt::TraversalStats alone_stats = fx.device.totalStats();
            rays = alone_stats.rays;

            for (std::size_t group : {std::size_t{2}, std::size_t{3}, n}) {
                std::vector<SelectiveLut> grouped(n);
                fx.device.resetStats();
                for (std::size_t i0 = 0; i0 < n; i0 += group) {
                    std::vector<LutRequest> requests;
                    for (std::size_t i = i0; i < std::min(n, i0 + group); ++i)
                        requests.push_back(
                            {queries[i], &probes[i], &grouped[i]});
                    fx.builder->buildGroup(requests.data(), requests.size(),
                                           params);
                }
                const std::string where =
                    at + " groups of " + std::to_string(group);
                if (mode == rt::ExecMode::kCudaFallback)
                    expectSameStats(alone_stats, fx.device.totalStats(), where);
                else
                    EXPECT_EQ(alone_stats.rays, fx.device.totalStats().rays)
                        << where;
                for (std::size_t i = 0; i < n; ++i)
                    expectSameLut(alone[i], grouped[i],
                                  where + " query " + std::to_string(i));
            }
        }
    }
    simd::setLevel(saved);
    fx.device.setMode(rt::ExecMode::kRtCore);
    return rays;
}

TEST(SelectiveLut, GroupedLutsEqualLoneLutsL2)
{
    Fixture fx(Metric::kL2);
    expectGroupInvariant(fx, Metric::kL2);
}

TEST(SelectiveLut, GroupedLutsEqualLoneLutsIp)
{
    Fixture fx(Metric::kInnerProduct);
    expectGroupInvariant(fx, Metric::kInnerProduct);
}

/** Empty-gate rows inside a group: no ray, zero cells, same LUTs. */
TEST(SelectiveLut, GroupedLutsEqualLoneLutsWithEmptyGates)
{
    Fixture fx(Metric::kL2);
    installEmptyGatePolicy(fx);
    const std::uint64_t rays = expectGroupInvariant(fx, Metric::kL2);
    // Two rounds of the probe-count cycle, 4 subspaces each.
    const std::uint64_t rows = 2 * (8 + 1 + 8 + 3 + 12 + 2 + 8 + 5) * 4;
    EXPECT_LT(rays, rows) << "no row had an empty gate";
    EXPECT_GT(rays, 0u);
}

/** G fills one packet with a group's rays of a subspace. */
TEST(SelectiveLut, GroupSizeFillsOnePacket)
{
    Fixture l2(Metric::kL2);
    const auto lanes = static_cast<std::size_t>(simd::kRayLanes);
    EXPECT_EQ(l2.builder->groupSize(1), lanes);
    EXPECT_EQ(l2.builder->groupSize(8), lanes / 8);
    EXPECT_EQ(l2.builder->groupSize(lanes), 1u);
    EXPECT_EQ(l2.builder->groupSize(lanes + 3), 1u);
    Fixture ip(Metric::kInnerProduct);
    // One ray per subspace and query whatever the probe count.
    EXPECT_EQ(ip.builder->groupSize(8), lanes);
    EXPECT_EQ(ip.builder->groupSize(64), lanes);
}

} // namespace
} // namespace juno
