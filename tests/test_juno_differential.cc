/**
 * @file Differential test of JunoIndex::search against an in-test
 * reference scorer. The reference traces every ray alone (a one-ray
 * packet of Scene::traceTile over its subspace), keeps each selected
 * entry's recovered score, and sums every point's per-subspace scores
 * in subspace order with the miss and offset rules of the selective
 * LUT. Search results must match it bit for bit in every mode, metric,
 * codebook size, thread count and pipelining setting, with and without
 * the RT core (rt=0 scans each subspace instead).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/simd.h"
#include "core/juno_index.h"
#include "dataset/synthetic.h"

namespace juno {
namespace {

std::uint32_t
bitsOf(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

/** One query scored the slow way: single rays, per-point sums. */
std::vector<Neighbor>
referenceSearch(const JunoIndex &index, const float *q, idx_t k)
{
    const JunoParams &jp = index.params();
    const Metric metric = index.metric();
    const SearchMode mode = jp.mode;
    const bool inner_gate = mode == SearchMode::kRewardPenalty;
    const JunoScene &scene = index.junoScene();
    const ThresholdPolicy &policy = index.thresholdPolicy();
    const InvertedFileIndex &ivf = index.ivf();
    const int subspaces = scene.numSubspaces();
    const auto entries = static_cast<std::size_t>(index.pq().entries());
    const auto dim = static_cast<std::size_t>(index.dim());

    std::vector<Neighbor> candidates;
    std::vector<float> proj(dim);
    rt::TraversalStats stats;
    for (const Neighbor &pr : index.probe(q)) {
        const auto c = static_cast<cluster_t>(pr.id);
        if (metric == Metric::kL2)
            ivf.residual(q, c, proj.data());
        else
            proj.assign(q, q + dim);

        const std::size_t cells = static_cast<std::size_t>(subspaces) *
                                  entries;
        std::vector<bool> selected(cells, false), inner(cells, false);
        std::vector<float> value(cells, 0.0f);
        std::vector<float> miss(static_cast<std::size_t>(subspaces));
        for (int s = 0; s < subspaces; ++s) {
            const float x = proj[static_cast<std::size_t>(2 * s)];
            const float y = proj[static_cast<std::size_t>(2 * s + 1)];
            const double thr_raw = policy.threshold(s, x, y);
            const double thr =
                policy.scaled(s, thr_raw, jp.threshold_scale);
            if (metric == Metric::kL2) {
                const double m = thr * jp.miss_penalty;
                miss[static_cast<std::size_t>(s)] =
                    static_cast<float>(m * m);
            } else {
                miss[static_cast<std::size_t>(s)] = static_cast<float>(thr);
            }
            rt::Ray ray;
            if (!scene.makeRay(s, x, y, thr, ray))
                continue;
            const float kap = scene.coordScale(s);
            const float kappa_sqr = kap * kap;
            const float qn2 = (x * kap) * (x * kap) + (y * kap) * (y * kap);
            const float tmax_inner =
                inner_gate
                    ? scene.gateTmax(s, x, y,
                                     policy.scaled(s, thr_raw,
                                                   jp.threshold_scale * 0.5))
                    : -std::numeric_limits<float>::infinity();
            std::vector<float> tile(entries,
                                    std::numeric_limits<float>::quiet_NaN());
            scene.scene().traceTile(&ray, 1, scene.recordRange(s),
                                    tile.data(), stats);
            for (std::size_t e = 0; e < entries; ++e) {
                const float thit = tile[e];
                if (std::isnan(thit))
                    continue;
                const std::size_t cell =
                    static_cast<std::size_t>(s) * entries + e;
                selected[cell] = true;
                inner[cell] = thit <= tmax_inner;
                value[cell] = metric == Metric::kL2
                                  ? scene.lutValueL2(kappa_sqr, thit)
                                  : scene.lutValueIp(kappa_sqr, qn2, thit);
            }
        }

        float offset = 0.0f;
        if (mode == SearchMode::kExactDistance) {
            offset = metric == Metric::kInnerProduct
                         ? simd::innerProduct(q, ivf.centroid(c), index.dim())
                         : 0.0f;
            for (int s = 0; s < subspaces; ++s)
                offset += miss[static_cast<std::size_t>(s)];
        } else if (mode == SearchMode::kRewardPenalty) {
            offset = -static_cast<float>(subspaces);
        }
        for (idx_t pid : ivf.list(c)) {
            float acc = 0.0f;
            int hits = 0;
            for (int s = 0; s < subspaces; ++s) {
                const std::size_t cell =
                    static_cast<std::size_t>(s) * entries +
                    index.codes().at(pid, s);
                if (!selected[cell])
                    continue;
                ++hits;
                if (mode == SearchMode::kExactDistance)
                    acc += value[cell] - miss[static_cast<std::size_t>(s)];
                else if (mode == SearchMode::kRewardPenalty)
                    acc += inner[cell] ? 2.0f : 1.0f;
                else
                    acc += 1.0f;
            }
            if (hits > 0)
                candidates.push_back({pid, acc + offset});
        }
    }
    TopK top(k, mode == SearchMode::kExactDistance ? metric
                                                   : Metric::kInnerProduct);
    for (const Neighbor &cand : candidates)
        top.push(cand.id, cand.score);
    return top.take();
}

Dataset
makeData(Metric metric)
{
    SyntheticSpec spec;
    spec.kind = metric == Metric::kL2 ? DatasetKind::kDeepLike
                                      : DatasetKind::kTtiLike;
    spec.num_points = 1500;
    spec.num_queries = 12;
    spec.dim = 12;
    spec.components = 12;
    spec.seed = 91;
    return makeDataset(spec);
}

JunoParams
smallParams(int entries = 32)
{
    JunoParams params;
    params.clusters = 16;
    params.pq_entries = entries;
    params.nprobs = 5;
    params.density_grid = 30;
    params.policy.train_samples = 80;
    params.policy.ref_samples = 800;
    params.policy.contain_topk = 40;
    return params;
}

/**
 * Codebook sizes: 32, and 40 and 200, which cross the LUT's 32-bit
 * flag words and the 128-entry limit of the permute scan.
 */
constexpr int kEntries[] = {32, 40, 200};

/**
 * Runs every (RT core, mode, pipelining, threads) setting of @p index
 * over @p queries and compares each result list with the reference, id
 * and score bits.
 */
void
expectMatchesReference(JunoIndex &index, FloatMatrixView queries, idx_t k)
{
    for (bool rt : {true, false}) {
        index.setUseRtCore(rt);
        for (SearchMode mode : {SearchMode::kExactDistance,
                                SearchMode::kRewardPenalty,
                                SearchMode::kHitCount}) {
            index.setSearchMode(mode);
            std::vector<std::vector<Neighbor>> want;
            for (idx_t qi = 0; qi < queries.rows(); ++qi)
                want.push_back(referenceSearch(index, queries.row(qi), k));
            for (bool pipelined : {false, true}) {
                index.setPipelined(pipelined);
                for (int threads : {1, 3}) {
                    SearchOptions opts;
                    opts.k = k;
                    opts.threads = threads;
                    const auto got =
                        index.search(SearchRequest(queries, opts));
                    ASSERT_EQ(got.size(), want.size());
                    for (std::size_t qi = 0; qi < want.size(); ++qi) {
                        const std::string where =
                            std::string(rt ? "rt=1 " : "rt=0 ") +
                            searchModeName(mode) + " pipelined=" +
                            std::to_string(pipelined) +
                            " threads=" + std::to_string(threads) +
                            " query=" + std::to_string(qi);
                        ASSERT_EQ(got[qi].size(), want[qi].size())
                            << where;
                        for (std::size_t i = 0; i < want[qi].size(); ++i) {
                            EXPECT_EQ(got[qi][i].id, want[qi][i].id)
                                << where << " rank " << i;
                            EXPECT_EQ(bitsOf(got[qi][i].score),
                                      bitsOf(want[qi][i].score))
                                << where << " rank " << i;
                        }
                    }
                }
            }
        }
    }
    index.setPipelined(false);
    index.setUseRtCore(true);
}

TEST(JunoDifferential, L2SearchMatchesSingleRayReference)
{
    const Dataset ds = makeData(Metric::kL2);
    for (int entries : kEntries) {
        SCOPED_TRACE("E=" + std::to_string(entries));
        JunoIndex index(Metric::kL2, ds.base.view(), smallParams(entries));
        expectMatchesReference(index, ds.queries.view(), 10);
    }
}

TEST(JunoDifferential, IpSearchMatchesSingleRayReference)
{
    const Dataset ds = makeData(Metric::kInnerProduct);
    for (int entries : kEntries) {
        SCOPED_TRACE("E=" + std::to_string(entries));
        JunoIndex index(Metric::kInnerProduct, ds.base.view(),
                        smallParams(entries));
        expectMatchesReference(index, ds.queries.view(), 10);
    }
}

TEST(JunoDifferential, KBeyondCandidatesReturnsEveryCandidate)
{
    // k = n exceeds the points of the probed clusters: every touched
    // point comes back, in the reference's order.
    for (Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
        const Dataset ds = makeData(metric);
        JunoIndex index(metric, ds.base.view(), smallParams());
        const FloatMatrixView queries = ds.queries.view().slice(0, 3);
        expectMatchesReference(index, queries, index.size());
        const auto got = index.search(queries, index.size());
        for (const auto &list : got)
            EXPECT_LT(static_cast<idx_t>(list.size()), index.size());
    }
}

TEST(JunoDifferential, EmptyGatesChargeTheMissScore)
{
    // Subspace 0 is constant over base and queries, so every residual
    // there is exactly zero and its smallest trained threshold is
    // zero; under the static-small policy makeRay refuses every ray of
    // that subspace (an empty gate).
    Dataset ds = makeData(Metric::kL2);
    for (FloatMatrix *m : {&ds.base, &ds.queries})
        for (idx_t i = 0; i < m->rows(); ++i) {
            m->at(i, 0) = 0.5f;
            m->at(i, 1) = -0.25f;
        }
    JunoIndex index(Metric::kL2, ds.base.view(), smallParams());
    index.setThresholdMode(ThresholdMode::kStaticSmall);
    ASSERT_EQ(index.thresholdPolicy().minThreshold(0), 0.0);
    const auto before = index.rtStats().rays;
    index.search(ds.queries.view(), 10);
    const auto rays = index.rtStats().rays - before;
    const auto full = static_cast<std::uint64_t>(ds.queries.rows()) *
                      static_cast<std::uint64_t>(index.params().nprobs) *
                      static_cast<std::uint64_t>(
                          index.junoScene().numSubspaces());
    ASSERT_LT(rays, full);
    expectMatchesReference(index, ds.queries.view(), 10);
}

TEST(JunoDifferential, InnerGateDoesNotChangeHitCountScores)
{
    // JunoParams::lutParams() records the inner gate only for JUNO-M;
    // scoring JUNO-L from a LUT with the inner rows must equal scoring
    // it from one without them.
    for (Metric metric : {Metric::kL2, Metric::kInnerProduct}) {
        const Dataset ds = makeData(metric);
        JunoIndex index(metric, ds.base.view(), smallParams());
        const SelectiveLutBuilder builder(index.junoScene(),
                                          index.thresholdPolicy(),
                                          index.ivf(), index.device());
        const auto lutParamsIn = [&](SearchMode mode) {
            JunoParams p = index.params();
            p.mode = mode;
            return p.lutParams();
        };
        for (idx_t qi = 0; qi < ds.queries.rows(); ++qi) {
            const float *q = ds.queries.row(qi);
            const auto probes = index.probe(q);
            SelectiveLut with_inner, without;
            builder.buildInto(q, probes,
                              lutParamsIn(SearchMode::kRewardPenalty),
                              with_inner);
            builder.buildInto(q, probes, lutParamsIn(SearchMode::kHitCount),
                              without);
            ASSERT_FALSE(with_inner.inner.empty());
            ASSERT_TRUE(without.inner.empty());
            // Same selected cells; an inner flag only on a selected one.
            for (std::size_t p = 0; p < with_inner.blocks; ++p)
                for (int s = 0; s < index.junoScene().numSubspaces(); ++s)
                    for (entry_t e = 0; e < with_inner.entries; ++e) {
                        EXPECT_EQ(with_inner.selectedAt(p, s, e),
                                  without.selectedAt(p, s, e));
                        EXPECT_TRUE(!with_inner.innerAt(p, s, e) ||
                                    with_inner.selectedAt(p, s, e));
                    }
            const auto a = index.calculator().run(
                metric, SearchMode::kHitCount, probes, with_inner, 20);
            const auto b = index.calculator().run(
                metric, SearchMode::kHitCount, probes, without, 20);
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a[i].id, b[i].id);
                EXPECT_EQ(bitsOf(a[i].score), bitsOf(b[i].score));
            }
        }
    }
}

} // namespace
} // namespace juno
