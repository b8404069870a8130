/**
 * @file Recall is non-decreasing in nprobe: probing more lists must not
 * lose neighbours. R1@10 at nprobe 1/4/16 is checked on 256 queries so
 * that a drop is judged against the previous point's 95% Wilson
 * interval, not against sampling noise.
 *
 * JUNO-M/L on inner product are known to break the property (ROADMAP,
 * "JUNO-M/L on inner product: recall falls as nprobe grows"). Their
 * cases live in the NprobeKnownFailure suite: they skip while the
 * property fails and fail once it holds, so the fix has to move them
 * into NprobeProperty. ctest runs that suite as its own entry and
 * reports it as skipped (CMakeLists.txt).
 */
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/ivfflat_index.h"
#include "baseline/ivfpq_index.h"
#include "core/juno_index.h"
#include "dataset/ground_truth.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"
#include "registry/index_factory.h"

namespace juno {
namespace {

constexpr idx_t kK = 10;
constexpr idx_t kNprobes[] = {1, 4, 16};

struct Corpus {
    Dataset data;
    GroundTruth gt;
};

const Corpus &
corpus(Metric metric)
{
    static const auto make = [](Metric m) {
        SyntheticSpec spec;
        spec.kind = m == Metric::kL2 ? DatasetKind::kDeepLike
                                     : DatasetKind::kTtiLike;
        spec.num_points = 4000;
        spec.num_queries = 256;
        spec.dim = 32;
        spec.seed = 5;
        Corpus c;
        c.data = makeDataset(spec);
        c.gt = computeGroundTruth(m, c.data.base.view(),
                                  c.data.queries.view(), kK);
        return c;
    };
    static const Corpus l2 = make(Metric::kL2);
    static const Corpus ip = make(Metric::kInnerProduct);
    return metric == Metric::kL2 ? l2 : ip;
}

void
setNprobe(AnnIndex &index, idx_t nprobe)
{
    if (auto *f = dynamic_cast<IvfFlatIndex *>(&index))
        f->setNprobs(nprobe);
    else if (auto *p = dynamic_cast<IvfPqIndex *>(&index))
        p->setNprobs(nprobe);
    else if (auto *j = dynamic_cast<JunoIndex *>(&index))
        j->setNprobs(nprobe);
    else
        FAIL() << index.name() << " has no nprobe";
}

struct Case {
    const char *name;
    Metric metric;
    const char *spec;
};

/**
 * R1@10 at each of kNprobes. Returns the first point that falls below
 * the lower end of its predecessor's interval, described in @p why;
 * empty when the property holds.
 */
std::string
firstDrop(const Case &c)
{
    const Corpus &cor = corpus(c.metric);
    auto index = buildIndex(c.metric, cor.data.base.view(), c.spec);
    const auto queries = static_cast<std::size_t>(cor.data.queries.rows());
    std::ostringstream log;
    double prev = -1.0;
    for (const idx_t nprobe : kNprobes) {
        setNprobe(*index, nprobe);
        SearchOptions options;
        options.k = kK;
        const double r = recall1AtK(
            cor.gt, index->search(SearchRequest(cor.data.queries.view(),
                                                options)));
        log << " np=" << nprobe << ": " << r;
        if (prev >= 0.0 && r < recallInterval(prev, queries).lo)
            return index->name() + " R1@10 drops:" + log.str();
        prev = r;
    }
    return "";
}

class NprobeProperty : public ::testing::TestWithParam<Case> {};

TEST_P(NprobeProperty, RecallHoldsAsNprobeGrows)
{
    const std::string drop = firstDrop(GetParam());
    EXPECT_TRUE(drop.empty()) << drop;
}

INSTANTIATE_TEST_SUITE_P(
    Indexes, NprobeProperty,
    ::testing::Values(
        Case{"IvfFlatL2", Metric::kL2, "ivfflat:nlist=64,train=4000"},
        Case{"IvfFlatIp", Metric::kInnerProduct,
             "ivfflat:nlist=64,train=4000"},
        Case{"IvfPqL2", Metric::kL2,
             "ivfpq:nlist=64,m=8,entries=64,train=4000"},
        Case{"IvfPqIp", Metric::kInnerProduct,
             "ivfpq:nlist=64,m=8,entries=64,train=4000"},
        Case{"JunoHL2", Metric::kL2,
             "juno:nlist=64,entries=64,mode=h,train=4000"},
        Case{"JunoHIp", Metric::kInnerProduct,
             "juno:nlist=64,entries=64,mode=h,train=4000"}),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(info.param.name);
    });

/** Skips while the known drop reproduces; fails once it is fixed. */
void
expectKnownDrop(const Case &c)
{
    const std::string drop = firstDrop(c);
    if (drop.empty())
        FAIL() << c.name << " now holds the nprobe property: move it "
               << "into NprobeProperty";
    GTEST_SKIP() << "ROADMAP: JUNO-M/L on inner product lose recall as "
                    "nprobe grows (hit-count scoring omits the "
                    "per-probe coarse term);"
                 << drop;
}

TEST(NprobeKnownFailure, JunoMIp)
{
    expectKnownDrop({"JunoMIp", Metric::kInnerProduct,
                     "juno:nlist=64,entries=64,mode=m,train=4000"});
}

TEST(NprobeKnownFailure, JunoLIp)
{
    expectKnownDrop({"JunoLIp", Metric::kInnerProduct,
                     "juno:nlist=64,entries=64,mode=l,train=4000"});
}

} // namespace
} // namespace juno
