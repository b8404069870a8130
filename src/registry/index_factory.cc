#include "registry/index_factory.h"

#include <algorithm>

#include "baseline/flat_index.h"
#include "baseline/hnsw.h"
#include "baseline/ivfflat_index.h"
#include "baseline/ivfpq_index.h"
#include "common/logging.h"
#include "core/juno_index.h"
#include "core/rt_exact_index.h"

namespace juno {
namespace {

SearchMode
parseSearchMode(const std::string &key)
{
    if (key == "h")
        return SearchMode::kExactDistance;
    if (key == "m")
        return SearchMode::kRewardPenalty;
    if (key == "l")
        return SearchMode::kHitCount;
    fatal("unknown JUNO mode '" + key + "' (use h, m or l)");
}

ThresholdMode
parseThresholdMode(const std::string &key)
{
    if (key == "dyn")
        return ThresholdMode::kDynamic;
    if (key == "small")
        return ThresholdMode::kStaticSmall;
    if (key == "large")
        return ThresholdMode::kStaticLarge;
    fatal("unknown threshold mode '" + key +
          "' (use dyn, small or large)");
}

std::unique_ptr<AnnIndex>
buildFlat(Metric metric, FloatMatrixView points, const IndexSpec &spec)
{
    spec.requireKnown({});
    return std::make_unique<FlatIndex>(metric, points);
}

std::unique_ptr<AnnIndex>
buildIvfFlat(Metric metric, FloatMatrixView points, const IndexSpec &spec)
{
    spec.requireKnown({"nlist", "nprobe", "seed", "iters", "train"});
    IvfFlatIndex::Params params;
    params.clusters = static_cast<int>(spec.getInt("nlist", 256));
    params.nprobs = spec.getInt("nprobe", 8);
    params.seed = static_cast<std::uint64_t>(spec.getInt("seed", 31));
    params.max_iters = static_cast<int>(spec.getInt("iters", 20));
    params.max_training_points = spec.getInt("train", 0);
    return std::make_unique<IvfFlatIndex>(metric, points, params);
}

std::unique_ptr<AnnIndex>
buildIvfPq(Metric metric, FloatMatrixView points, const IndexSpec &spec)
{
    spec.requireKnown({"nlist", "m", "entries", "nprobe", "hnsw",
                       "hnsw_m", "ef", "seed", "train"});
    IvfPqIndex::Params params;
    params.clusters = static_cast<int>(spec.getInt("nlist", 256));
    params.pq_subspaces = static_cast<int>(spec.getInt("m", 48));
    params.pq_entries = static_cast<int>(spec.getInt("entries", 256));
    params.nprobs = spec.getInt("nprobe", 8);
    params.use_hnsw_router = spec.getBool("hnsw", false);
    params.hnsw_m = static_cast<int>(spec.getInt("hnsw_m", 16));
    params.hnsw_ef_search = static_cast<int>(spec.getInt("ef", 64));
    params.seed = static_cast<std::uint64_t>(spec.getInt("seed", 31));
    params.max_training_points = spec.getInt("train", 0);
    return std::make_unique<IvfPqIndex>(metric, points, params);
}

std::unique_ptr<AnnIndex>
buildHnsw(Metric metric, FloatMatrixView points, const IndexSpec &spec)
{
    spec.requireKnown({"m", "efc", "ef", "seed"});
    Hnsw::Params params;
    params.m = static_cast<int>(spec.getInt("m", 16));
    params.ef_construction = static_cast<int>(spec.getInt("efc", 100));
    params.seed = static_cast<std::uint64_t>(spec.getInt("seed", 97));
    auto index = std::make_unique<Hnsw>();
    index->build(metric, points, params);
    index->setEfSearch(static_cast<int>(spec.getInt("ef", 64)));
    return index;
}

std::unique_ptr<AnnIndex>
buildJuno(Metric metric, FloatMatrixView points, const IndexSpec &spec)
{
    spec.requireKnown({"nlist", "entries", "nprobe", "mode", "scale",
                       "tmode", "penalty", "rt", "pipelined", "grid",
                       "psamples", "prefs", "ptopk", "pdeg", "radius",
                       "gatefrac", "seed", "train"});
    JunoParams params;
    params.clusters = static_cast<int>(spec.getInt("nlist", 256));
    params.pq_entries = static_cast<int>(spec.getInt("entries", 256));
    params.nprobs = spec.getInt("nprobe", 8);
    params.mode = parseSearchMode(spec.get("mode", "h"));
    params.threshold_scale = spec.getDouble("scale", 1.0);
    params.threshold_mode = parseThresholdMode(spec.get("tmode", "dyn"));
    params.miss_penalty = spec.getDouble("penalty", 1.0);
    params.use_rt_core = spec.getBool("rt", true);
    params.pipelined = spec.getBool("pipelined", false);
    params.density_grid = static_cast<int>(spec.getInt("grid", 100));
    params.policy.train_samples = spec.getInt("psamples", 200);
    params.policy.ref_samples = spec.getInt("prefs", 4000);
    params.policy.contain_topk = spec.getInt("ptopk", 100);
    params.policy.poly_degree = static_cast<int>(spec.getInt("pdeg", 3));
    params.scene.gate_radius = static_cast<float>(
        spec.getDouble("radius", params.scene.gate_radius));
    params.scene.max_gate_fraction = static_cast<float>(
        spec.getDouble("gatefrac", params.scene.max_gate_fraction));
    params.seed = static_cast<std::uint64_t>(spec.getInt("seed", 31));
    params.max_training_points = spec.getInt("train", 0);
    return std::make_unique<JunoIndex>(metric, points, params);
}

std::unique_ptr<AnnIndex>
buildRtExact(Metric metric, FloatMatrixView points, const IndexSpec &spec)
{
    spec.requireKnown({});
    JUNO_REQUIRE(metric == Metric::kL2,
                 "rtexact supports only the L2 metric");
    return std::make_unique<RtExactIndex>(points);
}

} // namespace

IndexFactory::IndexFactory()
{
    registerType("flat", buildFlat, [](SnapshotReader &r) {
        return std::unique_ptr<AnnIndex>(FlatIndex::open(r));
    });
    registerType("ivfflat", buildIvfFlat, [](SnapshotReader &r) {
        return std::unique_ptr<AnnIndex>(IvfFlatIndex::open(r));
    });
    registerType("ivfpq", buildIvfPq, [](SnapshotReader &r) {
        return std::unique_ptr<AnnIndex>(IvfPqIndex::open(r));
    });
    registerType("hnsw", buildHnsw, [](SnapshotReader &r) {
        return std::unique_ptr<AnnIndex>(Hnsw::open(r));
    });
    registerType("juno", buildJuno, [](SnapshotReader &r) {
        return std::unique_ptr<AnnIndex>(JunoIndex::open(r));
    });
    registerType("rtexact", buildRtExact, [](SnapshotReader &r) {
        return std::unique_ptr<AnnIndex>(RtExactIndex::open(r));
    });
}

IndexFactory &
IndexFactory::instance()
{
    static IndexFactory factory;
    return factory;
}

void
IndexFactory::registerType(const std::string &type, BuildFn build,
                           OpenFn open)
{
    for (auto &entry : entries_)
        if (entry.type == type) {
            entry.build = std::move(build);
            entry.open = std::move(open);
            return;
        }
    entries_.push_back({type, std::move(build), std::move(open)});
}

const IndexFactory::Entry &
IndexFactory::find(const std::string &type) const
{
    for (const auto &entry : entries_)
        if (entry.type == type)
            return entry;
    std::string known;
    for (const auto &t : types()) {
        if (!known.empty())
            known += ", ";
        known += t;
    }
    fatal("unknown index type '" + type + "' (registered: " + known +
          ")");
}

std::unique_ptr<AnnIndex>
IndexFactory::build(Metric metric, FloatMatrixView points,
                    const IndexSpec &spec) const
{
    return find(spec.type).build(metric, points, spec);
}

std::unique_ptr<AnnIndex>
IndexFactory::open(SnapshotReader &reader) const
{
    const IndexSpec spec = IndexSpec::parse(reader.spec());
    return find(spec.type).open(reader);
}

std::vector<std::string>
IndexFactory::types() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &entry : entries_)
        out.push_back(entry.type);
    std::sort(out.begin(), out.end());
    return out;
}

std::unique_ptr<AnnIndex>
buildIndex(Metric metric, FloatMatrixView points, const std::string &spec)
{
    return IndexFactory::instance().build(metric, points,
                                          IndexSpec::parse(spec));
}

std::unique_ptr<AnnIndex>
openIndex(const std::string &path, const SnapshotOptions &options)
{
    SnapshotReader reader(path, options);
    return IndexFactory::instance().open(reader);
}

} // namespace juno
