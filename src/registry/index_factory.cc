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

std::unique_ptr<AnnIndex>
buildFlat(Metric metric, FloatMatrixView points, const IndexSpec &spec)
{
    spec.requireKnown({});
    return std::make_unique<FlatIndex>(metric, points);
}

std::unique_ptr<AnnIndex>
buildIvfFlat(Metric metric, FloatMatrixView points, const IndexSpec &spec)
{
    return std::make_unique<IvfFlatIndex>(metric, points,
                                          IvfFlatIndex::fromSpec(spec));
}

std::unique_ptr<AnnIndex>
buildIvfPq(Metric metric, FloatMatrixView points, const IndexSpec &spec)
{
    return std::make_unique<IvfPqIndex>(metric, points,
                                        IvfPqIndex::fromSpec(spec));
}

std::unique_ptr<AnnIndex>
buildHnsw(Metric metric, FloatMatrixView points, const IndexSpec &spec)
{
    auto index = std::make_unique<Hnsw>();
    index->build(metric, points, Hnsw::fromSpec(spec));
    return index;
}

std::unique_ptr<AnnIndex>
buildJuno(Metric metric, FloatMatrixView points, const IndexSpec &spec)
{
    return std::make_unique<JunoIndex>(metric, points,
                                       JunoIndex::fromSpec(spec));
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
