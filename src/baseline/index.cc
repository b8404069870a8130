#include "baseline/index.h"

#include <algorithm>

#include "common/logging.h"
#include "registry/snapshot.h"

namespace juno {

std::string
AnnIndex::spec() const
{
    fatal("index '" + name() + "' does not describe itself as a spec");
}

void
AnnIndex::saveSections(SnapshotWriter &) const
{
    fatal("index '" + name() + "' does not support persistence");
}

void
AnnIndex::save(const std::string &path) const
{
    SnapshotWriter writer(path, spec());
    saveSections(writer);
    writer.finish();
}

SearchResults
AnnIndex::search(const SearchRequest &request)
{
    SearchResults results;
    search(request, results);
    return results;
}

void
AnnIndex::search(const SearchRequest &request, SearchResults &out)
{
    JUNO_REQUIRE(request.options.k >= 0, "k must be non-negative");
    // Degenerate requests resolve here, uniformly for every index
    // type, so searchChunk() implementations never see them:
    //  - empty batch -> no results (queries are not even shape-checked;
    //    an empty view has no meaningful column count);
    //  - k == 0 -> one empty neighbour list per query;
    //  - k > numPoints -> k clamps to the index size (results truncate
    //    instead of reading past list ends).
    const idx_t rows = request.queries.rows();
    // Degraded flags track rows 1:1; degenerate paths below bypass the
    // engine, so they size/clear the vector themselves.
    if (request.options.degraded != nullptr)
        request.options.degraded->assign(static_cast<std::size_t>(rows),
                                         0);
    if (rows == 0) {
        out.clear();
        return;
    }
    JUNO_REQUIRE(request.queries.cols() == dim(),
                 "dimension mismatch: queries have "
                     << request.queries.cols() << " columns, index has "
                     << dim());
    if (request.options.k == 0 || size() == 0) {
        // @p out may be a reused buffer: stale lists must empty out.
        out.resize(static_cast<std::size_t>(rows));
        for (auto &list : out)
            list.clear();
        return;
    }
    SearchOptions options = request.options;
    options.k = std::min(options.k, size());
    engine_.run(
        request.queries, options,
        [this](const SearchChunk &chunk, SearchContext &ctx) {
            searchChunk(chunk, ctx);
        },
        timers_, out);
}

} // namespace juno
