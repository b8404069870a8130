/**
 * @file
 * Abstract ANN index interface shared by the baselines and JUNO, so the
 * harness can sweep heterogeneous indexes through one code path.
 *
 * Searching is batched: the public non-virtual search(SearchRequest)
 * shards the query batch across a worker pool (engine/query_engine.h)
 * and delegates each shard to the protected searchChunk() virtual.
 * Implementations write into SearchContext-owned scratch instead of
 * allocating per query, and accumulate stage timings into the
 * context's private ledger (merged thread-safely after the batch).
 */
#ifndef JUNO_BASELINE_INDEX_H
#define JUNO_BASELINE_INDEX_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/timer.h"
#include "common/topk.h"
#include "common/types.h"
#include "engine/query_engine.h"
#include "engine/search_context.h"
#include "engine/search_request.h"

namespace juno {

class SnapshotWriter;
struct IndexSpec;
class HotListCache;

/** Common interface of every searchable index in this repository. */
class AnnIndex {
  public:
    virtual ~AnnIndex() = default;

    /** Human-readable configuration name (used in bench tables). */
    virtual std::string name() const = 0;

    /**
     * Canonical IndexSpec string (registry/index_spec.h) that rebuilds
     * an equivalent index over the same points:
     * buildIndex(metric, points, spec()) reproduces this configuration
     * bit-for-bit. Also the provenance record stored in snapshots.
     */
    virtual std::string spec() const;

    /**
     * Persists the trained index as a versioned snapshot (the one
     * on-disk container every index type shares; see
     * registry/snapshot.h). Reload with openIndex(path) — or with
     * SearchService's warm-start constructor to serve directly from
     * the file. Non-virtual template method: the container handling is
     * uniform, only saveSections() differs per type.
     */
    void save(const std::string &path) const;

    /** Metric the index was built for. */
    virtual Metric metric() const = 0;

    /** Number of indexed points. */
    virtual idx_t size() const = 0;

    /** Dimensionality of indexed points (queries must match). */
    virtual idx_t dim() const = 0;

    /**
     * Retrieves the top-k neighbours of every query row of @p request.
     * The batch is sharded across request.options.threads workers;
     * results are bitwise identical for every thread count. Per-stage
     * wall time accumulates into stageTimers() (unless the request
     * disables stats) so benches can report breakdowns.
     *
     * The read path is safe to call from several caller threads at
     * once (each checks out its own SearchContext; see
     * engine/query_engine.h): this is the contract the serving layer
     * and its tests rely on. Multi-threaded requests serialise against
     * each other on the shared worker pool. Mutating the index (build,
     * setNprobs, ...) concurrently with searches remains undefined.
     */
    SearchResults search(const SearchRequest &request);

    /**
     * Batch-submit hook: like search(request) but writes into @p out,
     * whose storage is reused across calls. The serving layer's
     * micro-batcher dispatches every assembled batch through this
     * overload with one long-lived buffer per dispatcher, so
     * steady-state serving does not reallocate the result table.
     */
    void search(const SearchRequest &request, SearchResults &out);

    /** Convenience: single-threaded batch with default options. */
    SearchResults
    search(FloatMatrixView queries, idx_t k)
    {
        return search(SearchRequest(queries, k));
    }

    /** Per-stage timing ledger of all searches since the last reset. */
    const StageTimers &stageTimers() const { return timers_; }
    void resetStageTimers() { timers_.reset(); }

    /** Worker count actually used by the most recent search(). */
    int lastSearchThreads() const { return engine_.lastThreadCount(); }

    /**
     * Attaches (or resizes) a hot-list cache of @p bytes for
     * out-of-core serving; 0 detaches it. Returns false when this
     * index type has no IO-aware probe path (the default). Resizing
     * discards the previous cache's contents and counters. The one
     * setter of the budget: the owner of the index calls it before
     * serving (SearchService::start() does for a configured budget);
     * searches never change it. In-flight scans keep their shared_ptr
     * to a replaced cache.
     */
    virtual bool setMemoryBudget(std::int64_t bytes)
    {
        (void)bytes;
        return false;
    }

    /** The attached hot-list cache (counters), or null when none. */
    virtual std::shared_ptr<const HotListCache> hotListCache() const
    {
        return nullptr;
    }

  protected:
    /**
     * Answers queries [chunk.begin, chunk.end), writing each result
     * into (*chunk.results)[qi]. Runs concurrently on distinct chunks
     * with distinct contexts; must only mutate @p ctx, the owned
     * result slots, and state guarded by the implementation.
     */
    virtual void searchChunk(const SearchChunk &chunk,
                             SearchContext &ctx) = 0;

    /**
     * Writes this index's sections into an open snapshot. Every
     * shipping index type implements this (with spec()); the default
     * rejects, so ad-hoc test doubles need not.
     */
    virtual void saveSections(SnapshotWriter &writer) const;

    StageTimers timers_;

  private:
    QueryEngine engine_;
};

} // namespace juno

#endif // JUNO_BASELINE_INDEX_H
