/**
 * @file
 * Batched search API types: what a caller asks of an index.
 *
 * A SearchRequest bundles the query batch with SearchOptions (k, worker
 * threads, chunk granularity, stats toggle). The query engine shards
 * the batch into SearchChunk work items, each executed by one worker
 * against its own SearchContext, so the paper's batch-level parallelism
 * (Sec. 5.3: many queries in flight across execution units) has a
 * first-class CPU expression instead of a per-query loop.
 */
#ifndef JUNO_ENGINE_SEARCH_REQUEST_H
#define JUNO_ENGINE_SEARCH_REQUEST_H

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/topk.h"
#include "common/types.h"

namespace juno {

class Trace;

/** Retrieved results: one best-first Neighbor list per query. */
using SearchResults = std::vector<std::vector<Neighbor>>;

/** Tunables of one batched search. */
struct SearchOptions {
    /** Neighbours returned per query (> 0). */
    idx_t k = 10;
    /**
     * Worker threads sharing the batch. 1 executes on the calling
     * thread; 0 picks hardware_concurrency(). Results are bitwise
     * identical for every thread count (queries are independent).
     */
    int threads = 1;
    /**
     * Queries per work chunk; 0 derives a chunk size from the batch
     * size and thread count with a minimum grain. Chunking never
     * affects results, only load balance.
     */
    idx_t batch_size = 0;
    /**
     * When false the batch does not contribute to the index's
     * stageTimers() ledger (serving mode: skip the bookkeeping).
     */
    bool collect_stats = true;
    /**
     * Observability hook: when non-null, the engine and the index's
     * stage instrumentation append spans for this batch to the trace
     * (obs/trace.h). Not owned; must outlive the search call. Null
     * (the default) costs one pointer test per stage.
     */
    Trace *trace = nullptr;

    // ---- Overload resilience (DESIGN.md "Overload resilience") ----

    /**
     * Cooperative deadline, enforced by the IVF family's probe loop
     * (engine/probe_loop.h) at two points: a query planned past it
     * keeps only its best probe, and a scan that passes it between
     * probe lists stops there. Either cut returns the
     * partial-but-valid top-k of the lists scanned (every returned
     * neighbour was exactly scored; the list is just drawn from fewer
     * lists) and flags the query in @ref degraded. At least the first
     * probe list is always scanned, so results stay non-empty.
     * time_point::max() (the default) means no deadline and costs zero
     * clock reads on the scan path.
     */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /**
     * Probe-budget scale in (0, 1]: the effective nprobe becomes
     * max(1, lround(nprobe * scale)). Exactly 1.0 (the default) leaves
     * the configured nprobe untouched — bitwise-identical results —
     * which is what lets a DegradationPolicy step budgets per batch
     * without a parallel code path.
     */
    double nprobe_scale = 1.0;
    /**
     * Fast-scan prefilter tightening in [0, 1): widens the 4-bit block
     * skip margin by this fraction of the current heap threshold, so a
     * degraded scan discards near-threshold blocks it would otherwise
     * rescore. 0 (the default) keeps the exact skip rule.
     */
    double scan_tighten = 0.0;
    /**
     * Per-query degradation flags, sized/zeroed by the engine to the
     * batch's row count when non-null: the probe loop sets slot qi
     * when query qi's scan was cut short by @ref deadline. Not owned; must
     * outlive the search call.
     */
    std::vector<std::uint8_t> *degraded = nullptr;
};

/** A query batch plus its options; the unit the engine executes. */
struct SearchRequest {
    FloatMatrixView queries;
    SearchOptions options;

    SearchRequest() = default;
    SearchRequest(FloatMatrixView q, SearchOptions o)
        : queries(q), options(o)
    {
    }
    /** Convenience: batch with default options except @p k. */
    SearchRequest(FloatMatrixView q, idx_t k) : queries(q)
    {
        options.k = k;
    }
};

/**
 * A contiguous shard of a batched search handed to one worker.
 * Implementations answer queries [begin, end) of @p queries and write
 * each result into (*results)[qi]; slots never overlap across chunks.
 */
struct SearchChunk {
    FloatMatrixView queries;
    idx_t begin = 0;
    idx_t end = 0;
    idx_t k = 0;
    SearchResults *results = nullptr;
};

} // namespace juno

#endif // JUNO_ENGINE_SEARCH_REQUEST_H
