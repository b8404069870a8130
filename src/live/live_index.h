/**
 * @file
 * Live mutability: insert/delete/upsert on a serving index without a
 * stop-the-world rebuild (DESIGN.md "Live mutability").
 *
 * Every index type below this layer is frozen at build(). LiveIndex
 * wraps one of them in the LSM shape every production ANN service
 * converges on:
 *
 *  - a flat "fresh" buffer of appended vectors, scanned exactly on
 *    every query and merged into the top-k alongside the main index's
 *    results — an insert is visible to the very next search;
 *  - tombstones consulted during result merge — a delete (or the
 *    delete half of an upsert) takes effect immediately, without
 *    touching the immutable main index;
 *  - a background merge thread that folds the buffer into the main
 *    index (an IVF-Flat base re-assigns the union to the previous
 *    generation's centroids; every other type rebuilds from the
 *    union) and publishes the result as a new snapshot generation,
 *    which readers swap to atomically.
 *
 * Consistency contract: a query observes exactly one generation —
 * never a mix of old and new — because each search chunk holds the
 * reader side of one shared lock for its whole execution while
 * mutations and the generation publish take brief exclusive holds.
 * The expensive merge work (union build, index training, snapshot
 * write) runs with no lock held, against copies captured at freeze
 * time, so writers never stall searches for more than a pointer swap.
 *
 * Parity contract: with no overlay (no fresh rows, no tombstones) a
 * LiveIndex search is the wrapped index's search with row ids mapped
 * to external ids; a merged generation built by rebuild-from-union is
 * bitwise-equal to a fresh build over the union dataset (same spec,
 * same seeds, same row order). An IVF-Flat merge reuses the previous
 * generation's centroids and is recall-parity instead.
 */
#ifndef JUNO_LIVE_LIVE_INDEX_H
#define JUNO_LIVE_LIVE_INDEX_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baseline/index.h"
#include "common/matrix.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "obs/trace.h"

namespace juno {

/**
 * Outcome of one live mutation. Typed like submit()'s RejectReason so
 * callers (and the serving layer's per-op counters) branch on a value
 * instead of parsing an exception message. Mutations never block and
 * never throw for expectable conditions.
 */
enum class MutateStatus {
    kOk,          ///< applied; visible to the next search
    kBufferFull,  ///< fresh buffer at capacity (backpressure: a merge
                  ///< is behind; retry after it drains)
    kDuplicateId, ///< insert() of an id that is already live (upsert
                  ///< is the read-modify-write spelling)
    kUnknownId,   ///< remove() of an id that is not live
    kInvalidId,   ///< negative id
    kStopped,     ///< service-level: mutation after stop()
    kUnsupported, ///< service-level: served index is not a LiveIndex
};

/** Human-readable status (metrics labels, logs, CLI output). */
const char *mutateStatusName(MutateStatus status);

/** The three live mutation kinds (service-level op accounting). */
enum class LiveOp { kInsert, kRemove, kUpsert };

/** Tunables of one LiveIndex. */
struct LiveConfig {
    /**
     * Rows each fresh buffer holds. Two buffers exist (active +
     * frozen-under-merge), so peak fresh memory is twice this many
     * rows. Inserts into a full active buffer while the other is
     * still merging return kBufferFull.
     */
    idx_t fresh_capacity = 4096;
    /** Active-buffer row count that triggers a background merge. */
    idx_t merge_threshold = 1024;
    /**
     * Run the background merge thread. Off, merges happen only via
     * mergeNow() — the deterministic mode the parity tests use.
     */
    bool auto_merge = true;
    /**
     * Directory for generation snapshots: each merge saves
     * gen-<N>.juno there and republishes through openIndex() with
     * mmap, so readers serve the new generation through the registry's
     * keepalive-counted views. Empty (default) publishes the built
     * index directly from memory (no files).
     */
    std::string snapshot_dir;
    /** Merge-trace hook: each merge emits freeze/build/snapshot/
     * publish spans as one trace collected here. Null disables. */
    Tracer *tracer = nullptr;
    /**
     * Test/chaos hook, called after the merged index is built but
     * before the publish lock is taken — the window a racing delete
     * must survive (see test_live_index "delete racing publish").
     */
    std::function<void()> before_publish;
};

/** Point-in-time freshness/merge statistics of one LiveIndex. */
struct LiveStats {
    idx_t live_count = 0;  ///< ids a search can currently return
    idx_t fresh_rows = 0;  ///< live rows awaiting merge (both buffers)
    idx_t tombstones = 0;  ///< dead rows (main + buffers) awaiting compaction
    std::uint64_t generation = 0; ///< current generation number
    std::uint64_t generations_published = 0; ///< merges that swapped readers
    std::uint64_t merges = 0;     ///< completed merge cycles
    std::uint64_t inserts = 0;    ///< applied inserts
    std::uint64_t removes = 0;    ///< applied removes
    std::uint64_t upserts = 0;    ///< applied upserts
    std::uint64_t rejected_full = 0;  ///< mutations refused: buffer full
    std::uint64_t rejected_other = 0; ///< duplicate/unknown/invalid refusals
    bool merging = false;         ///< a merge is in flight
};

/**
 * A mutable serving index wrapping any registry-buildable AnnIndex.
 *
 * External ids: the initial points get ids 0..n-1; insert()/upsert()
 * take caller-chosen non-negative ids. Search results carry external
 * ids, whatever generation or buffer the hit came from. At most one
 * live vector exists per id at any instant.
 *
 * Thread-safety: searches, mutations, and merges may all race; see
 * the file comment for the locking protocol. The read path satisfies
 * the AnnIndex contract (concurrent search() calls are safe) *with*
 * concurrent mutation — unlike every other index type in the tree.
 */
class LiveIndex : public AnnIndex {
  public:
    /**
     * Builds the initial generation over @p initial_points (ids
     * 0..n-1) from @p spec via the index factory, so every merge can
     * rebuild an equivalent index deterministically from the same
     * spec string.
     */
    LiveIndex(Metric metric, FloatMatrixView initial_points,
              const std::string &spec, LiveConfig config = {});

    /** Stops the merge thread; in-flight merges complete first. */
    ~LiveIndex() override;

    // ---- Mutations (never block searches; brief exclusive lock) ----

    /** Appends @p vec (dim() floats) under @p id. The id must not be
     * live; a tombstoned id may be re-inserted. */
    MutateStatus insert(const float *vec, idx_t id);

    /** Tombstones @p id; it disappears from the very next search. */
    MutateStatus remove(idx_t id);

    /** Atomically replace: remove-if-present + insert. */
    MutateStatus upsert(const float *vec, idx_t id);

    /**
     * Runs one merge cycle synchronously on the calling thread
     * (serialised against the background thread). Returns true when a
     * new generation was published, false when there was nothing to
     * fold (no fresh rows, no tombstones).
     */
    bool mergeNow();

    /** Current generation number (0 = the initial build). */
    std::uint64_t generation() const;

    LiveStats liveStats() const;

    const LiveConfig &liveConfig() const { return config_; }

    /**
     * Redirects merge traces (overrides LiveConfig::tracer; null
     * disables). The serving layer attaches its own tracer here so
     * merge spans land in the same ring as request traces.
     */
    void setTracer(Tracer *tracer) { tracer_.store(tracer); }

    /**
     * Detaches @p tracer if it is still the merge-trace sink (a later
     * setTracer() wins), then waits for an in-flight merge, which may
     * hold it, to finish. Call before @p tracer is destroyed.
     */
    void detachTracer(Tracer *tracer) JUNO_EXCLUDES(merge_run_mutex_);

    // ---- AnnIndex ----
    std::string name() const override;
    /** The *base* spec: what each merged generation is rebuilt from. */
    std::string spec() const override { return base_spec_; }
    Metric metric() const override { return metric_; }
    /** Live ids (generation live rows + buffered live rows). */
    idx_t size() const override;
    idx_t dim() const override { return dim_; }

  protected:
    void searchChunk(const SearchChunk &chunk, SearchContext &ctx) override;

  private:
    /** One immutable published index plus its id/tombstone overlay. */
    struct Generation {
        /** Null only when a merge emptied the index entirely. */
        std::unique_ptr<AnnIndex> index;
        /** Raw vectors, row-aligned with the index (merge source). */
        FloatMatrix points;
        /** Row -> external id. */
        std::vector<idx_t> ids;
        /** Tombstone bitmap over rows; set rows are filtered from
         * every result merge. */
        std::vector<std::uint8_t> dead;
        idx_t dead_count = 0;
        std::uint64_t number = 0;
    };

    /** One append-only fresh buffer (active or frozen-under-merge). */
    struct FreshBuffer {
        FloatMatrix rows; ///< capacity x dim, first `count` rows valid
        std::vector<idx_t> ids;
        std::vector<std::uint8_t> dead;
        idx_t count = 0;
        idx_t dead_count = 0;
    };

    /** Where an id's single live vector currently resides. */
    struct Loc {
        enum class Where : std::uint8_t { kMain, kBuffer };
        Where where = Where::kMain;
        int buffer = 0; ///< buffers_ slot when where == kBuffer
        idx_t row = 0;
    };

    /** Merge inputs captured (copied) at freeze time, worked on with
     * no lock held. */
    struct MergeJob {
        std::shared_ptr<Generation> gen;
        std::vector<std::uint8_t> gen_dead; ///< liveness at freeze
        FloatMatrix fresh_rows;
        std::vector<idx_t> fresh_ids;
        std::vector<std::uint8_t> fresh_dead;
        int frozen = 0; ///< buffers_ slot frozen by this merge
    };

    MutateStatus insertLocked(const float *vec, idx_t id)
        JUNO_REQUIRES(rw_);
    MutateStatus removeLocked(idx_t id) JUNO_REQUIRES(rw_);

    /** Wakes the merge thread when a trigger fired (outside rw_). */
    void maybeTriggerMerge();
    bool mergeDue() const;
    void mergeLoop() JUNO_EXCLUDES(merge_mutex_);
    /** One full merge cycle; true when a generation was published. */
    bool mergeOnce() JUNO_EXCLUDES(merge_run_mutex_);

    const Metric metric_;
    const idx_t dim_;
    const std::string base_spec_;
    const LiveConfig config_;
    std::string base_name_;
    /** Merge-trace sink; seeded from config_, swappable at runtime. */
    std::atomic<Tracer *> tracer_{nullptr};

    /** The generation-coherence lock (see file comment). */
    mutable SharedMutex rw_;
    std::shared_ptr<Generation> gen_ JUNO_GUARDED_BY(rw_);
    FreshBuffer buffers_[2] JUNO_GUARDED_BY(rw_);
    int active_ JUNO_GUARDED_BY(rw_) = 0;
    bool merging_ JUNO_GUARDED_BY(rw_) = false;
    /** id -> live location; exactly the currently-live ids. */
    std::unordered_map<idx_t, Loc> loc_ JUNO_GUARDED_BY(rw_);

    // Merge-trigger signals (atomics: read by the merge thread
    // without rw_).
    std::atomic<std::int64_t> active_rows_{0};

    // Op counters (atomics: liveStats() reads without rw_ writers).
    std::atomic<std::uint64_t> inserts_{0};
    std::atomic<std::uint64_t> removes_{0};
    std::atomic<std::uint64_t> upserts_{0};
    std::atomic<std::uint64_t> rejected_full_{0};
    std::atomic<std::uint64_t> rejected_other_{0};
    std::atomic<std::uint64_t> merges_{0};
    std::atomic<std::uint64_t> generations_published_{0};

    /** Serialises merge cycles (background thread vs mergeNow()). */
    Mutex merge_run_mutex_;

    Mutex merge_mutex_;
    std::condition_variable merge_cv_;
    bool merge_stop_ JUNO_GUARDED_BY(merge_mutex_) = false;
    std::thread merge_thread_;
};

} // namespace juno

#endif // JUNO_LIVE_LIVE_INDEX_H
