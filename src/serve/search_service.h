/**
 * @file
 * The online serving subsystem: turns the batch-oriented index stack
 * into a service for purely concurrent traffic.
 *
 * The whole index stack below this layer is batch-shaped — PR 1's
 * engine shards a SearchRequest over workers, PR 2's SIMD kernels
 * score whole candidate blocks — but real traffic arrives as many
 * independent clients each holding ONE query. SearchService is the
 * adapter the paper's throughput story presumes (JUNO Sec. 5.3:
 * per-query cost is amortised across large dispatched batches): a
 * micro-batcher drains a bounded MPMC queue into engine batches under
 * a dual trigger (batch full OR linger expired), dispatches them
 * through AnnIndex::search(SearchRequest), and fulfils one future per
 * request.
 *
 *   clients --submit()--> BoundedMpmcQueue --popBatch()--> dispatcher
 *       -> assemble FloatMatrix batch -> index.search(request, out)
 *       -> per-request promise fulfilment + ServiceStats accounting
 *
 * Admission control: the queue is bounded and submit() never blocks —
 * at capacity (or after stop(), or with the request already past its
 * deadline) the returned future carries a RejectedError with a typed
 * RejectReason and the per-reason ServiceStats counter bumps, so
 * overload sheds at the door instead of stretching everyone's p99.
 * Latency SLO accounting: each request's latency is split into queue /
 * batch-assembly / search components feeding per-thread QuantileSketch
 * shards (p50/p95/p99 via ServiceStats::snapshot()).
 *
 * Overload resilience (DESIGN.md "Overload resilience & fault
 * injection"): requests carry a deadline stamped at submit(); the
 * dispatcher sheds already-expired requests at dequeue (doomed work
 * never reaches the engine) and threads the earliest deadline of each
 * batch into the scan loops' cooperative cancellation. An optional
 * DegradationPolicy watches queue depth / queue-wait p95 and steps
 * probe budgets down per batch under pressure, so sustained overload
 * costs recall instead of tail latency. Results produced under any of
 * these mechanisms are flagged ResultList::degraded.
 */
#ifndef JUNO_SERVE_SEARCH_SERVICE_H
#define JUNO_SERVE_SEARCH_SERVICE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

#include "baseline/index.h"
#include "live/live_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "registry/snapshot.h"
#include "serve/degradation_policy.h"
#include "serve/request_queue.h"
#include "serve/service_stats.h"

namespace juno {

/**
 * What one request's future delivers: best-first neighbours, plus the
 * degradation marker. Derives publicly from the vector so every
 * existing consumer (range-for, comparisons against plain
 * vector<Neighbor>, structured truncation) keeps working unchanged.
 */
class ResultList : public std::vector<Neighbor> {
  public:
    ResultList() = default;
    ResultList(std::vector<Neighbor> &&v)
        : std::vector<Neighbor>(std::move(v))
    {
    }

    /**
     * True when this result was produced under reduced quality: the
     * scan was cut off at the request's deadline (partial-but-valid
     * top-k), the batch ran at a degradation tier above 0, or the
     * request completed after its deadline had already passed. False
     * results are bitwise identical to an unloaded service's.
     */
    bool degraded = false;
};

/** Why submit() refused a request (RejectedError::reason()). */
enum class RejectReason {
    kNone,      ///< not rejected (accepted into the queue)
    kQueueFull, ///< admission control: queue at capacity
    kStopped,   ///< service not running (before start() / after stop())
    kExpired,   ///< deadline already passed (at submit or in queue)
};

/** Human-readable reject reason (metrics labels, logs). */
const char *rejectReasonName(RejectReason reason);

/**
 * The exception a rejected (or queue-expired) request's future
 * carries. Typed so callers can branch on reason() instead of parsing
 * a message.
 */
class RejectedError : public std::runtime_error {
  public:
    explicit RejectedError(RejectReason reason);

    RejectReason reason() const { return reason_; }

  private:
    RejectReason reason_;
};

/** Tunables of one SearchService. */
struct ServiceConfig {
    /**
     * Batch-closing dual trigger: a batch dispatches when it holds
     * max_batch requests OR when linger has elapsed since the
     * dispatcher saw its first request, whichever comes first.
     * max_batch = 1 (or linger = 0 with sparse arrivals) degrades to
     * per-query dispatch — the no-batching baseline bench_serve
     * measures against.
     */
    idx_t max_batch = 64;
    std::chrono::microseconds linger{200};
    /** Admission bound: submit() rejects beyond this backlog. */
    std::size_t queue_capacity = 4096;
    /**
     * Dispatcher (micro-batcher) threads. One preserves strict batch
     * FIFO; more exploit the engine's concurrent read path when batch
     * assembly itself becomes the bottleneck.
     */
    int dispatchers = 1;
    /** SearchOptions.threads of every dispatched batch. */
    int search_threads = 1;
    /**
     * Forwarded to SearchOptions.collect_stats: serving keeps the
     * index's stage ledger off by default (the service has its own
     * accounting; see ServiceStats).
     */
    bool collect_stage_stats = false;
    /**
     * Out-of-core hot-list cache budget: > 0 makes start() attach an
     * admission-controlled cache of that many bytes
     * (serve/hot_list_cache.h) through AnnIndex::setMemoryBudget;
     * 0 (the default) leaves the index as its owner configured it.
     * Negative is a ConfigError. Results are bitwise identical under
     * every budget.
     */
    std::int64_t memory_budget_bytes = 0;

    // ---- Observability (DESIGN.md "Observability") ----
    /**
     * Export this service through the metrics registry for its
     * lifetime: admission counters, per-component latency summaries,
     * the index's hot-list cache counters, process RSS/faults and
     * build info all register as pull callbacks — zero hot-path cost,
     * evaluated only when someone renders the registry.
     */
    bool metrics = true;
    /** Registry to export into; null uses MetricsRegistry::global(). */
    MetricsRegistry *registry = nullptr;
    /**
     * Flight-recorder period in seconds: > 0 runs a background
     * reporter thread that logs a one-line summary to stderr each
     * tick and, when metrics_jsonl is set, appends a registry
     * snapshot as one JSON line. A final tick fires on stop().
     * 0 (default) disables the recorder.
     */
    double stats_every_s = 0.0;
    /** JSONL path the flight recorder appends to (empty: log only). */
    std::string metrics_jsonl;
    /**
     * Fraction of requests traced end to end (queue -> batch ->
     * engine -> pipeline stages), in [0, 1]. The decision is one
     * relaxed atomic at submit; 0 (default) reduces to a constant
     * read, which is what keeps tracing free when off.
     */
    double trace_sample = 0.0;
    /**
     * Slow-query capture: a request whose total latency exceeds this
     * many microseconds gets a synthesized queue/batch/search trace
     * in the tracer's slow ring, independent of sampling (0 = off).
     */
    double slow_trace_us = 0.0;

    // ---- Overload resilience ----
    /**
     * Default per-request deadline in milliseconds, stamped at
     * submit() (the explicit-deadline overload overrides it). A
     * request past its deadline is rejected at the door (kExpired),
     * shed at dequeue before wasting a search, or — once dispatched —
     * cut off cooperatively in the scan loops with partial-but-valid
     * results flagged degraded. 0 (the default) means no deadline:
     * behaviour and results are bitwise identical to a service
     * without deadline support.
     */
    double default_deadline_ms = 0.0;
    /**
     * Tiered graceful degradation (serve/degradation_policy.h):
     * enabled steps probe budgets down per batch under queue
     * pressure. Disabled (the default) keeps every batch at full
     * quality — bitwise-identical results.
     */
    DegradationConfig degradation;
};

/**
 * Owns the dispatcher threads and the request queue in front of one
 * AnnIndex. Lifecycle: construct -> start() -> submit()... -> stop().
 * stop() drains: every accepted request is completed before it
 * returns (no lost or double-completed futures), and later submits
 * are rejected. One-shot: a stopped service cannot be restarted.
 */
class SearchService {
  public:
    /** @p index must outlive the service and stay unmodified while
     * the service runs (the read path is exercised concurrently). */
    SearchService(AnnIndex &index, ServiceConfig config);

    /**
     * Warm start: the service owns an index it opened itself. The
     * usual source is openIndex(path) with mmap enabled, so a serving
     * process is first-query-ready after page-in instead of a full
     * rebuild (juno_cli serve --load).
     */
    SearchService(std::unique_ptr<AnnIndex> index, ServiceConfig config);

    /**
     * Warm start from a snapshot path (registry/index_factory.h);
     * @p options defaults to zero-copy mmap loading.
     */
    SearchService(const std::string &snapshot_path, ServiceConfig config,
                  const SnapshotOptions &options = {});

    ~SearchService();

    SearchService(const SearchService &) = delete;
    SearchService &operator=(const SearchService &) = delete;

    /** Spawns the dispatcher threads. Must be called exactly once. */
    void start() JUNO_EXCLUDES(lifecycle_mutex_);

    /**
     * Drains and joins: closes admission, lets dispatchers finish
     * everything already accepted, then joins them. Idempotent and
     * safe to call from several threads (every return implies the
     * drain completed). The destructor calls stop() implicitly.
     */
    void stop() JUNO_EXCLUDES(lifecycle_mutex_);

    bool running() const { return running_.load(); }

    /** The deadline clock (steady: never jumps with wall time). */
    using Clock = std::chrono::steady_clock;
    /** Sentinel for "no deadline". */
    static constexpr Clock::time_point kNoDeadline =
        Clock::time_point::max();

    /**
     * Submits one query (dim() floats, copied) for its top-@p k
     * neighbours; k clamps to the index size, k == 0 yields an empty
     * list. Returns the future delivering the ResultList — identical
     * to what a direct search(SearchRequest) over the same query
     * returns (and ResultList::degraded false) unless overload
     * mechanisms engaged. The request's deadline comes from
     * config.default_deadline_ms (0 = none).
     *
     * Rejection (queue full, not running, or deadline already passed)
     * never blocks: the returned future is valid but carries a
     * RejectedError whose reason() is also stored into @p rejected
     * when non-null — the cheap way for a closed-loop client to
     * detect shedding without catching. Accepted submits store
     * RejectReason::kNone. The per-reason ServiceStats counter bumps
     * either way.
     */
    std::future<ResultList> submit(const float *query, idx_t k,
                                   RejectReason *rejected = nullptr);

    /**
     * Same with an explicit per-request deadline (overrides the
     * configured default; kNoDeadline = none). A deadline in the past
     * rejects immediately with kExpired.
     */
    std::future<ResultList> submit(const float *query, idx_t k,
                                   Clock::time_point deadline,
                                   RejectReason *rejected = nullptr);

    /** Same, with a size-checked vector. */
    std::future<ResultList> submit(const std::vector<float> &query,
                                   idx_t k,
                                   RejectReason *rejected = nullptr);

    // ---- Live mutation (DESIGN.md "Live mutability") ----

    /**
     * True when the served index is a LiveIndex: the mutation methods
     * below can apply. Decided once at construction (dynamic type of
     * the index never changes while the service runs).
     */
    bool liveEnabled() const { return live_ != nullptr; }

    /**
     * Applies one live mutation with typed admission like submit():
     * never blocks in-flight searches (the index's writer lock is held
     * for an O(1) buffer append) and never throws for expectable
     * conditions. Returns kStopped before start()/after stop(),
     * kUnsupported when the served index is immutable, else the
     * index's own status. Every call bumps the service's per-op
     * counters (ServiceStats::Snapshot live_* fields, juno_live_*
     * metrics).
     */
    MutateStatus insert(const float *vec, idx_t id);
    MutateStatus remove(idx_t id);
    MutateStatus upsert(const float *vec, idx_t id);

    /** The served LiveIndex's freshness/merge statistics (a
     * default-constructed LiveStats when !liveEnabled()). */
    LiveStats liveStats() const;

    /** Current degradation tier (0 when the policy is off). */
    int degradationTier() const;

    const ServiceStats &stats() const { return stats_; }

    /**
     * Latency/admission snapshot augmented with the served index's
     * hot-list cache counters and the process's RSS plus page-fault
     * deltas since start() (the out-of-core health signals).
     */
    ServiceStats::Snapshot snapshot() const JUNO_EXCLUDES(lifecycle_mutex_);

    AnnIndex &index() { return index_; }
    const ServiceConfig &config() const { return config_; }

    /** Captured traces (sampled + slow ring) live here. */
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

  private:
    /** One queued query plus its completion obligation. */
    struct Request {
        std::vector<float> query;
        idx_t k = 0;
        std::promise<ResultList> promise;
        Clock::time_point t_submit;
        /** Shed/cut-off point; kNoDeadline when undeadlined. */
        Clock::time_point deadline = kNoDeadline;
        /** Sampling decision, made once at submit(). */
        bool traced = false;
    };

    void dispatchLoop();

    /** The deadline config.default_deadline_ms implies for a request
     * submitted now (kNoDeadline when the default is 0). */
    Clock::time_point defaultDeadline() const;

    /** Registers the pull callbacks (start(), when config_.metrics). */
    void registerMetrics() JUNO_REQUIRES(lifecycle_mutex_);
    /** The registry this service exports into. */
    MetricsRegistry &registry() const;
    /** Background flight-recorder loop (period config_.stats_every_s). */
    void reporterLoop() JUNO_EXCLUDES(reporter_mutex_);
    /** Signals and joins the reporter thread (idempotent). */
    void stopReporter() JUNO_EXCLUDES(reporter_mutex_);
    /** One recorder tick: summary line + optional JSONL append. */
    void recorderTick(bool final_tick) JUNO_EXCLUDES(lifecycle_mutex_);

    /**
     * Declared before owned_index_ so it is destroyed after it: an
     * owned LiveIndex's merge thread records generation traces here
     * until the index's destructor joins it.
     */
    Tracer tracer_;
    /** Set by the warm-start constructors; null when borrowing. */
    std::unique_ptr<AnnIndex> owned_index_;
    AnnIndex &index_;
    /** The live-mutation view of index_; null when immutable. */
    LiveIndex *live_ = nullptr;
    const ServiceConfig config_;
    BoundedMpmcQueue<Request> queue_;
    ServiceStats stats_;

    /**
     * Guards the start/stop state machine and base_usage_. Mutable so
     * snapshot() const can read base_usage_ coherently; dispatchers
     * never take this lock, so holding it across the stop() join
     * cannot deadlock (a concurrent snapshot() blocks until the drain
     * finishes, which is the consistent picture anyway).
     */
    mutable Mutex lifecycle_mutex_;
    enum class State { kIdle, kRunning, kStopped };
    State state_ JUNO_GUARDED_BY(lifecycle_mutex_) = State::kIdle;
    std::vector<std::thread> dispatchers_ JUNO_GUARDED_BY(lifecycle_mutex_);
    std::atomic<bool> running_{false};
    /** Usage at start(); snapshots report fault deltas against it. */
    ResourceUsage base_usage_ JUNO_GUARDED_BY(lifecycle_mutex_);

    /** Set by start() before any reader thread exists. */
    Clock::time_point start_time_;

    /** Null unless config_.degradation.enabled; dispatchers evaluate
     * it per batch (it is internally synchronised). */
    std::unique_ptr<DegradationPolicy> policy_;

    /**
     * Reporter thread state. Lock order: never nested with
     * lifecycle_mutex_ (start() holds lifecycle while spawning, stop()
     * releases lifecycle before joining here), so there is no
     * inversion to get wrong.
     */
    Mutex reporter_mutex_;
    std::condition_variable reporter_cv_;
    bool reporter_stop_ JUNO_GUARDED_BY(reporter_mutex_) = false;
    std::thread reporter_ JUNO_GUARDED_BY(reporter_mutex_);

    /**
     * RAII metric registrations. Declared last on purpose: members
     * destruct in reverse order, so the callbacks (which capture this
     * service's stats/index/tracer) unregister before anything they
     * read is torn down.
     */
    std::vector<MetricsRegistry::Registration> metric_regs_
        JUNO_GUARDED_BY(lifecycle_mutex_);
};

} // namespace juno

#endif // JUNO_SERVE_SEARCH_SERVICE_H
