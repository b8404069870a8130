#include "serve/search_service.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>

#include "common/build_info.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "registry/index_factory.h"

namespace juno {

const char *
rejectReasonName(RejectReason reason)
{
    switch (reason) {
    case RejectReason::kNone:
        return "none";
    case RejectReason::kQueueFull:
        return "queue_full";
    case RejectReason::kStopped:
        return "stopped";
    case RejectReason::kExpired:
        return "expired";
    }
    return "unknown";
}

RejectedError::RejectedError(RejectReason reason)
    : std::runtime_error(std::string("request rejected: ") +
                         rejectReasonName(reason)),
      reason_(reason)
{
}

namespace {

/** A valid future already holding the typed rejection. */
std::future<ResultList>
rejectedFuture(RejectReason reason, RejectReason *out)
{
    if (out != nullptr)
        *out = reason;
    std::promise<ResultList> promise;
    std::future<ResultList> future = promise.get_future();
    promise.set_exception(
        std::make_exception_ptr(RejectedError(reason)));
    return future;
}

double
micros(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

std::unique_ptr<AnnIndex>
requireIndex(std::unique_ptr<AnnIndex> index)
{
    JUNO_REQUIRE(index != nullptr, "warm start needs an index");
    return index;
}

TracerConfig
tracerConfig(const ServiceConfig &config)
{
    TracerConfig t;
    t.sample_rate = config.trace_sample;
    t.slow_us = config.slow_trace_us;
    return t;
}

void
validateConfig(const ServiceConfig &config)
{
    JUNO_REQUIRE(config.max_batch > 0,
                 "max_batch must be positive (1 = no batching)");
    JUNO_REQUIRE(config.linger.count() >= 0, "linger must be >= 0");
    JUNO_REQUIRE(config.dispatchers > 0, "need at least one dispatcher");
    JUNO_REQUIRE(config.trace_sample >= 0.0 && config.trace_sample <= 1.0,
                 "trace_sample must be in [0, 1]");
    JUNO_REQUIRE(config.slow_trace_us >= 0.0,
                 "slow_trace_us must be >= 0");
    JUNO_REQUIRE(config.stats_every_s >= 0.0,
                 "stats_every_s must be >= 0");
    JUNO_REQUIRE(config.default_deadline_ms >= 0.0,
                 "default_deadline_ms must be >= 0 (0 = no deadline)");
}

} // namespace

SearchService::SearchService(AnnIndex &index, ServiceConfig config)
    : tracer_(tracerConfig(config)), index_(index), config_(config),
      queue_(config.queue_capacity)
{
    validateConfig(config_);
    if (config_.degradation.enabled)
        policy_ =
            std::make_unique<DegradationPolicy>(config_.degradation);
    live_ = dynamic_cast<LiveIndex *>(&index_);
    if (live_ != nullptr && live_->liveConfig().tracer == nullptr)
        live_->setTracer(&tracer_);
}

SearchService::SearchService(std::unique_ptr<AnnIndex> index,
                             ServiceConfig config)
    : tracer_(tracerConfig(config)),
      owned_index_(requireIndex(std::move(index))),
      index_(*owned_index_), config_(config),
      queue_(config.queue_capacity)
{
    validateConfig(config_);
    if (config_.degradation.enabled)
        policy_ =
            std::make_unique<DegradationPolicy>(config_.degradation);
    live_ = dynamic_cast<LiveIndex *>(&index_);
    if (live_ != nullptr && live_->liveConfig().tracer == nullptr)
        live_->setTracer(&tracer_);
}

SearchService::SearchService(const std::string &snapshot_path,
                             ServiceConfig config,
                             const SnapshotOptions &options)
    : SearchService(openIndex(snapshot_path, options), config)
{
}

SearchService::~SearchService()
{
    stop();
    // A borrowed LiveIndex outlives this service: its merges must stop
    // reaching tracer_ before tracer_ is destroyed.
    if (live_ != nullptr)
        live_->detachTracer(&tracer_);
}

void
SearchService::start()
{
    MutexLock lock(lifecycle_mutex_);
    JUNO_REQUIRE(state_ == State::kIdle,
                 "SearchService is one-shot: start() called on a "
                 "running or stopped service");
    // Resolve the out-of-core budget before any query runs: explicit
    // config wins, then JUNO_MEM_BUDGET, else the index is left as
    // configured. setMemoryBudget returning false (index type without
    // an IO-aware path) just means serving stays pure-mmap.
    std::int64_t budget = config_.memory_budget_bytes;
    if (budget < 0)
        budget = HotListCache::budgetFromEnv();
    if (budget >= 0)
        index_.setMemoryBudget(budget);
    base_usage_ = readResourceUsage();
    start_time_ = Clock::now();
    state_ = State::kRunning;
    running_.store(true);
    dispatchers_.reserve(static_cast<std::size_t>(config_.dispatchers));
    for (int i = 0; i < config_.dispatchers; ++i)
        dispatchers_.emplace_back([this] { dispatchLoop(); });
    if (config_.metrics)
        registerMetrics();
    if (config_.stats_every_s > 0.0) {
        MutexLock rlock(reporter_mutex_);
        reporter_stop_ = false;
        reporter_ = std::thread([this] { reporterLoop(); });
    }
}

int
SearchService::degradationTier() const
{
    return policy_ != nullptr ? policy_->tier() : 0;
}

MutateStatus
SearchService::insert(const float *vec, idx_t id)
{
    MutateStatus status;
    if (!running_.load())
        status = MutateStatus::kStopped;
    else if (live_ == nullptr)
        status = MutateStatus::kUnsupported;
    else
        status = live_->insert(vec, id);
    stats_.recordLiveOp(LiveOp::kInsert, status == MutateStatus::kOk);
    return status;
}

MutateStatus
SearchService::remove(idx_t id)
{
    MutateStatus status;
    if (!running_.load())
        status = MutateStatus::kStopped;
    else if (live_ == nullptr)
        status = MutateStatus::kUnsupported;
    else
        status = live_->remove(id);
    stats_.recordLiveOp(LiveOp::kRemove, status == MutateStatus::kOk);
    return status;
}

MutateStatus
SearchService::upsert(const float *vec, idx_t id)
{
    MutateStatus status;
    if (!running_.load())
        status = MutateStatus::kStopped;
    else if (live_ == nullptr)
        status = MutateStatus::kUnsupported;
    else
        status = live_->upsert(vec, id);
    stats_.recordLiveOp(LiveOp::kUpsert, status == MutateStatus::kOk);
    return status;
}

LiveStats
SearchService::liveStats() const
{
    return live_ != nullptr ? live_->liveStats() : LiveStats{};
}

SearchService::Clock::time_point
SearchService::defaultDeadline() const
{
    if (config_.default_deadline_ms <= 0.0)
        return kNoDeadline;
    return Clock::now() +
           std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double, std::milli>(
                   config_.default_deadline_ms));
}

ServiceStats::Snapshot
SearchService::snapshot() const
{
    ServiceStats::Snapshot snap = stats_.snapshot();
    snap.degradation_tier = degradationTier();
    if (const auto cache = index_.hotListCache())
        snap.cache = cache->counters();
    const ResourceUsage now = readResourceUsage();
    // base_usage_ is written by start(); reading it under the
    // lifecycle lock keeps a snapshot racing with start() coherent.
    ResourceUsage base;
    {
        MutexLock lock(lifecycle_mutex_);
        base = base_usage_;
    }
    snap.usage.rss_bytes = now.rss_bytes;
    snap.usage.major_faults = now.major_faults - base.major_faults;
    snap.usage.minor_faults = now.minor_faults - base.minor_faults;
    if (live_ != nullptr) {
        snap.live_enabled = true;
        snap.live = live_->liveStats();
    }
    return snap;
}

void
SearchService::stop()
{
    bool drained = false;
    {
        // Joining under the lifecycle lock makes concurrent stop()
        // calls all block until the drain completes (dispatchers never
        // touch this lock, so no deadlock).
        MutexLock lock(lifecycle_mutex_);
        if (state_ != State::kStopped) {
            running_.store(false);
            queue_.close(); // dispatchers drain the backlog, then exit
            for (auto &d : dispatchers_)
                d.join();
            dispatchers_.clear();
            state_ = State::kStopped;
            drained = true;
        }
    }
    // The reporter calls snapshot(), which takes the lifecycle lock —
    // joining it outside that lock is what makes this deadlock-free.
    stopReporter();
    // One final recorder tick after the drain so the last JSONL line
    // and summary reflect every completed request. Only the stop()
    // that performed the drain emits it (idempotence for concurrent
    // stops and the destructor's implicit call).
    if (drained && config_.stats_every_s > 0.0)
        recorderTick(true);
}

void
SearchService::stopReporter()
{
    std::thread reporter;
    {
        MutexLock lock(reporter_mutex_);
        reporter_stop_ = true;
        reporter = std::move(reporter_);
    }
    reporter_cv_.notify_all();
    if (reporter.joinable())
        reporter.join();
}

void
SearchService::reporterLoop()
{
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(config_.stats_every_s));
    while (true) {
        {
            CvLock lock(reporter_mutex_);
            const auto deadline = Clock::now() + period;
            while (!reporter_stop_ && Clock::now() < deadline)
                reporter_cv_.wait_until(lock.native(), deadline);
            if (reporter_stop_)
                return; // stop() emits the final tick after the drain
        }
        recorderTick(false);
    }
}

void
SearchService::recorderTick(bool final_tick)
{
    const ServiceStats::Snapshot snap = snapshot();
    const double uptime =
        std::chrono::duration<double>(Clock::now() - start_time_).count();
    const double hit_pct =
        snap.cache.lookups == 0
            ? 0.0
            : 100.0 * static_cast<double>(snap.cache.hits) /
                  static_cast<double>(snap.cache.lookups);
    std::fprintf(
        stderr,
        "[juno.serve]%s up=%.1fs completed=%llu failed=%llu "
        "rejected=%llu shed=%llu degraded=%llu tier=%d batches=%llu "
        "mean_batch=%.1f p50=%.0fus p99=%.0fus rss=%.1fMiB "
        "cache_hit=%.1f%%\n",
        final_tick ? " final" : "", uptime,
        static_cast<unsigned long long>(snap.completed),
        static_cast<unsigned long long>(snap.failed),
        static_cast<unsigned long long>(snap.rejected_full +
                                        snap.rejected_stopped),
        static_cast<unsigned long long>(snap.rejected_expired +
                                        snap.expired),
        static_cast<unsigned long long>(snap.degraded),
        snap.degradation_tier,
        static_cast<unsigned long long>(snap.batches), snap.mean_batch,
        snap.total_us.p50, snap.total_us.p99,
        static_cast<double>(snap.usage.rss_bytes) / (1024.0 * 1024.0),
        hit_pct);
    if (config_.metrics_jsonl.empty())
        return;
    std::FILE *f = std::fopen(config_.metrics_jsonl.c_str(), "a");
    if (f == nullptr) {
        warn("flight recorder cannot append to " + config_.metrics_jsonl);
        return;
    }
    const auto ts_unix =
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    std::string line = "{\"ts_unix\":" + std::to_string(ts_unix);
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",\"uptime_s\":%.3f", uptime);
    line += buf;
    line += final_tick ? ",\"final\":true" : ",\"final\":false";
    line += ",\"metrics\":" + registry().renderJson() + "}\n";
    std::fwrite(line.data(), 1, line.size(), f);
    std::fclose(f);
}

MetricsRegistry &
SearchService::registry() const
{
    return config_.registry != nullptr ? *config_.registry
                                       : MetricsRegistry::global();
}

void
SearchService::registerMetrics()
{
    MetricsRegistry &reg = registry();
    auto &regs = metric_regs_;
    regs.push_back(reg.counterCallback(
        "juno_serve_submitted_total", "Requests accepted into the queue",
        [this] { return stats_.submitted(); }));
    regs.push_back(reg.counterCallback(
        "juno_serve_completed_total", "Futures fulfilled with a value",
        [this] { return stats_.completed(); }));
    regs.push_back(reg.counterCallback(
        "juno_serve_failed_total", "Futures fulfilled with an exception",
        [this] { return stats_.failed(); }));
    regs.push_back(reg.counterCallback(
        "juno_serve_rejected_full_total", "Rejected: queue at capacity",
        [this] { return stats_.rejectedFull(); }));
    regs.push_back(reg.counterCallback(
        "juno_serve_rejected_stopped_total", "Rejected: not running",
        [this] { return stats_.rejectedStopped(); }));
    // Shed work, one family labeled by reason: the three door
    // rejections plus doomed work shed at dequeue.
    const char *shed_help = "Requests shed, by reason";
    regs.push_back(reg.counterCallback(
        "juno_serve_shed_total", {{"reason", "queue_full"}}, shed_help,
        [this] { return stats_.rejectedFull(); }));
    regs.push_back(reg.counterCallback(
        "juno_serve_shed_total", {{"reason", "stopped"}}, shed_help,
        [this] { return stats_.rejectedStopped(); }));
    regs.push_back(reg.counterCallback(
        "juno_serve_shed_total", {{"reason", "expired_submit"}}, shed_help,
        [this] { return stats_.rejectedExpired(); }));
    regs.push_back(reg.counterCallback(
        "juno_serve_shed_total", {{"reason", "expired_queue"}}, shed_help,
        [this] { return stats_.expired(); }));
    regs.push_back(reg.counterCallback(
        "juno_serve_expired_total",
        "Accepted requests shed at dequeue past their deadline",
        [this] { return stats_.expired(); }));
    regs.push_back(reg.counterCallback(
        "juno_serve_degraded_total",
        "Value-completed requests flagged degraded",
        [this] { return stats_.degraded(); }));
    regs.push_back(reg.counterCallback(
        "juno_serve_degraded_batches",
        "Batches dispatched under reduced quality",
        [this] { return stats_.degradedBatches(); }));
    regs.push_back(reg.gaugeCallback(
        "juno_serve_degradation_tier",
        "Current degradation tier (0 = full quality)",
        [this] { return static_cast<double>(degradationTier()); }));
    regs.push_back(reg.counterCallback(
        "juno_serve_batches_total", "Dispatched engine batches",
        [this] { return stats_.batches(); }));
    using Component = ServiceStats::Component;
    const std::pair<const char *, Component> components[] = {
        {"juno_serve_queue_us", Component::kQueue},
        {"juno_serve_batch_us", Component::kBatch},
        {"juno_serve_search_us", Component::kSearch},
        {"juno_serve_total_us", Component::kTotal},
    };
    for (const auto &[name, component] : components) {
        regs.push_back(reg.summaryCallback(
            name, "Request latency component (microseconds)",
            [this, component = component] {
                return stats_.componentSummary(component);
            }));
    }
    // Hot-list cache counters re-export through the registry; all
    // zero when the served index has no cache attached.
    auto cache_counters = [this]() -> HotListCache::Counters {
        if (const auto cache = index_.hotListCache())
            return cache->counters();
        return {};
    };
    regs.push_back(reg.counterCallback(
        "juno_cache_lookups_total", "Hot-list cache lookups",
        [cache_counters] { return cache_counters().lookups; }));
    regs.push_back(reg.counterCallback(
        "juno_cache_hits_total", "Hot-list cache hits",
        [cache_counters] { return cache_counters().hits; }));
    regs.push_back(reg.counterCallback(
        "juno_cache_misses_total", "Hot-list cache misses",
        [cache_counters] { return cache_counters().misses; }));
    regs.push_back(reg.counterCallback(
        "juno_cache_admitted_total", "Lists admitted to the cache",
        [cache_counters] { return cache_counters().admitted; }));
    regs.push_back(reg.counterCallback(
        "juno_cache_evicted_total", "Lists evicted from the cache",
        [cache_counters] { return cache_counters().evicted; }));
    regs.push_back(reg.gaugeCallback(
        "juno_cache_pinned_bytes", "Bytes pinned by the hot-list cache",
        [cache_counters] {
            return static_cast<double>(cache_counters().pinned_bytes);
        }));
    regs.push_back(reg.gaugeCallback(
        "juno_cache_resident_lists", "Lists resident in the cache",
        [cache_counters] {
            return static_cast<double>(cache_counters().resident_lists);
        }));
    // Process health (absolute readings; Prometheus-side rate() turns
    // the fault counters into fault rates).
    regs.push_back(reg.gaugeCallback(
        "juno_process_rss_bytes", "Current resident set size",
        [] { return static_cast<double>(readResourceUsage().rss_bytes); }));
    regs.push_back(reg.counterCallback(
        "juno_process_major_faults_total", "Major page faults (paid IO)",
        [] { return readResourceUsage().major_faults; }));
    regs.push_back(reg.counterCallback(
        "juno_process_minor_faults_total", "Minor page faults",
        [] { return readResourceUsage().minor_faults; }));
    // Tracing health: how many traces were captured/dropped.
    regs.push_back(reg.counterCallback(
        "juno_trace_sampled_total", "Sampled traces retained",
        [this] { return tracer_.sampledCount(); }));
    regs.push_back(reg.counterCallback(
        "juno_trace_slow_total", "Slow-query traces captured",
        [this] { return tracer_.slowCount(); }));
    regs.push_back(reg.counterCallback(
        "juno_trace_dropped_total", "Sampled traces dropped (ring full)",
        [this] { return tracer_.droppedCount(); }));
    // Live-mutation metrics: only registered when the served index is
    // a LiveIndex, so an immutable service's exposition is unchanged.
    if (live_ != nullptr) {
        const char *ops_help = "Applied live mutations, by op";
        regs.push_back(reg.counterCallback(
            "juno_live_ops_total", {{"op", "insert"}}, ops_help,
            [this] { return stats_.liveInserts(); }));
        regs.push_back(reg.counterCallback(
            "juno_live_ops_total", {{"op", "remove"}}, ops_help,
            [this] { return stats_.liveRemoves(); }));
        regs.push_back(reg.counterCallback(
            "juno_live_ops_total", {{"op", "upsert"}}, ops_help,
            [this] { return stats_.liveUpserts(); }));
        regs.push_back(reg.counterCallback(
            "juno_live_rejected_total", "Refused live mutations",
            [this] { return stats_.liveRejected(); }));
        regs.push_back(reg.gaugeCallback(
            "juno_live_fresh_rows",
            "Live rows buffered and awaiting merge", [this] {
                return static_cast<double>(
                    live_->liveStats().fresh_rows);
            }));
        regs.push_back(reg.gaugeCallback(
            "juno_live_tombstones",
            "Dead rows awaiting compaction", [this] {
                return static_cast<double>(
                    live_->liveStats().tombstones);
            }));
        regs.push_back(reg.gaugeCallback(
            "juno_live_generation", "Current snapshot generation",
            [this] {
                return static_cast<double>(live_->generation());
            }));
        regs.push_back(reg.counterCallback(
            "juno_live_generations_published_total",
            "Merged generations swapped in for readers",
            [this] { return live_->liveStats().generations_published; }));
        regs.push_back(reg.counterCallback(
            "juno_live_merges_total", "Completed merge cycles",
            [this] { return live_->liveStats().merges; }));
    }
    regs.push_back(reg.info("juno_build_info", "Build provenance",
                            buildInfoLabels()));
}

std::future<ResultList>
SearchService::submit(const float *query, idx_t k,
                      RejectReason *rejected)
{
    return submit(query, k, defaultDeadline(), rejected);
}

std::future<ResultList>
SearchService::submit(const float *query, idx_t k,
                      Clock::time_point deadline, RejectReason *rejected)
{
    JUNO_REQUIRE(k >= 0, "k must be non-negative");
    if (!running_.load()) {
        stats_.recordRejectedStopped();
        return rejectedFuture(RejectReason::kStopped, rejected);
    }
    Request request;
    request.t_submit = Clock::now();
    // Expired-at-submit: admitting a request that can no longer make
    // its deadline only manufactures doomed work for the dispatcher to
    // shed later; reject it at the door instead.
    if (deadline != kNoDeadline && request.t_submit >= deadline) {
        stats_.recordRejectedExpired();
        return rejectedFuture(RejectReason::kExpired, rejected);
    }
    const auto d = static_cast<std::size_t>(index_.dim());
    request.query.assign(query, query + d);
    request.k = k;
    request.deadline = deadline;
    // The sampling decision happens here, once, so the entire traced
    // path downstream keys off one bool. At trace_sample = 0 this is
    // a constant read — the "free when off" guarantee.
    request.traced = tracer_.shouldSample();
    std::future<ResultList> future = request.promise.get_future();
    switch (queue_.tryPush(std::move(request))) {
    case PushResult::kOk:
        stats_.recordAccepted();
        if (rejected != nullptr)
            *rejected = RejectReason::kNone;
        return future;
    case PushResult::kFull:
        stats_.recordRejectedFull();
        return rejectedFuture(RejectReason::kQueueFull, rejected);
    case PushResult::kClosed:
        // stop() raced with the running_ check above; the request was
        // never enqueued, so rejecting is loss-free.
        stats_.recordRejectedStopped();
        return rejectedFuture(RejectReason::kStopped, rejected);
    }
    return {}; // unreachable
}

std::future<ResultList>
SearchService::submit(const std::vector<float> &query, idx_t k,
                      RejectReason *rejected)
{
    JUNO_REQUIRE(static_cast<idx_t>(query.size()) == index_.dim(),
                 "query has " << query.size() << " dims, index has "
                              << index_.dim());
    return submit(query.data(), k, defaultDeadline(), rejected);
}

void
SearchService::dispatchLoop()
{
    // Per-dispatcher scratch, reused across micro-batches: the query
    // matrix, the engine's result table (via the batch-submit hook)
    // and the drained request vector never reallocate in steady
    // state. Below the hook, the engine's checked-out SearchContexts
    // persist too, so the whole dispatch path is allocation-quiet.
    std::vector<Request> batch;
    std::vector<float> queries;
    SearchResults results;
    std::vector<std::uint8_t> degraded_flags;
    std::vector<double> lat_queue, lat_batch, lat_search, lat_total;
    const idx_t dim = index_.dim();

    while (queue_.popBatch(batch, static_cast<std::size_t>(
                                      config_.max_batch),
                           config_.linger)) {
        const auto t_drain = Clock::now();

        // Doomed-work elimination: a request that expired while
        // queued cannot meet its SLO no matter how fast the scan is —
        // searching it would only push every later request further
        // past theirs. Its future settles with kExpired here and the
        // survivors compact to the front.
        std::size_t live = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            Request &r = batch[i];
            if (r.deadline != kNoDeadline && t_drain >= r.deadline) {
                r.promise.set_exception(std::make_exception_ptr(
                    RejectedError(RejectReason::kExpired)));
                continue;
            }
            if (live != i)
                batch[live] = std::move(r);
            ++live;
        }
        if (live != batch.size()) {
            stats_.recordExpired(batch.size() - live);
            batch.resize(live);
            if (batch.empty())
                continue;
        }

        // Tiered degradation: evaluated once per batch against the
        // instantaneous backlog; the knobs ride on SearchOptions.
        DegradationPolicy::Knobs knobs;
        if (policy_ != nullptr)
            knobs = policy_->evaluate(queue_.size(), queue_.capacity());
        const bool tier_degraded =
            knobs.nprobe_scale != 1.0 || knobs.scan_tighten != 0.0;

        const idx_t n = static_cast<idx_t>(batch.size());
        queries.resize(static_cast<std::size_t>(n) *
                       static_cast<std::size_t>(dim));
        // Requests may ask for different k; the batch dispatches at
        // the maximum and each result list truncates to its own k
        // afterwards (top-m is a prefix of top-k for m <= k, results
        // being best-first).
        idx_t k_max = 0;
        Clock::time_point batch_deadline = kNoDeadline;
        for (idx_t i = 0; i < n; ++i) {
            const auto &r = batch[static_cast<std::size_t>(i)];
            std::memcpy(queries.data() + static_cast<std::size_t>(i) *
                                             static_cast<std::size_t>(dim),
                        r.query.data(),
                        static_cast<std::size_t>(dim) * sizeof(float));
            k_max = std::max(k_max, r.k);
            batch_deadline = std::min(batch_deadline, r.deadline);
        }

        SearchRequest request(
            FloatMatrixView(queries.data(), n, dim), SearchOptions{});
        request.options.k = k_max;
        request.options.threads = config_.search_threads;
        request.options.batch_size = config_.engine_chunk;
        request.options.collect_stats = config_.collect_stage_stats;
        // Explicit service budgets ride along on every batch so a
        // configured detach (0) stays detached even when the
        // environment sets JUNO_MEM_BUDGET.
        request.options.memory_budget_bytes = config_.memory_budget_bytes;
        // Overload resilience: the batch cuts off cooperatively at
        // the earliest member deadline (the scan loops check between
        // probe lists), and the policy's knobs shrink its probe
        // budget. The engine zeroes degraded_flags to n slots.
        request.options.deadline = batch_deadline;
        request.options.nprobe_scale = knobs.nprobe_scale;
        request.options.scan_tighten = knobs.scan_tighten;
        request.options.degraded = &degraded_flags;

        // One sampled request makes the whole dispatched batch traced
        // (its engine/stage spans are batch-level anyway); untraced
        // batches skip everything below at the cost of this loop's
        // flag scan.
        std::shared_ptr<Trace> trace;
        for (idx_t i = 0; i < n && trace == nullptr; ++i) {
            if (batch[static_cast<std::size_t>(i)].traced)
                trace = tracer_.makeTrace();
        }
        if (trace != nullptr) {
            trace->setLabel("sampled batch " +
                            std::to_string(trace->id()));
            request.options.trace = trace.get();
        }

        const auto t_ready = Clock::now();
        bool ok = true;
        std::exception_ptr error;
        try {
            // Chaos hook: an injected delay here doubles a scheduler
            // stall ahead of the engine; an injected error exercises
            // the batch-failure path below end to end.
            fault::inject("serve.dispatch");
            index_.search(request, results);
        } catch (...) {
            ok = false;
            error = std::current_exception();
        }
        const auto t_done = Clock::now();

        lat_queue.clear();
        lat_batch.clear();
        lat_search.clear();
        lat_total.clear();
        std::size_t n_degraded = 0;
        for (idx_t i = 0; i < n; ++i) {
            auto &r = batch[static_cast<std::size_t>(i)];
            if (!ok) {
                // Propagate the engine failure to every waiter rather
                // than abandoning promises (broken_promise hides the
                // cause).
                r.promise.set_exception(error);
                continue;
            }
            ResultList list(
                std::move(results[static_cast<std::size_t>(i)]));
            if (static_cast<idx_t>(list.size()) > r.k)
                list.resize(static_cast<std::size_t>(r.k));
            // A result is degraded when its scan was cut off at the
            // deadline, when the batch ran above tier 0, or when it
            // finished after its deadline anyway (late work is never
            // silently passed off as on-time full quality).
            list.degraded =
                degraded_flags[static_cast<std::size_t>(i)] != 0 ||
                tier_degraded ||
                (r.deadline != kNoDeadline && t_done > r.deadline);
            if (list.degraded)
                ++n_degraded;
            r.promise.set_value(std::move(list));
            lat_queue.push_back(micros(t_drain - r.t_submit));
            lat_batch.push_back(micros(t_ready - t_drain));
            lat_search.push_back(micros(t_done - t_ready));
            lat_total.push_back(micros(t_done - r.t_submit));
        }
        if (ok) {
            stats_.recordCompletions(lat_queue, lat_batch, lat_search,
                                     lat_total);
            stats_.recordBatch(static_cast<std::size_t>(n));
            if (n_degraded > 0)
                stats_.recordDegraded(n_degraded);
            if (tier_degraded || n_degraded > 0)
                stats_.recordDegradedBatch();
            // Measured queue waits feed the policy's p95 window — the
            // lagging half of its pressure signal.
            if (policy_ != nullptr)
                policy_->recordQueueWait(lat_queue);
        } else {
            // Exception-fulfilled futures still settle the accepted
            // requests: without this, submitted == completed + failed
            // (+ expired) would break forever after one engine
            // failure.
            stats_.recordFailed(static_cast<std::size_t>(n));
        }

        if (trace != nullptr) {
            // Service-level spans are appended after fulfilment (the
            // timestamps were captured live); the engine/stage spans
            // are already inside from the search call above.
            for (idx_t i = 0; i < n; ++i) {
                const auto &r = batch[static_cast<std::size_t>(i)];
                trace->complete1("queue", r.t_submit, t_drain, "k",
                                 static_cast<double>(r.k));
                trace->complete2("request", r.t_submit, t_done, "k",
                                 static_cast<double>(r.k), "total_us",
                                 micros(t_done - r.t_submit));
            }
            trace->complete1("batch_assemble", t_drain, t_ready, "batch",
                             static_cast<double>(n));
            trace->complete("search", t_ready, t_done);
            tracer_.collect(std::move(trace));
        }

        // Slow-query capture: independent of sampling, every request
        // is checked against the threshold (one compare each) and an
        // outlier gets a synthesized queue/batch/search trace into the
        // slow ring. Off (threshold 0) this whole block is one branch.
        if (tracer_.slowThresholdUs() > 0.0 && ok) {
            for (idx_t i = 0; i < n; ++i) {
                const auto &r = batch[static_cast<std::size_t>(i)];
                const double total = micros(t_done - r.t_submit);
                if (total <= tracer_.slowThresholdUs())
                    continue;
                auto slow = tracer_.makeTrace();
                slow->setLabel("slow query " +
                               std::to_string(slow->id()));
                slow->complete1("queue", r.t_submit, t_drain, "k",
                                static_cast<double>(r.k));
                slow->complete1("batch_assemble", t_drain, t_ready,
                                "batch", static_cast<double>(n));
                slow->complete("search", t_ready, t_done);
                slow->complete2("request", r.t_submit, t_done,
                                "total_us", total, "k",
                                static_cast<double>(r.k));
                tracer_.collectSlow(std::move(slow));
            }
        }
    }
}

} // namespace juno
