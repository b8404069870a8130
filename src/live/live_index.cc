#include "live/live_index.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "baseline/ivfflat_index.h"
#include "common/logging.h"
#include "common/simd.h"
#include "registry/index_factory.h"
#include "registry/index_spec.h"

namespace juno {

namespace {

/** Fresh-buffer rows scored per batched-kernel call (flat-scan idiom). */
constexpr idx_t kFreshScanBlock = 1024;

/** Per-worker scratch for the nested main-generation search. */
struct LiveScratch {
    SearchResults main_results;
    std::vector<std::uint8_t> main_degraded;
};

} // namespace

const char *
mutateStatusName(MutateStatus status)
{
    switch (status) {
    case MutateStatus::kOk:
        return "ok";
    case MutateStatus::kBufferFull:
        return "buffer_full";
    case MutateStatus::kDuplicateId:
        return "duplicate_id";
    case MutateStatus::kUnknownId:
        return "unknown_id";
    case MutateStatus::kInvalidId:
        return "invalid_id";
    case MutateStatus::kStopped:
        return "stopped";
    case MutateStatus::kUnsupported:
        return "unsupported";
    }
    return "unknown";
}

LiveIndex::LiveIndex(Metric metric, FloatMatrixView initial_points,
                     const std::string &spec, LiveConfig config)
    : metric_(metric), dim_(initial_points.cols()),
      base_spec_(IndexSpec::parse(spec).toString()),
      config_(std::move(config))
{
    JUNO_REQUIRE(initial_points.rows() > 0,
                 "live index needs a non-empty initial point set");
    JUNO_REQUIRE(config_.fresh_capacity > 0,
                 "fresh_capacity must be positive");
    JUNO_REQUIRE(config_.merge_threshold > 0,
                 "merge_threshold must be positive");

    auto gen = std::make_shared<Generation>();
    const idx_t rows = initial_points.rows();
    gen->points = FloatMatrix(rows, dim_);
    std::copy_n(initial_points.data(),
                static_cast<std::size_t>(rows) *
                    static_cast<std::size_t>(dim_),
                gen->points.data());
    gen->ids.resize(static_cast<std::size_t>(rows));
    std::iota(gen->ids.begin(), gen->ids.end(), idx_t{0});
    gen->dead.assign(static_cast<std::size_t>(rows), 0);
    gen->index = buildIndex(metric_, gen->points.view(), base_spec_);
    base_name_ = "Live[" + gen->index->name() + "]";

    {
        // The lock is uncontended here (no other thread can see this
        // object yet); holding it satisfies the guarded-member
        // discipline uniformly.
        WriterLock lock(rw_);
        loc_.reserve(static_cast<std::size_t>(rows));
        for (idx_t r = 0; r < rows; ++r)
            loc_[r] = Loc{Loc::Where::kMain, 0, r};
        gen_ = std::move(gen);
        for (FreshBuffer &buf : buffers_) {
            buf.rows = FloatMatrix(config_.fresh_capacity, dim_);
            buf.ids.reserve(static_cast<std::size_t>(
                config_.fresh_capacity));
            buf.dead.reserve(static_cast<std::size_t>(
                config_.fresh_capacity));
        }
    }

    tracer_.store(config_.tracer);

    if (config_.auto_merge)
        merge_thread_ = std::thread([this] { mergeLoop(); });
}

LiveIndex::~LiveIndex()
{
    {
        MutexLock lock(merge_mutex_);
        merge_stop_ = true;
    }
    merge_cv_.notify_all();
    if (merge_thread_.joinable())
        merge_thread_.join();
}

std::string
LiveIndex::name() const
{
    return base_name_;
}

idx_t
LiveIndex::size() const
{
    ReaderLock lock(rw_);
    // loc_ holds exactly the currently-live ids.
    return static_cast<idx_t>(loc_.size());
}

std::uint64_t
LiveIndex::generation() const
{
    ReaderLock lock(rw_);
    return gen_->number;
}

LiveStats
LiveIndex::liveStats() const
{
    LiveStats stats;
    {
        ReaderLock lock(rw_);
        stats.live_count = static_cast<idx_t>(loc_.size());
        for (const FreshBuffer &buf : buffers_) {
            stats.fresh_rows += buf.count - buf.dead_count;
            stats.tombstones += buf.dead_count;
        }
        stats.tombstones += gen_->dead_count;
        stats.generation = gen_->number;
        stats.merging = merging_;
    }
    stats.generations_published = generations_published_.load();
    stats.merges = merges_.load();
    stats.inserts = inserts_.load();
    stats.removes = removes_.load();
    stats.upserts = upserts_.load();
    stats.rejected_full = rejected_full_.load();
    stats.rejected_other = rejected_other_.load();
    return stats;
}

MutateStatus
LiveIndex::insertLocked(const float *vec, idx_t id)
{
    if (id < 0)
        return MutateStatus::kInvalidId;
    if (loc_.find(id) != loc_.end())
        return MutateStatus::kDuplicateId;
    FreshBuffer &act = buffers_[active_];
    if (act.count >= config_.fresh_capacity)
        return MutateStatus::kBufferFull;
    std::copy_n(vec, static_cast<std::size_t>(dim_),
                act.rows.row(act.count));
    act.ids.push_back(id);
    act.dead.push_back(0);
    loc_[id] = Loc{Loc::Where::kBuffer, active_, act.count};
    ++act.count;
    active_rows_.fetch_add(1);
    return MutateStatus::kOk;
}

MutateStatus
LiveIndex::removeLocked(idx_t id)
{
    if (id < 0)
        return MutateStatus::kInvalidId;
    auto it = loc_.find(id);
    if (it == loc_.end())
        return MutateStatus::kUnknownId;
    if (it->second.where == Loc::Where::kMain) {
        gen_->dead[static_cast<std::size_t>(it->second.row)] = 1;
        ++gen_->dead_count;
    } else {
        FreshBuffer &buf = buffers_[it->second.buffer];
        buf.dead[static_cast<std::size_t>(it->second.row)] = 1;
        ++buf.dead_count;
    }
    loc_.erase(it);
    return MutateStatus::kOk;
}

MutateStatus
LiveIndex::insert(const float *vec, idx_t id)
{
    MutateStatus status;
    {
        WriterLock lock(rw_);
        status = insertLocked(vec, id);
    }
    if (status == MutateStatus::kOk) {
        inserts_.fetch_add(1);
        maybeTriggerMerge();
    } else if (status == MutateStatus::kBufferFull) {
        rejected_full_.fetch_add(1);
    } else {
        rejected_other_.fetch_add(1);
    }
    return status;
}

MutateStatus
LiveIndex::remove(idx_t id)
{
    MutateStatus status;
    {
        WriterLock lock(rw_);
        status = removeLocked(id);
    }
    if (status == MutateStatus::kOk)
        removes_.fetch_add(1);
    else
        rejected_other_.fetch_add(1);
    return status;
}

MutateStatus
LiveIndex::upsert(const float *vec, idx_t id)
{
    MutateStatus status;
    {
        WriterLock lock(rw_);
        if (id < 0) {
            status = MutateStatus::kInvalidId;
        } else if (buffers_[active_].count >= config_.fresh_capacity) {
            // Capacity is checked before the remove half so a refused
            // upsert leaves the old vector live (atomic replace).
            status = MutateStatus::kBufferFull;
        } else {
            removeLocked(id); // kUnknownId is fine: plain insert
            status = insertLocked(vec, id);
        }
    }
    if (status == MutateStatus::kOk) {
        upserts_.fetch_add(1);
        maybeTriggerMerge();
    } else if (status == MutateStatus::kBufferFull) {
        rejected_full_.fetch_add(1);
    } else {
        rejected_other_.fetch_add(1);
    }
    return status;
}

void
LiveIndex::maybeTriggerMerge()
{
    if (config_.auto_merge && mergeDue())
        merge_cv_.notify_one();
}

bool
LiveIndex::mergeDue() const
{
    return active_rows_.load() >= config_.merge_threshold;
}

void
LiveIndex::mergeLoop()
{
    for (;;) {
        {
            CvLock lock(merge_mutex_);
            // maybeTriggerMerge() notifies without merge_mutex_, so a
            // notify can land between the mergeDue() test and the
            // wait; the bounded wait picks such a trigger up.
            while (!merge_stop_ && !mergeDue())
                merge_cv_.wait_for(lock.native(),
                                   std::chrono::milliseconds(20));
            if (merge_stop_)
                return;
        }
        mergeOnce();
    }
}

void
LiveIndex::detachTracer(Tracer *tracer)
{
    if (!tracer_.compare_exchange_strong(tracer, nullptr))
        return;
    // A merge that loaded the tracer holds merge_run_mutex_ until it
    // has collected its trace.
    MutexLock wait(merge_run_mutex_);
}

bool
LiveIndex::mergeNow()
{
    return mergeOnce();
}

bool
LiveIndex::mergeOnce()
{
    // One merge in flight at a time: the background thread and
    // mergeNow() callers serialise here, never under rw_.
    MutexLock run(merge_run_mutex_);

    Tracer *tracer = tracer_.load();
    std::shared_ptr<Trace> trace;
    if (tracer != nullptr)
        trace = tracer->makeTrace("live merge");

    // ---- Freeze: capture the merge inputs under a brief exclusive
    // hold. The active buffer is copied out and a fresh (empty) one
    // swapped in; the frozen copy stays searchable — and deletable —
    // until publish, while the merge works on its private copy.
    MergeJob job;
    {
        TraceSpan span(trace.get(), "freeze");
        WriterLock lock(rw_);
        FreshBuffer &act = buffers_[active_];
        if (act.count == 0 && gen_->dead_count == 0) {
            active_rows_.store(0);
            return false; // nothing to fold, nothing to compact
        }
        job.gen = gen_;
        job.gen_dead = gen_->dead;
        job.frozen = active_;
        job.fresh_rows = FloatMatrix(act.count, dim_);
        std::copy_n(act.rows.data(),
                    static_cast<std::size_t>(act.count) *
                        static_cast<std::size_t>(dim_),
                    job.fresh_rows.data());
        job.fresh_ids = act.ids;
        job.fresh_dead = act.dead;
        merging_ = true;
        active_ = 1 - active_;
        JUNO_ASSERT(buffers_[active_].count == 0,
                    "previous merge left a dirty buffer");
        active_rows_.store(0);
    }

    // ---- Union build + index construction: no locks held. Row order
    // is deterministic (generation rows in row order minus the rows
    // dead at freeze, then frozen rows in append order minus dead), so
    // rebuild-from-union is bitwise-reproducible from the spec.
    const idx_t gen_rows = static_cast<idx_t>(job.gen->ids.size());
    const idx_t fresh_rows = job.fresh_rows.rows();
    idx_t union_rows = 0;
    for (idx_t r = 0; r < gen_rows; ++r)
        if (job.gen_dead[static_cast<std::size_t>(r)] == 0)
            ++union_rows;
    for (idx_t i = 0; i < fresh_rows; ++i)
        if (job.fresh_dead[static_cast<std::size_t>(i)] == 0)
            ++union_rows;

    FloatMatrix union_points(union_rows, dim_);
    std::vector<idx_t> union_ids;
    union_ids.reserve(static_cast<std::size_t>(union_rows));
    idx_t w = 0;
    for (idx_t r = 0; r < gen_rows; ++r) {
        if (job.gen_dead[static_cast<std::size_t>(r)] != 0)
            continue;
        std::copy_n(job.gen->points.row(r),
                    static_cast<std::size_t>(dim_),
                    union_points.row(w));
        union_ids.push_back(job.gen->ids[static_cast<std::size_t>(r)]);
        ++w;
    }
    for (idx_t i = 0; i < fresh_rows; ++i) {
        if (job.fresh_dead[static_cast<std::size_t>(i)] != 0)
            continue;
        std::copy_n(job.fresh_rows.row(i),
                    static_cast<std::size_t>(dim_),
                    union_points.row(w));
        union_ids.push_back(job.fresh_ids[static_cast<std::size_t>(i)]);
        ++w;
    }

    std::unique_ptr<AnnIndex> merged;
    if (union_rows > 0) {
        TraceSpan span(trace.get(), "build");
        // IVF-Flat incremental re-assignment: fold the union onto the
        // previous generation's centroids (no k-means). Also the only
        // path that can index a union smaller than nlist.
        const auto *old =
            dynamic_cast<const IvfFlatIndex *>(job.gen->index.get());
        const IndexSpec spec = IndexSpec::parse(base_spec_);
        if (old != nullptr && spec.type == "ivfflat")
            merged = std::make_unique<IvfFlatIndex>(
                metric_, union_points.view(), IvfFlatIndex::fromSpec(spec),
                old->ivf().centroids());
        else
            merged = buildIndex(metric_, union_points.view(), base_spec_);
    }

    // ---- Snapshot generation: persist, then republish through the
    // registry's mmap path so readers hold keepalive-counted views of
    // the on-disk generation (the atomic reader-swap primitive).
    const std::uint64_t next_number = job.gen->number + 1;
    if (!config_.snapshot_dir.empty() && merged != nullptr) {
        TraceSpan span(trace.get(), "snapshot");
        const std::string path = config_.snapshot_dir + "/gen-" +
                                 std::to_string(next_number) + ".juno";
        merged->save(path);
        merged = openIndex(path, SnapshotOptions{});
    }

    if (config_.before_publish)
        config_.before_publish();

    // ---- Publish: swap the generation under a brief exclusive hold.
    // Mutations that landed during the merge are reconciled through
    // loc_ (the single source of liveness truth): a union row whose id
    // was deleted mid-merge, or re-homed into the new active buffer by
    // an upsert, starts out tombstoned in the new generation.
    {
        TraceSpan span(trace.get(), "publish");
        WriterLock lock(rw_);
        auto next = std::make_shared<Generation>();
        next->index = std::move(merged);
        next->points = std::move(union_points);
        next->ids = std::move(union_ids);
        next->dead.assign(next->ids.size(), 0);
        next->number = next_number;
        for (idx_t r = 0; r < static_cast<idx_t>(next->ids.size());
             ++r) {
            const idx_t id = next->ids[static_cast<std::size_t>(r)];
            auto it = loc_.find(id);
            const bool live_here =
                it != loc_.end() &&
                (it->second.where == Loc::Where::kMain ||
                 (it->second.where == Loc::Where::kBuffer &&
                  it->second.buffer == job.frozen));
            if (live_here) {
                it->second = Loc{Loc::Where::kMain, 0, r};
            } else {
                next->dead[static_cast<std::size_t>(r)] = 1;
                ++next->dead_count;
            }
        }
        FreshBuffer &frozen = buffers_[job.frozen];
        frozen.count = 0;
        frozen.dead_count = 0;
        frozen.ids.clear();
        frozen.dead.clear();
        merging_ = false;
        gen_ = std::move(next);
    }
    merges_.fetch_add(1);
    generations_published_.fetch_add(1);
    if (trace != nullptr) {
        trace->instant("generation", "number",
                       static_cast<double>(next_number), "rows",
                       static_cast<double>(union_rows));
        tracer->collect(std::move(trace));
    }
    return true;
}

void
LiveIndex::searchChunk(const SearchChunk &chunk, SearchContext &ctx)
{
    auto &scratch = ctx.scratch<LiveScratch>(
        [] { return std::make_unique<LiveScratch>(); });
    const idx_t m = chunk.end - chunk.begin;
    const FloatMatrixView queries(chunk.queries.row(chunk.begin), m,
                                  dim_);

    // The whole chunk executes under one reader hold: generation,
    // buffers and tombstones are observed coherently, so a query
    // racing a publish sees exactly the old or the new generation.
    ReaderLock lock(rw_);
    const Generation &gen = *gen_;
    const FreshBuffer &frozen = buffers_[1 - active_];
    const FreshBuffer &act = buffers_[active_];
    const idx_t gen_rows = static_cast<idx_t>(gen.ids.size());

    const bool pristine = gen.dead_count == 0 && frozen.count == 0 &&
                          act.count == 0 && gen.index != nullptr;

    // Nested main-generation search for the whole chunk at once.
    // Over-fetching k + dead_count main results makes the post-filter
    // top-k exact w.r.t. the main index's own answer; threads=1 runs
    // inline on this worker (the engine's re-entrant path).
    scratch.main_results.clear();
    if (gen.index != nullptr && gen.dead_count < gen_rows) {
        SearchRequest inner(queries, SearchOptions{});
        inner.options.k =
            pristine ? chunk.k
                     : std::min(chunk.k + gen.dead_count, gen_rows);
        inner.options.threads = 1;
        inner.options.collect_stats = false;
        inner.options.deadline = ctx.deadline;
        inner.options.nprobe_scale = ctx.nprobe_scale;
        inner.options.scan_tighten = ctx.scan_tighten;
        inner.options.trace = ctx.trace;
        // The nested engine zeroes its degraded vector for its whole
        // batch; handing it ctx.degraded directly would clobber
        // sibling chunks' flags. Collect into chunk-local scratch and
        // OR the flags outward instead, so a degraded main scan stays
        // marked through the fresh-buffer merge.
        inner.options.degraded = &scratch.main_degraded;
        gen.index->search(inner, scratch.main_results);
        for (idx_t i = 0; i < m; ++i)
            if (scratch.main_degraded[static_cast<std::size_t>(i)] != 0)
                ctx.markDegraded(chunk.begin + i);
    }

    if (pristine) {
        // Parity fast path: the wrapped index's result lists verbatim
        // with rows mapped to external ids — no re-selection, so tied
        // scores keep the wrapped index's order bitwise.
        for (idx_t i = 0; i < m; ++i) {
            auto &list =
                scratch.main_results[static_cast<std::size_t>(i)];
            for (Neighbor &nb : list)
                nb.id = gen.ids[static_cast<std::size_t>(nb.id)];
            (*chunk.results)[static_cast<std::size_t>(chunk.begin + i)] =
                std::move(list);
        }
        return;
    }

    StageScope scan_timer(ctx, Stage::kScan);
    const bool have_main =
        scratch.main_results.size() == static_cast<std::size_t>(m);
    for (idx_t i = 0; i < m; ++i) {
        const idx_t qi = chunk.begin + i;
        const float *q = chunk.queries.row(qi);
        TopK top(chunk.k, metric_);
        if (have_main) {
            for (const Neighbor &nb :
                 scratch.main_results[static_cast<std::size_t>(i)]) {
                if (gen.dead[static_cast<std::size_t>(nb.id)] != 0)
                    continue;
                top.push(gen.ids[static_cast<std::size_t>(nb.id)],
                         nb.score);
            }
        }
        // Fresh rows are scanned exactly, every query, through the
        // batched kernel (frozen buffer first, then active: a stable
        // order). Dead rows — deletes of still-buffered vectors — are
        // skipped at push time.
        for (const FreshBuffer *buf : {&frozen, &act}) {
            const idx_t n = buf->count;
            for (idx_t base = 0; base < n; base += kFreshScanBlock) {
                const idx_t count =
                    std::min(kFreshScanBlock, n - base);
                ctx.scores.resize(static_cast<std::size_t>(count));
                simd::scoreBatch(metric_, q, buf->rows.row(base), count,
                                 dim_, ctx.scores.data());
                for (idx_t j = 0; j < count; ++j) {
                    if (buf->dead[static_cast<std::size_t>(base + j)] !=
                        0)
                        continue;
                    top.push(
                        buf->ids[static_cast<std::size_t>(base + j)],
                        ctx.scores[static_cast<std::size_t>(j)]);
                }
            }
        }
        (*chunk.results)[static_cast<std::size_t>(qi)] = top.take();
    }
}

} // namespace juno
