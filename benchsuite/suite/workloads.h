/**
 * @file
 * The four workloads of the benchmark and how each is run and checked.
 *
 * Every workload serves a fixed synthetic corpus, as an ANN benchmark
 * serves a fixed dataset; the run's seed draws its 2,048-query pool
 * from 8x as many candidates of the corpus's distribution, and its
 * arrival schedule and write order. The benchmark drives the library only
 * through public calls: buildIndex, AnnIndex::save, openIndex,
 * AnnIndex::search, SearchService (submit, insert, remove, snapshot),
 * LiveIndex and JunoIndex::rtStats. Each layer is measured from outside,
 * by timing the calls into it and reading the counters it already
 * exposes. The read rates are fixed absolute numbers, set once from the
 * capacity measured on a 4-core host; they are never derived at run
 * time, so a slower build shows as latency, not as a lighter load.
 */
#ifndef JUNO_BENCHSUITE_WORKLOADS_H
#define JUNO_BENCHSUITE_WORKLOADS_H

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/juno_index.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"
#include "live/live_index.h"
#include "registry/index_factory.h"
#include "serve/search_service.h"
#include "suite/openloop.h"
#include "suite/spans.h"
#include "suite/stamp.h"
#include "suite/stats.h"

namespace juno {
namespace suite {

/** Neighbours per query; recall is recall10@10. */
constexpr idx_t kTopK = 10;

/** Scratch directory (snapshots, traces), relative to the checkout. */
constexpr const char *kScratchDir = ".bench_out";

/** One named number of a run. */
struct Reading {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run measured and checked. */
struct Report {
    std::vector<Reading> end_to_end; ///< reported by the untraced run
    std::vector<Reading> per_layer;  ///< reported by the traced run
    std::vector<Reading> info;       ///< printed and kept, never judged
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Non-empty when the run is invalid (generator fell behind). */
    std::string invalid;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/** How a run is sized; the same for every workload of one invocation. */
struct RunOptions {
    std::uint64_t seed = 1;
    double seconds = 10.0; ///< measured window
    double warmup = 3.0;   ///< unmeasured lead-in at the window's load
    bool trace = false;
    bool smoke = false;
    int setup_repeats = 3; ///< set-ups per run; setup_s is their median
    idx_t pool = 2048;     ///< distinct queries with exact ground truth
};

/** One workload's fixed configuration. */
struct WorkloadSpec {
    enum class Mode { kBatch, kServe, kLive };

    std::string name;
    Mode mode = Mode::kServe;
    DatasetKind kind = DatasetKind::kDeepLike;
    idx_t n = 20000;
    /** Generator seed of the corpus (fixed: the corpus is the dataset). */
    std::uint64_t corpus_seed = 20240404;
    std::string index;
    /**
     * Recall10@10 floor: the lowest value of seeds 1-20, minus 0.02 and
     * rounded down (smoke: minus 0.02-0.06, as its 256-query pool is
     * noisier).
     */
    double recall_floor = 0.0;
    // kBatch: one caller, closed loop.
    idx_t batch = 128;
    int threads = 2;
    // kServe / kLive: one open-loop sender against a SearchService.
    ServiceConfig service;
    Rates rates;
    bool snapshot = false; ///< build, save, reopen with mmap
    idx_t merge_threshold = 1024;
};

inline ServiceConfig
serviceConfig(int dispatchers, idx_t max_batch)
{
    ServiceConfig c;
    c.dispatchers = dispatchers;
    c.search_threads = 1;
    c.max_batch = max_batch;
    c.linger = std::chrono::microseconds(200);
    c.metrics = false;
    return c;
}

/**
 * The workloads. Why each exists:
 *  - juno-batch: the paper's headline operating point (JUNO-H, L2).
 *    All work is in filter, rt_lut, scan and engine sharding; none in
 *    serve or live. It is where the engine's thread scaling shows. It
 *    shards over 2 engine threads, not all 4 cores: with every core
 *    busy, a batch waits on whichever core the host slows, and its
 *    throughput moved ~20% between runs against ~8% at 2 threads.
 *  - juno-serve-ip: JUNO-M (hit-count scoring) with inner product on
 *    the latency path. The engine pool is bypassed (one search thread
 *    per dispatcher), so an engine-sharding change should not move it
 *    while an rt_lut or scan change shows in p50.
 *  - serve-small: IVFPQ 4-bit fast scan reopened from a snapshot with
 *    mmap (warm start). A query costs ~40 us of search, and ~60% of its
 *    latency is admission, queueing, batching and fulfilment: a
 *    serve-layer change shows here and a JUNO-core change should not.
 *  - live-mixed: a LiveIndex over IVF-Flat with inserts, deletes,
 *    freshness probes and background merges competing with reads.
 *    Writes come at 250 inserts/s and merge at 1,536 fresh rows, so the
 *    10 s window holds two merges, ~3 s and ~9 s in. On a contended
 *    host a merge stalls reads for tens of ms; at a merge every 1-2 s
 *    such stalls landed in every second of the window. The tails (info)
 *    and the freshness lag carry the merges.
 *
 * The read rates keep the dispatchers 10-25% busy on the 4-core
 * development host (juno-serve-ip ~0.7 ms a query on 2 dispatchers,
 * serve-small ~40 us on 1, live-mixed ~50 us on 2). Nearer saturation,
 * queueing multiplies the host's own speed swings into the latencies.
 * Each service runs at most 2 dispatchers, so dispatchers, sender and
 * collector fit the 4 cores; with a third dispatcher, juno-serve-ip's
 * latencies moved twice as much between runs on a contended host, and
 * with one, live-mixed's moved ~1.5x as much.
 *
 * Index training is capped (train=...) so that three set-ups fit in
 * one run; the caps are part of the operating point.
 */
inline std::vector<WorkloadSpec>
workloadSpecs(bool smoke)
{
    std::vector<WorkloadSpec> w(4);

    w[0].name = "juno-batch";
    w[0].mode = WorkloadSpec::Mode::kBatch;
    w[0].kind = DatasetKind::kDeepLike;
    w[0].n = smoke ? 3000 : 20000;
    w[0].index = smoke ? "juno:nlist=64,entries=128,nprobe=8,mode=h"
                       : "juno:nlist=256,entries=128,nprobe=8,mode=h,"
                         "train=2560";
    w[0].recall_floor = smoke ? 0.50 : 0.47;

    w[1].name = "juno-serve-ip";
    w[1].mode = WorkloadSpec::Mode::kServe;
    w[1].kind = DatasetKind::kTtiLike;
    w[1].corpus_seed = 20240406;
    w[1].n = smoke ? 2000 : 10000;
    w[1].index = smoke ? "juno:nlist=32,entries=128,nprobe=8,mode=m"
                       : "juno:nlist=128,entries=128,nprobe=8,mode=m,"
                         "train=2000";
    w[1].service = serviceConfig(2, 8);
    w[1].rates.read = 500.0;
    w[1].recall_floor = smoke ? 0.03 : 0.02;

    w[2].name = "serve-small";
    w[2].mode = WorkloadSpec::Mode::kServe;
    w[2].kind = DatasetKind::kDeepLike;
    w[2].n = smoke ? 3000 : 20000;
    w[2].index = smoke ? "ivfpq:nlist=128,m=48,entries=16,nprobe=4"
                       : "ivfpq:nlist=1024,m=48,entries=16,nprobe=4,"
                         "train=10240";
    w[2].service = serviceConfig(1, 32);
    w[2].rates.read = 5000.0;
    w[2].snapshot = true;
    w[2].recall_floor = smoke ? 0.45 : 0.58;

    w[3].name = "live-mixed";
    w[3].mode = WorkloadSpec::Mode::kLive;
    w[3].kind = DatasetKind::kDeepLike;
    w[3].n = smoke ? 3000 : 20000;
    w[3].index = smoke ? "ivfflat:nlist=64,nprobe=8"
                       : "ivfflat:nlist=256,nprobe=8";
    w[3].service = serviceConfig(2, 32);
    w[3].rates.read = 2000.0;
    w[3].rates.insert = 250.0;
    w[3].rates.remove = 60.0;
    w[3].rates.probe_every = 10;
    w[3].merge_threshold = smoke ? 256 : 1536;
    w[3].recall_floor = smoke ? 0.70 : 0.85;
    return w;
}

/** The workload's full configuration as a JSON object (result stamp). */
inline std::string
specJson(const WorkloadSpec &w, const RunOptions &o)
{
    const char *modes[] = {"closed-loop batch", "open-loop service",
                           "open-loop service, live writes"};
    std::string s = "{\"name\": " + jsonString(w.name);
    s += ", \"mode\": " + jsonString(modes[static_cast<int>(w.mode)]);
    s += ", \"dataset\": " + jsonString(kindName(w.kind));
    s += ", \"n\": " + std::to_string(w.n);
    s += ", \"pool\": " + std::to_string(o.pool);
    s += ", \"k\": " + std::to_string(kTopK);
    s += ", \"index\": " + jsonString(w.index);
    s += ", \"recall_floor\": " + jsonNumber(w.recall_floor);
    s += ", \"setup_repeats\": " + std::to_string(o.setup_repeats);
    if (w.mode == WorkloadSpec::Mode::kBatch) {
        s += ", \"batch\": " + std::to_string(w.batch);
        s += ", \"threads\": " + std::to_string(w.threads);
    } else {
        const ServiceConfig &c = w.service;
        s += ", \"service\": {\"dispatchers\": " +
             std::to_string(c.dispatchers) +
             ", \"search_threads\": " + std::to_string(c.search_threads) +
             ", \"max_batch\": " + std::to_string(c.max_batch) +
             ", \"linger_us\": " + std::to_string(c.linger.count()) +
             ", \"queue_capacity\": " + std::to_string(c.queue_capacity) +
             "}";
        s += ", \"rates\": {\"read\": " + jsonNumber(w.rates.read) +
             ", \"insert\": " + jsonNumber(w.rates.insert) +
             ", \"remove\": " + jsonNumber(w.rates.remove) +
             ", \"probe_every\": " + std::to_string(w.rates.probe_every) +
             "}";
        s += ", \"snapshot\": " + std::string(w.snapshot ? "true" : "false");
        if (w.mode == WorkloadSpec::Mode::kLive)
            s += ", \"merge_threshold\": " +
                 std::to_string(w.merge_threshold);
    }
    return s + "}";
}

namespace detail {

inline double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

inline double
median(std::vector<double> v)
{
    QuantileSketch s;
    s.add(v);
    return s.median();
}

/** Quantile @p q over a whole window's samples. */
inline double
quantile(const std::vector<Sample> &xs, double q)
{
    QuantileSketch s;
    for (const Sample &x : xs)
        s.add(x.ms);
    return s.quantile(q);
}

inline double
peakRssMib()
{
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** The data of one run. */
struct Data {
    Metric metric = Metric::kL2;
    FloatMatrix base;  ///< the corpus, n rows
    FloatMatrix pool;  ///< the run's query pool
    FloatMatrix extra; ///< vectors to insert (live workload)
};

inline Data
makeData(const WorkloadSpec &w, const RunOptions &o, idx_t extra)
{
    SyntheticSpec spec;
    spec.kind = w.kind;
    spec.num_points = w.n;
    spec.num_queries = 8 * o.pool;
    spec.components = 512;
    spec.noise_scale = 4.0f;
    spec.seed = w.corpus_seed;
    Dataset ds = makeDataset(spec);
    Data d;
    d.metric = ds.metric;
    d.base = std::move(ds.base);
    Rng rng(o.seed);
    const std::vector<idx_t> rows =
        rng.sampleWithoutReplacement(spec.num_queries, o.pool);
    d.pool = FloatMatrix(o.pool, d.base.cols());
    for (idx_t i = 0; i < o.pool; ++i)
        std::copy_n(ds.queries.row(rows[static_cast<std::size_t>(i)]),
                    d.base.cols(), d.pool.row(i));
    if (extra > 0) {
        // The same generator run, longer: its first n rows are the
        // corpus, and the rows after them come from the same mixture.
        spec.num_points = w.n + extra;
        spec.num_queries = 0;
        const Dataset grown = makeDataset(spec);
        d.extra = FloatMatrix(extra, d.base.cols());
        std::copy_n(grown.base.row(w.n),
                    static_cast<std::size_t>(extra * d.base.cols()),
                    d.extra.data());
    }
    return d;
}

inline GroundTruth
exactTopK(Metric metric, FloatMatrixView base, FloatMatrixView queries)
{
    ThreadPool pool(4);
    return computeGroundTruth(metric, base, queries, kTopK, &pool);
}

/** Recall10@10 over the pool from each query's first served result. */
inline void
reportRecall(Report &r, const WorkloadSpec &w,
             const std::vector<std::vector<Neighbor>> &served,
             const GroundTruth &gt)
{
    double hits = 0.0;
    for (std::size_t q = 0; q < served.size(); ++q)
        hits += recallAtK(served[q], gt.neighbors[q], kTopK) * kTopK;
    const double trials = static_cast<double>(served.size() * kTopK);
    const double recall = hits / trials;
    double lo = 0.0, hi = 0.0;
    wilson95(hits, trials, &lo, &hi);
    r.end_to_end.push_back({"recall10_at_10", recall, "fraction"});
    r.info.push_back({"recall_ci95_lo", lo, "fraction"});
    r.info.push_back({"recall_ci95_hi", hi, "fraction"});
    r.check(recall >= w.recall_floor,
            "recall10_at_10 " + jsonNumber(recall) + " below the floor " +
                jsonNumber(w.recall_floor));
}

/** Stage-ledger per-layer metrics, over @p queries searched queries. */
inline void
reportStages(Report &r, const StageTimers &t, double queries,
             double engine_thread_seconds)
{
    const double filter = t.seconds(Stage::kFilter);
    const double lut = t.seconds(Stage::kLut) + t.seconds(Stage::kRtLut);
    const double scan = t.seconds(Stage::kScan);
    const double total = filter + lut + scan;
    const double share = total > 0.0 ? 1.0 / total : 0.0;
    r.per_layer.push_back({"stages.us_per_q", total * 1e6 / queries, "us"});
    r.per_layer.push_back({"filter.share", filter * share, "fraction"});
    r.per_layer.push_back({"lut.share", lut * share, "fraction"});
    r.per_layer.push_back({"scan.share", scan * share, "fraction"});
    r.per_layer.push_back({"engine.parallel_eff",
                           total / engine_thread_seconds, "fraction"});
}

/** RT-core counters per query; zeros for indexes without an RT stage. */
inline void
reportRt(Report &r, const rt::TraversalStats &s, double queries,
         double entries)
{
    const double rays = static_cast<double>(s.rays);
    const double tests = static_cast<double>(s.prim_tests);
    const double hits = static_cast<double>(s.hits);
    r.per_layer.push_back({"rt.rays_per_q", rays / queries, "count"});
    r.per_layer.push_back(
        {"rt.node_visits_per_q", static_cast<double>(s.node_visits) / queries,
         "count"});
    r.per_layer.push_back({"rt.prim_tests_per_q", tests / queries, "count"});
    r.per_layer.push_back(
        {"rt.hits_per_test", tests > 0.0 ? hits / tests : 0.0, "fraction"});
    r.per_layer.push_back(
        {"lut.selected_frac", rays > 0.0 ? hits / (rays * entries) : 0.0,
         "fraction"});
}

inline rt::TraversalStats
rtDelta(const rt::TraversalStats &a, const rt::TraversalStats &b)
{
    rt::TraversalStats d;
    d.rays = b.rays - a.rays;
    d.node_visits = b.node_visits - a.node_visits;
    d.aabb_tests = b.aabb_tests - a.aabb_tests;
    d.prim_tests = b.prim_tests - a.prim_tests;
    d.hits = b.hits - a.hits;
    return d;
}

inline void
reportLive(Report &r, const LiveStats &ls, const LoopResult *loop)
{
    r.per_layer.push_back(
        {"live.merges", static_cast<double>(ls.merges), "count"});
    r.per_layer.push_back(
        {"live.fresh_rows_mean", loop ? loop->fresh_rows.mean() : 0.0,
         "count"});
    r.per_layer.push_back(
        {"live.tombstones_mean", loop ? loop->tombstones.mean() : 0.0,
         "count"});
    r.per_layer.push_back({"live.rejected_full",
                           static_cast<double>(ls.rejected_full), "count"});
}

/**
 * Closing metrics every workload reports. @p rss_mib is the peak RSS at
 * the end of the measured window, before the post-run checks allocate.
 */
inline void
reportCommon(Report &r, const std::vector<double> &setup_s,
             const std::vector<double> &build_s, std::uint64_t faults,
             double rss_mib)
{
    r.end_to_end.push_back({"setup_s", median(setup_s), "s"});
    r.end_to_end.push_back({"rss_mb", rss_mib, "MiB"});
    r.per_layer.push_back({"registry.build_s", median(build_s), "s"});
    r.per_layer.push_back(
        {"proc.minor_faults", static_cast<double>(faults), "count"});
    r.info.push_back({"failed_frac",
                      r.attempted > 0 ? static_cast<double>(r.failed) /
                                            static_cast<double>(r.attempted)
                                      : 0.0,
                      "fraction"});
}

/**
 * Validity of the load generator: lateness p99 at most 1 ms. (The wake-up
 * latency p99 of a sleeping thread on the 4-core development VM is
 * 0.3-0.5 ms even when idle, so 0.5 ms would flag ordinary runs.)
 */
inline void
reportLateness(Report &r, const QuantileSketch &late_ms, double sent)
{
    const double late_p99 = late_ms.quantile(0.99);
    r.per_layer.push_back({"loadgen.sent", sent, "count"});
    r.per_layer.push_back({"loadgen.late_p99_ms", late_p99, "ms"});
    r.info.push_back({"loadgen.late_p50_ms", late_ms.quantile(0.5), "ms"});
    if (late_p99 > 1.0)
        r.invalid = "generator lateness p99 " + jsonNumber(late_p99) +
                    " ms exceeds 1 ms";
}

} // namespace detail

/**
 * juno-batch: one caller runs a closed loop of AnnIndex::search over
 * batches of the pool; the next batch is due when the previous one
 * returns. Latency is per batch; a 10 s window holds ~70-110 batches
 * of 128, so p90 (information) has 7-11 samples beyond it.
 */
inline Report
runBatch(const WorkloadSpec &w, const RunOptions &o, SpanLog &spans)
{
    using detail::seconds;
    Report r;
    const detail::Data d = detail::makeData(w, o, 0);
    const GroundTruth gt = detail::exactTopK(d.metric, d.base, d.pool);

    std::unique_ptr<AnnIndex> index;
    std::vector<double> setup_s, build_s;
    for (int rep = 0; rep < o.setup_repeats; ++rep) {
        index.reset();
        const std::uint32_t setup = spans.newId();
        const Clock::time_point t0 = Clock::now();
        index = buildIndex(d.metric, d.base, w.index);
        const Clock::time_point t1 = Clock::now();
        spans.add("build", t0, t1, setup);
        spans.add("setup", t0, t1, 0, 0, kMainLane, setup);
        setup_s.push_back(seconds(t1 - t0));
        build_s.push_back(seconds(t1 - t0));
    }
    const auto *juno = dynamic_cast<const JunoIndex *>(index.get());

    const idx_t batches = std::max<idx_t>(1, o.pool / w.batch);
    SearchOptions opts;
    opts.k = kTopK;
    opts.threads = w.threads;
    opts.collect_stats = o.trace;
    std::vector<std::vector<Neighbor>> first(
        static_cast<std::size_t>(o.pool));
    std::vector<std::uint8_t> served(static_cast<std::size_t>(o.pool), 0);
    idx_t next = 0;
    auto searchNext = [&]() {
        const idx_t b = next++ % batches;
        const SearchRequest req(d.pool.view().slice(b * w.batch, w.batch),
                                opts);
        SearchResults res = index->search(req);
        for (idx_t i = 0; i < w.batch; ++i) {
            const auto q = static_cast<std::size_t>(b * w.batch + i);
            if (!served[q]) {
                served[q] = 1;
                first[q] = std::move(res[static_cast<std::size_t>(i)]);
            }
        }
    };

    const Clock::time_point warm_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(o.warmup));
    while (Clock::now() < warm_end || next < batches)
        searchNext();

    index->resetStageTimers();
    const rt::TraversalStats rt0 =
        juno ? juno->rtStats() : rt::TraversalStats{};
    const std::uint64_t faults0 = readResourceUsage().minor_faults;
    std::vector<Sample> latency;
    QuantileSketch wall_ms, late_ms;
    double wall_sum = 0.0, latency_sum = 0.0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(o.seconds));
    Clock::time_point due = start;
    std::uint64_t done = 0;
    while (due < end) {
        const Clock::time_point t0 = Clock::now();
        searchNext();
        const Clock::time_point t1 = Clock::now();
        spans.add("batch", t0, t1, 0, static_cast<std::uint64_t>(next));
        late_ms.add(seconds(t0 - due) * 1e3);
        wall_ms.add(seconds(t1 - t0) * 1e3);
        latency.push_back({seconds(due - start), seconds(t1 - due) * 1e3});
        wall_sum += seconds(t1 - t0);
        latency_sum += seconds(t1 - due);
        done += static_cast<std::uint64_t>(w.batch);
        due = t1;
    }
    const std::uint64_t faults = readResourceUsage().minor_faults - faults0;
    const double rss_mib = detail::peakRssMib();
    const double queries = static_cast<double>(done);

    const int threads = index->lastSearchThreads();
    // The engine promises bitwise-identical results for every thread
    // count: the first batch served at w.threads against one thread.
    SearchOptions one = opts;
    one.threads = 1;
    one.collect_stats = false;
    const SearchResults solo = index->search(
        SearchRequest(d.pool.view().slice(0, w.batch), one));
    bool equal = true;
    for (idx_t i = 0; i < w.batch; ++i)
        equal = equal && solo[static_cast<std::size_t>(i)] ==
                             first[static_cast<std::size_t>(i)];
    r.check(equal, "results at " + std::to_string(w.threads) +
                       " threads differ from one thread");

    r.attempted = static_cast<std::uint64_t>(next * w.batch);
    // Whole-window readings: a best second of 7-11 batches would add its
    // own sampling noise to the host's.
    r.end_to_end.push_back({"qps", queries / wall_sum, "queries/s"});
    r.end_to_end.push_back(
        {"p50_ms", detail::quantile(latency, 0.5), "ms"});
    detail::reportRecall(r, w, first, gt);

    detail::reportLateness(r, late_ms, queries);
    r.per_layer.push_back({"serve.self_share",
                           (latency_sum - wall_sum) / latency_sum, "fraction"});
    r.per_layer.push_back({"serve.queue_share", 0.0, "fraction"});
    r.per_layer.push_back(
        {"serve.mean_batch", static_cast<double>(w.batch), "count"});
    r.per_layer.push_back({"serve.shed", 0.0, "count"});
    r.per_layer.push_back({"engine.batch_ms_p50", wall_ms.quantile(0.5), "ms"});
    detail::reportStages(r, index->stageTimers(), queries,
                         static_cast<double>(threads) * wall_sum);
    detail::reportRt(r, juno ? detail::rtDelta(rt0, juno->rtStats())
                             : rt::TraversalStats{},
                     queries, juno ? juno->params().pq_entries : 1);
    detail::reportLive(r, LiveStats{}, nullptr);
    detail::reportCommon(r, setup_s, build_s, faults, rss_mib);
    r.info.push_back({"p90_ms", detail::quantile(latency, 0.9), "ms"});
    r.info.push_back({"latency_samples",
                      static_cast<double>(latency.size()), "count"});
    r.info.push_back(
        {"engine.threads", static_cast<double>(threads), "count"});
    return r;
}

/**
 * The service workloads: juno-serve-ip and serve-small (read-only) and
 * live-mixed (LiveIndex with writes). Latency is due -> observed per
 * read. The tails, p90 and p99 over the whole window, are information
 * only: on a shared host they follow the neighbours' scheduling stalls
 * more than the system.
 */
inline Report
runService(const WorkloadSpec &w, const RunOptions &o, SpanLog &spans)
{
    using detail::seconds;
    const bool live = w.mode == WorkloadSpec::Mode::kLive;
    Report r;

    Rng rng(o.seed * 0x9E3779B97F4A7C15ULL + 17);
    const std::vector<Op> ops =
        makeSchedule(w.rates, o.warmup, o.seconds, o.pool, rng);
    const detail::Data d = detail::makeData(w, o, insertsIn(ops));
    GroundTruth gt;
    if (!live)
        gt = detail::exactTopK(d.metric, d.base, d.pool);

    // Set-up: data in hand to first-query-ready.
    ::mkdir(kScratchDir, 0755);
    const std::string snapshot_path =
        std::string(kScratchDir) + "/" + w.name + ".juno";
    std::unique_ptr<AnnIndex> index;
    LiveIndex *live_index = nullptr;
    std::vector<double> setup_s, build_s, open_ms;
    for (int rep = 0; rep < o.setup_repeats; ++rep) {
        index.reset();
        const std::uint32_t setup = spans.newId();
        const Clock::time_point t0 = Clock::now();
        if (live) {
            LiveConfig lc;
            lc.merge_threshold = w.merge_threshold;
            auto li = std::make_unique<LiveIndex>(d.metric, d.base,
                                                  w.index, lc);
            live_index = li.get();
            index = std::move(li);
        } else {
            index = buildIndex(d.metric, d.base, w.index);
        }
        const Clock::time_point t1 = Clock::now();
        spans.add(live ? "live_index" : "build", t0, t1, setup);
        build_s.push_back(seconds(t1 - t0));
        if (w.snapshot) {
            index->save(snapshot_path);
            const Clock::time_point t2 = Clock::now();
            spans.add("save", t1, t2, setup);
            index.reset();
            index = openIndex(snapshot_path);
            const Clock::time_point t3 = Clock::now();
            spans.add("open", t2, t3, setup);
            open_ms.push_back(seconds(t3 - t2) * 1e3);
        }
        const Clock::time_point t_ready = Clock::now();
        spans.add("setup", t0, t_ready, 0, 0, kMainLane, setup);
        setup_s.push_back(seconds(t_ready - t0));
    }
    if (w.snapshot)
        std::remove(snapshot_path.c_str());

    ServiceConfig config = w.service;
    config.collect_stage_stats = o.trace;
    SearchService service(std::move(index), config);
    service.start();
    const std::uint64_t faults0 = readResourceUsage().minor_faults;
    const LoopResult loop =
        runOpenLoop(service, ops, d.pool, d.extra, w.n,
                    o.warmup, kTopK, 256, spans);
    const std::uint64_t faults = readResourceUsage().minor_faults - faults0;
    service.stop();
    const double rss_mib = detail::peakRssMib();
    const ServiceStats::Snapshot snap = service.snapshot();
    AnnIndex &served_index = service.index();

    // Conservation: every accepted request settled exactly once, and
    // every attempt was either accepted or refused.
    const std::uint64_t refused = snap.rejected_full + snap.rejected_stopped +
                                  snap.rejected_expired;
    r.check(snap.submitted == snap.completed + snap.failed + snap.expired,
            "submitted != completed + failed + expired");
    r.check(loop.submitted == loop.accepted + loop.rejected &&
                loop.accepted == snap.submitted && loop.rejected == refused,
            "attempted != accepted + rejected");
    r.check(loop.inserts == snap.live_inserts &&
                loop.removes == snap.live_removes,
            "live mutations applied != mutations acknowledged");
    r.failed = loop.rejected + loop.errors + snap.expired + snap.failed +
               loop.mutate_failed + loop.probes_missed + loop.deleted_returned;
    r.attempted = loop.attempted;
    r.check(r.failed == 0, std::to_string(r.failed) + " operations failed");
    r.check(loop.deleted_returned == 0, "a deleted id was returned");
    r.check(loop.probes_missed == 0, "a probed insert never became visible");
    bool all_served = true;
    for (const std::uint8_t s : loop.served)
        all_served = all_served && s != 0;
    r.check(all_served, "not every pool query was served");

    // Served results equal a direct search of the same index.
    if (!live) {
        FloatMatrix q(static_cast<idx_t>(loop.early.size()), d.pool.cols());
        for (std::size_t i = 0; i < loop.early.size(); ++i)
            std::copy_n(d.pool.row(loop.early[i].first), q.cols(),
                        q.row(static_cast<idx_t>(i)));
        SearchOptions one;
        one.k = kTopK;
        one.collect_stats = false;
        const SearchResults direct =
            served_index.search(SearchRequest(q.view(), one));
        bool equal = true;
        for (std::size_t i = 0; i < loop.early.size(); ++i)
            equal = equal && direct[i] == static_cast<const std::vector<
                                              Neighbor> &>(
                                              loop.early[i].second);
        r.check(equal, "served results differ from a direct search");
    }

    r.end_to_end.push_back(
        {"qps", static_cast<double>(loop.window_done) / loop.window_elapsed_s,
         "queries/s"});
    r.end_to_end.push_back(
        {"p50_ms", bestSubWindowQuantile(loop.latency, o.seconds, 0.5),
         "ms"});

    std::vector<std::vector<Neighbor>> first(loop.first.begin(),
                                             loop.first.end());
    LiveStats live_stats;
    if (live) {
        // Recall of the final live set: fold everything, then search the
        // pool against exact ground truth over exactly the live rows.
        live_index->mergeNow();
        live_stats = live_index->liveStats();
        const idx_t rows =
            w.n + static_cast<idx_t>(loop.live_inserts.size());
        FloatMatrix final_set(rows, d.base.cols());
        std::vector<idx_t> ids(static_cast<std::size_t>(rows));
        for (idx_t i = 0; i < w.n; ++i) {
            std::copy_n(d.base.row(i), d.base.cols(), final_set.row(i));
            ids[static_cast<std::size_t>(i)] = i;
        }
        for (std::size_t j = 0; j < loop.live_inserts.size(); ++j) {
            const idx_t row = w.n + static_cast<idx_t>(j);
            std::copy_n(d.extra.row(loop.live_inserts[j].second),
                        d.base.cols(), final_set.row(row));
            ids[static_cast<std::size_t>(row)] = loop.live_inserts[j].first;
        }
        gt = detail::exactTopK(d.metric, final_set.view(), d.pool);
        for (auto &list : gt.neighbors)
            for (Neighbor &nb : list)
                nb.id = ids[static_cast<std::size_t>(nb.id)];
        SearchOptions opts;
        opts.k = kTopK;
        opts.threads = 4;
        opts.collect_stats = false;
        first = served_index.search(SearchRequest(d.pool.view(), opts));
        r.check(live_stats.live_count == rows,
                "live set size differs from the benchmark's own count");
        r.check(live_stats.generations_published > 0,
                "no merge published a generation");
    }
    detail::reportRecall(r, w, first, gt);

    // Per-layer numbers. The service's latency sketches and the stage
    // ledger cover warm-up too; they are read after stop(), when no
    // dispatcher can be writing them.
    const double searched = static_cast<double>(snap.completed);
    detail::reportLateness(r, loop.late_ms,
                           static_cast<double>(loop.window_sent));
    r.per_layer.push_back(
        {"serve.self_share",
         (loop.request_mean_ms - snap.search_us.mean / 1e3) /
             loop.request_mean_ms,
         "fraction"});
    r.per_layer.push_back({"serve.queue_share",
                           snap.queue_us.mean / snap.total_us.mean,
                           "fraction"});
    r.per_layer.push_back({"serve.mean_batch", snap.mean_batch, "count"});
    r.per_layer.push_back(
        {"serve.shed", static_cast<double>(refused + snap.expired), "count"});
    r.per_layer.push_back(
        {"engine.batch_ms_p50", snap.search_us.p50 / 1e3, "ms"});
    // The service reports search time per request, so the engines'
    // busy time is estimated as mean search time x batches.
    detail::reportStages(r, served_index.stageTimers(), searched,
                         config.search_threads * snap.search_us.mean / 1e6 *
                             static_cast<double>(snap.batches));
    const auto *juno = dynamic_cast<const JunoIndex *>(&served_index);
    detail::reportRt(r, juno ? juno->rtStats() : rt::TraversalStats{},
                     searched, juno ? juno->params().pq_entries : 1);
    detail::reportLive(r, live_stats, live ? &loop : nullptr);
    detail::reportCommon(r, setup_s, build_s, faults, rss_mib);

    r.info.push_back({"p90_ms", detail::quantile(loop.latency, 0.9), "ms"});
    r.info.push_back({"p99_ms", detail::quantile(loop.latency, 0.99), "ms"});
    r.info.push_back({"latency_samples",
                      static_cast<double>(loop.latency.size()), "count"});
    r.info.push_back({"serve.queue_p50_us", snap.queue_us.p50, "us"});
    r.info.push_back({"serve.queue_p99_us", snap.queue_us.p99, "us"});
    r.info.push_back({"serve.batch_p99_us", snap.batch_us.p99, "us"});
    r.info.push_back({"serve.search_p50_us", snap.search_us.p50, "us"});
    r.info.push_back({"serve.search_p99_us", snap.search_us.p99, "us"});
    if (w.snapshot)
        r.info.push_back({"registry.open_ms", detail::median(open_ms), "ms"});
    if (live) {
        r.info.push_back({"loadgen.write_late_p99_ms",
                          loop.write_late_ms.quantile(0.99), "ms"});
        r.info.push_back({"lag_p50_ms", loop.lag_ms.quantile(0.5), "ms"});
        r.info.push_back({"lag_p99_ms", loop.lag_ms.quantile(0.99), "ms"});
        r.info.push_back(
            {"live.insert_us_p99", loop.insert_us.quantile(0.99), "us"});
        r.info.push_back(
            {"live.remove_us_p99", loop.remove_us.quantile(0.99), "us"});
        r.info.push_back(
            {"live.probes", static_cast<double>(loop.probes), "count"});
    }
    return r;
}

} // namespace suite
} // namespace juno

#endif // JUNO_BENCHSUITE_WORKLOADS_H
