/**
 * @file
 * Command-line front end for the whole index lifecycle — describe,
 * build, save, open, serve — without writing C++.
 *
 * Usage:
 *   juno_cli build  --save idx.juno [--spec "ivfpq:nlist=256,m=16"]
 *                   [--base b.fvecs | --synthetic deep] [--metric l2|ip]
 *                   [--n 20000] [--dim 0] [--seed 42]
 *                   [--clusters 256] [--entries 128] [--nprobs 32]
 *                   [--mode h|m|l] [--scale 1.0] [--train-points 10000]
 *                   (without --spec the legacy JUNO flags compose a
 *                   "juno:..." spec; any factory type works via --spec)
 *   juno_cli search --load idx.juno [--queries q.fvecs | --synthetic deep]
 *                   [--k 100] [--nprobs 32] [--mode h|m|l] [--scale 1.0]
 *                   [--threads 1] [--batch 0] [--mmap 1]
 *   juno_cli eval   [--load idx.juno | --spec ... | build flags]
 *                   [--synthetic deep] [--metric l2|ip] [--n 20000]
 *                   [--k 100] [--queries-n 64] [--threads 1] ...
 *                   (build-or-load + search + ground truth + recall)
 *   juno_cli serve  [--load idx.juno | --spec ... | build flags] [--k 10]
 *                   [--clients 4] [--window 8] [--requests 20000]
 *                   [--batch-max 32] [--linger-us 200]
 *                   [--queue-cap 4096] [--threads 1] [--mmap 1]
 *                   [--stats-every S] [--metrics-out m.prom]
 *                   [--trace-out t.json] [--trace-sample R]
 *                   [--trace-slow-us N] [--deadline-ms D]
 *                   [--degrade 0|1] [--smoke]
 *                   [--live 0|1] [--insert-rate R] [--delete-rate R]
 *                   [--fresh-cap N] [--merge-threshold N]
 *                   (drive the micro-batching SearchService; --load
 *                   warm-starts from a snapshot: first-query-ready is
 *                   page-in time, not a rebuild. --stats-every S runs
 *                   the flight recorder every S seconds; --metrics-out
 *                   writes the final Prometheus snapshot there and the
 *                   recorder appends JSONL ticks to <path>.jsonl;
 *                   --trace-sample R traces ~R of requests end to end
 *                   and --trace-slow-us always captures outliers, both
 *                   dumped to --trace-out as Chrome trace-event JSON
 *                   (open in Perfetto). --smoke shrinks everything for
 *                   a seconds-long CI run. SIGINT/SIGTERM stop the
 *                   service cleanly and still dump the final
 *                   metrics/trace snapshots. --live 1 (implied by a
 *                   nonzero write rate) serves a LiveIndex built from
 *                   the dataset; --insert-rate/--delete-rate drive a
 *                   synthetic writer at that many ops/sec alongside
 *                   the reading clients, the stats dump gains a live
 *                   line (fresh rows, tombstones, generations), and
 *                   the run ends with a freshness gate — an inserted
 *                   vector must be seen by the next query and a
 *                   deleted one never again, across a merge publish —
 *                   whose "freshness: OK" the CI leg greps)
 *   juno_cli parity --load idx.juno [data flags identical to build]
 *                   (CI gate: re-opens the snapshot in this fresh
 *                   process, rebuilds the same spec from scratch over
 *                   the same dataset, and exits 1 unless results are
 *                   bitwise identical)
 *
 * --threads shards the query batch across worker threads (0 = all
 * cores); --batch overrides the per-chunk query count. Results are
 * identical for every thread/batch setting. --mmap 0 disables
 * zero-copy loading (sections are read and checksum-verified into
 * owned buffers instead).
 *
 * Exit codes: 0 success, 1 invalid configuration (including malformed
 * flags and missing/truncated/wrong-magic snapshots) or runtime
 * failure, 2 unknown or missing subcommand.
 */
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/hnsw.h"
#include "baseline/ivfflat_index.h"
#include "baseline/ivfpq_index.h"
#include "common/parse.h"
#include "core/juno_index.h"
#include "dataset/ground_truth.h"
#include "dataset/io.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"
#include "harness/loadgen.h"
#include "harness/reporter.h"
#include "obs/metrics.h"
#include "live/live_index.h"
#include "registry/index_factory.h"
#include "serve/search_service.h"

using namespace juno;

namespace {

/** Valueless flags (presence is the value). */
bool
isBareFlag(const std::string &key)
{
    return key == "smoke";
}

/**
 * Set by SIGINT/SIGTERM during serve. Client loops stop submitting,
 * the service drains what it already accepted, and the final
 * metrics/trace snapshots are still written — a clean Ctrl-C instead
 * of losing the flight-recorder output to a hard kill.
 */
std::atomic<bool> g_interrupted{false};

void
handleStopSignal(int)
{
    g_interrupted.store(true);
}

/** Tiny --key value argument map. */
class Args {
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                fatal("expected --option, got '" + key + "'");
            key = key.substr(2);
            if (isBareFlag(key)) {
                values_[key] = "1";
                continue;
            }
            if (i + 1 >= argc)
                fatal("missing value for --" + key);
            values_[key] = argv[++i];
        }
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    /**
     * Integer flag, checked against an inclusive [lo, hi] range. A
     * typo like `--k ten`, a partial parse (`--k 1x`), overflow
     * (`--seed 99999999999999999999`) or an out-of-range value must
     * exit with a diagnostic, not wrap, throw, or reach the engine
     * (juno::parseInt64InRange rejects all four).
     */
    long
    getInt(const std::string &key, long fallback,
           long lo = std::numeric_limits<long>::min(),
           long hi = std::numeric_limits<long>::max()) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        const auto v = parseInt64InRange(it->second, lo, hi);
        if (!v)
            fatal("--" + key + " expects an integer in [" +
                  std::to_string(lo) + ", " + std::to_string(hi) +
                  "], got '" + it->second + "'");
        return static_cast<long>(*v);
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        auto it = values_.find(key);
        if (it == values_.end())
            return fallback;
        // parseFloat64 also rejects inf/nan, which would otherwise
        // slip through into threshold comparisons.
        const auto v = parseFloat64(it->second);
        if (!v)
            fatal("--" + key + " expects a finite number, got '" +
                  it->second + "'");
        return *v;
    }

    bool has(const std::string &key) const { return values_.count(key); }

  private:
    std::map<std::string, std::string> values_;
};

Metric
parseMetric(const std::string &name)
{
    if (name == "l2")
        return Metric::kL2;
    if (name == "ip")
        return Metric::kInnerProduct;
    fatal("unknown metric '" + name + "' (use l2 or ip)");
}

DatasetKind
parseKind(const std::string &name)
{
    if (name == "deep")
        return DatasetKind::kDeepLike;
    if (name == "sift")
        return DatasetKind::kSiftLike;
    if (name == "tti")
        return DatasetKind::kTtiLike;
    if (name == "uniform")
        return DatasetKind::kUniform;
    fatal("unknown synthetic kind '" + name + "'");
}

/**
 * Loads base/query vectors from --base/--queries or synthesises.
 * The defaults are parameters so serve --smoke can shrink the
 * synthetic set without overriding an explicit --n.
 */
Dataset
loadData(const Args &args, Metric metric, long default_n = 20000,
         long default_dim = 0)
{
    if (args.has("base")) {
        Dataset ds;
        ds.base = readFvecs(args.get("base", ""));
        if (args.has("queries"))
            ds.queries = readFvecs(args.get("queries", ""));
        ds.metric = metric;
        ds.name = args.get("base", "");
        return ds;
    }
    SyntheticSpec spec;
    spec.kind = parseKind(args.get("synthetic", "deep"));
    spec.num_points = args.getInt("n", default_n, 1, 100000000);
    spec.num_queries = args.getInt("queries-n", 64, 1, 10000000);
    spec.dim = args.getInt("dim", default_dim, 0, 65536);
    spec.seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
    return makeDataset(spec);
}

/** Batched-search options from --k/--threads/--batch. */
SearchOptions
optionsFrom(const Args &args)
{
    SearchOptions options;
    options.k = args.getInt("k", 100, 1, 1000000);
    options.threads = static_cast<int>(args.getInt("threads", 1, 0, 4096));
    options.batch_size = args.getInt("batch", 0, 0, 100000000);
    return options;
}

/**
 * The spec to build: --spec verbatim, else the legacy JUNO flags
 * composed into "juno:..." (the pre-factory behaviour).
 */
std::string
specFrom(const Args &args)
{
    if (args.has("spec"))
        return args.get("spec", "");
    IndexSpec spec;
    spec.type = "juno";
    spec.setInt("nlist", args.getInt("clusters", 256, 1, 10000000));
    spec.setInt("entries", args.getInt("entries", 128, 1, 10000000));
    spec.setInt("nprobe", args.getInt("nprobs", 32, 1, 10000000));
    spec.set("mode", args.get("mode", "h"));
    spec.setDouble("scale", args.getDouble("scale", 1.0));
    spec.setInt("seed", args.getInt("seed", 42));
    spec.setInt("train", args.getInt("train-points", 10000, 1, 100000000));
    return spec.toString();
}

SnapshotOptions
snapshotOptionsFrom(const Args &args)
{
    SnapshotOptions options;
    options.use_mmap = args.getInt("mmap", 1, 0, 1) != 0;
    return options;
}

/** The snapshot path of --load (with --index as the legacy alias). */
std::string
loadPath(const Args &args)
{
    return args.get("load", args.get("index", ""));
}

/** Applies search-time knobs to whatever index type was loaded. */
void
applyKnobs(AnnIndex &index, const Args &args)
{
    if (auto *j = dynamic_cast<JunoIndex *>(&index)) {
        // Overlay the flags on the index's own spec and parse it with
        // JUNO's codec, so the flags take the spec's spellings.
        IndexSpec spec = IndexSpec::parse(j->spec());
        if (args.has("nprobs"))
            spec.setInt("nprobe", args.getInt("nprobs", 32, 1, 10000000));
        if (args.has("mode"))
            spec.set("mode", args.get("mode", "h"));
        if (args.has("scale"))
            spec.setDouble("scale", args.getDouble("scale", 1.0));
        const JunoParams knobs = JunoIndex::fromSpec(spec);
        j->setNprobs(knobs.nprobs);
        j->setSearchMode(knobs.mode);
        j->setThresholdScale(knobs.threshold_scale);
        return;
    }
    if (auto *f = dynamic_cast<IvfFlatIndex *>(&index)) {
        if (args.has("nprobs"))
            f->setNprobs(args.getInt("nprobs", 8, 1, 10000000));
        return;
    }
    if (auto *p = dynamic_cast<IvfPqIndex *>(&index)) {
        if (args.has("nprobs"))
            p->setNprobs(args.getInt("nprobs", 8, 1, 10000000));
        return;
    }
    if (auto *h = dynamic_cast<Hnsw *>(&index)) {
        if (args.has("ef"))
            h->setEfSearch(static_cast<int>(args.getInt("ef", 64, 1, 10000000)));
        return;
    }
}

int
cmdBuild(const Args &args)
{
    const Metric metric = parseMetric(args.get("metric", "l2"));
    const std::string out = args.get("save", args.get("out", ""));
    JUNO_REQUIRE(!out.empty(), "build requires --save <path>");
    const auto data = loadData(args, metric);
    const std::string spec = specFrom(args);
    std::printf("building %s over %lld vectors (D=%lld, %s)...\n",
                spec.c_str(),
                static_cast<long long>(data.base.rows()),
                static_cast<long long>(data.base.cols()),
                metricName(metric));
    Timer timer;
    auto index = buildIndex(metric, data.base.view(), spec);
    std::printf("built %s in %.1fs\n", index->name().c_str(),
                timer.seconds());
    Timer save_timer;
    index->save(out);
    std::printf("saved snapshot %s in %.0f ms (spec %s)\n", out.c_str(),
                save_timer.millis(), index->spec().c_str());
    return 0;
}

int
cmdSearch(const Args &args)
{
    const std::string path = loadPath(args);
    JUNO_REQUIRE(!path.empty(), "search requires --load <path>");
    Timer load_timer;
    auto index = openIndex(path, snapshotOptionsFrom(args));
    std::printf("loaded %s in %.0f ms (%lld points, spec %s)\n",
                index->name().c_str(), load_timer.millis(),
                static_cast<long long>(index->size()),
                index->spec().c_str());

    const auto data = loadData(args, index->metric());
    FloatMatrixView queries =
        data.queries.rows() > 0 ? data.queries.view() : data.base.view();

    applyKnobs(*index, args);
    Timer timer;
    const auto results =
        index->search(SearchRequest(queries, optionsFrom(args)));
    const double secs = timer.seconds();
    std::printf("searched %lld queries on %d threads in %.1f ms "
                "(%.0f QPS)\n",
                static_cast<long long>(queries.rows()),
                index->lastSearchThreads(), secs * 1e3,
                static_cast<double>(queries.rows()) / secs);
    const idx_t show = std::min<idx_t>(queries.rows(), 3);
    for (idx_t q = 0; q < show; ++q) {
        std::printf("query %lld:", static_cast<long long>(q));
        for (std::size_t i = 0;
             i < std::min<std::size_t>(results[static_cast<std::size_t>(q)]
                                           .size(),
                                       5);
             ++i)
            std::printf(" %lld(%.3f)",
                        static_cast<long long>(
                            results[static_cast<std::size_t>(q)][i].id),
                        results[static_cast<std::size_t>(q)][i].score);
        std::printf(" ...\n");
    }
    return 0;
}

int
cmdEval(const Args &args)
{
    std::unique_ptr<AnnIndex> index;
    Dataset data;
    if (!loadPath(args).empty()) {
        index = openIndex(loadPath(args), snapshotOptionsFrom(args));
        data = loadData(args, index->metric());
        // Recall against ground truth over a *different* base set
        // than the snapshot indexed would be silently meaningless.
        JUNO_REQUIRE(index->size() == data.base.rows() &&
                         index->dim() == data.base.cols(),
                     "snapshot shape (" << index->size() << " x "
                                        << index->dim()
                                        << ") does not match the "
                                           "dataset ("
                                        << data.base.rows() << " x "
                                        << data.base.cols()
                                        << "); pass the build's data "
                                           "flags");
        std::printf("loaded %s (spec %s)\n", index->name().c_str(),
                    index->spec().c_str());
    } else {
        const Metric metric = parseMetric(args.get("metric", "l2"));
        data = loadData(args, metric);
        Timer build_timer;
        index = buildIndex(metric, data.base.view(), specFrom(args));
        std::printf("build: %.1fs (%s)\n", build_timer.seconds(),
                    index->name().c_str());
    }
    JUNO_REQUIRE(data.queries.rows() > 0,
                 "eval needs queries (--queries or --queries-n)");
    std::printf("dataset %s: %lld points, %lld queries, D=%lld\n",
                data.name.c_str(),
                static_cast<long long>(data.base.rows()),
                static_cast<long long>(data.queries.rows()),
                static_cast<long long>(data.base.cols()));

    const idx_t k = args.getInt("k", 100, 1, 1000000);
    const auto gt = computeGroundTruth(index->metric(), data.base.view(),
                                       data.queries.view(), k);
    applyKnobs(*index, args);

    Timer timer;
    const auto results =
        index->search(SearchRequest(data.queries.view(), optionsFrom(args)));
    const double secs = timer.seconds();
    std::printf("QPS (%d threads): %.0f\n", index->lastSearchThreads(),
                static_cast<double>(data.queries.rows()) / secs);
    const double recall = recall1AtK(gt, results);
    const std::string r1 = TablePrinter::recall(
        recall, recallInterval(recall,
                               static_cast<std::size_t>(results.size())));
    std::printf("R1@%lld: %s\n", static_cast<long long>(k), r1.c_str());
    return 0;
}

/**
 * CI persistence gate: re-open a snapshot in this (fresh) process,
 * rebuild the identical spec from scratch over the same dataset, and
 * require bitwise-identical search results from both.
 */
int
cmdParity(const Args &args)
{
    const std::string path = loadPath(args);
    JUNO_REQUIRE(!path.empty(), "parity requires --load <path>");
    auto loaded = openIndex(path, snapshotOptionsFrom(args));
    std::printf("loaded %s (spec %s, %s)\n", loaded->name().c_str(),
                loaded->spec().c_str(),
                snapshotOptionsFrom(args).use_mmap ? "mmap" : "buffered");

    const auto data = loadData(args, loaded->metric());
    FloatMatrixView queries =
        data.queries.rows() > 0 ? data.queries.view() : data.base.view();
    JUNO_REQUIRE(loaded->size() == data.base.rows() &&
                     loaded->dim() == data.base.cols(),
                 "snapshot shape (" << loaded->size() << " x "
                                    << loaded->dim()
                                    << ") does not match the dataset ("
                                    << data.base.rows() << " x "
                                    << data.base.cols()
                                    << "); pass the build's data flags");

    std::printf("rebuilding %s from scratch for comparison...\n",
                loaded->spec().c_str());
    auto rebuilt =
        buildIndex(loaded->metric(), data.base.view(), loaded->spec());

    const auto options = optionsFrom(args);
    const auto from_snapshot =
        loaded->search(SearchRequest(queries, options));
    const auto from_scratch =
        rebuilt->search(SearchRequest(queries, options));
    std::size_t mismatches = 0;
    for (std::size_t q = 0; q < from_snapshot.size(); ++q)
        if (from_snapshot[q] != from_scratch[q])
            ++mismatches;
    if (mismatches != 0) {
        std::fprintf(stderr,
                     "PARITY FAIL: %zu of %zu queries differ between "
                     "the re-opened snapshot and the fresh build\n",
                     mismatches, from_snapshot.size());
        return 1;
    }
    std::printf("PARITY PASS: %zu queries bitwise identical between "
                "snapshot and fresh build (k=%lld, threads=%d)\n",
                from_snapshot.size(),
                static_cast<long long>(options.k), options.threads);
    return 0;
}

/**
 * Serves single-query traffic through the micro-batching
 * SearchService: client threads submit one query at a time, the
 * service assembles engine batches, and the run ends with the SLO
 * accounting table (queue/batch/search latency split at p50/p95/p99).
 * With --load the service warm-starts from a snapshot.
 */
int
cmdServe(const Args &args)
{
    // --smoke: a seconds-long end-to-end run (tiny synthetic set,
    // fast ivfflat build, few thousand requests) for CI legs that
    // exercise the full serve path with observability enabled.
    // Explicit flags still win over every smoke default.
    const bool smoke = args.has("smoke");
    ServiceConfig config;
    config.max_batch = args.getInt("batch-max", 32, 1, 1000000);
    config.linger =
        std::chrono::microseconds(args.getInt("linger-us", 200, 0, 60000000));
    const long queue_cap = args.getInt("queue-cap", 4096, 1, 100000000);
    // A negative value would wrap to a near-SIZE_MAX capacity and
    // silently disable the admission control serve demonstrates.
    JUNO_REQUIRE(queue_cap > 0, "queue-cap must be positive");
    config.queue_capacity = static_cast<std::size_t>(queue_cap);
    config.search_threads =
        static_cast<int>(args.getInt("threads", 1, 0, 4096));
    // Overload resilience: --deadline-ms stamps a default per-request
    // deadline (0 = none), --degrade 1 arms the tiered degradation
    // policy. Both off is bitwise-identical to a service without them.
    config.default_deadline_ms = args.getDouble("deadline-ms", 0.0);
    JUNO_REQUIRE(config.default_deadline_ms >= 0.0,
                 "--deadline-ms must be >= 0");
    config.degradation.enabled = args.getInt("degrade", 0, 0, 1) != 0;
    // --mem-budget 64m attaches the out-of-core hot-list cache (0 =
    // pure mmap). Without the flag, JUNO_MEM_BUDGET supplies it; this
    // is the one reader of that variable.
    const bool budget_flag = args.has("mem-budget");
    const char *env_budget = std::getenv("JUNO_MEM_BUDGET");
    if (budget_flag || env_budget != nullptr) {
        const std::string text =
            budget_flag ? args.get("mem-budget", "") : env_budget;
        const auto bytes = parseByteSize(text);
        if (!bytes)
            fatal(std::string("bad ") +
                  (budget_flag ? "--mem-budget" : "JUNO_MEM_BUDGET") +
                  " '" + text + "' (want bytes with optional k/m/g)");
        config.memory_budget_bytes = *bytes;
    }

    // Observability: flight recorder + tracing (DESIGN.md
    // "Observability"). --metrics-out gets the final Prometheus
    // snapshot; with --stats-every the recorder also appends JSONL
    // ticks next to it.
    config.stats_every_s = args.getDouble("stats-every", 0.0);
    config.trace_sample = args.getDouble("trace-sample", 0.0);
    config.slow_trace_us = args.getDouble("trace-slow-us", 0.0);
    const std::string metrics_out = args.get("metrics-out", "");
    if (!metrics_out.empty() && config.stats_every_s > 0.0)
        config.metrics_jsonl = metrics_out + ".jsonl";
    const std::string trace_out = args.get("trace-out", "");

    // Live mutability (DESIGN.md "Live mutability"): a nonzero write
    // rate (or an explicit --live 1) serves a LiveIndex so inserts and
    // deletes land on the running service. The writer below paces the
    // synthetic traffic; the freshness gate at the end is the CI
    // contract.
    const double insert_rate = args.getDouble("insert-rate", 0.0);
    const double delete_rate = args.getDouble("delete-rate", 0.0);
    JUNO_REQUIRE(insert_rate >= 0.0 && delete_rate >= 0.0,
                 "--insert-rate/--delete-rate must be >= 0");
    const bool live_mode = args.getInt("live", 0, 0, 1) != 0 ||
                           insert_rate > 0.0 || delete_rate > 0.0;

    std::unique_ptr<SearchService> service;
    Dataset data;
    Timer ready_timer;
    if (!loadPath(args).empty()) {
        // A snapshot holds only the built index, not the raw vectors a
        // LiveIndex needs to seed generation 0 and re-merge from.
        JUNO_REQUIRE(!live_mode,
                     "--live/--insert-rate/--delete-rate need a built "
                     "index (drop --load)");
        // Warm start: the service owns the index it opens; with mmap
        // enabled the large payloads fault in on first use, so
        // readiness is not gated on a parse of the whole file.
        service = std::make_unique<SearchService>(
            loadPath(args), config, snapshotOptionsFrom(args));
        std::printf("first-query-ready in %.0f ms (%s)\n",
                    ready_timer.millis(),
                    service->index().name().c_str());
        data = loadData(args, service->index().metric());
    } else {
        const Metric metric = parseMetric(args.get("metric", "l2"));
        // One dataset serves both the build and the query traffic —
        // synthetic generation (or fvecs IO) must not run twice.
        data = loadData(args, metric, smoke ? 2000 : 20000,
                        smoke ? 32 : 0);
        const std::string spec =
            smoke && !args.has("spec")
                ? "ivfflat:nlist=32,nprobe=8,iters=4,train=2000"
                : specFrom(args);
        std::printf("building over %lld vectors...\n",
                    static_cast<long long>(data.base.rows()));
        if (live_mode) {
            LiveConfig lcfg;
            lcfg.fresh_capacity = static_cast<idx_t>(
                args.getInt("fresh-cap", 4096, 1, 100000000));
            // Smoke runs last seconds; a low threshold makes the
            // background merge publish generations inside the run so
            // the CI leg actually exercises a reader swap.
            lcfg.merge_threshold = static_cast<idx_t>(args.getInt(
                "merge-threshold", smoke ? 128 : 1024, 1, 100000000));
            service = std::make_unique<SearchService>(
                std::make_unique<LiveIndex>(metric, data.base.view(),
                                            spec, std::move(lcfg)),
                config);
        } else {
            service = std::make_unique<SearchService>(
                buildIndex(metric, data.base.view(), spec), config);
        }
        std::printf("first-query-ready in %.0f ms (%s)\n",
                    ready_timer.millis(),
                    service->index().name().c_str());
    }
    AnnIndex &index = service->index();
    FloatMatrixView queries =
        data.queries.rows() > 0 ? data.queries.view() : data.base.view();
    JUNO_REQUIRE(queries.rows() > 0, "serve needs queries");
    // submit(const float*) trusts the caller on length; check here so
    // a d-mismatched query file cannot make the service read past row
    // ends.
    JUNO_REQUIRE(queries.cols() == index.dim(),
                 "dimension mismatch: queries have "
                     << queries.cols() << " columns, index has "
                     << index.dim());

    const idx_t k = args.getInt("k", 10, 1, 1000000);
    const int clients = static_cast<int>(
        args.getInt("clients", smoke ? 2 : 4, 1, 4096));
    const int window = static_cast<int>(args.getInt("window", 8, 1, 1000000));
    const long total =
        args.getInt("requests", smoke ? 3000 : 20000, 0, 1000000000);
    JUNO_REQUIRE(clients > 0 && window > 0 && total > 0,
                 "clients, window and requests must be positive");

    std::printf("serving %ld requests from %d clients (window %d), "
                "batch<=%lld linger=%lldus over %s\n",
                total, clients, window,
                static_cast<long long>(config.max_batch),
                static_cast<long long>(config.linger.count()),
                index.name().c_str());
    g_interrupted.store(false);
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);
    service->start();
    // Synthetic write traffic alongside the readers (no writer thread
    // when both rates are 0). kBufferFull is backpressure by design (a
    // merge is behind), so the writer counts it instead of failing.
    WriterConfig writes;
    writes.insert_rate = insert_rate;
    writes.delete_rate = delete_rate;
    PacedWriter writer(*service, data.base.view(), writes);
    LoadConfig reads;
    reads.queries = queries;
    reads.k = k;
    reads.clients = clients;
    reads.window = window;
    reads.requests = static_cast<std::uint64_t>(total);
    reads.stop = &g_interrupted;
    LoadTally tally = runClosedLoop(*service, reads);
    const double secs = tally.seconds;
    const WriterResult wr = writer.finish();
    if (g_interrupted.load())
        std::printf("interrupted: draining accepted requests, final "
                    "snapshots still written\n");

    // Freshness gate (the CI leg greps "freshness: OK"): against the
    // still-running service, an inserted vector must be returned by
    // the very next query, and a deleted one must stay gone — both
    // immediately and across the next merge publish (the window where
    // a lost tombstone would resurrect it).
    bool freshness_ok = true;
    if (live_mode && !g_interrupted.load()) {
        auto *live = dynamic_cast<LiveIndex *>(&index);
        JUNO_REQUIRE(live != nullptr, "live mode without a LiveIndex");
        const idx_t probe_id = data.base.rows() + 500000000;
        // A copy of the query is the guaranteed nearest neighbour
        // under L2 (distance 0); under inner product rank follows
        // norm, so scale the copy until it dominates.
        std::vector<float> probe_vec(queries.row(0),
                                     queries.row(0) + index.dim());
        if (index.metric() == Metric::kInnerProduct)
            for (float &v : probe_vec)
                v *= 16.0f;
        const float *probe = probe_vec.data();
        MutateStatus st = service->insert(probe, probe_id);
        if (st == MutateStatus::kBufferFull) {
            // The writer may have left a full buffer behind; fold it
            // so the probe gets the admission a caught-up merge gives.
            live->mergeNow();
            st = service->insert(probe, probe_id);
        }
        auto sees = [&](idx_t id) {
            for (const Neighbor &n :
                 submitAndWait(*service, probe, 10, tally))
                if (n.id == id)
                    return true;
            return false;
        };
        const bool insert_seen = st == MutateStatus::kOk &&
                                 sees(probe_id);
        const bool remove_applied =
            service->remove(probe_id) == MutateStatus::kOk;
        const bool gone_now = !sees(probe_id);
        live->mergeNow();
        const bool gone_after_merge = !sees(probe_id);
        freshness_ok = insert_seen && remove_applied && gone_now &&
                       gone_after_merge;
        if (freshness_ok)
            std::printf("freshness: OK\n");
        else
            std::printf("freshness: VIOLATION (insert %s seen=%d, "
                        "remove applied=%d gone=%d gone-after-merge="
                        "%d)\n",
                        mutateStatusName(st),
                        static_cast<int>(insert_seen),
                        static_cast<int>(remove_applied),
                        static_cast<int>(gone_now),
                        static_cast<int>(gone_after_merge));
    }
    service->stop();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);

    const auto snap = service->snapshot();
    std::printf("served %llu requests in %.2fs: %.0f QPS, mean batch "
                "%.1f, rejected %llu\n",
                static_cast<unsigned long long>(snap.completed), secs,
                static_cast<double>(snap.completed) / secs,
                snap.mean_batch,
                static_cast<unsigned long long>(snap.rejected_full));
    std::printf("overload: shed %lld (client view), degraded %llu "
                "(%lld seen), degraded batches %llu, tier %d\n",
                static_cast<long long>(tally.refused_expired +
                                       tally.refused_stopped +
                                       tally.shed_in_queue),
                static_cast<unsigned long long>(snap.degraded),
                static_cast<long long>(tally.degraded),
                static_cast<unsigned long long>(snap.degraded_batches),
                snap.degradation_tier);
    // Conservation gate (the chaos CI leg greps the trailing OK):
    // every accepted request settled exactly once, every submit is
    // accounted for, and the clients saw what the service counted.
    const Conservation conservation = checkConservation(snap, tally);
    std::printf("%s\n", conservation.line.c_str());
    const struct {
        const char *name;
        const QuantileSummary &lat;
    } rows[] = {{"queue", snap.queue_us},
                {"batch", snap.batch_us},
                {"search", snap.search_us},
                {"total", snap.total_us}};
    std::printf("%-8s %10s %10s %10s %10s\n", "stage", "mean_us",
                "p50_us", "p95_us", "p99_us");
    for (const auto &row : rows)
        std::printf("%-8s %10.1f %10.1f %10.1f %10.1f\n", row.name,
                    row.lat.mean, row.lat.p50, row.lat.p95,
                    row.lat.p99);
    std::printf("memory: rss %.1f MiB, faults major %llu minor %llu\n",
                static_cast<double>(snap.usage.rss_bytes) /
                    (1024.0 * 1024.0),
                static_cast<unsigned long long>(snap.usage.major_faults),
                static_cast<unsigned long long>(snap.usage.minor_faults));
    if (snap.cache.budget_bytes > 0) {
        const double hit_rate =
            snap.cache.lookups > 0
                ? static_cast<double>(snap.cache.hits) /
                      static_cast<double>(snap.cache.lookups)
                : 0.0;
        std::printf("hot-list cache: %zu lists pinned (%.1f/%.1f MiB), "
                    "hit rate %.1f%%, admitted %llu evicted %llu "
                    "rejected %llu\n",
                    snap.cache.resident_lists,
                    static_cast<double>(snap.cache.pinned_bytes) /
                        (1024.0 * 1024.0),
                    static_cast<double>(snap.cache.budget_bytes) /
                        (1024.0 * 1024.0),
                    100.0 * hit_rate,
                    static_cast<unsigned long long>(snap.cache.admitted),
                    static_cast<unsigned long long>(snap.cache.evicted),
                    static_cast<unsigned long long>(
                        snap.cache.rejected_capacity +
                        snap.cache.rejected_policy));
    }
    if (snap.live_enabled) {
        std::printf(
            "live: generation %llu (%llu published, %llu merges), "
            "fresh rows %lld, tombstones %lld, live %lld\n",
            static_cast<unsigned long long>(snap.live.generation),
            static_cast<unsigned long long>(
                snap.live.generations_published),
            static_cast<unsigned long long>(snap.live.merges),
            static_cast<long long>(snap.live.fresh_rows),
            static_cast<long long>(snap.live.tombstones),
            static_cast<long long>(snap.live.live_count));
        std::printf(
            "live ops: inserts %llu removes %llu upserts %llu "
            "rejected %llu (writer: +%llu -%llu, %llu refused)\n",
            static_cast<unsigned long long>(snap.live_inserts),
            static_cast<unsigned long long>(snap.live_removes),
            static_cast<unsigned long long>(snap.live_upserts),
            static_cast<unsigned long long>(snap.live_rejected),
            static_cast<unsigned long long>(wr.inserts),
            static_cast<unsigned long long>(wr.removes),
            static_cast<unsigned long long>(wr.rejected));
    }

    // Final observability dumps: the service is still alive, so its
    // registry callbacks (and the tracer's captures) are intact.
    if (!metrics_out.empty()) {
        MetricsRegistry &reg = config.registry != nullptr
                                   ? *config.registry
                                   : MetricsRegistry::global();
        const std::string text = reg.renderPrometheus();
        if (std::FILE *f = std::fopen(metrics_out.c_str(), "w")) {
            std::fwrite(text.data(), 1, text.size(), f);
            std::fclose(f);
            std::printf("metrics: wrote %s%s\n", metrics_out.c_str(),
                        config.metrics_jsonl.empty()
                            ? ""
                            : (" (recorder: " + config.metrics_jsonl +
                               ")")
                                  .c_str());
        } else {
            std::fprintf(stderr, "juno_cli: cannot write %s\n",
                         metrics_out.c_str());
        }
    }
    if (!trace_out.empty()) {
        const Tracer &tracer = service->tracer();
        const std::string text = tracer.renderJson();
        if (std::FILE *f = std::fopen(trace_out.c_str(), "w")) {
            std::fwrite(text.data(), 1, text.size(), f);
            std::fclose(f);
            std::printf(
                "traces: %llu sampled (%llu dropped), %llu slow -> "
                "%s\n",
                static_cast<unsigned long long>(tracer.sampledCount()),
                static_cast<unsigned long long>(tracer.droppedCount()),
                static_cast<unsigned long long>(tracer.slowCount()),
                trace_out.c_str());
        } else {
            std::fprintf(stderr, "juno_cli: cannot write %s\n",
                         trace_out.c_str());
        }
    }
    return conservation.ok && freshness_ok ? 0 : 1;
}

void
usage()
{
    std::string types;
    for (const auto &t : IndexFactory::instance().types()) {
        if (!types.empty())
            types += ", ";
        types += t;
    }
    std::fprintf(
        stderr,
        "usage: juno_cli <build|search|eval|serve|parity> "
        "[--option value]...\n"
        "\n"
        "  build   train an index and save a snapshot:\n"
        "          --save idx.juno [--spec \"type:k=v,...\"] "
        "[data flags]\n"
        "  search  open a snapshot and run a query batch:\n"
        "          --load idx.juno [--k K] [--threads T] [--mmap 0|1]\n"
        "  eval    build or load, then report QPS and recall\n"
        "  serve   drive the micro-batching service; --load idx.juno\n"
        "          warm-starts from a snapshot (build-once/serve-many);\n"
        "          --mem-budget 64m pins the hottest inverted lists in\n"
        "          RAM for out-of-core serving (0 = pure mmap paging;\n"
        "          without the flag, serve reads JUNO_MEM_BUDGET);\n"
        "          observability:\n"
        "          --stats-every S --metrics-out m.prom (+ m.prom.jsonl\n"
        "          recorder) --trace-out t.json --trace-sample 0.01\n"
        "          --trace-slow-us 5000 --smoke (tiny CI-sized run);\n"
        "          overload: --deadline-ms D stamps per-request\n"
        "          deadlines (expired work is shed, not served) and\n"
        "          --degrade 1 arms tiered probe-budget degradation;\n"
        "          chaos: JUNO_FAULT=site:prob:seed[:delay_ms] (needs\n"
        "          a -DJUNO_FAULT_INJECTION=ON build);\n"
        "          live writes: --insert-rate/--delete-rate ops/sec\n"
        "          (or --live 1) serve a mutable LiveIndex, print a\n"
        "          live stats line and end with a freshness gate\n"
        "          (grep \"freshness: OK\");\n"
        "          SIGINT/SIGTERM drain cleanly and still dump\n"
        "  parity  gate: snapshot results == fresh-build results\n"
        "\n"
        "  index types for --spec: %s\n"
        "  data flags: --base/--queries (fvecs) or --synthetic "
        "deep|sift|tti|uniform with --n/--dim/--queries-n/--seed\n"
        "\n"
        "see the file header of tools/juno_cli.cc for all flags\n",
        types.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    try {
        const Args args(argc, argv, 2);
        const std::string cmd = argv[1];
        if (cmd == "build")
            return cmdBuild(args);
        if (cmd == "search")
            return cmdSearch(args);
        if (cmd == "eval")
            return cmdEval(args);
        if (cmd == "serve")
            return cmdServe(args);
        if (cmd == "parity")
            return cmdParity(args);
        std::fprintf(stderr, "juno_cli: unknown subcommand '%s'\n",
                     cmd.c_str());
        usage();
        return 2;
    } catch (const ConfigError &err) {
        std::fprintf(stderr, "juno_cli: %s\n", err.what());
        return 1;
    } catch (const std::exception &err) {
        // Anything else (I/O failure, bad_alloc, ...) still exits
        // nonzero with a message instead of std::terminate.
        std::fprintf(stderr, "juno_cli: unexpected error: %s\n",
                     err.what());
        return 1;
    }
}
