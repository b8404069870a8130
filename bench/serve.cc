/**
 * @file
 * Serving-layer bench: what micro-batching buys for purely concurrent
 * traffic (the workload the paper's dispatched batches amortise,
 * Sec. 5.3), and what it costs in latency.
 *
 * Two harnesses per batch-window setting:
 *  - capacity: closed-loop clients keep a bounded window of requests
 *    in flight (self-pacing, never sheds), measuring the sustainable
 *    QPS of the whole service path. The `batch=1` row is the
 *    no-batching baseline: every request is dispatched alone, paying
 *    the full wake-dispatch-complete cycle per query, which is
 *    exactly the per-query cost micro-batching amortises.
 *  - open loop: Poisson arrivals at a target rate (clients never wait
 *    for completions, like independent front-ends), reporting
 *    achieved QPS, shed fraction and the queue/search/total latency
 *    split at p50/p95/p99 — the numbers a latency SLO is written
 *    against. Offered rates derive from the measured baseline
 *    capacity so the sweep lands in comparable operating regimes on
 *    any host.
 *
 * A third leg (skipped under --smoke) offers 2.5x the measured
 * capacity with the overload machinery off, then on (deadline
 * propagation + tiered degradation), gating on conservation, on
 * late-implies-degraded, and on the resilient p99 staying near the
 * deadline while the baseline's collapses; `--overload-json <path>`
 * dumps that comparison (BENCH_overload.json).
 *
 * Every run drives load through src/harness/loadgen (runClosedLoop
 * for capacity and the observability A/B, runOpenLoop for the open
 * loop and the overload leg) and must pass its checkConservation()
 * gate. `--smoke` runs a seconds-scale pass of those gates plus
 * result and recall parity with direct batch search, and exits
 * nonzero on any violation — the CI leg. `--json <path>` dumps the
 * measured points like the fig12 snapshot.
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "baseline/ivfflat_index.h"
#include "bench_common.h"
#include "common/build_info.h"
#include "common/parse.h"
#include "common/timer.h"
#include "dataset/ground_truth.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"
#include "harness/loadgen.h"
#include "harness/reporter.h"
#include "registry/index_factory.h"
#include "serve/search_service.h"

using namespace juno;

namespace {

struct BatchSetting {
    std::string label;
    idx_t max_batch;
    std::chrono::microseconds linger;
};

struct Options {
    bool smoke = false;
    bool quick = false;
    std::string json_path;
    /** Where the overload-leg snapshot goes (BENCH_overload.json). */
    std::string overload_json_path;
    /** Snapshot to serve from (skips the in-process build). */
    std::string load_path;
    /** Hot-list cache budget (bytes, k/m/g suffix); 0 = none. */
    std::int64_t mem_budget = 0;
    idx_t num_points = 8000;
    idx_t dim = 96;
    idx_t num_queries = 256;
    idx_t k = 10;
    int clusters = 1024;
    idx_t nprobs = 1;
    int clients = 4;
    /**
     * Requests each client keeps pipelined (a realistic RPC frontend
     * bounds its outstanding calls). clients * window is the
     * concurrency ceiling, so sweep settings cap max_batch at it.
     */
    int window = 8;
    std::uint64_t closed_requests = 60000;
    double open_duration_s = 1.0;
};

/** The service of one sweep point; @p mem_budget is --mem-budget. */
ServiceConfig
serviceConfig(const BatchSetting &setting, std::int64_t mem_budget)
{
    ServiceConfig config;
    config.max_batch = setting.max_batch;
    config.linger = setting.linger;
    config.queue_capacity = 4096;
    config.memory_budget_bytes = mem_budget;
    return config;
}

/** One load run: what the clients saw and the drained service's
 * counters. */
struct Run {
    double offered = 0.0; ///< open loop only
    LoadTally tally;
    ServiceStats::Snapshot snap;
};

/**
 * Drives a fresh service over @p index with @p loop, drains it, and
 * gates the run on conservation: a violation prints @p what with the
 * reconciliation line and bumps @p failures.
 */
Run
serveRun(AnnIndex &index, const ServiceConfig &config,
         LoadTally (*loop)(SearchService &, const LoadConfig &),
         const LoadConfig &load, const std::string &what, int &failures)
{
    SearchService service(index, config);
    service.start();
    Run run;
    run.offered = load.rate;
    run.tally = loop(service, load);
    service.stop();
    run.snap = service.snapshot();
    const Conservation c = checkConservation(run.snap, run.tally);
    if (!c.ok) {
        std::fprintf(stderr, "SMOKE FAIL: %s: %s\n", what.c_str(),
                     c.line.c_str());
        ++failures;
    }
    return run;
}

/**
 * Routes every query through a service once and checks the serving
 * invariants against a direct search(SearchRequest) run: identical
 * result lists (hence identical recall) and conservation (every
 * accepted request completed exactly once). Returns failure count.
 */
int
checkParity(AnnIndex &index, const Dataset &ds, idx_t k,
            const BatchSetting &setting, std::int64_t mem_budget,
            const GroundTruth &gt)
{
    int failures = 0;
    const auto direct = index.search(ds.queries.view(), k);

    SearchService service(index, serviceConfig(setting, mem_budget));
    service.start();
    std::vector<std::future<ResultList>> futures;
    for (idx_t q = 0; q < ds.queries.rows(); ++q)
        futures.push_back(service.submit(ds.queries.view().row(q), k));
    SearchResults served;
    bool any_degraded = false;
    for (auto &f : futures) {
        try {
            ResultList list = f.get();
            any_degraded = any_degraded || list.degraded;
            served.push_back(std::move(list));
        } catch (const RejectedError &err) {
            std::fprintf(stderr,
                         "PARITY FAIL: request rejected under "
                         "no load (%s)\n",
                         rejectReasonName(err.reason()));
            ++failures;
            served.emplace_back();
        }
    }
    service.stop();
    // An unloaded service with every overload feature at its default
    // must never mark a result degraded (the parity promise).
    if (any_degraded) {
        std::fprintf(stderr, "PARITY FAIL: degraded result without "
                             "deadline or degradation armed\n");
        ++failures;
    }

    for (std::size_t q = 0; q < served.size(); ++q)
        if (served[q] != direct[q]) {
            std::fprintf(stderr,
                         "PARITY FAIL: query %zu differs from direct "
                         "batch search\n",
                         q);
            ++failures;
        }
    const double recall_direct = recall1AtK(gt, direct);
    const double recall_served = recall1AtK(gt, served);
    if (recall_direct != recall_served) {
        std::fprintf(stderr, "PARITY FAIL: recall %f != %f\n",
                     recall_served, recall_direct);
        ++failures;
    }
    const auto snap = service.snapshot();
    if (snap.completed != snap.submitted ||
        snap.submitted !=
            static_cast<std::uint64_t>(ds.queries.rows())) {
        std::fprintf(stderr,
                     "PARITY FAIL: submitted=%llu completed=%llu "
                     "expected=%lld\n",
                     static_cast<unsigned long long>(snap.submitted),
                     static_cast<unsigned long long>(snap.completed),
                     static_cast<long long>(ds.queries.rows()));
        ++failures;
    }
    if (failures == 0)
        std::printf("parity[%s]: %lld served results identical to "
                    "direct search, R1@%lld %.4f, completed == "
                    "submitted == %lld\n",
                    setting.label.c_str(),
                    static_cast<long long>(ds.queries.rows()),
                    static_cast<long long>(k), recall_served,
                    static_cast<long long>(ds.queries.rows()));
    return failures;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        auto value = [&](const char *name) -> std::string {
            if (a + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", name);
                std::exit(2);
            }
            return argv[++a];
        };
        if (arg == "--smoke")
            opt.smoke = true;
        else if (arg == "--quick")
            opt.quick = true;
        else if (arg == "--json")
            opt.json_path = value("--json");
        else if (arg == "--overload-json")
            opt.overload_json_path = value("--overload-json");
        else if (arg == "--load")
            opt.load_path = value("--load");
        else if (arg == "--mem-budget") {
            const std::string text = value("--mem-budget");
            const auto bytes = parseByteSize(text);
            if (!bytes) {
                std::fprintf(stderr, "bad --mem-budget '%s'\n",
                             text.c_str());
                std::exit(2);
            }
            opt.mem_budget = *bytes;
        }
        else if (arg == "--n")
            opt.num_points = std::atoll(value("--n").c_str());
        else if (arg == "--dim")
            opt.dim = std::atoll(value("--dim").c_str());
        else if (arg == "--k")
            opt.k = std::atoll(value("--k").c_str());
        else if (arg == "--clients")
            opt.clients = std::atoi(value("--clients").c_str());
        else if (arg == "--window")
            opt.window = std::atoi(value("--window").c_str());
        else if (arg == "--clusters")
            opt.clusters = std::atoi(value("--clusters").c_str());
        else if (arg == "--nprobs")
            opt.nprobs = std::atoll(value("--nprobs").c_str());
        else if (arg == "--requests")
            opt.closed_requests =
                std::strtoull(value("--requests").c_str(), nullptr, 10);
        else {
            std::fprintf(stderr,
                         "usage: bench_serve [--smoke] [--quick] "
                         "[--json path] [--overload-json path] "
                         "[--load snapshot.juno] "
                         "[--mem-budget BYTES[k|m|g]] "
                         "[--n N] [--dim D] [--k K] "
                         "[--clients C] [--requests R]\n");
            std::exit(2);
        }
    }
    if (opt.smoke) {
        opt.num_points = 4000;
        opt.dim = 64;
        opt.clusters = 256;
        opt.num_queries = 128;
        opt.closed_requests = 8000;
        opt.open_duration_s = 0.4;
    } else if (opt.quick) {
        opt.closed_requests = 20000;
        opt.open_duration_s = 0.5;
    }
    return opt;
}

std::vector<BatchSetting>
batchSettings(const Options &opt)
{
    using std::chrono::microseconds;
    std::vector<BatchSetting> settings = {
        {"batch=1 (none)", 1, microseconds(0)},
        {"batch=8/100us", 8, microseconds(100)},
        {"batch=16/200us", 16, microseconds(200)},
        {"batch=32/200us", 32, microseconds(200)},
    };
    if (opt.smoke || opt.quick)
        settings.erase(settings.begin() + 1); // keep 1, 16, 32
    // A batch wider than the achievable concurrency would never fill
    // and stall on the linger every time; cap the sweep there.
    const idx_t ceiling =
        static_cast<idx_t>(opt.clients) * static_cast<idx_t>(opt.window);
    while (settings.size() > 1 && settings.back().max_batch > ceiling)
        settings.pop_back();
    return settings;
}

/**
 * The observability-is-free gate: QPS with the whole layer off vs on
 * (metrics callbacks registered, tracer constructed at sample rate 0,
 * slow-query detection armed). The claim in DESIGN.md is that the
 * disabled hot path costs one constant read per request.
 */
struct ObsOverhead {
    double plain_qps = 0.0;
    double obs_qps = 0.0;
    double overhead_pct = 0.0;
};

void
writeJson(const std::string &path,
          const std::vector<BatchSetting> &settings,
          const std::vector<Run> &capacity,
          const std::vector<std::vector<Run>> &open_loop,
          double baseline_qps, const ObsOverhead &obs)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    out << "{\n  \"bench\": \"serve\",\n  \"build\": "
        << buildInfoJson() << ",\n  \"host\": " << hostInfoJson()
        << ",\n  \"observability\": {\"plain_qps\": "
        << obs.plain_qps << ", \"obs_qps\": " << obs.obs_qps
        << ", \"overhead_pct\": " << obs.overhead_pct
        << "},\n  \"settings\": [\n";
    for (std::size_t s = 0; s < settings.size(); ++s) {
        const auto &cap = capacity[s];
        out << "    {\"label\": \"" << settings[s].label
            << "\", \"max_batch\": " << settings[s].max_batch
            << ", \"linger_us\": " << settings[s].linger.count()
            << ",\n     \"closed_loop_qps\": " << cap.tally.qps()
            << ", \"speedup_vs_no_batching\": "
            << cap.tally.qps() / baseline_qps
            << ", \"mean_batch\": " << cap.snap.mean_batch
            << ",\n     \"total_us\": {\"p50\": "
            << cap.snap.total_us.p50
            << ", \"p95\": " << cap.snap.total_us.p95
            << ", \"p99\": " << cap.snap.total_us.p99 << "},\n"
            << "     \"memory\": {\"rss_bytes\": "
            << cap.snap.usage.rss_bytes
            << ", \"major_faults\": " << cap.snap.usage.major_faults
            << ", \"minor_faults\": " << cap.snap.usage.minor_faults
            << ", \"cache_budget_bytes\": "
            << cap.snap.cache.budget_bytes
            << ", \"cache_hits\": " << cap.snap.cache.hits
            << ", \"cache_misses\": " << cap.snap.cache.misses
            << ", \"cache_pinned_bytes\": "
            << cap.snap.cache.pinned_bytes << "},\n"
            << "     \"open_loop\": [\n";
        for (std::size_t p = 0; p < open_loop[s].size(); ++p) {
            const auto &r = open_loop[s][p];
            out << "       {\"offered_qps\": " << r.offered
                << ", \"achieved_qps\": " << r.tally.qps()
                << ", \"rejected\": " << r.snap.rejected_full
                << ", \"queue_p99_us\": " << r.snap.queue_us.p99
                << ", \"search_p99_us\": " << r.snap.search_us.p99
                << ", \"total_p99_us\": " << r.snap.total_us.p99
                << "}" << (p + 1 < open_loop[s].size() ? "," : "")
                << "\n";
        }
        out << "     ]}" << (s + 1 < settings.size() ? "," : "")
            << "\n";
    }
    out << "  ]\n}\n";
    std::printf("snapshot written to %s\n", path.c_str());
}

void
writeOverloadJson(const std::string &path, const BatchSetting &setting,
                  double capacity_qps, double capacity_p99_us,
                  double offered, double load_factor,
                  double deadline_us, const Run &base,
                  const Run &resilient)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    auto run = [&](const char *label, const Run &r,
                   double run_deadline_us, bool degrade) {
        out << "    {\"label\": \"" << label
            << "\", \"deadline_us\": " << run_deadline_us
            << ", \"degradation\": " << (degrade ? "true" : "false")
            << ",\n     \"achieved_qps\": " << r.tally.qps()
            << ", \"attempted\": " << r.tally.attempts()
            << ",\n     \"total_us\": {\"p50\": " << r.snap.total_us.p50
            << ", \"p95\": " << r.snap.total_us.p95
            << ", \"p99\": " << r.snap.total_us.p99
            << "}, \"queue_p99_us\": " << r.snap.queue_us.p99
            << ",\n     \"submitted\": " << r.snap.submitted
            << ", \"completed\": " << r.snap.completed
            << ", \"failed\": " << r.snap.failed
            << ", \"expired\": " << r.snap.expired
            << ",\n     \"rejected_full\": " << r.snap.rejected_full
            << ", \"rejected_expired\": " << r.snap.rejected_expired
            << ", \"degraded\": " << r.snap.degraded
            << ", \"degraded_batches\": " << r.snap.degraded_batches
            << ", \"final_tier\": " << r.snap.degradation_tier
            << ",\n     \"client\": {\"shed_submit_full\": "
            << r.tally.refused_full
            << ", \"shed_submit_expired\": " << r.tally.refused_expired
            << ", \"shed_queue_expired\": " << r.tally.shed_in_queue
            << ", \"degraded_seen\": " << r.tally.degraded
            << ", \"late_unmarked\": " << r.tally.late_unmarked
            << ", \"errors\": " << r.tally.errors << "}}";
    };
    out << "{\n  \"bench\": \"serve_overload\",\n  \"build\": "
        << buildInfoJson() << ",\n  \"host\": " << hostInfoJson()
        << ",\n  \"setting\": {\"label\": \""
        << setting.label << "\", \"max_batch\": " << setting.max_batch
        << ", \"linger_us\": " << setting.linger.count() << "},\n"
        << "  \"capacity_qps\": " << capacity_qps
        << ", \"capacity_p99_us\": " << capacity_p99_us
        << ",\n  \"offered_qps\": " << offered
        << ", \"load_factor\": " << load_factor
        << ", \"deadline_us\": " << deadline_us << ",\n  \"runs\": [\n";
    run("baseline", base, 0.0, false);
    out << ",\n";
    run("deadline+degradation", resilient, deadline_us, true);
    out << "\n  ],\n  \"p99_collapse_ratio\": "
        << base.snap.total_us.p99 /
               std::max(resilient.snap.total_us.p99, 1e-9)
        << ",\n  \"late_unmarked_completions\": "
        << resilient.tally.late_unmarked << "\n}\n";
    std::printf("overload snapshot written to %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    SyntheticSpec spec;
    spec.kind = DatasetKind::kDeepLike;
    spec.num_points = opt.num_points;
    spec.num_queries = opt.num_queries;
    spec.dim = opt.dim;
    spec.seed = 20260730;
    const Dataset ds = makeDataset(spec);

    // Filter-stage-dominant configuration: a wide centroid table is
    // where the chunk-batched GEMM filter amortises across the
    // micro-batch (nprobs stays small so the scatter-scan does not
    // drown the effect). Cluster quality is irrelevant to a serving
    // bench, so training is capped hard. With --load the whole build
    // is skipped: the service starts from a snapshot (the CI
    // persistence leg produces one with matching flags).
    std::unique_ptr<AnnIndex> index_holder;
    if (!opt.load_path.empty()) {
        Timer load_timer;
        index_holder = openIndex(opt.load_path);
        std::printf("loaded %s in %.0f ms (spec %s)\n",
                    opt.load_path.c_str(), load_timer.millis(),
                    index_holder->spec().c_str());
        if (index_holder->dim() != ds.base.cols() ||
            index_holder->size() != ds.base.rows()) {
            std::fprintf(stderr,
                         "bench_serve: snapshot shape (%lld x %lld) "
                         "does not match the dataset (%lld x %lld); "
                         "pass the build's --n/--dim\n",
                         static_cast<long long>(index_holder->size()),
                         static_cast<long long>(index_holder->dim()),
                         static_cast<long long>(ds.base.rows()),
                         static_cast<long long>(ds.base.cols()));
            return 1;
        }
    } else {
        IvfFlatIndex::Params params;
        params.clusters = opt.clusters;
        params.nprobs = opt.nprobs;
        params.max_iters = 5;
        params.max_training_points =
            std::min<idx_t>(opt.num_points, 4000);
        index_holder = std::make_unique<IvfFlatIndex>(
            ds.metric, ds.base.view(), params);
    }
    AnnIndex &index = *index_holder;
    std::printf("index: %s over %lld points (D=%lld), k=%lld, "
                "%d clients\n",
                index.name().c_str(),
                static_cast<long long>(index.size()),
                static_cast<long long>(index.dim()),
                static_cast<long long>(opt.k), opt.clients);

    const auto gt = computeGroundTruth(ds.metric, ds.base.view(),
                                       ds.queries.view(), opt.k);
    const auto settings = batchSettings(opt);

    // ---- Serving invariants / parity (always; THE smoke gate) ----
    printBanner("Serving parity vs direct batch search");
    int failures = 0;
    for (const auto &setting : settings)
        failures +=
            checkParity(index, ds, opt.k, setting, opt.mem_budget, gt);

    // ---- Closed-loop capacity per batch-window setting ----
    printBanner("Capacity (closed loop, windowed clients)");
    LoadConfig closed;
    closed.queries = ds.queries.view();
    closed.k = opt.k;
    closed.clients = opt.clients;
    closed.window = opt.window;
    closed.requests = opt.closed_requests;
    std::vector<Run> capacity;
    const int repeats = opt.smoke ? 1 : 2;
    for (const auto &setting : settings) {
        // Best of N probes: capacity is a property of the service,
        // not of whichever run the scheduler disturbed least.
        Run best;
        for (int rep = 0; rep < repeats; ++rep) {
            auto r = serveRun(index, serviceConfig(setting, opt.mem_budget),
                              runClosedLoop, closed,
                              "closed loop " + setting.label, failures);
            if (rep == 0 || r.tally.qps() > best.tally.qps())
                best = std::move(r);
        }
        capacity.push_back(std::move(best));
    }
    const double baseline_qps = capacity.front().tally.qps();

    TablePrinter cap_table({"setting", "QPS", "speedup", "mean_batch",
                            "total_p50_us", "total_p99_us",
                            "completed"});
    for (std::size_t s = 0; s < settings.size(); ++s) {
        const auto &r = capacity[s];
        cap_table.addRow(
            {settings[s].label, TablePrinter::num(r.tally.qps()),
             TablePrinter::num(r.tally.qps() / baseline_qps),
             TablePrinter::num(r.snap.mean_batch),
             TablePrinter::num(r.snap.total_us.p50),
             TablePrinter::num(r.snap.total_us.p99),
             std::to_string(r.snap.completed)});
    }
    cap_table.print();

    std::size_t best_setting = 0;
    for (std::size_t s = 1; s < settings.size(); ++s)
        if (capacity[s].tally.qps() > capacity[best_setting].tally.qps())
            best_setting = s;
    std::printf("\nclosed-loop capacity speedup (%s vs no batching): "
                "%.2fx\n",
                settings[best_setting].label.c_str(),
                capacity[best_setting].tally.qps() /
                    std::max(baseline_qps, 1e-9));
    const auto &mem = capacity[best_setting].snap;
    std::printf("memory at %s: rss %.1f MiB, faults major %llu minor "
                "%llu",
                settings[best_setting].label.c_str(),
                static_cast<double>(mem.usage.rss_bytes) /
                    (1024.0 * 1024.0),
                static_cast<unsigned long long>(mem.usage.major_faults),
                static_cast<unsigned long long>(
                    mem.usage.minor_faults));
    if (mem.cache.budget_bytes > 0)
        std::printf(", cache %zu lists / %.1f MiB pinned, %llu hits "
                    "%llu misses",
                    mem.cache.resident_lists,
                    static_cast<double>(mem.cache.pinned_bytes) /
                        (1024.0 * 1024.0),
                    static_cast<unsigned long long>(mem.cache.hits),
                    static_cast<unsigned long long>(mem.cache.misses));
    std::printf("\n");

    // ---- Observability overhead at the best setting ----
    // The A/B the "free when off" claim is judged by: the same closed
    // loop with the whole layer off, then on in its always-on serving
    // shape — metrics callbacks registered, tracer built with sample
    // rate 0, slow-query detection armed with a threshold nothing
    // crosses (the compare still runs per request).
    printBanner("Observability overhead (metrics on, trace rate 0)");
    ObsOverhead obs;
    {
        const BatchSetting &setting = settings[best_setting];
        ServiceConfig plain_cfg = serviceConfig(setting, opt.mem_budget);
        plain_cfg.metrics = false;
        ServiceConfig obs_cfg = serviceConfig(setting, opt.mem_budget);
        obs_cfg.metrics = true;
        obs_cfg.trace_sample = 0.0;
        obs_cfg.slow_trace_us = 1e12;
        for (int rep = 0; rep < repeats; ++rep) {
            const auto plain =
                serveRun(index, plain_cfg, runClosedLoop, closed,
                         "observability off", failures);
            const auto traced =
                serveRun(index, obs_cfg, runClosedLoop, closed,
                         "observability on", failures);
            obs.plain_qps = std::max(obs.plain_qps, plain.tally.qps());
            obs.obs_qps = std::max(obs.obs_qps, traced.tally.qps());
        }
        obs.overhead_pct =
            100.0 * (1.0 - obs.obs_qps / std::max(obs.plain_qps, 1e-9));
        std::printf("%s: %.0f QPS plain, %.0f QPS with observability "
                    "-> %.2f%% overhead\n",
                    setting.label.c_str(), obs.plain_qps, obs.obs_qps,
                    obs.overhead_pct);
    }

    // ---- Open-loop QPS vs latency split ----
    printBanner("Open loop (Poisson arrivals): QPS vs latency SLO");
    // Offered rates relative to the no-batching capacity: below it
    // every setting keeps up; above it only batching can, and the
    // baseline visibly sheds — the paper's amortisation argument as a
    // latency table.
    // The last factor offers twice the baseline's capacity: traffic
    // the no-batching configuration cannot serve by construction —
    // its sustained QPS pins at capacity while admission control
    // sheds the rest — and the micro-batched settings can. The
    // sustained-QPS ratio at that equal offered load is the headline
    // number below.
    std::vector<double> load_factors =
        opt.smoke ? std::vector<double>{0.6}
                  : std::vector<double>{0.5, 0.9, 1.5, 2.0};
    TablePrinter open_table({"setting", "offered", "achieved", "shed%",
                             "queue_p99_us", "search_p99_us",
                             "total_p50_us", "total_p99_us"});
    std::vector<std::vector<Run>> open_results(settings.size());
    LoadConfig open = closed;
    open.seconds = opt.open_duration_s;
    for (std::size_t s = 0; s < settings.size(); ++s) {
        for (double f : load_factors) {
            open.rate = f * baseline_qps;
            auto r = serveRun(index,
                              serviceConfig(settings[s], opt.mem_budget),
                              runOpenLoop, open,
                              "open loop " + settings[s].label, failures);
            const double shed =
                r.tally.attempts() == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(r.tally.refused_full) /
                          static_cast<double>(r.tally.attempts());
            open_table.addRow(
                {settings[s].label, TablePrinter::num(r.offered),
                 TablePrinter::num(r.tally.qps()), TablePrinter::num(shed),
                 TablePrinter::num(r.snap.queue_us.p99),
                 TablePrinter::num(r.snap.search_us.p99),
                 TablePrinter::num(r.snap.total_us.p50),
                 TablePrinter::num(r.snap.total_us.p99)});
            open_results[s].push_back(std::move(r));
        }
    }
    open_table.print();

    // Headline: sustained QPS under the heaviest identical offered
    // load, micro-batched vs per-query dispatch. Results (and hence
    // recall) are identical per the parity section above.
    double best_overload = 0.0;
    std::string best_overload_label;
    for (std::size_t s = 1; s < settings.size(); ++s)
        if (open_results[s].back().tally.qps() > best_overload) {
            best_overload = open_results[s].back().tally.qps();
            best_overload_label = settings[s].label;
        }
    const double baseline_overload = open_results[0].back().tally.qps();
    if (!opt.smoke && settings.size() > 1) {
        std::printf("\nsustained QPS at %.0f offered (%.1fx the "
                    "no-batching capacity), equal recall:\n"
                    "  no batching: %.0f    %s: %.0f    -> %.2fx\n",
                    load_factors.back() * baseline_qps,
                    load_factors.back(), baseline_overload,
                    best_overload_label.c_str(), best_overload,
                    best_overload / std::max(baseline_overload, 1e-9));
    }

    // ---- Overload leg: resilience on vs off at 2.5x capacity ----
    // Offered traffic neither configuration can serve; the baseline
    // queues to capacity and its p99 pins at queue-drain time, while
    // deadline propagation sheds doomed work and tiered degradation
    // cheapens what remains, holding the completed requests' p99 near
    // the deadline. Skipped under --smoke (the gates are timing-based;
    // the deadline unit tests cover the mechanisms deterministically).
    if (!opt.smoke) {
        printBanner("Overload (2.5x capacity): baseline vs "
                    "deadline + degradation");
        const BatchSetting &setting = settings[best_setting];
        const double cap_qps = capacity[best_setting].tally.qps();
        const double cap_p99 = capacity[best_setting].snap.total_us.p99;
        const double load_factor = 2.5;
        const double offered = load_factor * cap_qps;
        // Generous relative to healthy latency, tiny relative to the
        // collapse: a shed-or-degrade budget, not a stretch target.
        const double deadline_us = std::max(5000.0, 4.0 * cap_p99);
        LoadConfig overload = open;
        overload.rate = offered;
        const auto base = serveRun(index,
                                   serviceConfig(setting, opt.mem_budget),
                                   runOpenLoop, overload,
                                   "overload baseline", failures);
        ServiceConfig resil_cfg = serviceConfig(setting, opt.mem_budget);
        resil_cfg.default_deadline_ms = deadline_us / 1000.0;
        resil_cfg.degradation.enabled = true;
        // Deadline shedding keeps the standing queue short, so depth
        // alone would never trip the policy; arm the lagging signal
        // with half the deadline as the queue-wait budget (waits run
        // right up to the deadline under sustained overload).
        resil_cfg.degradation.queue_p95_budget_us = deadline_us / 2.0;
        const auto resil =
            serveRun(index, resil_cfg, runOpenLoop, overload,
                     "overload deadline+degradation", failures);

        TablePrinter overload_table(
            {"run", "offered", "achieved", "total_p50_us",
             "total_p99_us", "shed", "expired", "degraded", "tier"});
        auto addRow = [&](const char *label, const Run &r) {
            overload_table.addRow(
                {label, TablePrinter::num(r.offered),
                 TablePrinter::num(r.tally.qps()),
                 TablePrinter::num(r.snap.total_us.p50),
                 TablePrinter::num(r.snap.total_us.p99),
                 std::to_string(r.snap.rejected_full +
                                r.snap.rejected_expired),
                 std::to_string(r.snap.expired),
                 std::to_string(r.snap.degraded),
                 std::to_string(r.snap.degradation_tier)});
        };
        addRow("baseline", base);
        addRow("deadline+degradation", resil);
        overload_table.print();

        if (resil.tally.late_unmarked != 0) {
            std::fprintf(stderr,
                         "OVERLOAD FAIL: %llu completions past their "
                         "deadline were not flagged degraded\n",
                         static_cast<unsigned long long>(
                             resil.tally.late_unmarked));
            ++failures;
        }
        // A completed request can legitimately carry deadline-epsilon
        // queue wait plus one dispatched batch's worth of search (the
        // first probe always runs), so p99 lands somewhat past the
        // deadline; 3x is the "held near the deadline" gate, against a
        // baseline collapse measured in tens of deadlines.
        if (resil.snap.total_us.p99 > 3.0 * deadline_us) {
            std::fprintf(stderr,
                         "OVERLOAD FAIL: resilient p99 %.0f us "
                         "exceeds 3x the %.0f us deadline\n",
                         resil.snap.total_us.p99, deadline_us);
            ++failures;
        }
        std::printf(
            "\noverload at %.1fx capacity, %.0f us deadline: "
            "baseline p99 %.0f us vs resilient p99 %.0f us "
            "(%.1fx collapse avoided); resilient shed %llu at the "
            "door + %llu in queue, degraded %llu, late-unmarked "
            "%llu\n",
            load_factor, deadline_us, base.snap.total_us.p99,
            resil.snap.total_us.p99,
            base.snap.total_us.p99 /
                std::max(resil.snap.total_us.p99, 1e-9),
            static_cast<unsigned long long>(
                resil.snap.rejected_expired + resil.snap.rejected_full),
            static_cast<unsigned long long>(resil.snap.expired),
            static_cast<unsigned long long>(resil.snap.degraded),
            static_cast<unsigned long long>(resil.tally.late_unmarked));

        if (!opt.overload_json_path.empty())
            writeOverloadJson(opt.overload_json_path, setting, cap_qps,
                              cap_p99, offered, load_factor,
                              deadline_us, base, resil);
    }

    if (!opt.json_path.empty())
        writeJson(opt.json_path, settings, capacity, open_results,
                  baseline_qps, obs);

    if (opt.smoke) {
        if (failures == 0)
            std::printf("\nSMOKE PASS: conservation and parity hold "
                        "across %zu batch settings\n",
                        settings.size());
        else
            std::fprintf(stderr, "\nSMOKE FAIL: %d violations\n",
                         failures);
        return failures == 0 ? 0 : 1;
    }

    std::printf("\npaper: dispatched-batch amortisation is the "
                "throughput story (Sec. 5.3); here the same effect "
                "appears as the micro-batched speedup over per-query "
                "dispatch at identical results and recall.\n");
    return failures == 0 ? 0 : 1;
}
