/**
 * @file
 * Live-mutability serving bench: what concurrent writes cost the read
 * path, and how fresh an insert actually is.
 *
 * Two legs over the same dataset and service configuration:
 *
 *  - read-only baseline: the micro-batching SearchService over a
 *    frozen index, closed-loop clients for a fixed wall-clock window;
 *  - mixed read/write: the same clients over a LiveIndex while a
 *    writer injects inserts and deletes at a configured rate, with
 *    the background merge publishing generations mid-run.
 *
 * Freshness lag is measured directly: every Nth insert is a probe
 * whose vector is a query-set row (the guaranteed unique nearest
 * neighbour of itself), and the writer polls the serving path until
 * the new id appears in the top-k — the insert-to-first-visible-query
 * latency, reported as percentiles. The design bound is one query
 * latency (inserts are visible to the very next search), so the lag
 * distribution should track the read path's, not the merge cadence.
 *
 * Load comes from src/harness/loadgen: runClosedLoop for the read
 * clients of both legs, a PacedWriter with freshness probes for the
 * writes. Gates (exit nonzero, `--smoke` is the CI leg): each leg
 * passes checkConservation() (the probes' queries included), every
 * probe must become visible (a missed probe is a freshness bug, not
 * noise), and the mixed leg must publish at least one generation so
 * the numbers cover a reader swap. `--json <path>` dumps the measured
 * points (BENCH_live.json).
 */
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "bench_common.h"
#include "common/build_info.h"
#include "dataset/synthetic.h"
#include "harness/loadgen.h"
#include "harness/reporter.h"
#include "live/live_index.h"
#include "registry/index_factory.h"
#include "serve/search_service.h"

using namespace juno;

namespace {

struct Options {
    bool smoke = false;
    std::string json_path;
    idx_t num_points = bench::scale1M();
    idx_t k = 10;
    int clients = 2;
    int window = 8;
    /** Wall-clock seconds each leg serves. */
    double seconds = 2.0;
    double insert_rate = 2000.0;
    double delete_rate = 500.0;
    /** Every Nth insert is a freshness probe. */
    idx_t probe_every = 16;
    idx_t merge_threshold = 1024;
};

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
        else if (arg == "--json")
            opt.json_path = value("--json");
        else if (arg == "--n")
            opt.num_points = std::atoll(value("--n").c_str());
        else if (arg == "--k")
            opt.k = std::atoll(value("--k").c_str());
        else if (arg == "--clients")
            opt.clients = std::atoi(value("--clients").c_str());
        else if (arg == "--seconds")
            opt.seconds = std::atof(value("--seconds").c_str());
        else if (arg == "--insert-rate")
            opt.insert_rate = std::atof(value("--insert-rate").c_str());
        else if (arg == "--delete-rate")
            opt.delete_rate = std::atof(value("--delete-rate").c_str());
        else if (arg == "--merge-threshold")
            opt.merge_threshold =
                std::atoll(value("--merge-threshold").c_str());
        else {
            std::fprintf(stderr,
                         "usage: bench_live [--smoke] [--json path] "
                         "[--n N] [--k K] [--clients C] [--seconds S] "
                         "[--insert-rate R] [--delete-rate R] "
                         "[--merge-threshold N]\n");
            std::exit(2);
        }
    }
    if (opt.smoke) {
        opt.num_points = 4000;
        opt.seconds = 1.0;
        opt.insert_rate = 1500.0;
        opt.delete_rate = 400.0;
        opt.probe_every = 8;
        opt.merge_threshold = 256;
    }
    return opt;
}

/** One leg: what its read clients saw and the drained service. */
struct Leg {
    LoadTally reads;
    ServiceStats::Snapshot snap;
};

void
writeJson(const std::string &path, const Options &opt, const Leg &base,
          const Leg &mixed, const WriterResult &w, const LiveStats &live)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    auto leg = [&](const char *name, const Leg &r) {
        out << "  \"" << name << "\": {\"qps\": " << r.reads.qps()
            << ", \"completed\": " << r.reads.completed
            << ", \"p50_us\": " << r.snap.total_us.p50
            << ", \"p95_us\": " << r.snap.total_us.p95
            << ", \"p99_us\": " << r.snap.total_us.p99 << "}";
    };
    out << "{\n  \"bench\": \"live\",\n  \"build\": "
        << buildInfoJson() << ",\n  \"host\": " << hostInfoJson()
        << ",\n  \"points\": " << opt.num_points
        << ",\n  \"insert_rate\": " << opt.insert_rate
        << ",\n  \"delete_rate\": " << opt.delete_rate << ",\n";
    leg("read_only", base);
    out << ",\n";
    leg("mixed", mixed);
    out << ",\n  \"read_overhead\": "
        << (base.reads.qps() > 0.0 ? mixed.reads.qps() / base.reads.qps()
                                   : 0.0)
        << ",\n  \"writer\": {\"inserts\": " << w.inserts
        << ", \"removes\": " << w.removes
        << ", \"rejected\": " << w.rejected << "},\n"
        << "  \"freshness_lag_us\": {\"probes\": " << w.probes
        << ", \"missed\": " << w.probes_missed
        << ", \"p50\": " << w.lag_us.quantile(0.50)
        << ", \"p95\": " << w.lag_us.quantile(0.95)
        << ", \"p99\": " << w.lag_us.quantile(0.99)
        << ", \"max\": " << w.lag_us.quantile(1.0) << "},\n"
        << "  \"live\": {\"generation\": " << live.generation
        << ", \"generations_published\": "
        << live.generations_published
        << ", \"merges\": " << live.merges
        << ", \"live_count\": " << live.live_count << "}\n}\n";
    std::printf("snapshot written to %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    auto spec = bench::deepSpec(opt.num_points);
    const Dataset ds = makeDataset(spec);
    const std::string index_spec =
        "ivfflat:nlist=" +
        std::to_string(bench::clustersFor(opt.num_points)) +
        ",nprobe=8";

    ServiceConfig config;
    config.search_threads = bench::benchThreads();

    std::printf("dataset: %lld points dim %lld, spec %s, %d clients "
                "for %.1fs/leg, writes +%.0f/-%.0f per sec\n",
                static_cast<long long>(ds.base.rows()),
                static_cast<long long>(ds.base.cols()), index_spec.c_str(),
                opt.clients, opt.seconds, opt.insert_rate,
                opt.delete_rate);

    // Both legs: closed-loop read clients for a fixed wall-clock
    // window (duration-based so the legs are comparable whatever
    // their throughput).
    LoadConfig reads;
    reads.queries = ds.queries.view();
    reads.k = opt.k;
    reads.clients = opt.clients;
    reads.window = opt.window;
    reads.seconds = opt.seconds;
    int failures = 0;
    auto conserve = [&](const char *leg, const ServiceStats::Snapshot &snap,
                        const LoadTally &tally) {
        const Conservation c = checkConservation(snap, tally);
        std::printf("%s: %s\n", leg, c.line.c_str());
        if (!c.ok)
            ++failures;
    };

    // Leg 1: read-only baseline over the frozen index.
    Leg base;
    {
        SearchService service(
            buildIndex(ds.metric, ds.base.view(), index_spec), config);
        service.start();
        base.reads = runClosedLoop(service, reads);
        service.stop();
        base.snap = service.snapshot();
    }
    conserve("read-only", base.snap, base.reads);

    // Leg 2: the same read traffic over a LiveIndex with a paced
    // writer whose every probe_every-th insert is a freshness probe.
    Leg mixed;
    WriterResult wr;
    LiveStats live;
    {
        LiveConfig lcfg;
        lcfg.merge_threshold = opt.merge_threshold;
        lcfg.fresh_capacity =
            std::max<idx_t>(4 * opt.merge_threshold, 4096);
        SearchService service(
            std::make_unique<LiveIndex>(ds.metric, ds.base.view(),
                                        index_spec, std::move(lcfg)),
            config);
        service.start();
        WriterConfig wcfg;
        wcfg.insert_rate = opt.insert_rate;
        wcfg.delete_rate = opt.delete_rate;
        wcfg.probe_every = opt.probe_every;
        // Probe vectors come from the query set: the inserted copy is
        // its own unique nearest neighbour, so visibility == membership
        // in the top-k for that query.
        wcfg.probes = ds.queries.view();
        wcfg.k = opt.k;
        PacedWriter writer(service, ds.base.view(), wcfg);
        mixed.reads = runClosedLoop(service, reads);
        wr = writer.finish();
        live = service.liveStats();
        service.stop();
        mixed.snap = service.snapshot();
    }
    LoadTally mixed_all = mixed.reads;
    mixed_all += wr.reads;
    conserve("mixed r/w", mixed.snap, mixed_all);

    printBanner("Serving under live mutation");
    TablePrinter table({"leg", "read_QPS", "vs_read_only", "p50_us",
                        "p95_us", "p99_us"});
    const double base_qps = base.reads.qps();
    const double mixed_qps = mixed.reads.qps();
    table.addRow({"read-only", TablePrinter::num(base_qps), "1.00",
                  TablePrinter::num(base.snap.total_us.p50),
                  TablePrinter::num(base.snap.total_us.p95),
                  TablePrinter::num(base.snap.total_us.p99)});
    table.addRow({"mixed r/w", TablePrinter::num(mixed_qps),
                  TablePrinter::num(base_qps > 0.0 ? mixed_qps / base_qps
                                                   : 0.0),
                  TablePrinter::num(mixed.snap.total_us.p50),
                  TablePrinter::num(mixed.snap.total_us.p95),
                  TablePrinter::num(mixed.snap.total_us.p99)});
    table.print();
    std::printf("freshness lag (insert -> first visible query): "
                "%llu probes, p50 %.0fus p95 %.0fus p99 %.0fus "
                "max %.0fus\n",
                static_cast<unsigned long long>(wr.probes),
                wr.lag_us.quantile(0.50), wr.lag_us.quantile(0.95),
                wr.lag_us.quantile(0.99), wr.lag_us.quantile(1.0));
    std::printf("writer: +%llu -%llu (%llu rejected); live: "
                "generation %llu, %llu published, %llu merges, "
                "%lld ids live\n",
                static_cast<unsigned long long>(wr.inserts),
                static_cast<unsigned long long>(wr.removes),
                static_cast<unsigned long long>(wr.rejected),
                static_cast<unsigned long long>(live.generation),
                static_cast<unsigned long long>(
                    live.generations_published),
                static_cast<unsigned long long>(live.merges),
                static_cast<long long>(live.live_count));

    if (!opt.json_path.empty())
        writeJson(opt.json_path, opt, base, mixed, wr, live);

    if (wr.probes == 0 || wr.probes_missed != 0) {
        std::fprintf(stderr,
                     "FRESHNESS FAIL: %llu of %llu probes never "
                     "became visible\n",
                     static_cast<unsigned long long>(wr.probes_missed),
                     static_cast<unsigned long long>(wr.probes));
        ++failures;
    }
    if (live.generations_published == 0) {
        std::fprintf(stderr,
                     "MERGE FAIL: no generation published during the "
                     "mixed leg (write traffic below the threshold?)\n");
        ++failures;
    }
    if (failures != 0) {
        std::fprintf(stderr, "\n%s FAIL: %d gate violations\n",
                     opt.smoke ? "SMOKE" : "BENCH", failures);
        return 1;
    }
    if (opt.smoke)
        std::printf("\nSMOKE PASS: every probe visible, %llu "
                    "generations published under load\n",
                    static_cast<unsigned long long>(
                        live.generations_published));
    else
        std::printf("\npaper context: JUNO's index is frozen at build "
                    "time; this leg shows the serving layer absorbing "
                    "updates with freshness bounded by one query "
                    "latency instead of a rebuild.\n");
    return 0;
}
