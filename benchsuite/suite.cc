/**
 * @file
 * bench_suite: runs one workload of the end-to-end benchmark and checks
 * its outputs.
 *
 *   bench_suite --workload NAME [--seed S] [--seconds W] [--trace 0|1]
 *               [--trace-dir DIR] [--out FILE] [--smoke]
 *   bench_suite --selftest
 *
 * Untraced, it prints every end-to-end metric as
 * `workload metric value unit`; traced, every per-layer metric, and it
 * writes the spans it recorded to DIR/trace_<workload>.json (Chrome
 * trace-event format). The last line of standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. --out also
 * writes the full result (build/host stamp, workload configuration,
 * every metric, every failed check) as JSON. The exit code is 1 when
 * any output check fails.
 *
 * benchsuite/run.py builds this binary and runs every workload in its
 * own process.
 */
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "suite/spans.h"
#include "suite/stamp.h"
#include "suite/stats.h"
#include "suite/workloads.h"

using namespace juno;
using namespace juno::suite;

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "bench_suite: %s\n"
                 "usage: bench_suite --workload NAME [--seed S] "
                 "[--seconds W] [--trace 0|1] [--trace-dir DIR] "
                 "[--out FILE] [--smoke]\n"
                 "       bench_suite --selftest\n"
                 "workloads: juno-batch juno-serve-ip serve-small "
                 "live-mixed\n",
                 msg);
    std::exit(2);
}

std::string
metricsJson(const std::vector<Reading> &metrics)
{
    std::string s = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        s += (i ? ", " : "") + jsonString(metrics[i].name) +
             ": {\"value\": " + jsonNumber(metrics[i].value) +
             ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return s + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    std::string workload, out_path, trace_dir = kScratchDir;
    bool selftest = false;
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        auto value = [&]() -> std::string {
            if (a + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++a];
        };
        if (arg == "--workload") {
            workload = value();
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::atof(value().c_str());
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (arg == "--trace-dir") {
            trace_dir = value();
        } else if (arg == "--out") {
            out_path = value();
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--selftest") {
            selftest = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (selftest)
        return selfTest() == 0 ? 0 : 1;
    if (!(opt.seconds >= 1.0 && opt.seconds <= 120.0))
        usage("--seconds must be in [1, 120]");
    if (opt.smoke) {
        opt.warmup = 0.5;
        opt.setup_repeats = 1;
        opt.pool = 256;
    }

    WorkloadSpec spec;
    bool found = false;
    for (const WorkloadSpec &w : workloadSpecs(opt.smoke)) {
        if (w.name == workload) {
            spec = w;
            found = true;
        }
    }
    if (!found)
        usage(("unknown workload '" + workload + "'").c_str());

    SpanLog spans(opt.trace);
    Report report;
    try {
        report = spec.mode == WorkloadSpec::Mode::kBatch
                     ? runBatch(spec, opt, spans)
                     : runService(spec, opt, spans);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_suite: %s: %s\n", workload.c_str(),
                     e.what());
        return 1;
    }

    const std::vector<Reading> &shown =
        opt.trace ? report.per_layer : report.end_to_end;
    for (const Reading &m : shown)
        std::printf("%s %s %.6g %s\n", workload.c_str(), m.name.c_str(),
                    m.value, m.unit.c_str());
    for (const Reading &m : report.info)
        std::printf("%s %s %.6g %s (info)\n", workload.c_str(),
                    m.name.c_str(), m.value, m.unit.c_str());
    for (const std::string &f : report.failures)
        std::printf("%s CHECK FAILED: %s\n", workload.c_str(), f.c_str());
    if (!report.invalid.empty())
        std::printf("%s INVALID RUN: %s\n", workload.c_str(),
                    report.invalid.c_str());
    if (opt.trace) {
        const std::string path = trace_dir + "/trace_" + workload + ".json";
        ::mkdir(trace_dir.c_str(), 0755);
        if (!spans.writeChrome(path, "bench_suite " + workload)) {
            std::fprintf(stderr, "bench_suite: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::printf("%s trace written to %s\n", workload.c_str(),
                    path.c_str());
    }

    const bool correct = report.failures.empty();
    if (!out_path.empty()) {
        std::FILE *f = std::fopen(out_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "bench_suite: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        std::string failures = "[";
        for (std::size_t i = 0; i < report.failures.size(); ++i)
            failures += (i ? ", " : "") + jsonString(report.failures[i]);
        failures += "]";
        std::fprintf(
            f,
            "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
            "\"warmup\": %s, \"traced\": %s, \"stamp\": %s, \"spec\": %s, "
            "\"correct\": %s, \"valid\": %s, \"invalid\": %s, "
            "\"failures\": %s, \"attempted\": %llu, \"failed\": %llu, "
            "\"end_to_end\": %s, \"per_layer\": %s, \"info\": %s}\n",
            jsonString(workload).c_str(),
            static_cast<unsigned long long>(opt.seed),
            jsonNumber(opt.seconds).c_str(), jsonNumber(opt.warmup).c_str(),
            opt.trace ? "true" : "false", stampJson().c_str(),
            specJson(spec, opt).c_str(), correct ? "true" : "false",
            report.invalid.empty() ? "true" : "false",
            jsonString(report.invalid).c_str(), failures.c_str(),
            static_cast<unsigned long long>(report.attempted),
            static_cast<unsigned long long>(report.failed),
            metricsJson(report.end_to_end).c_str(),
            metricsJson(report.per_layer).c_str(),
            metricsJson(report.info).c_str());
        std::fclose(f);
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                metricsJson(shown).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
