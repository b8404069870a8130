/** @file Unit tests for the metrics registry (obs/metrics.h). */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "serve/service_stats.h"

namespace juno {
namespace {

TEST(MetricsRegistry, InvalidNameThrows)
{
    MetricsRegistry reg;
    auto zero = [] { return std::uint64_t{0}; };
    EXPECT_THROW(reg.counterCallback("juno test", "spaces", zero),
                 ConfigError);
    EXPECT_THROW(reg.counterCallback("", "empty", zero), ConfigError);
    EXPECT_THROW(reg.gaugeCallback("9starts_with_digit", "digit",
                                   [] { return 0.0; }),
                 ConfigError);
    EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricsRegistry, CallbackRegistrationIsRaii)
{
    MetricsRegistry reg;
    {
        auto handle = reg.counterCallback("juno_cb_total", "cb",
                                          [] { return 7u; });
        EXPECT_EQ(reg.size(), 1u);
        EXPECT_NE(reg.renderPrometheus().find("juno_cb_total 7"),
                  std::string::npos);
    }
    EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricsRegistry, ReplacedRegistrationOldHandleNoOps)
{
    // Re-registering a name replaces the entry; the superseded
    // handle's destructor must not tear down the replacement.
    MetricsRegistry reg;
    auto first = reg.gaugeCallback("juno_cb_gauge", "cb",
                                   [] { return 1.0; });
    auto second = reg.gaugeCallback("juno_cb_gauge", "cb",
                                    [] { return 2.0; });
    first.release();
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_NE(reg.renderPrometheus().find("juno_cb_gauge 2"),
              std::string::npos);
}

TEST(MetricsRegistry, PrometheusFormat)
{
    MetricsRegistry reg;
    auto req = reg.counterCallback("juno_req_total", "Requests",
                                   [] { return std::uint64_t{5}; });
    auto info = reg.info("juno_build_info", "Build",
                         {{"git_sha", "abc"}, {"compiler", "gcc"}});
    const std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("# HELP juno_req_total Requests\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE juno_req_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("juno_req_total 5\n"), std::string::npos);
    EXPECT_NE(
        text.find(
            "juno_build_info{git_sha=\"abc\",compiler=\"gcc\"} 1\n"),
        std::string::npos);
    // Exposition ends with a newline (required by the text format).
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
}

TEST(MetricsRegistry, SummaryCallbackRendersQuantiles)
{
    MetricsRegistry reg;
    auto handle = reg.summaryCallback("juno_lat_us", "Latency", [] {
        QuantileSummary s;
        s.count = 10;
        s.mean = 4.0;
        s.p50 = 3.0;
        s.p95 = 9.0;
        s.p99 = 9.9;
        s.max = 10.0;
        return s;
    });
    const std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("# TYPE juno_lat_us summary"),
              std::string::npos);
    EXPECT_NE(text.find("juno_lat_us{quantile=\"0.5\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("juno_lat_us_count 10"), std::string::npos);
}

TEST(MetricsRegistry, JsonExportParsesAsKeyValue)
{
    MetricsRegistry reg;
    auto a = reg.counterCallback("juno_a_total", "a",
                                 [] { return std::uint64_t{3}; });
    auto b = reg.gaugeCallback("juno_b", "b", [] { return 1.5; });
    const std::string json = reg.renderJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"juno_a_total\":3"), std::string::npos);
    EXPECT_NE(json.find("\"juno_b\":1.5"), std::string::npos);
}

TEST(MetricsRegistry, ExportRacingServiceRecordingIsClean)
{
    // The TSan leg runs this too: exports pulling a ServiceStats'
    // counters and latency digests while worker threads record into
    // its shards must be race-free, and the final export must see
    // every record.
    MetricsRegistry reg;
    ServiceStats stats;
    auto completed =
        reg.counterCallback("juno_mt_total", "mt",
                            [&] { return stats.completed(); });
    auto latency = reg.summaryCallback("juno_mt_us", "mt", [&] {
        return stats.componentSummary(ServiceStats::Component::kTotal);
    });
    constexpr int kThreads = 4;
    constexpr int kPerThread = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const double v = static_cast<double>(t * kPerThread + i);
                stats.recordCompletion(v, v, v, v);
            }
        });
    std::thread exporter([&] {
        for (int i = 0; i < 20; ++i) {
            (void)reg.renderPrometheus();
            (void)reg.renderJson();
        }
    });
    for (auto &thread : threads)
        thread.join();
    exporter.join();
    const std::string total =
        std::to_string(static_cast<std::uint64_t>(kThreads) * kPerThread);
    const std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("juno_mt_total " + total + "\n"),
              std::string::npos);
    EXPECT_NE(text.find("juno_mt_us_count " + total + "\n"),
              std::string::npos);
}

TEST(MetricsRegistry, ClearDropsEntriesAndHandlesNoOp)
{
    MetricsRegistry reg;
    auto handle =
        reg.counterCallback("juno_cb_total", "cb", [] { return 1u; });
    auto other = reg.gaugeCallback("juno_cb_gauge", "cb",
                                   [] { return 2.0; });
    reg.clear();
    EXPECT_EQ(reg.size(), 0u);
    handle.release(); // must not throw or resurrect anything
    other.release();
    EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricsRegistry, GlobalIsSingleton)
{
    EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

TEST(MetricsRegistry, LabeledCounterFamilySharesOneHelpTypeBlock)
{
    MetricsRegistry reg;
    std::uint64_t full = 3, expired = 9;
    auto r1 = reg.counterCallback("juno_shed_total",
                                  {{"reason", "queue_full"}}, "Shed",
                                  [&] { return full; });
    auto r2 = reg.counterCallback("juno_shed_total",
                                  {{"reason", "expired"}}, "Shed",
                                  [&] { return expired; });
    const std::string text = reg.renderPrometheus();
    // Both samples present, with their label sets...
    EXPECT_NE(text.find("juno_shed_total{reason=\"queue_full\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("juno_shed_total{reason=\"expired\"} 9"),
              std::string::npos);
    // ...under exactly one HELP and one TYPE line for the family (a
    // repeated TYPE for the same metric is an invalid exposition).
    auto countOf = [&](const std::string &needle) {
        std::size_t n = 0, pos = 0;
        while ((pos = text.find(needle, pos)) != std::string::npos) {
            ++n;
            pos += needle.size();
        }
        return n;
    };
    EXPECT_EQ(countOf("# TYPE juno_shed_total counter"), 1u);
    EXPECT_EQ(countOf("# HELP juno_shed_total"), 1u);
    // JSON export keys each sample by its full labeled name.
    const std::string json = reg.renderJson();
    EXPECT_NE(json.find("juno_shed_total{reason=\\\"expired\\\"}"),
              std::string::npos);
}

TEST(MetricsRegistry, LabeledCounterValidatesBaseNameOnly)
{
    MetricsRegistry reg;
    // The base must still be a legal metric name even though the full
    // key carries braces and quotes.
    EXPECT_THROW(reg.counterCallback("bad name", {{"a", "b"}}, "h",
                                     [] { return std::uint64_t{0}; }),
                 ConfigError);
    auto ok = reg.counterCallback("good_name", {{"a", "b"}}, "h",
                                  [] { return std::uint64_t{1}; });
    EXPECT_EQ(reg.size(), 1u);
}

} // namespace
} // namespace juno
