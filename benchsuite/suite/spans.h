/**
 * @file
 * The traced run's span log: spans the benchmark records around each
 * public call it makes into the library (setup, build, save, open,
 * batch, request, submit, insert, remove, probe), kept in memory and
 * written at exit as Chrome trace-event JSON that Perfetto loads.
 *
 * Disabled (the untraced run), every call is one branch on a constant.
 * The library's obs/trace.h is not reused: its events live on the
 * recording thread's track and carry two numeric args, while these
 * spans need their own id, a parent and a request id, and overlapping
 * requests need separate tracks to render in Perfetto.
 */
#ifndef JUNO_BENCHSUITE_SPANS_H
#define JUNO_BENCHSUITE_SPANS_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace juno {
namespace suite {

using Clock = std::chrono::steady_clock;

/** Fixed trace lanes of the benchmark's own threads. */
enum Lane : std::uint32_t {
    kMainLane = 1,   ///< set-up, direct batch searches, final checks
    kSenderLane = 2, ///< open-loop read sender: submits
    kWriterLane = 3, ///< open-loop write sender: live mutations, probes
};

/** One recorded span. Ids are 1-based; parent 0 means a root span. */
struct Span {
    const char *name = "";
    Clock::time_point begin;
    Clock::time_point end;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint64_t request = 0; ///< request id, 0 when not per request
    std::uint32_t lane = kMainLane;
};

/** Thread-safe in-memory span log. */
class SpanLog {
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    /** Reserves a span id, so children can name a parent that ends later. */
    std::uint32_t newId() { return enabled_ ? next_id_.fetch_add(1) : 0; }

    /** Records a finished span under a reserved (or fresh) id. */
    std::uint32_t
    add(const char *name, Clock::time_point begin, Clock::time_point end,
        std::uint32_t parent = 0, std::uint64_t request = 0,
        std::uint32_t lane = kMainLane, std::uint32_t id = 0)
    {
        if (!enabled_)
            return 0;
        if (id == 0)
            id = newId();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(Span{name, begin, end, id, parent, request, lane});
        return id;
    }

    /**
     * Writes the spans to @p path as Chrome trace-event JSON. Request
     * spans overlap one another, so each gets the lowest request lane
     * free at its start and its children follow it there. At most
     * @p max_events spans are written (the earliest ones); the count
     * left out is recorded in the file's metadata.
     */
    bool
    writeChrome(const std::string &path, const std::string &label,
                std::size_t max_events = 200000)
    {
        std::vector<Span> spans;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            spans = spans_;
        }
        std::sort(spans.begin(), spans.end(),
                  [](const Span &a, const Span &b) {
                      return a.begin < b.begin;
                  });
        const std::size_t dropped =
            spans.size() > max_events ? spans.size() - max_events : 0;
        spans.resize(spans.size() - dropped);

        // Greedy lane assignment of root request spans.
        constexpr std::uint32_t kFirstRequestLane = 100;
        std::vector<Clock::time_point> lane_free;
        std::vector<std::uint32_t> lane_of(next_id_.load(), 0);
        for (Span &s : spans) {
            if (s.parent != 0 || std::string(s.name) != "request")
                continue;
            std::size_t l = 0;
            while (l < lane_free.size() && lane_free[l] > s.begin)
                ++l;
            if (l == lane_free.size())
                lane_free.push_back(s.end);
            else
                lane_free[l] = s.end;
            s.lane = kFirstRequestLane + static_cast<std::uint32_t>(l);
            lane_of[s.id] = s.lane;
        }
        for (Span &s : spans)
            if (s.parent != 0 && s.parent < lane_of.size() &&
                lane_of[s.parent] != 0)
                s.lane = lane_of[s.parent];

        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        auto us = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - epoch_)
                .count();
        };
        std::fprintf(f, "{\"traceEvents\": [\n");
        std::fprintf(f,
                     "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
                     "\"args\": {\"name\": \"%s\"}},\n",
                     label.c_str());
        const std::pair<Lane, const char *> named[] = {
            {kMainLane, "main"},
            {kSenderLane, "reads"},
            {kWriterLane, "writes"}};
        for (const auto &lane : named)
            std::fprintf(f,
                         "{\"name\": \"thread_name\", \"ph\": \"M\", "
                         "\"pid\": 1, \"tid\": %u, \"args\": {\"name\": "
                         "\"%s\"}},\n",
                         static_cast<unsigned>(lane.first), lane.second);
        for (std::size_t l = 0; l < lane_free.size(); ++l)
            std::fprintf(f,
                         "{\"name\": \"thread_name\", \"ph\": \"M\", "
                         "\"pid\": 1, \"tid\": %u, \"args\": {\"name\": "
                         "\"requests %zu\"}},\n",
                         static_cast<unsigned>(kFirstRequestLane + l), l);
        for (const Span &s : spans)
            std::fprintf(f,
                         "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"id\": %u, \"parent\": %u, "
                         "\"request\": %llu}},\n",
                         s.name, static_cast<unsigned>(s.lane), us(s.begin),
                         us(s.end) - us(s.begin), static_cast<unsigned>(s.id),
                         static_cast<unsigned>(s.parent),
                         static_cast<unsigned long long>(s.request));
        std::fprintf(f,
                     "{\"name\": \"spans_dropped\", \"ph\": \"i\", \"s\": "
                     "\"g\", \"pid\": 1, \"tid\": %u, \"ts\": 0, \"args\": "
                     "{\"count\": %zu}}\n],\n\"displayTimeUnit\": \"ms\"}\n",
                     static_cast<unsigned>(kMainLane), dropped);
        return std::fclose(f) == 0;
    }

  private:
    const bool enabled_;
    const Clock::time_point epoch_;
    std::atomic<std::uint32_t> next_id_{1};
    std::mutex mutex_;
    std::vector<Span> spans_;
};

} // namespace suite
} // namespace juno

#endif // JUNO_BENCHSUITE_SPANS_H
