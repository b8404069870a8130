/**
 * @file
 * The open-loop load generator of the service workloads: sender
 * threads issue a precomputed schedule of reads and live mutations at
 * their due times whatever the service does, and one collector thread
 * observes every read's result in submission (FIFO) order.
 *
 * Latency runs from a request's *due* time to the moment the collector
 * observes its result, so a stall also charges the requests scheduled
 * behind it. FIFO observation means a result that completes early
 * behind a slower one is observed late: with several dispatchers this
 * is a pessimistic bound, never an optimistic one.
 */
#ifndef JUNO_BENCHSUITE_OPENLOOP_H
#define JUNO_BENCHSUITE_OPENLOOP_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/stats.h"
#include "serve/search_service.h"
#include "suite/spans.h"
#include "suite/stats.h"

namespace juno {
namespace suite {

/** One scheduled operation. */
struct Op {
    enum class Kind : std::uint8_t { kRead, kInsert, kRemove };
    double due = 0.0; ///< seconds after the loop starts
    Kind kind = Kind::kRead;
    idx_t row = 0;      ///< read: pool row; insert: insert-vector row
    bool probe = false; ///< insert followed by a freshness probe
    bool window = false; ///< inside the measured window (not warm-up)
};

/** Fixed rates of one open loop (operations per second). */
struct Rates {
    double read = 0.0;
    double insert = 0.0;
    double remove = 0.0;
    int probe_every = 10;
};

/**
 * The whole schedule of a run: @p warmup seconds at the window's rates,
 * then the @p window seconds that are measured. Reads walk a seeded
 * permutation of the @p pool rows, so every pool query is served once
 * before any repeats.
 */
inline std::vector<Op>
makeSchedule(const Rates &rates, double warmup, double window, idx_t pool,
             Rng &rng)
{
    std::vector<Op> ops;
    std::vector<idx_t> order(static_cast<std::size_t>(pool));
    for (idx_t i = 0; i < pool; ++i)
        order[static_cast<std::size_t>(i)] = i;
    rng.shuffle(order);
    std::size_t next_read = 0;
    idx_t next_insert = 0;
    auto add = [&](Op::Kind kind, double rate) {
        if (rate <= 0.0)
            return;
        // Removes start after a short lead, once inserted ids exist.
        const double lead = kind == Op::Kind::kRemove ? 0.25 : 0.0;
        for (const bool in_window : {false, true}) {
            const double offset = in_window ? warmup : lead;
            for (const double t : arrivalSchedule(
                     rate, in_window ? window : warmup - lead, rng)) {
                Op op;
                op.due = offset + t;
                op.kind = kind;
                op.window = in_window;
                ops.push_back(op);
            }
        }
    };
    add(Op::Kind::kRead, rates.read);
    add(Op::Kind::kInsert, rates.insert);
    add(Op::Kind::kRemove, rates.remove);
    std::stable_sort(ops.begin(), ops.end(),
                     [](const Op &a, const Op &b) { return a.due < b.due; });
    for (Op &op : ops) {
        if (op.kind == Op::Kind::kRead) {
            op.row = order[next_read++ % order.size()];
        } else if (op.kind == Op::Kind::kInsert) {
            op.row = next_insert++;
            op.probe = rates.probe_every > 0 && op.row % rates.probe_every == 0;
        }
    }
    return ops;
}

/** Number of insert-vector rows a schedule consumes. */
inline idx_t
insertsIn(const std::vector<Op> &ops)
{
    idx_t n = 0;
    for (const Op &op : ops)
        n += op.kind == Op::Kind::kInsert ? 1 : 0;
    return n;
}

/** What one open-loop run observed. */
struct LoopResult {
    // Reads of the measured window.
    std::vector<Sample> latency; ///< due -> observed, stamped by due time
    std::uint64_t window_sent = 0;
    std::uint64_t window_done = 0;
    double window_elapsed_s = 0.0; ///< to the last window read observed
    double request_mean_ms = 0.0;
    // Whole run.
    std::uint64_t attempted = 0; ///< reads + probes + mutations issued
    std::uint64_t submitted = 0; ///< reads + probes the benchmark submitted
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0; ///< refused at submit
    std::uint64_t errors = 0;   ///< futures carrying an exception
    std::uint64_t mutate_failed = 0;
    QuantileSketch late_ms;       ///< read sender lateness, window reads
    QuantileSketch write_late_ms; ///< write sender lateness, window writes
    /** First served result per pool row (empty until served). */
    std::vector<ResultList> first;
    std::vector<std::uint8_t> served;
    /** The first served reads in order: (pool row, result). */
    std::vector<std::pair<idx_t, ResultList>> early;
    // Live workload.
    std::uint64_t inserts = 0, removes = 0, probes = 0, probes_missed = 0;
    std::uint64_t deleted_returned = 0;
    QuantileSketch lag_ms;     ///< insert ack -> first probe returning it
    QuantileSketch insert_us;  ///< window inserts
    QuantileSketch remove_us;  ///< window removes
    RunningStat fresh_rows;    ///< sampled every 100 ms
    RunningStat tombstones;
    /** Inserted ids still live at the end, with their vector rows. */
    std::vector<std::pair<idx_t, idx_t>> live_inserts;
};

namespace detail {

/**
 * Sleeps until shortly before @p due, then yields until it arrives.
 * Spinning only the last stretch matters when every core is busy: the
 * scheduler favours a thread waking from sleep over one that has been
 * spinning, so a spinning sender would fall behind exactly under load.
 */
inline void
waitUntil(Clock::time_point due)
{
    constexpr auto kSpin = std::chrono::microseconds(200);
    for (Clock::time_point now = Clock::now(); now < due;
         now = Clock::now()) {
        if (due - now > kSpin)
            std::this_thread::sleep_until(due - kSpin);
        else
            std::this_thread::yield();
    }
}

inline Clock::time_point
at(Clock::time_point start, double offset_s)
{
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
}

inline double
ms(Clock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

} // namespace detail

/**
 * Runs @p ops against a started @p service. Reads are sent from the
 * calling thread; live mutations (and the probe read after a probed
 * insert) from a second sender thread, so a mutation that waits for
 * the index's writer lock does not delay the reads scheduled after it.
 * Insert vectors are rows of @p insert_vectors under ids id_base + row.
 * A probe's query is the vector just inserted: the new id is its own
 * exact nearest neighbour, so it must appear in the result.
 */
inline LoopResult
runOpenLoop(SearchService &service, const std::vector<Op> &ops,
            FloatMatrixView pool, FloatMatrixView insert_vectors,
            idx_t id_base, double warmup, idx_t k, std::size_t early_count,
            SpanLog &spans)
{
    using detail::ms;
    struct Pending {
        std::future<ResultList> future;
        Clock::time_point due;
        idx_t row = 0;
        bool window = false;
        idx_t probe_id = -1; ///< >= 0: freshness probe for this id
        Clock::time_point acked;
        const float *probe_vec = nullptr;
        std::uint64_t deletes_seen = 0;
        std::uint32_t span = 0;
        std::uint64_t request = 0;
    };
    /** Submission counts of one sending thread. */
    struct Tally {
        std::uint64_t attempted = 0, submitted = 0, accepted = 0, rejected = 0;
    };

    LoopResult out;
    out.first.resize(static_cast<std::size_t>(pool.rows()));
    out.served.assign(static_cast<std::size_t>(pool.rows()), 0);

    // Sender -> collector channel. The collector mostly blocks in
    // future.get(), so it is only signalled when it waits on the channel.
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool done_sending = false;
    bool collector_waiting = false;
    auto push = [&](Pending p) {
        bool wake = false;
        {
            std::lock_guard<std::mutex> lock(mutex);
            queue.push_back(std::move(p));
            wake = collector_waiting;
        }
        if (wake)
            cv.notify_one();
    };

    // Deleted ids with the sequence number of their delete; a read
    // submitted after delete s was acknowledged may not return its id.
    std::mutex deletes_mutex;
    std::unordered_map<idx_t, std::uint64_t> deleted_seq;
    std::atomic<std::uint64_t> deletes_acked{0};
    std::atomic<std::uint64_t> request_ids{0};

    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(5);
    const Clock::time_point window_start = detail::at(start, warmup);

    auto submitRead = [&](const float *vec, Pending p, Tally &t,
                          std::uint32_t lane) {
        p.request = request_ids.fetch_add(1) + 1;
        p.span = spans.newId();
        p.deletes_seen = deletes_acked.load();
        RejectReason reason = RejectReason::kNone;
        const Clock::time_point t0 = Clock::now();
        p.future = service.submit(vec, k, &reason);
        spans.add("submit", t0, Clock::now(), p.span, p.request, lane);
        ++t.submitted;
        if (reason != RejectReason::kNone) {
            ++t.rejected;
            return;
        }
        ++t.accepted;
        push(std::move(p));
    };

    // The writer and the collector are stopped and joined on every path
    // out of this function, before the state they share goes away.
    std::thread writer, collector;
    auto finish = [&] {
        if (writer.joinable())
            writer.join();
        {
            std::lock_guard<std::mutex> lock(mutex);
            done_sending = true;
        }
        cv.notify_one();
        if (collector.joinable())
            collector.join();
    };
    struct Finally {
        decltype(finish) &f;
        ~Finally() { f(); }
    } finally{finish};

    Tally reprobes; // collector-side submits
    auto collect = [&] {
        Clock::time_point last_window_obs = window_start;
        double request_sum_ms = 0.0;
        std::deque<Pending> local;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                while (queue.empty() && !done_sending) {
                    collector_waiting = true;
                    cv.wait(lock);
                    collector_waiting = false;
                }
                if (queue.empty())
                    break;
                local.swap(queue);
            }
            while (!local.empty()) {
                Pending p = std::move(local.front());
                local.pop_front();
                ResultList result;
                try {
                    result = p.future.get();
                } catch (const std::exception &) {
                    ++out.errors;
                    continue;
                }
                const Clock::time_point obs = Clock::now();
                spans.add("request", p.due, obs, 0, p.request, kMainLane,
                          p.span);
                // Ids this benchmark inserted and deleted before the
                // read was submitted must never come back.
                for (const Neighbor &nb : result) {
                    if (nb.id < id_base)
                        continue;
                    std::lock_guard<std::mutex> lock(deletes_mutex);
                    const auto it = deleted_seq.find(nb.id);
                    if (it != deleted_seq.end() && it->second <= p.deletes_seen)
                        ++out.deleted_returned;
                }
                if (p.probe_id >= 0) {
                    bool seen = false;
                    for (const Neighbor &nb : result)
                        seen = seen || nb.id == p.probe_id;
                    if (seen) {
                        if (p.window)
                            out.lag_ms.add(ms(obs - p.acked));
                        spans.add("probe", p.acked, obs, 0, p.request);
                    } else if (obs - p.acked < std::chrono::seconds(1)) {
                        // Not visible yet: probe again behind what is queued.
                        Pending again;
                        RejectReason reason = RejectReason::kNone;
                        again.future = service.submit(p.probe_vec, k, &reason);
                        ++reprobes.submitted;
                        if (reason != RejectReason::kNone) {
                            ++reprobes.rejected;
                            continue;
                        }
                        ++reprobes.accepted;
                        again.due = obs;
                        again.probe_id = p.probe_id;
                        again.acked = p.acked;
                        again.probe_vec = p.probe_vec;
                        again.window = p.window;
                        again.deletes_seen = deletes_acked.load();
                        local.push_back(std::move(again));
                    } else {
                        ++out.probes_missed;
                    }
                    continue;
                }
                const auto row = static_cast<std::size_t>(p.row);
                if (!out.served[row]) {
                    out.served[row] = 1;
                    out.first[row] = result;
                }
                if (out.early.size() < early_count)
                    out.early.emplace_back(p.row, result);
                if (p.window) {
                    const double lat = ms(obs - p.due);
                    out.latency.push_back(
                        {std::chrono::duration<double>(p.due - window_start)
                             .count(),
                         lat});
                    request_sum_ms += lat;
                    ++out.window_done;
                    last_window_obs = obs;
                }
            }
        }
        out.window_elapsed_s =
            std::chrono::duration<double>(last_window_obs - window_start)
                .count();
        out.request_mean_ms =
            out.window_done > 0 ? request_sum_ms / out.window_done : 0.0;
    };
    collector = std::thread([&] {
        try {
            collect();
        } catch (const std::exception &) {
            ++out.errors; // the run fails its checks
        }
    });

    // The write sender: inserts, probes and removes, plus the live
    // statistics sampled every 100 ms.
    Tally writes;
    std::deque<std::pair<idx_t, idx_t>> removable; // (id, row), oldest first
    std::vector<std::pair<idx_t, idx_t>> probe_ids;
    auto writeLoop = [&] {
        Clock::time_point next_sample = start;
        for (const Op &op : ops) {
            if (op.kind == Op::Kind::kRead)
                continue;
            const Clock::time_point due = detail::at(start, op.due);
            detail::waitUntil(due);
            const Clock::time_point sent = Clock::now();
            if (op.window)
                out.write_late_ms.add(ms(sent - due));
            if (sent >= next_sample) {
                const LiveStats ls = service.liveStats();
                out.fresh_rows.add(static_cast<double>(ls.fresh_rows));
                out.tombstones.add(static_cast<double>(ls.tombstones));
                next_sample = sent + std::chrono::milliseconds(100);
            }
            ++writes.attempted;
            const bool insert = op.kind == Op::Kind::kInsert;
            if (!insert && removable.empty()) {
                ++out.mutate_failed;
                continue;
            }
            const idx_t id =
                insert ? id_base + op.row : removable.front().first;
            const Clock::time_point t0 = Clock::now();
            const MutateStatus st =
                insert ? service.insert(insert_vectors.row(op.row), id)
                       : service.remove(id);
            const Clock::time_point t1 = Clock::now();
            const double us =
                std::chrono::duration<double, std::micro>(t1 - t0).count();
            if (!insert) {
                spans.add("remove", t0, t1, 0, 0, kWriterLane);
                removable.pop_front();
                if (st != MutateStatus::kOk) {
                    ++out.mutate_failed;
                    continue;
                }
                {
                    std::lock_guard<std::mutex> lock(deletes_mutex);
                    deleted_seq[id] = deletes_acked.load() + 1;
                }
                deletes_acked.fetch_add(1);
                ++out.removes;
                if (op.window)
                    out.remove_us.add(us);
                continue;
            }
            spans.add("insert", t0, t1, 0, 0, kWriterLane);
            if (st != MutateStatus::kOk) {
                ++out.mutate_failed;
                continue;
            }
            ++out.inserts;
            if (op.window)
                out.insert_us.add(us);
            if (!op.probe) {
                removable.emplace_back(id, op.row);
                continue;
            }
            // Probe ids are never deleted, so a probe cannot race its
            // own id's removal.
            probe_ids.emplace_back(id, op.row);
            ++out.probes;
            Pending p;
            p.due = due;
            p.probe_id = id;
            p.acked = t1;
            p.probe_vec = insert_vectors.row(op.row);
            p.window = op.window;
            submitRead(p.probe_vec, std::move(p), writes, kWriterLane);
        }
    };
    if (service.liveEnabled())
        writer = std::thread([&] {
            try {
                writeLoop();
            } catch (const std::exception &) {
                ++out.mutate_failed; // the run fails its checks
            }
        });

    // The read sender: this thread.
    Tally reads;
    for (const Op &op : ops) {
        if (op.kind != Op::Kind::kRead)
            continue;
        const Clock::time_point due = detail::at(start, op.due);
        detail::waitUntil(due);
        if (op.window) {
            out.late_ms.add(ms(Clock::now() - due));
            ++out.window_sent;
        }
        ++reads.attempted;
        Pending p;
        p.due = due;
        p.row = op.row;
        p.window = op.window;
        submitRead(pool.row(op.row), std::move(p), reads, kSenderLane);
    }
    finish();

    for (const Tally *t : {&reads, &writes, &reprobes}) {
        out.attempted += t->attempted;
        out.submitted += t->submitted;
        out.accepted += t->accepted;
        out.rejected += t->rejected;
    }
    out.live_inserts.assign(removable.begin(), removable.end());
    out.live_inserts.insert(out.live_inserts.end(), probe_ids.begin(),
                            probe_ids.end());
    return out;
}

} // namespace suite
} // namespace juno

#endif // JUNO_BENCHSUITE_OPENLOOP_H
