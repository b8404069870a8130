#include "harness/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"

namespace juno {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Absorbs the gap between the service fulfilling a future and the
 * open-loop client's poll observing it; the service-side marking is
 * exact, so the grace only avoids false late_unmarked positives.
 */
constexpr std::chrono::milliseconds kReapGrace{20};

/** Queries a freshness probe may take to show up before it counts
 * as missed. */
constexpr int kProbeTries = 200;

Clock::duration
toDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/** One submit() call, recorded in @p tally by outcome. */
std::future<ResultList>
submitCounted(SearchService &service, const float *query, idx_t k,
              LoadTally &tally, RejectReason &reason)
{
    reason = RejectReason::kNone;
    auto f = service.submit(query, k, &reason);
    switch (reason) {
      case RejectReason::kNone:
        ++tally.accepted;
        break;
      case RejectReason::kQueueFull:
        ++tally.refused_full;
        break;
      case RejectReason::kExpired:
        ++tally.refused_expired;
        break;
      case RejectReason::kStopped:
        ++tally.refused_stopped;
        break;
    }
    return f;
}

/**
 * Waits for one accepted request and records how it settled. An
 * engine failure is counted, not rethrown: it must fail the gate, not
 * std::terminate the client thread it surfaced in.
 */
std::optional<ResultList>
settle(std::future<ResultList> &f, LoadTally &tally)
{
    try {
        ResultList r = f.get();
        ++tally.completed;
        if (r.degraded)
            ++tally.degraded;
        return r;
    } catch (const RejectedError &) {
        ++tally.shed_in_queue;
    } catch (const std::exception &err) {
        if (tally.errors == 0)
            std::fprintf(stderr, "loadgen: request failed: %s\n",
                         err.what());
        ++tally.errors;
    }
    return std::nullopt;
}

/** Runs @p client(c, tally) on config.clients threads; sums the
 * tallies and times the whole run. */
template <class Client>
LoadTally
runClients(const LoadConfig &config, Client client)
{
    JUNO_REQUIRE(config.clients > 0 && config.queries.rows() > 0,
                 "load needs clients and query rows");
    std::vector<LoadTally> tallies(static_cast<std::size_t>(config.clients));
    Timer timer;
    std::vector<std::thread> threads;
    for (int c = 0; c < config.clients; ++c)
        threads.emplace_back(
            [&, c] { client(c, tallies[static_cast<std::size_t>(c)]); });
    for (auto &t : threads)
        t.join();
    LoadTally total;
    for (const auto &t : tallies)
        total += t;
    total.seconds = timer.seconds();
    return total;
}

} // namespace

double
LoadTally::qps() const
{
    return seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0;
}

LoadTally &
LoadTally::operator+=(const LoadTally &other)
{
    accepted += other.accepted;
    refused_full += other.refused_full;
    refused_expired += other.refused_expired;
    refused_stopped += other.refused_stopped;
    completed += other.completed;
    degraded += other.degraded;
    shed_in_queue += other.shed_in_queue;
    errors += other.errors;
    late_unmarked += other.late_unmarked;
    seconds = std::max(seconds, other.seconds);
    return *this;
}

LoadTally
runClosedLoop(SearchService &service, const LoadConfig &config)
{
    JUNO_REQUIRE(config.window > 0, "closed loop needs a window");
    const auto clients = static_cast<std::uint64_t>(config.clients);
    const auto t_end = config.seconds > 0.0
                           ? Clock::now() + toDuration(config.seconds)
                           : Clock::time_point::max();
    auto stopped = [&] {
        return config.stop != nullptr && config.stop->load();
    };
    return runClients(config, [&](int c, LoadTally &tally) {
        const FloatMatrixView &queries = config.queries;
        // Spread the remainder so exactly config.requests are
        // submitted (integer division alone would drop
        // requests % clients, or everything when requests < clients).
        const auto uc = static_cast<std::uint64_t>(c);
        const std::uint64_t mine =
            config.requests == 0
                ? std::numeric_limits<std::uint64_t>::max()
                : config.requests / clients +
                      (uc < config.requests % clients ? 1 : 0);
        std::deque<std::future<ResultList>> inflight;
        idx_t qi = static_cast<idx_t>(c) % queries.rows();
        for (std::uint64_t i = 0; i < mine; ++i) {
            if (stopped() || Clock::now() >= t_end)
                break;
            if (inflight.size() >= static_cast<std::size_t>(config.window)) {
                settle(inflight.front(), tally);
                inflight.pop_front();
            }
            RejectReason reason;
            auto f = submitCounted(service, queries.row(qi), config.k,
                                   tally, reason);
            while (reason == RejectReason::kQueueFull && service.running() &&
                   !stopped()) {
                std::this_thread::yield();
                f = submitCounted(service, queries.row(qi), config.k, tally,
                                  reason);
            }
            qi = (qi + 1) % queries.rows();
            if (reason == RejectReason::kNone)
                inflight.push_back(std::move(f));
        }
        for (auto &f : inflight)
            settle(f, tally);
    });
}

LoadTally
runOpenLoop(SearchService &service, const LoadConfig &config)
{
    JUNO_REQUIRE(config.rate > 0.0 && config.seconds > 0.0,
                 "open loop needs a rate and a duration");
    const double per_client_rate =
        config.rate / static_cast<double>(config.clients);
    const double deadline_ms = service.config().default_deadline_ms;
    const auto budget = toDuration(deadline_ms / 1000.0);
    const auto t_end = Clock::now() + toDuration(config.seconds);
    return runClients(config, [&](int c, LoadTally &tally) {
        const FloatMatrixView &queries = config.queries;
        struct Pending {
            std::future<ResultList> f;
            Clock::time_point deadline;
        };
        std::deque<Pending> pending;
        auto reapFront = [&] {
            Pending &p = pending.front();
            const auto r = settle(p.f, tally);
            if (r && !r->degraded && deadline_ms > 0.0 &&
                Clock::now() > p.deadline + kReapGrace)
                ++tally.late_unmarked;
            pending.pop_front();
        };
        Rng rng(0xC0FFEE + static_cast<std::uint64_t>(c));
        idx_t qi = static_cast<idx_t>(c) % queries.rows();
        auto next = Clock::now();
        while (true) {
            // Exponential gaps make each client a Poisson process; the
            // superposition is Poisson at config.rate.
            next += toDuration(-std::log(1.0 - rng.uniform()) /
                               per_client_rate);
            if (next >= t_end)
                break;
            std::this_thread::sleep_until(next);
            RejectReason reason;
            auto f = submitCounted(service, queries.row(qi), config.k,
                                   tally, reason);
            qi = (qi + 1) % queries.rows();
            if (reason == RejectReason::kNone)
                pending.push_back({std::move(f), Clock::now() + budget});
            while (!pending.empty() &&
                   pending.front().f.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready)
                reapFront();
        }
        // Final drain: poll at 1 ms so even the tail's observed ready
        // times stay well inside the grace.
        while (!pending.empty()) {
            while (pending.front().f.wait_for(std::chrono::milliseconds(
                       1)) != std::future_status::ready) {
            }
            reapFront();
        }
    });
}

ResultList
submitAndWait(SearchService &service, const float *query, idx_t k,
              LoadTally &tally)
{
    RejectReason reason;
    auto f = submitCounted(service, query, k, tally, reason);
    if (reason != RejectReason::kNone)
        return {};
    return settle(f, tally).value_or(ResultList{});
}

PacedWriter::PacedWriter(SearchService &service, FloatMatrixView base,
                         const WriterConfig &config)
    : service_(service), base_(base), config_(config)
{
    JUNO_REQUIRE(config_.insert_rate >= 0.0 && config_.delete_rate >= 0.0,
                 "write rates must be >= 0");
    JUNO_REQUIRE(config_.probe_every == 0 || config_.probes.rows() > 0,
                 "freshness probes need probe vectors");
    if (config_.insert_rate > 0.0 || config_.delete_rate > 0.0)
        thread_ = std::thread([this] { run(); });
}

PacedWriter::~PacedWriter()
{
    finish();
}

WriterResult
PacedWriter::finish()
{
    stop_.store(true);
    if (thread_.joinable())
        thread_.join();
    return result_;
}

void
PacedWriter::run()
{
    WriterResult &w = result_;
    std::deque<idx_t> mine;
    idx_t next_id = base_.rows() + 1000000;
    idx_t probe_row = 0;
    const auto start = Clock::now();
    double ins_due = 0.0, del_due = 0.0;
    while (!stop_.load()) {
        const double t =
            std::chrono::duration<double>(Clock::now() - start).count();
        bool worked = false;
        if (config_.insert_rate > 0.0 && t >= ins_due) {
            const bool probe = config_.probe_every > 0 &&
                               w.inserts % static_cast<std::uint64_t>(
                                               config_.probe_every) ==
                                   0;
            const float *vec = probe ? config_.probes.row(probe_row)
                                     : base_.row(next_id % base_.rows());
            Timer lag;
            if (service_.insert(vec, next_id) == MutateStatus::kOk) {
                mine.push_back(next_id);
                ++w.inserts;
                if (probe) {
                    ++w.probes;
                    bool seen = false;
                    for (int tries = 0; tries < kProbeTries && !seen;
                         ++tries)
                        for (const Neighbor &n : submitAndWait(
                                 service_, vec, config_.k, w.reads))
                            seen = seen || n.id == next_id;
                    if (seen)
                        w.lag_us.add(lag.micros());
                    else
                        ++w.probes_missed;
                    probe_row = (probe_row + 1) % config_.probes.rows();
                }
            } else {
                ++w.rejected;
            }
            ++next_id;
            ins_due += 1.0 / config_.insert_rate;
            worked = true;
        }
        if (config_.delete_rate > 0.0 && t >= del_due) {
            if (!mine.empty()) {
                if (service_.remove(mine.front()) == MutateStatus::kOk)
                    ++w.removes;
                mine.pop_front();
                worked = true;
            }
            // An empty backlog still consumes the tick, or a delete
            // burst would fire the moment inserts land.
            del_due += 1.0 / config_.delete_rate;
        }
        if (!worked)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

Conservation
checkConservation(const ServiceStats::Snapshot &snap, const LoadTally &tally)
{
    using ull = unsigned long long;
    const bool settled =
        snap.submitted == snap.completed + snap.failed + snap.expired;
    const bool door = tally.accepted == snap.submitted &&
                      tally.refused_full == snap.rejected_full &&
                      tally.refused_expired == snap.rejected_expired &&
                      tally.refused_stopped == snap.rejected_stopped;
    const bool seen = tally.completed == snap.completed &&
                      tally.degraded == snap.degraded &&
                      tally.shed_in_queue == snap.expired;
    const bool clean = snap.failed == 0 && tally.errors == 0;

    Conservation result;
    result.ok = settled && door && seen && clean;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "conservation: submitted=%llu completed=%llu failed=%llu "
                  "expired=%llu rejected_full=%llu rejected_expired=%llu "
                  "rejected_stopped=%llu ",
                  static_cast<ull>(snap.submitted),
                  static_cast<ull>(snap.completed),
                  static_cast<ull>(snap.failed),
                  static_cast<ull>(snap.expired),
                  static_cast<ull>(snap.rejected_full),
                  static_cast<ull>(snap.rejected_expired),
                  static_cast<ull>(snap.rejected_stopped));
    result.line = buf;
    if (result.ok) {
        result.line += "OK";
        return result;
    }
    std::snprintf(buf, sizeof buf,
                  "VIOLATION (clients: accepted=%llu refused "
                  "full/expired/stopped=%llu/%llu/%llu completed=%llu "
                  "degraded=%llu (service %llu) shed_in_queue=%llu "
                  "errors=%llu)",
                  static_cast<ull>(tally.accepted),
                  static_cast<ull>(tally.refused_full),
                  static_cast<ull>(tally.refused_expired),
                  static_cast<ull>(tally.refused_stopped),
                  static_cast<ull>(tally.completed),
                  static_cast<ull>(tally.degraded),
                  static_cast<ull>(snap.degraded),
                  static_cast<ull>(tally.shed_in_queue),
                  static_cast<ull>(tally.errors));
    result.line += buf;
    return result;
}

} // namespace juno
