/**
 * @file
 * The load generator of the serving harnesses (bench_serve,
 * bench_live, juno_cli serve): closed- and open-loop read clients, a
 * paced insert/delete writer, and the conservation gate that
 * reconciles what the clients observed with the service's counters.
 *
 * Every entry point drives a SearchService the caller owns and has
 * started; none starts or stops it. Each client thread keeps its own
 * LoadTally and a run returns their sum, so clients share no counters
 * on the hot path. Take the service snapshot for checkConservation()
 * after stop(): the drain is what makes the service's counters final.
 */
#ifndef JUNO_HARNESS_LOADGEN_H
#define JUNO_HARNESS_LOADGEN_H

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/matrix.h"
#include "common/stats.h"
#include "serve/search_service.h"

namespace juno {

/** What the clients of a run observed, summed over their threads. */
struct LoadTally {
    /** submit() calls by outcome: accepted, or refused by reason. */
    std::uint64_t accepted = 0;
    std::uint64_t refused_full = 0;
    std::uint64_t refused_expired = 0;
    std::uint64_t refused_stopped = 0;
    /** How the accepted requests settled at future.get(). */
    std::uint64_t completed = 0; ///< delivered a result
    std::uint64_t degraded = 0;  ///< ... flagged ResultList::degraded
    /** RejectedError at get(): accepted, then expired in the queue. */
    std::uint64_t shed_in_queue = 0;
    /** Any other exception at get() (an engine failure). */
    std::uint64_t errors = 0;
    /**
     * Open loop against a service with a default deadline: results
     * observed past that deadline plus a reap grace that were not
     * flagged degraded. The service's contract keeps this at zero.
     */
    std::uint64_t late_unmarked = 0;
    /** Wall-clock seconds of the run, final drain included. */
    double seconds = 0.0;

    std::uint64_t
    attempts() const
    {
        return accepted + refused_full + refused_expired +
               refused_stopped;
    }

    /** Completions per second of wall clock. */
    double qps() const;

    /** Sums the counters; seconds becomes the longer of the two. */
    LoadTally &operator+=(const LoadTally &other);
};

/** The read traffic of one run. */
struct LoadConfig {
    /** Request rows; client c starts at row c % rows and cycles. */
    FloatMatrixView queries;
    idx_t k = 10;
    int clients = 1;
    /** Closed loop: requests each client keeps in flight. */
    int window = 1;
    /**
     * Closed loop: submits across all clients (0 = no cap), the
     * remainder of requests / clients going to the first clients.
     */
    std::uint64_t requests = 0;
    /** Closed loop: wall-clock cap (0 = none). Open loop: how long
     * arrivals run. */
    double seconds = 0.0;
    /** Open loop: offered requests per second across all clients. */
    double rate = 0.0;
    /** Closed loop: clients stop submitting once this is set (e.g. by
     * a signal handler) and drain what they have in flight. */
    const std::atomic<bool> *stop = nullptr;
};

/**
 * Closed loop: each client keeps at most config.window requests in
 * flight and submits the next as the oldest settles, until the
 * request count, the time cap or the stop flag ends it. A kQueueFull
 * refusal is backpressure: the client yields and resubmits the same
 * query while the service runs.
 */
LoadTally runClosedLoop(SearchService &service, const LoadConfig &config);

/**
 * Open loop: Poisson arrivals at config.rate for config.seconds,
 * split evenly over config.clients, which never wait for completions
 * before the next arrival. Refused submits are counted by reason and
 * not retried; settled futures are reaped after every arrival, so
 * observed completion times track the real ones (late_unmarked).
 */
LoadTally runOpenLoop(SearchService &service, const LoadConfig &config);

/**
 * One query outside a loop (freshness probes and gates), recorded in
 * @p tally like a client's. Returns the result, or an empty list when
 * the request was refused or failed.
 */
ResultList submitAndWait(SearchService &service, const float *query,
                         idx_t k, LoadTally &tally);

/** The write traffic of a PacedWriter. */
struct WriterConfig {
    /** Inserts per second (0 = none), recycling base rows under
     * fresh ids. */
    double insert_rate = 0.0;
    /** Deletes per second (0 = none) of ids this writer inserted. */
    double delete_rate = 0.0;
    /**
     * Every probe_every-th insert is a freshness probe (0 = none):
     * the next row of probes, queried until its id shows up in the
     * top-k and timed from the insert.
     */
    idx_t probe_every = 0;
    /** Probe vectors, each its own unique nearest neighbour. */
    FloatMatrixView probes;
    /** The top-k a probe must appear in. */
    idx_t k = 10;
};

/** What a PacedWriter did. */
struct WriterResult {
    std::uint64_t inserts = 0;
    std::uint64_t removes = 0;
    /** Mutations the service refused (kBufferFull backpressure). */
    std::uint64_t rejected = 0;
    std::uint64_t probes = 0;
    /** Probes never seen within 200 queries: a freshness bug. */
    std::uint64_t probes_missed = 0;
    /** Insert-to-first-visible-query latency of the seen probes. */
    QuantileSketch lag_us;
    /** The probes' queries, for checkConservation(). */
    LoadTally reads;
};

/**
 * A writer thread pacing inserts and deletes against a live service
 * from construction until finish(). It deletes only ids it inserted
 * itself, oldest first, so the readers' ground set never shrinks.
 * With both rates 0 no thread starts.
 */
class PacedWriter {
  public:
    PacedWriter(SearchService &service, FloatMatrixView base,
                const WriterConfig &config);
    ~PacedWriter();

    PacedWriter(const PacedWriter &) = delete;
    PacedWriter &operator=(const PacedWriter &) = delete;

    /** Stops and joins the writer; returns what it did. */
    WriterResult finish();

  private:
    void run();

    SearchService &service_;
    FloatMatrixView base_;
    const WriterConfig config_;
    std::atomic<bool> stop_{false};
    /** Written by the writer thread only, read after the join. */
    WriterResult result_;
    std::thread thread_;
};

/** checkConservation()'s verdict and its one-line report. */
struct Conservation {
    bool ok = false;
    /** "conservation: submitted=... OK" (or "... VIOLATION (...)"). */
    std::string line;
};

/**
 * The serving harnesses' conservation gate over a drained service:
 * every accepted request settled once (submitted == completed +
 * failed + expired); every submit the clients made is an accept or a
 * refusal the service counted under the same reason; the clients saw
 * as many results, degraded results and in-queue sheds as the service
 * reports; and no request failed. @p tally must cover every request
 * submitted to the service.
 */
Conservation checkConservation(const ServiceStats::Snapshot &snap,
                               const LoadTally &tally);

} // namespace juno

#endif // JUNO_HARNESS_LOADGEN_H
