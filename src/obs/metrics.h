/**
 * @file
 * Process-wide metrics registry: pull callbacks for counters, gauges,
 * latency summaries and info labels, with Prometheus text exposition
 * and JSON export.
 *
 * The registry owns no instruments. Subsystems that already keep
 * their own counters (ServiceStats, HotListCache::Counters,
 * ResourceUsage) register callbacks (counterCallback()/
 * gaugeCallback()/summaryCallback()/info()) and the registry calls the
 * lambda at export time instead of duplicating state. Registration is
 * RAII: drop the returned handle and the callback is gone, so a
 * stopped service cannot leave dangling lambdas behind.
 *
 * Export never runs callbacks under the registry lock (a callback that
 * itself touches the registry, or a lock held across a slow snapshot,
 * would deadlock or stall recorders).
 */
#ifndef JUNO_OBS_METRICS_H
#define JUNO_OBS_METRICS_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/thread_annotations.h"

namespace juno {

/**
 * Name-keyed metric registry with Prometheus text and JSON export.
 * All methods are thread-safe. Use global() for the process-wide
 * instance; tests can instantiate their own.
 */
class MetricsRegistry {
  public:
    /**
     * RAII callback registration: destruction (or release()) removes
     * the callback. Re-registering the same name replaces the entry;
     * the superseded handle's destruction then no-ops, so handles are
     * safe to hold across service restarts in any order.
     */
    class Registration {
      public:
        Registration() = default;
        Registration(Registration &&other) noexcept { *this = std::move(other); }
        Registration &operator=(Registration &&other) noexcept;
        ~Registration() { release(); }

        Registration(const Registration &) = delete;
        Registration &operator=(const Registration &) = delete;

        /** Unregisters now (idempotent). */
        void release();

      private:
        friend class MetricsRegistry;
        Registration(MetricsRegistry *owner, std::string name,
                     std::uint64_t id)
            : owner_(owner), name_(std::move(name)), id_(id)
        {
        }

        MetricsRegistry *owner_ = nullptr;
        std::string name_;
        std::uint64_t id_ = 0;
    };

    /** The process-wide registry (intentionally leaked singleton). */
    static MetricsRegistry &global();

    /**
     * Pull-mode registration: @p fn runs at every export. The callback
     * must stay valid until the returned Registration is destroyed.
     * Registering an existing name replaces it; an invalid name throws
     * ConfigError.
     */
    Registration counterCallback(const std::string &name,
                                 const std::string &help,
                                 std::function<std::uint64_t()> fn);

    /**
     * Labeled counter callback: registered under the full sample key
     * `name{k="v",...}`, so one metric family can carry several label
     * sets (e.g. juno_serve_shed_total{reason="queue_full"}). Entries
     * of the same family sort adjacently and share one HELP/TYPE block
     * in the Prometheus exposition.
     */
    Registration
    counterCallback(const std::string &name,
                    std::vector<std::pair<std::string, std::string>> labels,
                    const std::string &help,
                    std::function<std::uint64_t()> fn);

    Registration gaugeCallback(const std::string &name,
                               const std::string &help,
                               std::function<double()> fn);
    Registration summaryCallback(const std::string &name,
                                 const std::string &help,
                                 std::function<QuantileSummary()> fn);

    /**
     * Constant info metric: exported as `name{k="v",...} 1` — the
     * Prometheus idiom for build/version metadata.
     */
    Registration
    info(const std::string &name, const std::string &help,
         std::vector<std::pair<std::string, std::string>> labels);

    /** Prometheus text exposition (one HELP/TYPE block per metric). */
    std::string renderPrometheus() const;

    /** One JSON object: metric name -> value or summary object. */
    std::string renderJson() const;

    /** Number of registered metrics. */
    std::size_t size() const;

    /** Drops every entry (tests). Outstanding handles then no-op. */
    void clear();

  private:
    enum class Kind {
        kCounter,
        kGauge,
        kSummary,
        kInfo,
    };

    struct Entry {
        Kind kind = Kind::kCounter;
        std::string help;
        std::uint64_t id = 0;
        std::function<std::uint64_t()> counter_fn;
        std::function<double()> gauge_fn;
        std::function<QuantileSummary()> summary_fn;
        std::vector<std::pair<std::string, std::string>> labels;
    };

    Registration registerCallback(const std::string &name, Entry entry);
    void unregister(const std::string &name, std::uint64_t id);
    /** Copies all entries so export can run callbacks lock-free. */
    std::vector<std::pair<std::string, Entry>> snapshotEntries() const;

    mutable Mutex mutex_;
    std::map<std::string, Entry> entries_ JUNO_GUARDED_BY(mutex_);
    std::uint64_t next_id_ JUNO_GUARDED_BY(mutex_) = 1;
};

} // namespace juno

#endif // JUNO_OBS_METRICS_H
